"""Hypothesis property tests on core invariants of the arithmetic substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic import (
    ADDER_CELLS,
    MULTIPLIER_CELLS,
    RippleCarryAdder,
    adder_cell,
    compiled_add,
    compiled_multiply,
    compiled_multiply_unsigned,
    multiplier_cell,
)

adder_cells = st.sampled_from(sorted(ADDER_CELLS))
mult_cells = st.sampled_from(sorted(MULTIPLIER_CELLS))
int16 = st.integers(min_value=-(2**15), max_value=2**15 - 1)
uint16 = st.integers(min_value=0, max_value=2**16 - 1)


class TestAdderInvariants:
    @given(int16, int16, st.integers(0, 32), adder_cells)
    @settings(max_examples=80, deadline=None)
    def test_result_always_in_word_range(self, a, b, k, cell_name):
        adder = RippleCarryAdder(32, k, adder_cell(cell_name))
        result = adder.add(a, b)
        assert -(2**31) <= result < 2**31

    @given(int16, st.integers(0, 16), adder_cells)
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_compiled_agree_on_identical_operands(self, a, k, cell_name):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(20, k, cell).add(a, a)
        compiled = int(compiled_add(np.array([a]), np.array([a]), 20, k, cell)[0])
        assert scalar == compiled

    @given(int16, int16, st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_approximation_error_monotone_bound(self, a, b, k):
        """The error bound grows with k; any k-approximation stays within it."""
        cell = adder_cell("ApproxAdd5")
        adder = RippleCarryAdder(20, k, cell)
        assert abs(adder.add(a, b) - (a + b)) <= adder.max_error_bound()

    @given(int16, int16, adder_cells)
    @settings(max_examples=60, deadline=None)
    def test_zero_lsbs_always_exact(self, a, b, cell_name):
        adder = RippleCarryAdder(20, 0, adder_cell(cell_name))
        assert adder.add(a, b) == a + b

    @given(st.integers(0, 2**19 - 1), st.integers(0, 16), adder_cells)
    @settings(max_examples=60, deadline=None)
    def test_adding_zero_b_with_exact_cells_is_identity(self, a, k, cell_name):
        """x + 0 == x whenever the deployed cell has an exact carry chain."""
        cell = adder_cell(cell_name)
        if cell.cout_errors or cell.sum_errors:
            # Only the exact cell guarantees the identity; skip others.
            return
        adder = RippleCarryAdder(20, k, cell)
        assert adder.add(a, 0) == a


class TestMultiplierInvariants:
    @given(uint16, uint16, st.integers(0, 32), mult_cells, adder_cells)
    @settings(max_examples=40, deadline=None)
    def test_product_always_fits_in_product_width(self, a, b, k, mult_name, add_name):
        product = int(
            compiled_multiply_unsigned(
                np.array([a]), np.array([b]), 16, k,
                multiplier_cell(mult_name), adder_cell(add_name)
            )[0]
        )
        assert 0 <= product < 2**32

    @given(int16, int16, st.integers(0, 32), mult_cells)
    @settings(max_examples=40, deadline=None)
    def test_sign_magnitude_symmetry(self, a, b, k, mult_name):
        """|a x b| is independent of operand signs (sign-magnitude wrapper)."""
        mult = multiplier_cell(mult_name)
        add5 = adder_cell("ApproxAdd5")
        base = abs(int(compiled_multiply(np.array([a]), np.array([b]), 16, k, mult, add5)[0]))
        flipped = abs(int(compiled_multiply(np.array([-a]), np.array([b]), 16, k, mult, add5)[0]))
        assert base == flipped

    @given(uint16, st.integers(0, 32), mult_cells, adder_cells)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_by_zero_is_zero(self, a, k, mult_name, add_name):
        product = int(
            compiled_multiply_unsigned(
                np.array([a]), np.array([0]), 16, k,
                multiplier_cell(mult_name), adder_cell(add_name)
            )[0]
        )
        if adder_cell(add_name).name == "ApproxAdd5" or adder_cell(add_name).is_exact:
            # Pass-through and exact accumulation both preserve the zero
            # partial products exactly.
            assert product == 0
        else:
            # Other cells may inject a bounded error in the approximated region.
            assert product < 2 ** (min(k, 32) + 3)

    @given(uint16, uint16)
    @settings(max_examples=40, deadline=None)
    def test_accurate_cells_give_exact_product_regardless_of_k(self, a, b):
        product = int(
            compiled_multiply_unsigned(
                np.array([a]), np.array([b]), 16, 32,
                multiplier_cell("AccMult"), adder_cell("Accurate")
            )[0]
        )
        assert product == a * b

    @given(uint16, uint16, st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_error_shrinks_to_zero_as_k_reaches_zero(self, a, b, k):
        mult = multiplier_cell("AppMultV1")
        add5 = adder_cell("ApproxAdd5")
        err_k = abs(int(compiled_multiply_unsigned(
            np.array([a]), np.array([b]), 16, k, mult, add5)[0]) - a * b)
        err_0 = abs(int(compiled_multiply_unsigned(
            np.array([a]), np.array([b]), 16, 0, mult, add5)[0]) - a * b)
        assert err_0 == 0
        assert err_k < (1 << (k + 3)) or k == 0

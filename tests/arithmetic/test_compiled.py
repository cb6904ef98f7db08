"""Cross-validation of the compiled LUT engine against the scalar models.

The compiled engine (:mod:`repro.arithmetic.compiled`) replaces per-bit
Python iteration with word-parallel adds and precompiled product/constant
LUTs; these tests prove it bit-identical to the scalar reference hardware
models — exhaustively over small operand domains (every adder width up to 8
bits at every budget, the full 8-bit domain for the paper's multiplier
cells), on a seeded 8-bit sample for every multiplier pairing, for arbitrary
adder truth tables, and property-tested at the paper's full 16/32-bit
datapath widths — and exercise the process-wide single-flight table
registry.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arithmetic import (
    ADDER_CELLS,
    MULTIPLIER_CELLS,
    FullAdderCell,
    RecursiveMultiplier,
    RippleCarryAdder,
    adder_cell,
    compiled_add,
    compiled_multiply,
    compiled_multiply_constant,
    compiled_multiply_unsigned,
    compiled_square,
    compiled_subtract,
    multiplier_cell,
    prewarm_tables,
    registry_info,
    to_signed_array,
)
from repro.arithmetic.compiled import _LUT_COMPILE_SECONDS, _REGISTRY

adder_cells = st.sampled_from(sorted(ADDER_CELLS))
mult_cells = st.sampled_from(sorted(MULTIPLIER_CELLS))
int16 = st.integers(min_value=-(2**15), max_value=2**15 - 1)
int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
uint16 = st.integers(min_value=0, max_value=2**16 - 1)

#: Every 8-bit operand pair, as two flat arrays (a varies slowest).
_ALL_8BIT = np.arange(1 << 16, dtype=np.int64)
_ALL_A8 = _ALL_8BIT >> 8
_ALL_B8 = _ALL_8BIT & 0xFF


def _sample_8_bit_pairs(count=256, seed=8):
    """Seeded 8-bit operand pairs: every pairing of the edge values
    (0, 1, 127, 128, 255), then random pairs up to ``count``."""
    edges = np.array([0, 1, 127, 128, 255], dtype=np.int64)
    edge_a, edge_b = (grid.ravel() for grid in np.meshgrid(edges, edges))
    rng = np.random.default_rng(seed)
    extra = count - edge_a.size
    a = np.concatenate([edge_a, rng.integers(0, 256, size=extra)])
    b = np.concatenate([edge_b, rng.integers(0, 256, size=extra)])
    return a, b


_SAMPLE_A8, _SAMPLE_B8 = _sample_8_bit_pairs()


class TestExhaustiveAdders:
    """Every adder cell, every 8-bit operand pair, vs the scalar chain."""

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    @pytest.mark.parametrize("approx_lsbs", [5, 8])
    def test_exhaustive_8_bit_vs_scalar_rca(self, cell_name, approx_lsbs):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(8, approx_lsbs, cell)
        expected = np.fromiter(
            (
                scalar.add(int(x), int(y))
                for x, y in zip(_ALL_A8, _ALL_B8)
            ),
            dtype=np.int64,
            count=_ALL_A8.size,
        )
        result = compiled_add(_ALL_A8, _ALL_B8, 8, approx_lsbs, cell)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    def test_exhaustive_8_bit_carry_in(self, cell_name):
        """Carry-in threads into the first approximated slice correctly."""
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(8, 6, cell)
        sample = _ALL_8BIT[::7]  # every 7th pair keeps this case fast
        a, b = sample >> 8, sample & 0xFF
        expected = np.fromiter(
            (
                scalar.add_with_carry(int(x), int(y), 1)[0]
                for x, y in zip(a, b)
            ),
            dtype=np.int64,
            count=a.size,
        )
        result = compiled_add(a, b, 8, 6, cell, carry_in=1)
        assert np.array_equal(result, expected)


def _ripple_arrays(adder, a, b, carry_in):
    """:meth:`RippleCarryAdder.add_with_carry` over whole operand arrays.

    Walks the adder's own slice-to-cell assignment (``cell_for_slice``) one
    bit position at a time, looking each cell's truth table up for every
    operand pair at once; :class:`TestWordParallelAdder` checks it against
    the scalar chain before using it as the exhaustive reference.
    """
    pattern = np.zeros(a.shape, dtype=np.int64)
    carry = np.full(a.shape, carry_in, dtype=np.int64)
    for position in range(adder.width):
        sums, couts = adder.cell_for_slice(position).numpy_tables()
        index = ((a >> position) & 1) * 4 + ((b >> position) & 1) * 2 + carry
        pattern |= sums[index] << position
        carry = couts[index]
    return to_signed_array(pattern, adder.width)


def _all_pairs(width):
    operands = np.arange(1 << (2 * width), dtype=np.int64)
    return operands >> width, operands & ((1 << width) - 1)


#: Arbitrary cells: every 8-row truth table is a draw of 16 output bits, so
#: cells whose carry-out inverts the carry-in are covered too.
truth_tables = st.lists(st.integers(0, 1), min_size=16, max_size=16).map(
    lambda bits: FullAdderCell(
        "drawn",
        {
            (a, b, c): (bits[2 * row], bits[2 * row + 1])
            for row, (a, b, c) in enumerate(
                (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
            )
        },
    )
)


class TestWordParallelAdder:
    """The word-parallel carry chain vs the scalar ripple-carry adder."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_array_reference_matches_scalar_chain(self, width):
        a, b = _all_pairs(width)
        for cell in ADDER_CELLS.values():
            for k in range(width + 2):
                scalar = RippleCarryAdder(width, k, cell)
                for carry_in in (0, 1):
                    expected = [
                        scalar.add_with_carry(int(x), int(y), carry_in)[0]
                        for x, y in zip(a, b)
                    ]
                    assert list(_ripple_arrays(scalar, a, b, carry_in)) == expected
                inverted = ~b & ((1 << width) - 1)
                assert list(_ripple_arrays(scalar, a, inverted, 1)) == [
                    scalar.subtract(int(x), int(y)) for x, y in zip(a, b)
                ]

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    @pytest.mark.parametrize("width", range(1, 9))
    def test_exhaustive_every_budget_and_carry_in(self, cell_name, width):
        cell = adder_cell(cell_name)
        a, b = _all_pairs(width)
        inverted = ~b & ((1 << width) - 1)
        for k in range(width + 2):
            scalar = RippleCarryAdder(width, k, cell)
            for carry_in in (0, 1):
                assert np.array_equal(
                    compiled_add(a, b, width, k, cell, carry_in=carry_in),
                    _ripple_arrays(scalar, a, b, carry_in),
                ), (k, carry_in)
            assert np.array_equal(
                compiled_subtract(a, b, width, k, cell),
                _ripple_arrays(scalar, a, inverted, 1),
            ), k

    @given(
        truth_tables,
        st.sampled_from([16, 32, 62]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_truth_tables_match_scalar(self, cell, width, data):
        k = data.draw(st.integers(0, width + 1))
        carry_in = data.draw(st.integers(0, 1))
        word = st.integers(-(2 ** (width - 1)), 2 ** (width - 1) - 1)
        a = data.draw(st.lists(word, min_size=1, max_size=8))
        b = data.draw(st.lists(word, min_size=len(a), max_size=len(a)))
        scalar = RippleCarryAdder(width, k, cell)
        ua, ub = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert list(compiled_add(ua, ub, width, k, cell, carry_in=carry_in)) == [
            scalar.add_with_carry(x, y, carry_in)[0] for x, y in zip(a, b)
        ]
        assert list(compiled_subtract(ua, ub, width, k, cell)) == [
            scalar.subtract(x, y) for x, y in zip(a, b)
        ]


class TestExhaustiveMultipliers:
    """Every elementary cell pairing vs the scalar recursive multiplier."""

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("mult_name", sorted(MULTIPLIER_CELLS))
    @pytest.mark.parametrize("adder_name", sorted(ADDER_CELLS))
    def test_exhaustive_small_widths_every_cell_pairing(
        self, mult_name, adder_name, width
    ):
        """All 2- and 4-bit operand pairs, every (multiplier, adder) pairing."""
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        operands = np.arange(1 << (2 * width), dtype=np.int64)
        a, b = operands >> width, operands & ((1 << width) - 1)
        for approx_lsbs in (0, 3, 5, 8):
            scalar = RecursiveMultiplier(width, approx_lsbs, mult, adder)
            expected = np.fromiter(
                (
                    scalar.multiply_unsigned(int(x), int(y))
                    for x, y in zip(a, b)
                ),
                dtype=np.int64,
                count=a.size,
            )
            result = compiled_multiply_unsigned(a, b, width, approx_lsbs, mult, adder)
            assert np.array_equal(result, expected), (mult_name, adder_name, approx_lsbs)

    @pytest.mark.parametrize(
        "mult_name,adder_name",
        [("AppMultV1", "ApproxAdd5"), ("AppMultV2", "ApproxAdd1")],
    )
    def test_exhaustive_8_bit_paper_cells(self, mult_name, adder_name):
        """All 65536 8-bit operand pairs for the paper's approximate cells."""
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        scalar = RecursiveMultiplier(8, 9, mult, adder)
        expected = np.fromiter(
            (
                scalar.multiply_unsigned(int(x), int(y))
                for x, y in zip(_ALL_A8, _ALL_B8)
            ),
            dtype=np.int64,
            count=_ALL_A8.size,
        )
        result = compiled_multiply_unsigned(_ALL_A8, _ALL_B8, 8, 9, mult, adder)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("mult_name", sorted(MULTIPLIER_CELLS))
    @pytest.mark.parametrize("adder_name", sorted(ADDER_CELLS))
    def test_8_bit_sample_vs_scalar_every_pairing(self, mult_name, adder_name):
        """Sampled 8-bit operands vs the scalar model for every pairing.

        Pins down the 8x8 LUT build and gather indexing for every cell
        combination at several approximation depths; the full 8-bit domain
        is checked above for the paper's pairings only, because the scalar
        model takes seconds per full sweep.
        """
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        for approx_lsbs in (1, 6, 8, 11, 16):
            scalar = RecursiveMultiplier(8, approx_lsbs, mult, adder)
            expected = [
                scalar.multiply_unsigned(int(x), int(y))
                for x, y in zip(_SAMPLE_A8, _SAMPLE_B8)
            ]
            result = compiled_multiply_unsigned(
                _SAMPLE_A8, _SAMPLE_B8, 8, approx_lsbs, mult, adder
            )
            assert list(result) == expected, (mult_name, adder_name, approx_lsbs)


class TestFullWidthProperties:
    """Hypothesis property tests at the paper's 16/32-bit datapath widths."""

    @given(int32, int32, st.integers(0, 32), adder_cells)
    @settings(max_examples=120, deadline=None)
    def test_add_32_bit_matches_scalar(self, a, b, k, cell_name):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, k, cell)
        result = int(compiled_add(np.array([a]), np.array([b]), 32, k, cell)[0])
        assert result == scalar.add(a, b)

    @given(int32, int32, st.integers(0, 32), adder_cells)
    @settings(max_examples=60, deadline=None)
    def test_subtract_32_bit_matches_scalar(self, a, b, k, cell_name):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, k, cell)
        result = int(compiled_subtract(np.array([a]), np.array([b]), 32, k, cell)[0])
        assert result == scalar.subtract(a, b)

    @given(int16, int16, st.integers(0, 32), mult_cells, adder_cells)
    @settings(max_examples=120, deadline=None)
    def test_multiply_16_bit_matches_scalar(self, a, b, k, mult_name, adder_name):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        scalar = RecursiveMultiplier(16, k, mult, adder)
        result = int(
            compiled_multiply(np.array([a]), np.array([b]), 16, k, mult, adder)[0]
        )
        assert result == scalar.multiply(a, b)

    @given(
        st.lists(int16, min_size=1, max_size=16),
        st.integers(0, 16),
        adder_cells,
    )
    @settings(max_examples=30, deadline=None)
    def test_add_16_bit_arrays_match_scalar(self, values, approx_lsbs, cell_name):
        a = np.array(values, dtype=np.int64)
        b = np.array(values[::-1], dtype=np.int64)
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(16, approx_lsbs, cell)
        expected = [scalar.add(int(x), int(y)) for x, y in zip(a, b)]
        assert list(compiled_add(a, b, 16, approx_lsbs, cell)) == expected

    @given(
        st.lists(int32, min_size=1, max_size=32),
        st.integers(0, 32),
        adder_cells,
    )
    @settings(max_examples=40, deadline=None)
    def test_add_arrays_match_scalar(self, values, k, cell_name):
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, k, cell)
        a = np.array(values, dtype=np.int64)
        b = np.array(values[::-1], dtype=np.int64)
        pairs = list(zip(values, values[::-1]))
        assert list(compiled_add(a, b, 32, k, cell)) == [
            scalar.add(x, y) for x, y in pairs
        ]
        assert list(compiled_subtract(a, b, 32, k, cell)) == [
            scalar.subtract(x, y) for x, y in pairs
        ]

    @given(
        st.lists(int16, min_size=1, max_size=32),
        st.integers(0, 32),
        mult_cells,
        adder_cells,
    )
    @settings(max_examples=40, deadline=None)
    def test_multiply_arrays_match_scalar(self, values, k, mult_name, adder_name):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        scalar = RecursiveMultiplier(16, k, mult, adder)
        a = np.array(values, dtype=np.int64)
        b = np.array(values[::-1], dtype=np.int64)
        assert list(compiled_multiply(a, b, 16, k, mult, adder)) == [
            scalar.multiply(x, y) for x, y in zip(values, values[::-1])
        ]


class TestSeededWordLevel:
    """Seeded operands at every (budget, cell) combination, every run.

    The property tests above draw budgets and cells at random; this grid
    checks each combination deterministically, including the exact (``k=0``)
    and fully approximated (``k`` = word width or more) ends.
    """

    @pytest.mark.parametrize("cell_name", sorted(ADDER_CELLS))
    @pytest.mark.parametrize("approx_lsbs", [0, 1, 5, 16, 32])
    def test_add_32_bit_matches_scalar_rca(self, cell_name, approx_lsbs):
        rng = np.random.default_rng(42)
        a = rng.integers(-(2**30), 2**30, size=64)
        b = rng.integers(-(2**30), 2**30, size=64)
        cell = adder_cell(cell_name)
        scalar = RippleCarryAdder(32, approx_lsbs, cell)
        expected = [scalar.add(int(x), int(y)) for x, y in zip(a, b)]
        assert list(compiled_add(a, b, 32, approx_lsbs, cell)) == expected

    @pytest.mark.parametrize("cell_name", sorted(MULTIPLIER_CELLS))
    @pytest.mark.parametrize("approx_lsbs", [0, 3, 8, 16, 32])
    def test_multiply_16_bit_matches_scalar(self, cell_name, approx_lsbs):
        rng = np.random.default_rng(3)
        a = rng.integers(-(2**15), 2**15, size=40)
        b = rng.integers(-(2**15), 2**15, size=40)
        mult = multiplier_cell(cell_name)
        add5 = adder_cell("ApproxAdd5")
        scalar = RecursiveMultiplier(16, approx_lsbs, mult, add5)
        expected = [scalar.multiply(int(x), int(y)) for x, y in zip(a, b)]
        assert list(compiled_multiply(a, b, 16, approx_lsbs, mult, add5)) == expected

    def test_subtract_16_bit_matches_scalar(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-(2**14), 2**14, size=32)
        b = rng.integers(-(2**14), 2**14, size=32)
        cell = adder_cell("ApproxAdd1")
        scalar = RippleCarryAdder(16, 6, cell)
        expected = [scalar.subtract(int(x), int(y)) for x, y in zip(a, b)]
        assert list(compiled_subtract(a, b, 16, 6, cell)) == expected


class TestConstantOperandPaths:
    """The FIR-tap and squarer LUTs vs the generic multiplier."""

    @given(
        st.lists(int16, min_size=1, max_size=32),
        int16,
        st.integers(0, 32),
        mult_cells,
        adder_cells,
    )
    @settings(max_examples=60, deadline=None)
    def test_multiply_constant_matches_full_like(
        self, values, constant, k, mult_name, adder_name
    ):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        a = np.array(values, dtype=np.int64)
        expected = compiled_multiply(
            a, np.full_like(a, constant), 16, k, mult, adder
        )
        result = compiled_multiply_constant(a, constant, 16, k, mult, adder)
        assert np.array_equal(result, expected)

    @given(
        st.lists(int16, min_size=1, max_size=32),
        st.integers(0, 32),
        mult_cells,
        adder_cells,
    )
    @settings(max_examples=60, deadline=None)
    def test_square_matches_self_multiply(self, values, k, mult_name, adder_name):
        mult = multiplier_cell(mult_name)
        adder = adder_cell(adder_name)
        a = np.array(values, dtype=np.int64)
        expected = compiled_multiply(a, a, 16, k, mult, adder)
        result = compiled_square(a, 16, k, mult, adder)
        assert np.array_equal(result, expected)

    def test_out_of_range_inputs_fall_back_to_generic_path(self):
        """Inputs outside the signed 16-bit range bypass the LUT safely."""
        mult = multiplier_cell("AppMultV1")
        adder = adder_cell("ApproxAdd5")
        a = np.array([-70000, -32769, -32768, 0, 32767, 32768, 70000])
        expected = compiled_multiply(a, np.full_like(a, 37), 16, 9, mult, adder)
        result = compiled_multiply_constant(a, 37, 16, 9, mult, adder)
        assert np.array_equal(result, expected)
        expected_sq = compiled_multiply(a, a, 16, 9, mult, adder)
        assert np.array_equal(compiled_square(a, 16, 9, mult, adder), expected_sq)

    def test_constant_accurate_path_avoids_table(self):
        before = registry_info()["tables"]
        a = np.arange(-50, 50, dtype=np.int64)
        result = compiled_multiply_constant(
            a, 7, 16, 0, multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        )
        assert np.array_equal(result, a * 7)
        assert registry_info()["tables"] == before


class TestExactPath:
    """``approx_lsbs == 0`` bypasses every table and is plain arithmetic."""

    def test_add_honours_carry_in(self):
        a, b = np.array([10, -7]), np.array([5, 3])
        result = compiled_add(a, b, 16, 0, adder_cell("ApproxAdd5"), carry_in=1)
        assert list(result) == [16, -3]

    def test_add_matches_plain_addition(self):
        a = np.array([1, -2, 30000, -30000])
        b = np.array([5, 7, 1000, -1000])
        result = compiled_add(a, b, 32, 0, adder_cell("ApproxAdd5"))
        assert list(result) == list(a + b)

    def test_subtract_matches_plain_subtraction(self):
        a = np.array([100, -50])
        b = np.array([30, -20])
        assert list(compiled_subtract(a, b, 32, 0, adder_cell("Accurate"))) == [70, -30]

    def test_unsigned_multiply_matches_numpy_product(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 2**16, size=100)
        b = rng.integers(0, 2**16, size=100)
        result = compiled_multiply_unsigned(
            a, b, 16, 0, multiplier_cell("AppMultV1"), adder_cell("ApproxAdd5")
        )
        np.testing.assert_array_equal(result, a * b)

    def test_signed_multiplication_sign_rules(self):
        a = np.array([100, -100, 100, -100])
        b = np.array([50, 50, -50, -50])
        assert list(compiled_multiply(a, b, 16, 0)) == [5000, -5000, -5000, 5000]


class TestRegistry:
    """Process-wide single-flight table registry."""

    def test_tables_are_built_exactly_once_across_threads(self):
        _REGISTRY.clear()
        mult, adder = multiplier_cell("AppMultV1"), adder_cell("ApproxAdd3")
        a = np.arange(256, dtype=np.int64)
        start = threading.Barrier(8)
        results = []

        def work():
            start.wait(timeout=60)
            results.append(compiled_multiply_unsigned(a, a[::-1], 8, 11, mult, adder))

        threads = [threading.Thread(target=work) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings inside the builds
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        # The 8-bit product table and the width-4 tables it is built from:
        # eight concurrent callers must build each distinct table once.
        info = registry_info()
        assert info["tables"] > 1
        assert info["builds"] == info["tables"]
        assert len(results) == 8
        for result in results[1:]:
            assert np.array_equal(result, results[0])

    def test_adds_build_no_tables(self):
        _REGISTRY.clear()
        a = np.arange(256, dtype=np.int64)
        for cell in ADDER_CELLS.values():
            compiled_add(a, a[::-1], 32, 11, cell)
            compiled_subtract(a, a[::-1], 16, 16, cell)
        assert registry_info()["builds"] == 0

    def test_compile_histogram_counts_nested_builds_once(self):
        """A constant table builds product tables inside its own build; the
        histogram observes self time, so its sum cannot exceed the wall time
        of the outermost build."""
        _REGISTRY.clear()
        mult, adder = multiplier_cell("AppMultV2"), adder_cell("ApproxAdd5")
        ((_, histogram),) = _LUT_COMPILE_SECONDS.children()
        count, total = histogram.count, histogram.sum
        started = time.perf_counter()
        compiled_multiply_constant(np.arange(-8, 8), 1234, 16, 20, mult, adder)
        wall = time.perf_counter() - started
        assert registry_info()["builds"] > 1  # the build really nested
        assert histogram.count - count == registry_info()["builds"]
        assert 0 < histogram.sum - total <= wall

    def test_prewarm_is_idempotent(self):
        _REGISTRY.clear()
        built = prewarm_tables()
        assert built > 0
        info_before = registry_info()
        assert prewarm_tables() == built  # same table walk...
        assert registry_info()["builds"] == info_before["builds"]  # ...no rebuilds

    def test_failed_build_is_retryable(self):
        _REGISTRY.clear()
        calls = []

        def failing_build():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("flaky build")
            return np.arange(4)

        key = ("test", "failed-build")
        with pytest.raises(RuntimeError):
            _REGISTRY.get(key, failing_build)
        assert np.array_equal(_REGISTRY.get(key, failing_build), np.arange(4))


class TestValidation:
    @pytest.mark.parametrize("width", [0, 63, 64])
    def test_invalid_add_width_rejected(self, width):
        """Widths whose sum would not fit an int64 are refused up front."""
        with pytest.raises(ValueError):
            compiled_add(np.array([1]), np.array([2]), width, 0, adder_cell("Accurate"))

    def test_widest_add_matches_scalar(self):
        cell = adder_cell("ApproxAdd3")
        scalar = RippleCarryAdder(62, 10, cell)
        a = np.array([2**61 - 1, -(2**61), 12345, -1], dtype=np.int64)
        b = np.array([2**61 - 1, -(2**61), -999, -1], dtype=np.int64)
        assert list(compiled_add(a, b, 62, 10, cell)) == [
            scalar.add(int(x), int(y)) for x, y in zip(a, b)
        ]

    @pytest.mark.parametrize("width", [1, 12, 32])
    @pytest.mark.parametrize("approx_lsbs", [0, 9])
    def test_invalid_multiply_width_rejected(self, width, approx_lsbs):
        """Only the widths the int64 recursion represents are accepted."""
        with pytest.raises(ValueError):
            compiled_multiply_unsigned(
                np.array([1]),
                np.array([2]),
                width,
                approx_lsbs,
                multiplier_cell("AppMultV1"),
                adder_cell("ApproxAdd5"),
            )

    def test_2_bit_width_uses_direct_table(self):
        """The smallest legal width is a single direct LUT gather."""
        operands = np.arange(16, dtype=np.int64)
        a, b = operands >> 2, operands & 0b11
        mult = multiplier_cell("AppMultV2")
        result = compiled_multiply_unsigned(a, b, 2, 4, mult, adder_cell("Accurate"))
        expected = [mult.evaluate(int(x), int(y)) for x, y in zip(a, b)]
        assert list(result) == expected

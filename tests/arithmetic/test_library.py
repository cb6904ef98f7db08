"""Unit tests for the word-level arithmetic backend."""

import numpy as np
import pytest

from repro.arithmetic import (
    APPROX_ADD5,
    ArithmeticBackend,
    RecursiveMultiplier,
    RippleCarryAdder,
    accurate_backend,
    adder_names,
    multiplier_names,
)


class TestAccurateBackend:
    def test_is_accurate(self):
        assert accurate_backend().is_accurate

    def test_add_matches_python(self):
        backend = accurate_backend()
        a = np.array([1, -5, 100000, -100000])
        b = np.array([2, 9, 250000, -250000])
        assert list(backend.add(a, b)) == list(a + b)

    def test_multiply_matches_python(self):
        backend = accurate_backend()
        a = np.array([300, -300, 32767, -32768])
        b = np.array([21, 21, 2, 2])
        assert list(backend.multiply(a, b)) == list(a * b)

    def test_subtract_matches_python(self):
        backend = accurate_backend()
        a = np.array([10, -10])
        b = np.array([3, -3])
        assert list(backend.subtract(a, b)) == [7, -7]

    def test_describe(self):
        assert accurate_backend().describe() == "accurate"


class TestApproximateBackend:
    def test_accepts_cell_names(self):
        backend = ArithmeticBackend(
            approx_lsbs=4, adder_cell="ApproxAdd3", multiplier_cell="AppMultV2"
        )
        assert backend.resolved_adder.name == "ApproxAdd3"
        assert backend.resolved_multiplier.name == "AppMultV2"
        assert not backend.is_accurate

    def test_accepts_cell_objects(self):
        backend = ArithmeticBackend(approx_lsbs=4, adder_cell=APPROX_ADD5)
        assert backend.resolved_adder is APPROX_ADD5

    def test_zero_lsbs_is_accurate_even_with_approx_cells(self):
        backend = ArithmeticBackend(
            approx_lsbs=0, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
        )
        assert backend.is_accurate

    def test_add_error_bounded_by_region(self):
        backend = ArithmeticBackend(approx_lsbs=6, adder_cell="ApproxAdd5")
        rng = np.random.default_rng(0)
        a = rng.integers(-(2**20), 2**20, size=200)
        b = rng.integers(-(2**20), 2**20, size=200)
        error = np.abs(backend.add(a, b) - (a + b))
        assert error.max() <= (1 << 7)

    def test_multiply_error_bounded_by_region(self):
        backend = ArithmeticBackend(
            approx_lsbs=6, adder_cell="ApproxAdd5", multiplier_cell="AppMultV1"
        )
        rng = np.random.default_rng(1)
        a = rng.integers(-(2**15), 2**15, size=200)
        b = rng.integers(-(2**15), 2**15, size=200)
        error = np.abs(backend.multiply(a, b) - a * b)
        assert error.max() < (1 << 10)

    def test_with_approx_lsbs_returns_new_backend(self):
        backend = ArithmeticBackend(approx_lsbs=4, adder_cell="ApproxAdd5")
        shifted = backend.with_approx_lsbs(12)
        assert shifted.approx_lsbs == 12
        assert backend.approx_lsbs == 4
        assert shifted.resolved_adder is backend.resolved_adder

    def test_describe_mentions_cells(self):
        backend = ArithmeticBackend(approx_lsbs=8, adder_cell="ApproxAdd5",
                                    multiplier_cell="AppMultV1")
        description = backend.describe()
        assert "8" in description
        assert "ApproxAdd5" in description

    def test_negative_lsbs_rejected(self):
        with pytest.raises(ValueError):
            ArithmeticBackend(approx_lsbs=-1)


class TestWordWidths:
    """Widths the int64 engine cannot represent are refused at construction."""

    @pytest.mark.parametrize("multiplier_width", [1, 6, 32, 64])
    def test_unsupported_multiplier_width_rejected(self, multiplier_width):
        with pytest.raises(ValueError):
            ArithmeticBackend(approx_lsbs=4, multiplier_width=multiplier_width)

    @pytest.mark.parametrize("adder_width", [0, 63, 64])
    def test_unsupported_adder_width_rejected(self, adder_width):
        with pytest.raises(ValueError):
            ArithmeticBackend(approx_lsbs=4, adder_width=adder_width)

    def test_widest_adder_matches_scalar(self):
        backend = ArithmeticBackend(
            approx_lsbs=10, adder_cell="ApproxAdd1", adder_width=62
        )
        scalar = RippleCarryAdder(62, 10, backend.resolved_adder)
        a = np.array([2**61 - 1, -(2**61), 777, -5])
        b = np.array([1, -1, -2**40, 2**40])
        assert list(backend.add(a, b)) == [
            scalar.add(int(x), int(y)) for x, y in zip(a, b)
        ]

    @pytest.mark.parametrize("multiplier_width", [2, 4, 8, 16])
    def test_supported_multiplier_widths_match_scalar(self, multiplier_width):
        backend = ArithmeticBackend(
            approx_lsbs=multiplier_width,
            adder_cell="ApproxAdd2",
            multiplier_cell="AppMultV2",
            multiplier_width=multiplier_width,
        )
        scalar = RecursiveMultiplier(
            multiplier_width,
            multiplier_width,
            backend.resolved_multiplier,
            backend.resolved_adder,
        )
        top = (1 << multiplier_width) - 1
        a = np.array([0, 1, top, top // 2, -(top // 2)])
        b = np.array([top, top // 3, top, 2, top // 2])
        assert list(backend.multiply(a, b)) == [
            scalar.multiply(int(x), int(y)) for x, y in zip(a, b)
        ]


class TestLibraryListings:
    def test_adder_names(self):
        names = adder_names()
        assert "Accurate" in names
        assert "ApproxAdd5" in names
        assert len(names) == 6

    def test_multiplier_names(self):
        names = multiplier_names()
        assert names == ["AccMult", "AppMultV1", "AppMultV2"]

"""Recursive approximate multipliers built from elementary 2x2 blocks.

Following the paper's Fig. 7, an ``N x N`` multiplier is recursively
partitioned into four ``N/2 x N/2`` sub-multipliers whose partial products are
combined with three ``2N``-bit adders:

``A x B = AL*BL + (AL*BH + AH*BL) << N/2 + (AH*BH) << N``

The recursion bottoms out at the elementary 2x2 multiplier cells of
:mod:`repro.arithmetic.multipliers_2x2`, and the accumulation adders are the
ripple-carry chains of :mod:`repro.arithmetic.rca`.

Approximation follows the "k LSBs approximated" convention used throughout
the paper: an elementary multiplier block whose output starts below bit ``k``
of the final product uses the approximate 2x2 cell, and every accumulation
adder slice that produces an output bit below ``k`` uses the approximate
full-adder cell.  All remaining logic stays accurate, which bounds the error
magnitude to the low-order region of the product.

This is the scalar reference engine; the compiled LUT engine in
:mod:`repro.arithmetic.compiled` runs the same recursion on whole arrays (its
product tables are built by it) and is cross-validated against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .bitvector import mask
from .full_adders import ACCURATE_ADDER, FullAdderCell
from .multipliers_2x2 import ACCURATE_MULT, Multiplier2x2Cell
from .rca import RippleCarryAdder

__all__ = ["RecursiveMultiplier"]


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class RecursiveMultiplier:
    """An ``N x N`` recursive multiplier with ``k`` approximated output LSBs.

    Parameters
    ----------
    width:
        Operand width in bits; must be a power of two and at least 2.  The
        paper's case study uses ``width = 16`` (16x16 multipliers with 32-bit
        products).
    approx_lsbs:
        Number of least-significant *product* bits whose generating logic is
        approximated.
    mult_cell:
        Elementary 2x2 multiplier used inside the approximated region.
    adder_cell:
        Elementary full adder used for accumulation-adder slices inside the
        approximated region.
    """

    width: int
    approx_lsbs: int
    mult_cell: Multiplier2x2Cell
    adder_cell: FullAdderCell
    accurate_mult_cell: Multiplier2x2Cell = ACCURATE_MULT
    accurate_adder_cell: FullAdderCell = ACCURATE_ADDER

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.width) or self.width < 2:
            raise ValueError(
                f"width must be a power of two >= 2, got {self.width}"
            )
        if self.approx_lsbs < 0:
            raise ValueError(f"approx_lsbs must be >= 0, got {self.approx_lsbs}")

    # ------------------------------------------------------------------ API
    @property
    def product_width(self) -> int:
        """Width of the full product in bits (``2 * width``)."""
        return 2 * self.width

    @property
    def effective_approx_lsbs(self) -> int:
        """Approximated LSBs clamped to the product width."""
        return min(self.approx_lsbs, self.product_width)

    def multiply_unsigned(self, a: int, b: int) -> int:
        """Multiply two unsigned ``width``-bit operands.

        Operands are masked to ``width`` bits; the result is the (possibly
        approximate) ``2 * width``-bit unsigned product.
        """
        ua = a & mask(self.width)
        ub = b & mask(self.width)
        return self._multiply_block(ua, ub, self.width, 0)

    def multiply(self, a: int, b: int) -> int:
        """Multiply two signed operands using sign-magnitude handling.

        The magnitudes are multiplied by the (approximate) unsigned array and
        the sign is re-applied afterwards, mirroring a sign-magnitude hardware
        wrapper around the unsigned recursive core.
        """
        sign = -1 if (a < 0) != (b < 0) else 1
        magnitude = self.multiply_unsigned(abs(a), abs(b))
        return sign * magnitude

    # ------------------------------------------------------------ internals
    def _cell_for_block(self, offset: int) -> Multiplier2x2Cell:
        """Elementary multiplier cell for a 2x2 block anchored at ``offset``."""
        if offset < self.effective_approx_lsbs:
            return self.mult_cell
        return self.accurate_mult_cell

    def _adder_for_offset(self, block_width: int, offset: int) -> RippleCarryAdder:
        """Accumulation adder for a block of ``block_width`` bits at ``offset``."""
        local_approx = max(0, min(self.effective_approx_lsbs - offset, 2 * block_width))
        return RippleCarryAdder(
            width=2 * block_width,
            approx_lsbs=local_approx,
            approx_cell=self.adder_cell,
            accurate_cell=self.accurate_adder_cell,
        )

    def _multiply_block(self, a: int, b: int, block_width: int, offset: int) -> int:
        """Recursively multiply a ``block_width``-bit sub-block at ``offset``."""
        if block_width == 2:
            return self._cell_for_block(offset).evaluate(a, b)

        half = block_width // 2
        low_mask = mask(half)
        a_low, a_high = a & low_mask, a >> half
        b_low, b_high = b & low_mask, b >> half

        # Four sub-products; the cross terms land half a block higher, the
        # high-high term a full block higher.
        ll = self._multiply_block(a_low, b_low, half, offset)
        lh = self._multiply_block(a_low, b_high, half, offset + half)
        hl = self._multiply_block(a_high, b_low, half, offset + half)
        hh = self._multiply_block(a_high, b_high, half, offset + block_width)

        adder = self._adder_for_offset(block_width, offset)
        accumulated = adder.add_unsigned(ll, lh << half)
        accumulated = adder.add_unsigned(accumulated, hl << half)
        accumulated = adder.add_unsigned(accumulated, hh << block_width)
        return accumulated

    # -------------------------------------------------------------- queries
    def elementary_block_offsets(self) -> Tuple[int, ...]:
        """Offsets (product bit positions) of every elementary 2x2 block.

        Useful for the hardware cost model and for tests that reason about
        which blocks fall inside the approximated region.
        """
        offsets = []

        def _walk(block_width: int, offset: int) -> None:
            if block_width == 2:
                offsets.append(offset)
                return
            half = block_width // 2
            _walk(half, offset)
            _walk(half, offset + half)
            _walk(half, offset + half)
            _walk(half, offset + block_width)

        _walk(self.width, 0)
        return tuple(sorted(offsets))

"""Word-level arithmetic backends composed from the elementary cell library.

The DSP stages of the Pan-Tompkins pipeline do not talk to individual full
adders; they issue word-level operations ("add these two 32-bit values",
"multiply these two 16-bit values").  :class:`ArithmeticBackend` packages an
approximation configuration — word widths, number of approximated LSBs and the
elementary cells to use — behind exactly that interface, with the compiled
LUT engine (:mod:`repro.arithmetic.compiled`) underneath.

A backend with ``approx_lsbs == 0`` (or :func:`accurate_backend`) behaves
bit-for-bit like exact integer arithmetic and is used as the golden reference
throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from .compiled import (
    _check_adder_width,
    _check_multiplier_width,
    compiled_add,
    compiled_multiply,
    compiled_multiply_constant,
    compiled_square,
    compiled_subtract,
)
from .full_adders import ACCURATE_ADDER, ADDER_CELLS, FullAdderCell, adder_cell
from .multipliers_2x2 import (
    ACCURATE_MULT,
    MULTIPLIER_CELLS,
    Multiplier2x2Cell,
    multiplier_cell,
)

__all__ = [
    "ArithmeticBackend",
    "accurate_backend",
    "adder_names",
    "multiplier_names",
    "DEFAULT_ADDER_WIDTH",
    "DEFAULT_MULTIPLIER_WIDTH",
]

#: Word widths used by the paper's case study: 32-bit accumulators fed by
#: 16x16 multipliers (16-bit ADC samples times 16-bit coefficients).
DEFAULT_ADDER_WIDTH = 32
DEFAULT_MULTIPLIER_WIDTH = 16

CellOrName = Union[str, FullAdderCell]
MultOrName = Union[str, Multiplier2x2Cell]


def _resolve_adder(cell: CellOrName) -> FullAdderCell:
    if isinstance(cell, FullAdderCell):
        return cell
    return adder_cell(cell)


def _resolve_multiplier(cell: MultOrName) -> Multiplier2x2Cell:
    if isinstance(cell, Multiplier2x2Cell):
        return cell
    return multiplier_cell(cell)


def adder_names() -> List[str]:
    """Names of all elementary adder cells in the library."""
    return list(ADDER_CELLS)


def multiplier_names() -> List[str]:
    """Names of all elementary multiplier cells in the library."""
    return list(MULTIPLIER_CELLS)


@dataclass(frozen=True)
class ArithmeticBackend:
    """Word-level add / multiply engine with a fixed approximation setting.

    Parameters
    ----------
    approx_lsbs:
        Number of least-significant bits approximated in both the adders and
        the multipliers of the stage this backend serves (the paper sweeps a
        single per-stage LSB count that applies to all operators of the
        stage).
    adder_cell / multiplier_cell:
        Elementary cells (or their library names) deployed inside the
        approximated region.
    adder_width / multiplier_width:
        Word widths of the accumulators and multiplier operands.
    """

    approx_lsbs: int = 0
    adder_cell: CellOrName = ACCURATE_ADDER
    multiplier_cell: MultOrName = ACCURATE_MULT
    adder_width: int = DEFAULT_ADDER_WIDTH
    multiplier_width: int = DEFAULT_MULTIPLIER_WIDTH
    _adder: FullAdderCell = field(init=False, repr=False)
    _multiplier: Multiplier2x2Cell = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.approx_lsbs < 0:
            raise ValueError(f"approx_lsbs must be >= 0, got {self.approx_lsbs}")
        _check_adder_width(self.adder_width)
        _check_multiplier_width(self.multiplier_width)
        object.__setattr__(self, "_adder", _resolve_adder(self.adder_cell))
        object.__setattr__(self, "_multiplier", _resolve_multiplier(self.multiplier_cell))

    # ------------------------------------------------------------------ API
    @property
    def is_accurate(self) -> bool:
        """True when the backend produces bit-exact results."""
        return (
            self.approx_lsbs == 0
            or (self._adder.is_exact and self._multiplier.is_exact)
        )

    @property
    def resolved_adder(self) -> FullAdderCell:
        """The elementary adder cell actually deployed in the LSB region."""
        return self._adder

    @property
    def resolved_multiplier(self) -> Multiplier2x2Cell:
        """The elementary multiplier cell actually deployed in the LSB region."""
        return self._multiplier

    def with_approx_lsbs(self, approx_lsbs: int) -> "ArithmeticBackend":
        """Return a copy of this backend with a different LSB count.

        Used by the stage-execution engine to translate "output LSBs" into
        datapath LSBs (the stage output shift is added on top).  Constructed
        via ``type(self)`` so subclasses (e.g. the reference backends of the
        bit-identity tests) survive the translation.
        """
        return type(self)(
            approx_lsbs=approx_lsbs,
            adder_cell=self._adder,
            multiplier_cell=self._multiplier,
            adder_width=self.adder_width,
            multiplier_width=self.multiplier_width,
        )

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Approximate ``adder_width``-bit addition (elementwise, signed)."""
        return compiled_add(a, b, self.adder_width, self.approx_lsbs, self._adder)

    def subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Approximate ``adder_width``-bit subtraction (elementwise, signed)."""
        return compiled_subtract(a, b, self.adder_width, self.approx_lsbs, self._adder)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Approximate signed multiplication of ``multiplier_width``-bit operands."""
        return compiled_multiply(
            a,
            b,
            self.multiplier_width,
            self.approx_lsbs,
            self._multiplier,
            self._adder,
        )

    def multiply_constant(self, a: np.ndarray, constant: int) -> np.ndarray:
        """Multiply every element of ``a`` by one fixed signed constant.

        Bit-identical to ``multiply(a, full_like(a, constant))`` but served
        from a compiled per-constant LUT (one gather) on the approximate
        path and a broadcast scalar product on the accurate path — the FIR
        taps multiply by fixed coefficients, so this is the filter hot path.
        """
        return compiled_multiply_constant(
            a,
            constant,
            self.multiplier_width,
            self.approx_lsbs,
            self._multiplier,
            self._adder,
        )

    def square(self, a: np.ndarray) -> np.ndarray:
        """Elementwise ``a * a`` (bit-identical to ``multiply(a, a)``).

        The squarer is unary, so the approximate path is one gather into a
        compiled 2^width-entry LUT.
        """
        return compiled_square(
            a,
            self.multiplier_width,
            self.approx_lsbs,
            self._multiplier,
            self._adder,
        )

    def describe(self) -> str:
        """Short human-readable summary, used in logs and reports."""
        if self.is_accurate:
            return "accurate"
        return (
            f"{self.approx_lsbs} LSBs via {self._adder.name}/{self._multiplier.name}"
        )


def accurate_backend(
    adder_width: int = DEFAULT_ADDER_WIDTH,
    multiplier_width: int = DEFAULT_MULTIPLIER_WIDTH,
) -> ArithmeticBackend:
    """Return a bit-exact backend with the default word widths."""
    return ArithmeticBackend(
        approx_lsbs=0,
        adder_cell=ACCURATE_ADDER,
        multiplier_cell=ACCURATE_MULT,
        adder_width=adder_width,
        multiplier_width=multiplier_width,
    )

"""Behavioural models of the elementary 1-bit full adders.

XBioSiP builds its approximate ripple-carry adders out of the low-power
approximate mirror adders proposed by Gupta et al. (ISLPED'11 / TCAD'13),
plus the accurate cell.  Each cell is described here by an explicit eight-row
truth table so that the behavioural model is unambiguous and bit-accurate.

The cells, in the paper's naming (Table 1):

``Accurate``
    Conventional full adder, no errors.
``ApproxAdd1``
    Simplified mirror adder; carry chain is exact, the sum output is wrong for
    the two input patterns ``(A,B,Cin) = (0,1,1)`` and ``(1,0,0)``.
``ApproxAdd2``
    Sum is produced as the complement of the carry-out; carry chain remains
    exact.  Wrong sum for ``(0,0,0)`` and ``(1,1,1)``.
``ApproxAdd3``
    Combination of the two simplifications above: sum wrong in three rows,
    carry still exact.
``ApproxAdd4``
    Carry-out approximated as the ``A`` input (removes the carry logic);
    sum kept exact.  Wrong carry for ``(0,1,1)`` and ``(1,0,0)``.
``ApproxAdd5``
    Zero-gate cell: both outputs are wired to the ``B`` input
    (``Sum = B``, ``Cout = B``).  This is the cell with 0.00 area / power /
    energy in the paper's Table 1, and the one the paper uses for its main
    design-space exploration.

Every cell exposes the same pure-function interface so the ripple-carry adder
and recursive multipliers can be composed from any of them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "FullAdderCell",
    "ACCURATE_ADDER",
    "APPROX_ADD1",
    "APPROX_ADD2",
    "APPROX_ADD3",
    "APPROX_ADD4",
    "APPROX_ADD5",
    "ADDER_CELLS",
    "adder_cell",
    "accurate_sum_cout",
]

# All eight input combinations in canonical order (A, B, Cin).
_INPUT_PATTERNS: Tuple[Tuple[int, int, int], ...] = tuple(
    (a, b, cin) for a in (0, 1) for b in (0, 1) for cin in (0, 1)
)


def accurate_sum_cout(a: int, b: int, cin: int) -> Tuple[int, int]:
    """Exact full-adder function: ``(sum, carry_out)``.

    >>> accurate_sum_cout(1, 1, 0)
    (0, 1)
    """
    total = a + b + cin
    return total & 1, total >> 1


@dataclass(frozen=True)
class FullAdderCell:
    """An elementary 1-bit (possibly approximate) full adder.

    Parameters
    ----------
    name:
        Library name used throughout the package (e.g. ``"ApproxAdd5"``).
    truth_table:
        Mapping from ``(A, B, Cin)`` to ``(Sum, Cout)`` covering all eight
        input combinations.
    description:
        Human-readable summary of the simplification the cell applies.
    """

    name: str
    truth_table: Mapping[Tuple[int, int, int], Tuple[int, int]]
    description: str = ""
    # Derived error statistics, filled in __post_init__.
    sum_errors: int = field(default=0, compare=False)
    cout_errors: int = field(default=0, compare=False)
    # Lazily memoized derived tables (the compiled engine and the content
    # key ask for them repeatedly; rebuilding them from the truth table
    # dominated the profile before they were cached here).
    _flat_tables: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = field(
        default=None, init=False, compare=False, repr=False
    )
    _np_tables: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, compare=False, repr=False
    )
    _content_key: Optional[str] = field(
        default=None, init=False, compare=False, repr=False
    )
    _word_plan: Optional[Tuple[Tuple[int, int, int, int], ...]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        missing = [p for p in _INPUT_PATTERNS if p not in self.truth_table]
        if missing:
            raise ValueError(
                f"truth table for {self.name} is missing input patterns: {missing}"
            )
        sum_errors = 0
        cout_errors = 0
        for pattern in _INPUT_PATTERNS:
            exact = accurate_sum_cout(*pattern)
            approx = self.truth_table[pattern]
            if approx[0] not in (0, 1) or approx[1] not in (0, 1):
                raise ValueError(
                    f"truth table for {self.name} contains non-binary outputs "
                    f"for input {pattern}: {approx}"
                )
            if approx[0] != exact[0]:
                sum_errors += 1
            if approx[1] != exact[1]:
                cout_errors += 1
        object.__setattr__(self, "sum_errors", sum_errors)
        object.__setattr__(self, "cout_errors", cout_errors)

    # ------------------------------------------------------------------ API
    def evaluate(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        """Return ``(sum, carry_out)`` for single-bit inputs."""
        return self.truth_table[(a & 1, b & 1, cin & 1)]

    @property
    def is_exact(self) -> bool:
        """True when the cell never deviates from the accurate full adder."""
        return self.sum_errors == 0 and self.cout_errors == 0

    @property
    def error_rate(self) -> float:
        """Fraction of the 16 output bits (8 sums + 8 carries) that are wrong."""
        return (self.sum_errors + self.cout_errors) / 16.0

    def error_patterns(self) -> List[Tuple[int, int, int]]:
        """Input patterns for which at least one output bit is wrong."""
        wrong = []
        for pattern in _INPUT_PATTERNS:
            if self.truth_table[pattern] != accurate_sum_cout(*pattern):
                wrong.append(pattern)
        return wrong

    def output_tables(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Return ``(sum_table, cout_table)`` indexed by ``A*4 + B*2 + Cin``.

        Used to evaluate the cell via table lookups and to hash its content.
        Memoized: the instance is frozen, so the derived tables never change.
        """
        cached = self._flat_tables
        if cached is None:
            sums = []
            couts = []
            for pattern in _INPUT_PATTERNS:
                s, c = self.truth_table[pattern]
                sums.append(s)
                couts.append(c)
            cached = (tuple(sums), tuple(couts))
            object.__setattr__(self, "_flat_tables", cached)
        return cached

    def numpy_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Memoized ``(sum_table, cout_table)`` as NumPy int64 arrays.

        The compiled engine ripples through these bit by bit for a cell whose
        carry cannot be expressed word-parallel (see :meth:`word_plan`).
        """
        cached = self._np_tables
        if cached is None:
            sums, couts = self.output_tables()
            cached = (
                np.asarray(sums, dtype=np.int64),
                np.asarray(couts, dtype=np.int64),
            )
            object.__setattr__(self, "_np_tables", cached)
        return cached

    def word_plan(self) -> Optional[Tuple[Tuple[int, int, int, int], ...]]:
        """Memoized ``(generate, propagate, sum0, flip)`` functions of the
        operand bits ``(a, b)``, each as its XOR normal form (coefficients of
        ``1, a, b, a&b``): the carry classes, the sum for carry-in 0 and the
        sum bits a carry-in of 1 flips.  ``None`` if some ``(a, b)`` inverts
        the carry (``cout = NOT cin``)."""
        if self._word_plan is None:
            sums, couts = self.output_tables()
            # Each output for carry-in 0/1 as a 4-bit truth mask, bit a*2 + b.
            s0, s1, c0, c1 = (
                sum(bit << ab for ab, bit in enumerate(table[cin::2]))
                for table in (sums, couts)
                for cin in (0, 1)
            )
            plan = () if c0 & ~c1 else tuple(
                (f & 1, (f ^ f >> 2) & 1, (f ^ f >> 1) & 1, bin(f).count("1") & 1)
                for f in (c0 & c1, c0 ^ c1, s0, s0 ^ s1)
            )
            object.__setattr__(self, "_word_plan", plan)
        return self._word_plan or None

    def content_key(self) -> str:
        """Content hash of the cell's observable behaviour (its truth table).

        Same canonical-JSON/SHA-256 idiom as :mod:`repro.core.fingerprint`:
        two cells with identical truth tables share compiled LUTs no matter
        how they are named or instantiated, and keys are portable across
        processes (the compiled-table registry keys off this).
        """
        cached = self._content_key
        if cached is None:
            sums, couts = self.output_tables()
            payload = json.dumps(
                {"kind": "full_adder", "sum": list(sums), "cout": list(couts)},
                sort_keys=True,
                separators=(",", ":"),
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_key", cached)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FullAdderCell(name={self.name!r}, sum_errors={self.sum_errors}, "
            f"cout_errors={self.cout_errors})"
        )


def _table_from_functions(sum_fn, cout_fn) -> Dict[Tuple[int, int, int], Tuple[int, int]]:
    """Build a truth table from two boolean functions of ``(a, b, cin)``."""
    return {
        pattern: (sum_fn(*pattern) & 1, cout_fn(*pattern) & 1)
        for pattern in _INPUT_PATTERNS
    }


def _accurate_sum(a: int, b: int, cin: int) -> int:
    return a ^ b ^ cin


def _accurate_cout(a: int, b: int, cin: int) -> int:
    return (a & b) | (b & cin) | (a & cin)


ACCURATE_ADDER = FullAdderCell(
    name="Accurate",
    truth_table=_table_from_functions(_accurate_sum, _accurate_cout),
    description="Conventional mirror full adder (exact).",
)

# ApproxAdd1: exact carry, sum wrong for (0,1,1) and (1,0,0).
_APPROX1_TABLE = _table_from_functions(_accurate_sum, _accurate_cout)
_APPROX1_TABLE[(0, 1, 1)] = (1, 1)
_APPROX1_TABLE[(1, 0, 0)] = (0, 0)
APPROX_ADD1 = FullAdderCell(
    name="ApproxAdd1",
    truth_table=_APPROX1_TABLE,
    description=(
        "Gupta AMA-style simplification #1: exact carry chain, sum wrong for "
        "(0,1,1) and (1,0,0)."
    ),
)

# ApproxAdd2: Sum produced as complement of the (exact) carry-out.
APPROX_ADD2 = FullAdderCell(
    name="ApproxAdd2",
    truth_table=_table_from_functions(
        lambda a, b, cin: 1 - _accurate_cout(a, b, cin), _accurate_cout
    ),
    description=(
        "Gupta AMA-style simplification #2: Sum = NOT(Cout); exact carry. "
        "Sum wrong for (0,0,0) and (1,1,1)."
    ),
)

# ApproxAdd3: combination of #1 and #2 — Sum = NOT(Cout) with the additional
# sum error of #1 on (1,0,0); carry remains exact.
_APPROX3_TABLE = _table_from_functions(
    lambda a, b, cin: 1 - _accurate_cout(a, b, cin), _accurate_cout
)
_APPROX3_TABLE[(1, 0, 0)] = (0, 0)
APPROX_ADD3 = FullAdderCell(
    name="ApproxAdd3",
    truth_table=_APPROX3_TABLE,
    description=(
        "Combination of simplifications #1 and #2: three sum errors, exact carry."
    ),
)

# ApproxAdd4: Cout approximated as the A input, exact sum.
APPROX_ADD4 = FullAdderCell(
    name="ApproxAdd4",
    truth_table=_table_from_functions(_accurate_sum, lambda a, b, cin: a),
    description="Carry-out wired to input A (Cout = A); sum kept exact.",
)

# ApproxAdd5: the zero-cost cell; both outputs wired to input B.
APPROX_ADD5 = FullAdderCell(
    name="ApproxAdd5",
    truth_table=_table_from_functions(lambda a, b, cin: b, lambda a, b, cin: b),
    description=(
        "Zero-gate cell: Sum = B and Cout = B.  Matches the 0.00 area/power/"
        "energy row of the paper's Table 1."
    ),
)

#: All elementary adder cells keyed by their library name.
ADDER_CELLS: Dict[str, FullAdderCell] = {
    cell.name: cell
    for cell in (
        ACCURATE_ADDER,
        APPROX_ADD1,
        APPROX_ADD2,
        APPROX_ADD3,
        APPROX_ADD4,
        APPROX_ADD5,
    )
}


def adder_cell(name: str) -> FullAdderCell:
    """Look up an elementary adder cell by name (case-insensitive).

    Raises
    ------
    KeyError
        If ``name`` does not identify a known cell.
    """
    for key, cell in ADDER_CELLS.items():
        if key.lower() == name.lower():
            return cell
    known = ", ".join(sorted(ADDER_CELLS))
    raise KeyError(f"unknown adder cell {name!r}; known cells: {known}")

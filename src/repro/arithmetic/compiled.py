"""Compiled engine for the approximate arithmetic units.

The scalar models in :mod:`repro.arithmetic.rca` and
:mod:`repro.arithmetic.recursive_multiplier` walk the approximated region one
cell at a time.  The approximate cells have tiny input domains, so that
control flow can be *compiled away* once per configuration, into whole-word
operations or lookup tables:

* **Word-parallel adds** — no tables: each cell's truth table becomes
  whole-word generate/propagate/sum functions of the operands
  (:meth:`FullAdderCell.word_plan`), one integer add resolves the carry into
  every approximated bit at once, and a 32-bit :func:`compiled_add` is about
  twenty NumPy operations whatever the budget, instead of up to 32 per-bit
  Python iterations; the region above the approximation boundary is exact
  integer arithmetic, bit-identical to simulating accurate cells.
* **Compiled multipliers** — one recursion level of the paper's Fig. 7
  multiplier (:func:`_split_product`: four sub-products, three
  word-parallel accumulation adds) does both jobs.  A ``width``-bit product
  LUT (widths 4 and 8, 2^(2*width) entries) is that level applied to every
  operand pair over the ``width/2`` tables, bottoming out in the 2x2 cell's
  own truth table; a 16x16 multiply is the same level over the 8x8 LUTs —
  4 table gathers plus 3 adds, about 10 array operations.
* **Constant-operand LUTs** — FIR taps multiply by fixed coefficients and
  the squarer is unary, so both collapse to a single 2^width-entry signed
  LUT per ``(configuration, constant)``: one gather per tap.

Compiled tables live in a process-wide registry keyed by content hashes of
the cell truth tables (the same canonical-JSON/SHA-256 idiom as
:mod:`repro.core.fingerprint`), with single-flight builds under a lock so
thread pools share tables and each table is built exactly once.  Process
pools pre-warm the common tables via :func:`prewarm_tables` from their
worker initializer.

Everything here is bit-identical to the scalar reference models, checked by
``tests/arithmetic/test_compiled.py``: exhaustively over small operand
domains and property-tested at the paper's full 16/32-bit widths.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.tracing import span as obs_span
from .bitvector import (
    mask,
    signed_max,
    signed_min,
    to_signed_array,
    to_unsigned_array,
)
from .full_adders import ACCURATE_ADDER, ADDER_CELLS, FullAdderCell
from .multipliers_2x2 import ACCURATE_MULT, MULTIPLIER_CELLS, Multiplier2x2Cell

__all__ = [
    "compiled_add",
    "compiled_subtract",
    "compiled_multiply_unsigned",
    "compiled_multiply",
    "compiled_multiply_constant",
    "compiled_square",
    "prewarm_tables",
    "registry_info",
]

#: Operand width of the widest direct product LUT: 8x8 -> 2^16 entries.
_BASE_WIDTH = 8

#: Operand widths of the recursive multiplier.  Every intermediate value is
#: an int64, so a product (``2*width`` bits) must fit in 63 bits and a
#: 16x16 multiply is the widest the engine represents exactly.
_MULTIPLIER_WIDTHS = (2, 4, 8, 16)

#: Widest adder word: ``a + b + carry`` of two 62-bit words still fits an
#: int64, one bit more overflows.
_MAX_ADDER_WIDTH = 62

_LUT_COMPILE_SECONDS = obs_metrics.histogram(
    "repro_lut_compile_seconds",
    "Build time of one compiled approximate-arithmetic lookup table.",
)
_LUT_BUILDS = obs_metrics.counter(
    "repro_lut_builds_total",
    "Compiled-LUT builds performed by this process.",
)
_LUT_TABLES = obs_metrics.gauge(
    "repro_lut_tables",
    "Compiled lookup tables currently resident in the registry.",
)
_LUT_TABLE_BYTES = obs_metrics.gauge(
    "repro_lut_table_bytes",
    "Total bytes of the resident compiled lookup tables.",
)


# ---------------------------------------------------------------- registry
class _SingleFlightRegistry:
    """Process-wide store of compiled tables with single-flight builds.

    ``get`` returns the table for ``key``, building it at most once per
    process: concurrent requests for a missing key elect one builder (under
    the lock) and every other thread waits on an event until the table is
    published.  A failed build clears the slot so a later caller can retry.
    A build that needs other tables builds them inside its own ``build()``;
    the compile-time histogram observes each build's self time, so nested
    builds are not counted twice.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[Tuple, np.ndarray] = {}
        self._building: Dict[Tuple, threading.Event] = {}
        self._builds = 0
        # Seconds spent in nested builds by the current build on this thread.
        self._nested = threading.local()

    def get(self, key: Tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        while True:
            with self._lock:
                table = self._tables.get(key)
                if table is not None:
                    return table
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    break  # this thread builds
            event.wait()
        enclosing = getattr(self._nested, "seconds", 0.0)
        self._nested.seconds = 0.0
        started = time.perf_counter()
        try:
            with obs_span("lut.compile", kind=str(key[0]) if key else ""):
                table = build()
        except BaseException:
            with self._lock:
                del self._building[key]
            event.set()
            raise
        finally:
            elapsed = time.perf_counter() - started
            nested, self._nested.seconds = self._nested.seconds, enclosing + elapsed
        _LUT_COMPILE_SECONDS.observe(elapsed - nested)
        with self._lock:
            self._tables[key] = table
            self._builds += 1
            del self._building[key]
            _LUT_BUILDS.inc()
            _LUT_TABLES.set(len(self._tables))
            _LUT_TABLE_BYTES.set(sum(t.nbytes for t in self._tables.values()))
        event.set()
        return table

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {
                "tables": len(self._tables),
                "builds": self._builds,
                "bytes": int(sum(t.nbytes for t in self._tables.values())),
            }

    def clear(self) -> None:
        """Drop every compiled table (test hook)."""
        with self._lock:
            self._tables.clear()
            self._builds = 0


_REGISTRY = _SingleFlightRegistry()


def registry_info() -> Dict[str, int]:
    """Table count / build count / footprint of the process-wide registry."""
    return _REGISTRY.info()


# ----------------------------------------------------------- table builders
def _product_table(
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
    width: int,
    approx_lsbs: int,
) -> np.ndarray:
    """The full ``width x width`` unsigned-product LUT.

    Entry ``(a << width) | b`` holds the approximate product of ``a`` and
    ``b``.  A build sends all ``2^(2*width)`` operand pairs through one
    recursion level over the ``width/2`` tables in a single vectorised sweep.
    """
    if width == 2:
        # The 2x2 cell is its own product table, whatever the budget.
        return mult_cell.numpy_table()

    def build() -> np.ndarray:
        operands = np.arange(1 << (2 * width), dtype=np.int64)
        a, b = operands >> width, operands & np.int64(mask(width))
        return _split_product(a, b, width, approx_lsbs, mult_cell, adder_cell)

    key = (
        "product",
        mult_cell.content_key(),
        adder_cell.content_key(),
        width,
        approx_lsbs,
    )
    return _REGISTRY.get(key, build)


def _unary_table(
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
    constant: Optional[int],
) -> np.ndarray:
    """A signed LUT over every ``width``-bit input pattern.

    ``constant is None`` compiles the squarer (``f(a) = a*a``); otherwise the
    fixed-coefficient multiplier (``f(a) = a*constant``).  Entry ``p`` holds
    the signed approximate product for the operand whose two's-complement
    pattern is ``p``.
    """

    def build() -> np.ndarray:
        operands = to_signed_array(np.arange(1 << width, dtype=np.int64), width)
        other = operands if constant is None else constant
        return compiled_multiply(
            operands, other, width, approx_lsbs, mult_cell, adder_cell
        )

    key = (
        "square" if constant is None else "constant",
        width,
        approx_lsbs,
        mult_cell.content_key(),
        adder_cell.content_key(),
        constant,
    )
    return _REGISTRY.get(key, build)


# ------------------------------------------------------------- validation
def _check_multiplier_width(width: int) -> None:
    if width not in _MULTIPLIER_WIDTHS:
        raise ValueError(
            f"multiplier width must be one of {_MULTIPLIER_WIDTHS}, got {width}"
        )


def _check_adder_width(width: int) -> None:
    if not 1 <= width <= _MAX_ADDER_WIDTH:
        raise ValueError(
            f"adder width must be in [1, {_MAX_ADDER_WIDTH}], got {width}"
        )


# ------------------------------------------------------------------- adds
def _word(coefficients: Tuple[int, ...], ones, a: np.ndarray, b: np.ndarray):
    """Evaluate a 2-input bit function on whole words from its XOR normal form
    (coefficients of ``1, a, b, a&b``, with ``ones`` standing for 1)."""
    value = None
    for coefficient, term in zip(coefficients, (ones, a, b, None)):
        if coefficient:
            term = a & b if term is None else term
            value = term if value is None else value ^ term
    return np.int64(0) if value is None else value


def compiled_add(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
    carry_in: int = 0,
) -> np.ndarray:
    """Elementwise N-bit approximate addition, word-parallel.

    Same parameters and results as :class:`RippleCarryAdder` applied
    elementwise.  Over the ``k`` approximated bits the cell's generate and
    propagate masks ``G``/``P`` are whole-word functions of the operands, and
    one add ``t = (G|P) + G + cin`` ripples the whole chain: the carry into
    each bit is ``t ^ P``, the carry out is bit ``k`` and the sum a per-bit
    mux on the carry.  Above the boundary the add is exact.
    """
    _check_adder_width(width)
    ua, ub = to_unsigned_array(a, width), to_unsigned_array(b, width)
    k = max(0, min(approx_lsbs, width))
    carry = np.int64(carry_in & 1)
    if k == 0 or cell.is_exact:
        return to_signed_array(ua + ub + carry, width)

    ones = np.int64(mask(k))
    low_a, low_b = ua & ones, ub & ones
    # Row-sized temporaries are dropped early and updated in place: with more
    # alive, allocator churn cost up to 5x (``high`` is 0 when k == width).
    high = (ua >> k) + (ub >> k)
    del ua, ub
    plan = cell.word_plan()
    if plan is None:
        # Some (a, b) inverts the carry: ripple the approximated bits instead.
        sums, couts = cell.numpy_tables()
        low = np.zeros_like(high)
        for bit in range(k):
            index = ((low_a >> bit) & 1) * 4 + ((low_b >> bit) & 1) * 2 + carry
            low |= sums[index] << bit
            carry = couts[index]
    else:
        generate, propagate, sum0, flip = (_word(f, ones, low_a, low_b) for f in plan)
        del low_a, low_b
        low = generate | propagate
        low += generate
        low += carry
        carry = low >> k
        low ^= propagate
        low &= flip
        low ^= sum0
    high += carry
    high <<= k  # to_signed_array drops what this shifts past ``width``
    high |= low
    return to_signed_array(high, width)


def compiled_subtract(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    cell: FullAdderCell,
) -> np.ndarray:
    """Elementwise ``a - b`` computed as ``a + ~b + 1`` through the same chain."""
    inverted = ~to_unsigned_array(b, width) & np.int64(mask(width))
    return compiled_add(a, inverted, width, approx_lsbs, cell, carry_in=1)


# -------------------------------------------------------------- multiplies
def _product(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    k: int,
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
) -> np.ndarray:
    """Unsigned product of ``width``-bit blocks with ``k`` approximated LSBs.

    A block's behaviour only depends on how many of its own LSBs are
    approximated, so sub-blocks at a bit offset reuse the same tables with
    the budget shifted down by that offset.
    """
    if k <= 0:
        # Every cell in this sub-tree is accurate: exact multiplication is
        # bit-identical and skips the gather entirely.
        return a * b
    if width <= _BASE_WIDTH:
        table = _product_table(mult_cell, adder_cell, width, min(k, 2 * width))
        return table[(a << width) | b]
    return _split_product(a, b, width, k, mult_cell, adder_cell)


def _split_product(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    k: int,
    mult_cell: Multiplier2x2Cell,
    adder_cell: FullAdderCell,
) -> np.ndarray:
    """One level of the Fig. 7 recursion: four half-width sub-products
    accumulated, in hardware order, by three ``2*width``-bit adds."""
    half = width // 2
    low = np.int64(mask(half))
    a_low, a_high = a & low, a >> half
    b_low, b_high = b & low, b >> half

    accumulated = _product(a_low, b_low, half, k, mult_cell, adder_cell)
    lh = _product(a_low, b_high, half, k - half, mult_cell, adder_cell)
    hl = _product(a_high, b_low, half, k - half, mult_cell, adder_cell)
    hh = _product(a_high, b_high, half, k - width, mult_cell, adder_cell)
    for term in (lh << half, hl << half, hh << width):
        accumulated = to_unsigned_array(
            compiled_add(accumulated, term, 2 * width, k, adder_cell), 2 * width
        )
    return accumulated


def compiled_multiply_unsigned(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise unsigned approximate multiplication via compiled LUTs.

    Same parameters and results as
    :meth:`RecursiveMultiplier.multiply_unsigned` applied elementwise.
    Widths up to 8 are a single product-LUT gather; width 16 (the paper's
    datapath) is one recursion level over the 8x8 LUTs.
    """
    _check_multiplier_width(width)
    ua, ub = to_unsigned_array(a, width), to_unsigned_array(b, width)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        return ua * ub
    return _product(ua, ub, width, k, mult_cell, adder_cell)


def compiled_multiply(
    a: np.ndarray,
    b: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise signed multiplication via a sign-magnitude wrapper.

    Same results as :meth:`RecursiveMultiplier.multiply` applied
    elementwise; ``b`` may be a scalar (it broadcasts), which the
    constant-operand paths rely on.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    sign = np.where((a < 0) != (b < 0), np.int64(-1), np.int64(1))
    magnitude = compiled_multiply_unsigned(
        np.abs(a), np.abs(b), width, approx_lsbs, mult_cell, adder_cell
    )
    return sign * magnitude


# -------------------------------------------------- constant-operand paths
def _fits_signed(a: np.ndarray, width: int) -> bool:
    if a.size == 0:
        return True
    return bool(
        a.min() >= signed_min(width) and a.max() <= signed_max(width)
    )


def compiled_multiply_constant(
    a: np.ndarray,
    constant: int,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Multiply every element of ``a`` by a fixed signed ``constant``.

    Bit-identical to ``compiled_multiply(a, full(constant))`` but a single
    gather into a per-``(configuration, constant)`` LUT when the inputs fit
    the signed ``width``-bit range (which the saturated DSP stages
    guarantee); out-of-range inputs fall back to the generic path.
    """
    a = np.asarray(a, dtype=np.int64)
    constant = int(constant)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        # Exact path, spelled exactly like the sign-magnitude wrapper so the
        # result is bit-identical for any operand range.
        sign = np.where((a < 0) != (constant < 0), np.int64(-1), np.int64(1))
        magnitude = (np.abs(a) & np.int64(mask(width))) * np.int64(
            abs(constant) & mask(width)
        )
        return sign * magnitude
    if not (
        signed_min(width) <= constant <= signed_max(width)
        and _fits_signed(a, width)
    ):
        return compiled_multiply(a, constant, width, approx_lsbs, mult_cell, adder_cell)
    table = _unary_table(width, k, mult_cell, adder_cell, constant)
    return table[to_unsigned_array(a, width)]


def compiled_square(
    a: np.ndarray,
    width: int,
    approx_lsbs: int,
    mult_cell: Multiplier2x2Cell = ACCURATE_MULT,
    adder_cell: FullAdderCell = ACCURATE_ADDER,
) -> np.ndarray:
    """Elementwise ``a * a`` through the approximate multiplier model.

    The squarer is unary, so the whole multiplier collapses to one signed
    2^width-entry LUT per configuration: a single gather per stage run.
    """
    a = np.asarray(a, dtype=np.int64)
    k = max(0, min(approx_lsbs, 2 * width))
    if k == 0 or (mult_cell.is_exact and adder_cell.is_exact):
        magnitude = np.abs(a) & np.int64(mask(width))
        return magnitude * magnitude
    if not _fits_signed(a, width):
        return compiled_multiply(a, a, width, approx_lsbs, mult_cell, adder_cell)
    table = _unary_table(width, k, mult_cell, adder_cell, None)
    return table[to_unsigned_array(a, width)]


# ---------------------------------------------------------------- warm-up
def prewarm_tables() -> int:
    """Build the common compiled tables ahead of time; returns the count.

    Called from the process-pool worker initializer so the first evaluation
    in each worker does not pay the build cost: each approximate library
    ``(multiplier, adder)`` pairing gets its fully approximated 8x8 product
    LUT (the deeper budgets build on demand, each in a few milliseconds).
    Adds need no tables.  Thread pools share the registry implicitly.
    """
    pairings = [
        (mult, adder)
        for mult in MULTIPLIER_CELLS.values()
        for adder in ADDER_CELLS.values()
        if not (mult.is_exact and adder.is_exact)
    ]
    for mult, adder in pairings:
        _product_table(mult, adder, _BASE_WIDTH, 2 * _BASE_WIDTH)
    return len(pairings)

"""Perf-regression smoke — approximate vs accurate pipeline cost.

Before the compiled LUT engine, one approximate pipeline run cost ~165x an
accurate run (per-bit vectorised cell evaluation); with the compiled engine a
warm approximate run is a handful of table gathers and lands within a small
constant factor of the accurate NumPy path.  This smoke pins that property:
the warm approximate/accurate per-run ratio must stay well under 10x, so a
regression that silently reroutes the hot path back through the per-bit
engine (or breaks table reuse) fails CI instead of just making everything
slow.

Table compilation is a one-time per-process cost, so the benchmark warms the
engine first and reports the compile cost separately instead of folding it
into the ratio.  It also reports, without gating, the per-call cost of one
approximate 32-bit add at several budgets.
"""

import time

import numpy as np
from conftest import format_row, write_json, write_report

from repro.arithmetic import adder_cell, compiled_add, registry_info
from repro.core.configurations import PAPER_CONFIGURATIONS
from repro.dsp.pan_tompkins import PanTompkinsPipeline

#: Warm approximate/accurate ratio ceiling.  Measured ~3x on the reference
#: container; 10x leaves headroom for slower CI hosts while still being far
#: below the ~165x of the per-bit engine.
MAX_WARM_RATIO = 10.0

#: Representative moderately-approximated design from the Fig. 12 set.
SMOKE_CONFIG = "B9"

_REPEATS = 5

#: One accumulation-sized row and the budgets timed by :func:`_add_costs_us`.
ADD_ROW_SAMPLES = 12_000
ADD_BUDGETS = (8, 16, 21, 32)


def _best_of(pipeline, samples, repeats=_REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        pipeline.process(samples)
        best = min(best, time.perf_counter() - started)
    return best


def _add_costs_us(calls=100):
    """Best-of-``_REPEATS`` microseconds per 32-bit ApproxAdd5 add, per budget."""
    rng = np.random.default_rng(0)
    a, b = rng.integers(-(2**20), 2**20, size=(2, ADD_ROW_SAMPLES))
    cell = adder_cell("ApproxAdd5")
    costs = {}
    for k in ADD_BUDGETS:
        best = float("inf")
        for _ in range(_REPEATS):
            started = time.perf_counter()
            for _ in range(calls):
                compiled_add(a, b, 32, k, cell)
            best = min(best, (time.perf_counter() - started) / calls)
        costs[k] = best * 1e6
    return costs


def test_perf_regression_smoke(benchmark, bench_record):
    design = PAPER_CONFIGURATIONS[SMOKE_CONFIG]
    accurate = PanTompkinsPipeline()
    approximate = PanTompkinsPipeline(backends=design.backends())

    # One untimed approximate run compiles every LUT the design needs.
    compile_started = time.perf_counter()
    approximate.process(bench_record.samples)
    compile_s = time.perf_counter() - compile_started

    accurate_s = _best_of(accurate, bench_record.samples)
    approximate_s = benchmark.pedantic(
        _best_of, args=(approximate, bench_record.samples), rounds=1, iterations=1
    )
    ratio = approximate_s / accurate_s if accurate_s > 0 else float("inf")

    tables = registry_info()
    add_us = _add_costs_us()
    widths = (28, 14)
    lines = [
        f"Approximate vs accurate pipeline cost ({SMOKE_CONFIG}, "
        f"{bench_record.samples.size} samples, best of {_REPEATS})",
        "",
        format_row(("metric", "value"), widths),
        format_row(("accurate run [ms]", accurate_s * 1e3), widths),
        format_row(("approximate run [ms]", approximate_s * 1e3), widths),
        format_row(("approx/accurate ratio", ratio), widths),
        format_row(("first-run (incl. compile) [ms]", compile_s * 1e3), widths),
        format_row(("compiled tables", tables["tables"]), widths),
        format_row(("table bytes", tables["bytes"]), widths),
        *(
            format_row((f"32-bit add, k={k} [us]", cost), widths)
            for k, cost in add_us.items()
        ),
        "",
        f"regression gate: warm ratio < {MAX_WARM_RATIO:.0f}x",
    ]
    write_report("perf_regression", lines)
    write_json(
        "perf_regression",
        {
            "config": SMOKE_CONFIG,
            "samples": int(bench_record.samples.size),
            "accurate_s": accurate_s,
            "approximate_s": approximate_s,
            "warm_ratio": ratio,
            "max_warm_ratio": MAX_WARM_RATIO,
            "first_run_incl_compile_s": compile_s,
            "compiled_tables": tables["tables"],
            "table_bytes": tables["bytes"],
            "add_row_samples": ADD_ROW_SAMPLES,
            "add_32_bit_us": {str(k): cost for k, cost in add_us.items()},
        },
    )

    assert ratio < MAX_WARM_RATIO, (
        f"warm approximate/accurate ratio {ratio:.1f}x exceeds the "
        f"{MAX_WARM_RATIO:.0f}x regression gate — the hot path is no longer "
        "running through the compiled LUT engine"
    )

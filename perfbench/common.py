"""Shared pieces of the benchmark: seeded inputs, statistics and the span ledger.

Everything here is benchmark-side code.  The program under test is only ever
called through its public functions; the ledger records spans *around* those
calls, from the outside.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

#: The program's own layers (``src/repro`` packages), in the order the
#: ledger reports them.
LAYERS = (
    "arithmetic",
    "dsp",
    "core",
    "metrics",
    "energy",
    "signals",
    "runtime",
    "service",
    "streaming",
    "obs",
)

#: Even-LSB grid with the paper's default cells (ApproxAdd5 / AppMultV1):
#: the heuristic space of Table 2 extended over the Section 6.2 limits.
EVEN_GRID = {
    "lpf": tuple(range(0, 17, 2)),
    "hpf": tuple(range(0, 17, 2)),
    "der": tuple(range(0, 5, 2)),
    "sqr": tuple(range(0, 9, 2)),
    "mwi": tuple(range(0, 17, 2)),
}

#: The Fig. 12 hardware configurations (A2 accurate, B1..B14 approximate).
FIG12 = ("A2",) + tuple(f"B{i}" for i in range(1, 15))

#: Scratch directory inside the checkout (ignored by git).
OUT_DIR = ".perfbench"


def rng_for(workload: str, seed: int) -> random.Random:
    """The seeded generator every input of one workload run derives from."""
    return random.Random(f"perfbench:{workload}:{seed}")


def record_names(rng: random.Random, count: int) -> List[str]:
    """Seeded record names; any name is a deterministic synthetic record."""
    return [f"pb-{rng.randrange(16**8):08x}" for _ in range(count)]


def grid_lsbs(rng: random.Random) -> Dict[str, int]:
    """One uniformly drawn point of the even-LSB grid."""
    return {stage: rng.choice(options) for stage, options in EVEN_GRID.items()}


def balanced_grid(rng: random.Random, count: int) -> List[Dict[str, int]]:
    """``count`` grid points in which each stage cycles through its LSB options.

    Every option of a stage appears ``count // len(options)`` or one more
    times, in a seeded order, so the per-stage work (and the LUT tables it
    needs) is nearly the same for every seed while the combinations differ.
    """
    columns = {}
    for stage, options in EVEN_GRID.items():
        column: List[int] = []
        while len(column) < count:
            cycle = list(options)
            rng.shuffle(cycle)
            column.extend(cycle)
        columns[stage] = column[:count]
    return [{stage: columns[stage][i] for stage in EVEN_GRID} for i in range(count)]


def grid_sample(rng: random.Random, count: int, exclude=()) -> List[Dict[str, int]]:
    """``count`` distinct grid points (as lsbs maps), none in ``exclude``."""
    seen = {tuple(sorted(d.items())) for d in exclude}
    picked: List[Dict[str, int]] = []
    while len(picked) < count:
        lsbs = grid_lsbs(rng)
        key = tuple(sorted(lsbs.items()))
        if key in seen:
            continue
        seen.add(key)
        picked.append(lsbs)
    return picked


# ------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[int]:
    """Highest of p99/p90/p50 that leaves at least ten samples beyond it."""
    for q in (99, 90, 50):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def blocks(
    latencies: Sequence[float], ends: Sequence[float], block_s: float, cycle: int = 1
) -> List[Tuple[float, int, float]]:
    """Split a timed loop into consecutive blocks of whole cycles.

    A cycle is the number of operations that make one representative pass
    over a workload's mix; a block closes at the first cycle boundary at
    least ``block_s`` after the previous one.  Returns one ``(mean latency,
    operations, seconds)`` triple per complete block.  A trailing partial
    block is dropped unless it is the only one.
    """
    order = sorted(range(len(ends)), key=ends.__getitem__)
    out = []
    start = 0.0
    current: List[float] = []
    for count, index in enumerate(order, 1):
        current.append(latencies[index])
        if count % cycle == 0 and ends[index] - start >= block_s:
            out.append((statistics.fmean(current), len(current), ends[index] - start))
            start = ends[index]
            current = []
    if not out and current:
        out.append((statistics.fmean(current), len(current), ends[order[-1]]))
    return out


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ------------------------------------------------------------------ ledger
class Ledger:
    """In-memory span recorder for the traced run.

    A span has a name (``<layer>.<call>``), start, end, its parent span and
    the id of the operation it belongs to.  Spans stay in memory and are
    written out once, when the run ends.  A layer's self time is the sum of
    its spans' durations minus the durations of their direct children.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, Optional[int], str, float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._next_op = 0

    def new_op(self) -> int:
        """Start a new operation on this thread; later spans carry its id."""
        with self._lock:
            self._next_op += 1
            self._local.op = self._next_op
        return self._next_op

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        op = getattr(self._local, "op", 0)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((op, span_id, parent, name, started, ended))

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> List[float]:
        with self._lock:
            spans = list(self.spans)
        return [end - start for _, _, _, n, start, end in spans if n == name]

    def last(self, name: str) -> float:
        """Duration of the most recent span called ``name``."""
        with self._lock:
            for _, _, _, n, start, end in reversed(self.spans):
                if n == name:
                    return end - start
        raise KeyError(name)

    def self_times(self, op_ids=None) -> Dict[str, float]:
        """Self seconds per layer, over the spans of ``op_ids`` (all if None)."""
        child_time: Dict[int, float] = {}
        for op, _, parent, _, start, end in self.spans:
            if parent is not None and (op_ids is None or op in op_ids):
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {layer: 0.0 for layer in LAYERS}
        for op, span_id, _, name, start, end in self.spans:
            if op_ids is not None and op not in op_ids:
                continue
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += (end - start) - child_time.get(span_id, 0.0)
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                [
                    {"op": op, "id": sid, "parent": parent, "name": name,
                     "start": start, "end": end}
                    for op, sid, parent, name, start, end in self.spans
                ],
                handle,
            )

#!/usr/bin/env python3
"""Benchmark of the XBioSiP reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload methodology --seed 1 --seconds 15 --trace 0

Workloads: ``methodology``, ``service``, ``stream`` (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``PROCESSES`` fresh
interpreters run one after another and each sets up (``setup_s`` is the
median); the last ``MEASURING[workload]`` of them then run the timed closed
loop, each for its share of ``--seconds``.
``--trace 1`` runs one fresh interpreter that records outside-in spans
around calls into each layer and reports the per-layer metrics; the spans
are written to ``.perfbench/``.

Each measuring process is a child of this one, started in its own process
group; the whole group is killed if it overruns, so no process outlives the
run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("methodology", "service", "stream")
PROCESSES = 3
#: How many of the processes measure.  Spreading the timed loop over
#: processes that run minutes apart widens the window the best block is
#: taken from; ``service`` measures in one process only, because each
#: measuring process pays a server warm-up of several seconds.
MEASURING = {"methodology": 3, "service": 1, "stream": 3}
#: Wall budget of one benchmark run; a run must end within 180 s.
RUN_BUDGET_S = 170.0
#: The measuring process currently running (at most one).
_CHILDREN: list = []


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------- child
def run_child(args: argparse.Namespace) -> dict:
    """One fresh interpreter: set up, then measure or trace."""
    sys.path[:0] = [HERE, SRC]
    import common
    import workloads

    scratch = os.path.join(ROOT, common.OUT_DIR)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    out: dict = {}
    try:
        workload.setup()
        started = getattr(workload, "setup_started", None) or args.spawned_at
        out["setup_s"] = time.time() - started
        if args.role != "setup":
            workload.prepare()
        if args.role == "measure":
            measured = workload.measure(args.seconds / MEASURING[args.workload])
            out["peak_rss_mb"] = workload.peak_rss_mb()
            verify = getattr(workload, "verify", None)
            if verify is not None:
                verify()
            out["candidates"] = workload.candidates(measured)
            out["operations"] = len(measured.latencies)
            out["attempted"] = measured.attempted
            out["failed"] = measured.failed
        elif args.role == "trace":
            out["metrics"] = workload.trace(args.seconds)
            # One file per workload (the latest traced run) keeps the
            # checkout's scratch space bounded over many runs.
            workload.ledger.dump(os.path.join(scratch, f"trace-{args.workload}.json"))
    finally:
        workload.close()
    out["attempted"] = out.get("attempted", 0) + workload.checks.attempted
    out["failed"] = out.get("failed", 0) + workload.checks.failed
    return out


# ------------------------------------------------------------------ parent
def spawn(args: argparse.Namespace, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--role", role, "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _CHILDREN.append(proc)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{role} process overran the run budget")
    finally:
        # Anything the child left in its process group (a server) goes too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _CHILDREN.remove(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stop(signum, frame) -> None:
    """On SIGTERM/SIGINT, take the running child's process group down too."""
    for proc in _CHILDREN:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(128 + signum)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(children: list) -> dict:
    """The end-to-end metrics of the measuring processes.

    The host's speed drifts by tens of percent in episodes of seconds to a
    minute, so whole-run figures move with whatever else the machine is
    doing.  Each measuring process therefore reports candidate blocks, keyed
    by the part of the mix they cover (one key, one per methodology record set, or one per
    stream design);
    the least-contended block of each key, over those processes, is kept.
    ``op_mean_ms`` is the mean over keys of those blocks' mean latency and
    ``ops_per_s`` their operations over their seconds.  Processes run many
    seconds apart, so the blocks come from a window wider than one
    process's share of ``--seconds``.
    """
    measured = [c for c in children if "candidates" in c]
    best: dict = {}
    for child in measured:
        for key, mean, count, seconds in child["candidates"]:
            if key not in best or mean < best[key][0]:
                best[key] = (mean, count, seconds)
    operations = sum(c["operations"] for c in measured)
    candidates = sum(len(c["candidates"]) for c in measured)
    print(f"{operations} operations timed in {len(measured)} process(es); "
          f"best of {candidates} blocks over {len(best)} part(s) of the mix")
    return {
        "setup_s": metric(statistics.median(c["setup_s"] for c in children), "s"),
        "peak_rss_mb": metric(
            statistics.median(c["peak_rss_mb"] for c in measured), "MB"
        ),
        "ops_per_s": metric(
            sum(count for _, count, _ in best.values())
            / sum(seconds for _, _, seconds in best.values()),
            "1/s",
        ),
        "op_mean_ms": metric(
            statistics.fmean(mean for mean, _, _ in best.values()) * 1e3, "ms"
        ),
    }


def per_layer(child: dict) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer"]
    values = child["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"traced run did not report {missing}")
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: the program's source tree (src/repro) is missing",
              file=sys.stderr)
        return 2
    if args.role is not None:
        print(json.dumps(run_child(args)))
        return 0

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    deadline = time.monotonic() + RUN_BUDGET_S
    measuring = MEASURING[args.workload]
    roles = (
        ["trace"]
        if args.trace
        else ["setup"] * (PROCESSES - measuring) + ["measure"] * measuring
    )
    try:
        children = [spawn(args, role, deadline) for role in roles]
        metrics = per_layer(children[0]) if args.trace else end_to_end(children)
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for name, entry in metrics.items():
        print(f"{args.workload:<12} {name:<34} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host-performance benchmark: writes ``BENCH_host_perf.json``.

Measures what the *host* pays to run the standard LR scale sweep (LR-A and
LR-C on BIC clusters of 2/4/8 nodes, tree and split aggregation) — the
denominator of every future experiment this repo runs:

* end-to-end wall-clock per sweep,
* simulator throughput (kernel events/sec) and task throughput (tasks/sec),
* per-run checksums: SHA-256 of every trained weight vector plus the exact
  final virtual time, kernel event count and task count,
* a host-time attribution (sim-core / user-compute / serde / other) from
  :func:`repro.bench.profile.profile_host` for one representative config,
* ``host_cpus`` — the wall-clock numbers are only comparable on a host
  with the same CPU count.

Usage::

    PYTHONPATH=src python benchmarks/host_perf.py           # full sweep
    PYTHONPATH=src python benchmarks/host_perf.py --smoke   # CI gate

``--smoke`` runs a reduced sweep and exits non-zero when its simulated
work (kernel events and tasks run, both deterministic) differs from the
committed ``BENCH_host_perf.json`` smoke reference, or when simulator
throughput falls below 80% of that reference (the >20%-regression CI
gate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.profile import profile_host
from repro.bench.workloads import run_workload
from repro.cluster import ClusterConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_host_perf.json"

#: the standard LR scale sweep (workload, nodes, aggregation, iterations)
FULL_SWEEP = [
    (name, nodes, agg, 3)
    for name in ("LR-A", "LR-C")
    for nodes in (2, 4, 8)
    for agg in ("tree", "split")
]

#: reduced sweep for the CI smoke gate
SMOKE_SWEEP = [
    ("LR-A", 2, "tree", 2),
    ("LR-A", 4, "tree", 2),
]

#: tolerated events/sec regression against the committed baseline
REGRESSION_SLACK = 0.20


def _checksum(weights) -> str:
    """SHA-256 over the weight vector's raw float64 bytes."""
    if weights is None:
        return ""
    arr = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def run_sweep(sweep) -> dict:
    """Run every sweep config; return wall-clock and per-run rows."""
    rows = []
    began = time.perf_counter()
    for name, nodes, agg, iters in sweep:
        result = run_workload(name, ClusterConfig.bic(nodes),
                              aggregation=agg, iterations=iters)
        rows.append({
            "workload": name,
            "nodes": nodes,
            "aggregation": agg,
            "iterations": iters,
            "end_to_end": result.end_to_end,
            "final_loss": result.final_loss,
            "weights_sha256": _checksum(result.final_weights),
            "sim_events": result.sim_events,
            "tasks_run": result.tasks_run,
        })
    wall = time.perf_counter() - began
    events = sum(row["sim_events"] for row in rows)
    tasks = sum(row["tasks_run"] for row in rows)
    return {
        "wall_seconds": wall,
        "sim_events": events,
        "tasks_run": tasks,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "tasks_per_sec": tasks / wall if wall > 0 else 0.0,
        "rows": rows,
    }


def best_of(n: int, sweep) -> dict:
    """Best-of-``n`` sweep by events/sec (de-noises sub-second runs)."""
    runs = [run_sweep(sweep) for _ in range(n)]
    return max(runs, key=lambda run: run["events_per_sec"])


def check_work(run: dict, reference: dict) -> list:
    """Mismatches between a sweep's simulated work and the reference's.

    Kernel events and tasks run are deterministic functions of the
    sweep, so any difference is a behaviour change, not host noise.
    """
    return [f"{key}: {run[key]} != reference {reference[key]}"
            for key in ("sim_events", "tasks_run")
            if run[key] != reference[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host wall-clock / throughput benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sweep + CI gate against the committed"
                             " baseline; writes nothing")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output path for the full run's JSON")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_OUT,
                        help="committed baseline the smoke gate compares to")
    args = parser.parse_args(argv)

    sweep = SMOKE_SWEEP if args.smoke else FULL_SWEEP

    serial = best_of(3, sweep) if args.smoke else run_sweep(sweep)
    print(f"serial: {serial['wall_seconds']:.2f}s wall,"
          f" {serial['events_per_sec']:,.0f} events/s,"
          f" {serial['tasks_per_sec']:,.0f} tasks/s")

    if args.smoke:
        ok = True
        try:
            baseline = json.loads(args.baseline.read_text())
        except (OSError, ValueError):
            print(f"no readable baseline at {args.baseline};"
                  " skipping work and throughput gates")
            baseline = None
        if baseline is not None:
            # Gate against the baseline's *smoke-sweep* reference: the
            # full sweep amortizes per-run setup far better, so its
            # events/sec is not comparable to a smoke run's.
            reference = baseline["smoke_reference"]
            problems = check_work(serial, reference)
            for problem in problems:
                print("WORK MISMATCH:", problem, file=sys.stderr)
            print(f"work gate: {serial['sim_events']} events,"
                  f" {serial['tasks_run']} tasks"
                  f" {'OK' if not problems else 'FAILED'}")
            ok = not problems
            floor = ((1.0 - REGRESSION_SLACK)
                     * reference["events_per_sec"])
            actual = serial["events_per_sec"]
            print(f"throughput gate: {actual:,.0f} events/s"
                  f" vs floor {floor:,.0f}")
            if actual < floor:
                print("REGRESSION: events/sec below 80% of committed"
                      " baseline", file=sys.stderr)
                ok = False
        print("smoke:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    # One representative config under the attribution profiler.
    _result, breakdown = profile_host(
        run_workload, "LR-A", ClusterConfig.bic(8),
        aggregation="tree", iterations=3)
    print(breakdown)

    # The smoke sweep's own throughput, so the CI gate compares like
    # with like (a smoke run cannot amortize setup like the full sweep).
    smoke_reference = best_of(3, SMOKE_SWEEP)
    smoke_reference.pop("rows")
    print(f"smoke reference: {smoke_reference['events_per_sec']:,.0f}"
          " events/s")

    payload = {
        "benchmark": "host_perf",
        "host_cpus": os.cpu_count(),
        "sweep": [
            {"workload": w, "nodes": n, "aggregation": a, "iterations": i}
            for w, n, a, i in sweep
        ],
        "serial": serial,
        "smoke_reference": smoke_reference,
        "host_time_attribution": breakdown.as_dict(),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

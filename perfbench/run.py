"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload pipelined-recovery --seed 0 --seconds 60 --trace 0

Workloads: ``pipelined-recovery`` and ``service-mix``, the two that
``BENCHMARK.json`` lists, and ``split-ring``, which runs the same way but
only when asked for by name (see ``perfbench/reference.json`` for why each
was chosen, which layers it loads and why ``split-ring`` is not listed).
Each timed run is a fresh interpreter (``child.py``); runs are
started while the next one should still end within ``--seconds`` (and at
least ``MIN_UNTRACED_RUNS`` untraced runs). Reported times are medians
over the runs.

``--trace 0`` prints the end-to-end metrics, from untraced runs only.
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics; the traced runs wrap the layers' entry points
(``spans.py``) and record the event bus. Names and units are the ones
``BENCHMARK.json`` declares.

Correctness: every run's virtual time, event and task counts, model
digests and job latencies must equal every other run's of the same seed,
traced or not; for seed 0 the virtual time, counts and digests must equal
``reference.json``. A mismatch
marks the operation failed and the command exits 1 after printing its
result. An operation the program fails (a job that raises, or is
refused) counts in ``failed`` without making the outputs incorrect. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Per-layer traces are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("split-ring", "pipelined-recovery", "service-mix")
MIN_UNTRACED_RUNS = 3
#: children still running this long after the start are killed, and the
#: command fails
DEADLINE_S = 170.0
#: outputs that are a pure function of the workload and seed
DETERMINISTIC = ("virtual_s", "events", "tasks", "digests", "job_latencies",
                 "operations", "faults_injected")
#: outputs every run of these workloads must show
REQUIRED = {"pipelined-recovery": {"faults_injected": 1}}

SIM_NOTE = ("sim.self_s includes the work the kernel runs from its own "
            "callbacks (scheduler processes, flow-completion timers and the "
            "allocator re-solves they trigger): the program has no spans of "
            "its own yet")


def declared_units(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for the mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def child_env() -> Dict[str, str]:
    """The environment of a child: ``src`` importable, and no
    ``SPARKER_*`` override reaching the program."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPARKER_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_child(workload: str, seed: int, mode: str, budget: float) -> dict:
    """One timed run; ``{"error": ...}`` when the child failed or ran past
    ``budget`` seconds."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out", "mode": mode}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"{mode} run exited {proc.returncode}: "
                         + " | ".join(tail), "mode": mode}
    result = json.loads(lines[-1])
    result["mode"] = mode
    return result


def percentile_with_ten_beyond(values: List[float]) -> float:
    """The highest sample with at least ten samples above it (the
    largest sample when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def check(workload: str, seed: int, runs: List[dict], reference: dict):
    """Count attempted and failed operations; list every mismatch."""
    problems: List[str] = []
    expected = reference.get("reference", {}).get(workload) if seed == 0 \
        else None
    good = [r for r in runs if "error" not in r]
    first = good[0] if good else None
    ops_per_run = len(first["operations"]) if first else 1
    attempted = failed = 0
    for run in runs:
        if "error" in run:
            problems.append(run["error"])
            attempted += ops_per_run
            failed += ops_per_run
            continue
        whole_run_bad = False
        for key in DETERMINISTIC:
            if run[key] != first[key]:
                problems.append(f"{run['mode']} run differs in {key}")
                whole_run_bad = True
        for key, value in REQUIRED.get(workload, {}).items():
            if run[key] != value:
                problems.append(f"{key} = {run[key]}, expected {value}")
                whole_run_bad = True
        if expected is not None:
            for key in ("virtual_s", "events", "tasks"):
                if run[key] != expected[key]:
                    problems.append(f"{key} {run[key]!r} != reference "
                                    f"{expected[key]!r}")
                    whole_run_bad = True
        for label, status in run["operations"]:
            attempted += 1
            if status == "mismatch":
                problems.append(f"{label}: duplicate jobs trained "
                                f"different models")
            elif status == "ok" and expected is not None and (
                    run["digests"][label] != expected["digests"].get(label)):
                problems.append(f"{label}: digest differs from reference")
                status = "mismatch"
            if status != "ok" or whole_run_bad:
                failed += 1
        if "layers" in run and run["self_sum_ns"] != run["window_ns"]:
            problems.append("layer self times do not sum to the window")
    return attempted, failed, problems


def end_to_end(runs: List[dict], ok_frac: float) -> Dict[str, float]:
    untraced = [r for r in runs if r["mode"] == "untraced"]
    wall = statistics.median(r["wall_s"] for r in untraced)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        # which jobs train, and so the samples, is fixed by the seed
        "samples_per_s": untraced[0]["samples"] / wall,
        "ok_frac": ok_frac,
    }


def per_layer(runs: List[dict]) -> Dict[str, float]:
    untraced = [r for r in runs if r["mode"] == "untraced"]
    traced = [r for r in runs if r["mode"] == "traced"]
    first = untraced[0]
    metrics = {
        "virtual_s": first["virtual_s"],
        "job_p50_vs": statistics.median(first["job_latencies"]),
        "job_p90_vs": percentile_with_ten_beyond(first["job_latencies"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                         for r in untraced),
    }
    # one whole traced run, the median by window, so that its self times
    # still sum to its trace.window_s
    middle = sorted(traced, key=lambda r: r["window_ns"])[
        (len(traced) - 1) // 2]
    metrics.update(middle["layers"])
    wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["sim.us_per_event"] = wall / first["events"] * 1e6
    metrics["obs.trace_overhead"] = traced_wall / wall - 1.0
    return metrics


def write_trace(workload: str, seed: int, runs: List[dict]) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    traced = [{"layers": r["layers"], "functions": r["functions"],
               "wall_s": r["wall_s"]}
              for r in runs if r["mode"] == "traced"]
    path = out / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "note": SIM_NOTE, "traced_runs": traced},
                               indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())

    began = time.perf_counter()
    runs: List[dict] = []
    modes = ("untraced", "traced") if args.trace else ("untraced",)
    min_rounds = 1 if args.trace else MIN_UNTRACED_RUNS
    rounds = 0
    while True:
        for mode in modes:
            budget = DEADLINE_S - (time.perf_counter() - began)
            runs.append(run_child(args.workload, args.seed, mode, budget))
        rounds += 1
        elapsed = time.perf_counter() - began
        # another round only if it should end within --seconds, judged by
        # the mean round so far
        if rounds >= min_rounds and elapsed + elapsed / rounds > args.seconds:
            break

    attempted, failed, problems = check(args.workload, args.seed, runs,
                                        reference)
    errors = sorted({e for r in runs for e in r.get("errors", ())})
    for problem in problems + [f"failed: {e}" for e in errors]:
        print(f"{args.workload} seed {args.seed}: {problem}",
              file=sys.stderr)
    if any("error" in r for r in runs):
        # a crashed program leaves nothing to measure
        return 1
    if args.trace:
        write_trace(args.workload, args.seed, runs)
        values = per_layer(runs)
    else:
        values = end_to_end(runs, 1.0 - failed / attempted)
    walls = " ".join(f"{r['mode'][0]}{r['wall_s']:.3f}" for r in runs)
    print(f"{args.workload} seed {args.seed}: {len(runs)} runs in "
          f"{time.perf_counter() - began:.1f}s; window seconds "
          f"(u untraced, t traced): {walls}")
    if args.trace:
        print(f"note: {SIM_NOTE}")
    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Benchmark regression gate: diff BENCH_*.json artifacts, fail on drift.

Two modes::

    python tools/bench_regress.py --check [BENCH_*.json ...]
        Validate the *invariants* of committed artifacts (bit-identity
        flags, zero-perturbation contract, tuner tolerance). With no
        files, checks every BENCH_*.json at the repo root.

    python tools/bench_regress.py --baseline BENCH_x.json --current new.json
        Compare a fresh run against the committed baseline and exit
        non-zero if any registered metric regressed by more than its
        tolerance (default 20% relative, plus an absolute slack for
        wall-clock-ratio metrics, which are noisy on shared CI runners).

The per-benchmark metric registry below chooses *what* is worth gating:
virtual-time (simulated) metrics are deterministic, so they get the bare
relative tolerance; wall-clock ratios additionally get an absolute slack
because they measure the host, not the model. Metrics marked
``same_config`` are skipped when the two artifacts were produced with
different benchmark configurations (e.g. a ``--smoke`` run against a
full-size baseline) — ratio-shaped metrics survive that comparison,
absolute seconds do not.

Exit codes: 0 = clean, 1 = regression or invariant failure, 2 = cannot
read/parse an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: default relative tolerance: a metric may be this fraction worse than
#: the baseline before it counts as a regression (the ">20%" CI rule)
DEFAULT_REL_TOL = 0.20

#: absolute slack for wall-clock overhead *ratios* — measured round-trip
#: variance of benchmarks/obs_overhead.py on a loaded 1-CPU runner is
#: ~±0.06 in the ratio itself, so the gate allows 0.15 on top of the
#: relative rule rather than flaking on machine noise
WALL_RATIO_SLACK = 0.15


@dataclass(frozen=True)
class Metric:
    """One gated quantity inside a benchmark artifact."""

    path: str                      # dotted path, "*" matches any key
    direction: str                 # "lower" or "higher" is better
    rel_tol: float = DEFAULT_REL_TOL
    abs_slack: float = 0.0         # extra allowance in the metric's units
    same_config: bool = True       # only compare identically-configured runs

    def worse_by(self, baseline: float, current: float) -> float:
        """How far ``current`` is beyond ``baseline`` in the bad direction."""
        return (current - baseline if self.direction == "lower"
                else baseline - current)

    def allowance(self, baseline: float) -> float:
        return self.rel_tol * abs(baseline) + self.abs_slack


@dataclass(frozen=True)
class BenchSpec:
    """Registry entry: what to check for one ``benchmark`` name."""

    invariants: Tuple[Tuple[str, Any], ...] = ()
    metrics: Tuple[Metric, ...] = ()
    #: extra single-report checks: fn(report) -> (name, ok, detail)
    derived: Tuple[Callable[[dict], Tuple[str, bool, str]], ...] = ()


def _buffering_beats_sync(report: dict) -> Tuple[str, bool, str]:
    over = report.get("overhead_vs_detached", {})
    log, sync = over.get("event_log"), over.get("event_log_sync")
    if log is None or sync is None:
        return ("event_log <= event_log_sync", True, "modes absent, skipped")
    return ("event_log <= event_log_sync", log <= sync,
            f"buffered {log:.3f} vs per-event {sync:.3f}")


REGISTRY: Dict[str, BenchSpec] = {
    "obs_overhead": BenchSpec(
        invariants=(("virtual_time_identical", True),),
        metrics=(
            Metric("overhead_vs_detached.recorder", "lower",
                   abs_slack=WALL_RATIO_SLACK, same_config=False),
            Metric("overhead_vs_detached.event_log", "lower",
                   abs_slack=WALL_RATIO_SLACK, same_config=False),
        ),
        derived=(_buffering_beats_sync,),
    ),
    "sparse_agg": BenchSpec(
        invariants=(
            ("configs.*.bit_identical_weights", True),
            ("acceptance.sparse_saves_bytes", True),
            ("acceptance.all_bit_identical", True),
        ),
        metrics=(
            Metric("configs.*.wire_reduction", "higher"),
            Metric("configs.*.adaptive.agg_time", "lower"),
        ),
    ),
    "fault_recovery": BenchSpec(
        invariants=(
            ("scenarios.*.result_bit_identical", True),
            ("all_bit_identical", True),
        ),
        metrics=(
            Metric("scenarios.*.recovery_overhead_ratio", "lower"),
            Metric("baseline_virtual_seconds", "lower"),
        ),
    ),
    "resilience": BenchSpec(
        invariants=(
            ("scenarios.*.result_bit_identical", True),
            ("all_bit_identical", True),
            ("speculation.zero_perturbation", True),
            ("speculation.exactly_once", True),
        ),
        metrics=(
            Metric("scenarios.*.pipelined_seconds", "lower"),
            Metric("clean.overlap_win_seconds", "higher"),
            Metric("speculation.makespan_cut_ratio", "higher"),
        ),
    ),
    "collective_matrix": BenchSpec(
        invariants=(("all_within_tolerance", True),),
        metrics=(
            Metric("cells.*.tuner_gap_vs_best", "lower", abs_slack=0.02),
            Metric("cells.*.empirical_best.seconds", "lower"),
        ),
    ),
    "overlap": BenchSpec(
        invariants=(
            ("all_gates_passed", True),
            ("cells.*.bit_identical", True),
            ("cells.*.auto_picked_pipelined", True),
        ),
        metrics=(
            Metric("cells.*.reduction", "higher"),
            Metric("cells.*.pipelined_seconds", "lower"),
        ),
    ),
    "host_perf": BenchSpec(
        metrics=(
            Metric("serial.events_per_sec", "higher",
                   abs_slack=0.0, same_config=False, rel_tol=0.25),
        ),
    ),
    "flow_alloc": BenchSpec(
        metrics=(
            Metric("levels.*.events_per_sec", "higher",
                   abs_slack=0.0, same_config=False, rel_tol=0.25),
        ),
    ),
    "service": BenchSpec(
        invariants=(
            ("identity.all_match", True),
            ("acceptance.throughput_ok", True),
            ("acceptance.fairness_ok", True),
            ("acceptance.scale_ok", True),
        ),
        metrics=(
            Metric("throughput.speedup_vs_fifo", "higher"),
            Metric("latency.p99", "lower"),
            Metric("latency.p50", "lower"),
            Metric("fairness.weighted_max_min_ratio", "lower",
                   abs_slack=0.2),
        ),
    ),
}


# --------------------------------------------------------------- plumbing
def expand(report: dict, path: str) -> Iterator[Tuple[str, Any]]:
    """Yield ``(concrete_path, value)`` for a dotted path; ``*`` fans out."""
    def walk(node: Any, parts: Sequence[str], prefix: List[str]):
        if not parts:
            yield ".".join(prefix), node
            return
        head, rest = parts[0], parts[1:]
        if not isinstance(node, dict):
            return
        keys = sorted(node) if head == "*" else (
            [head] if head in node else [])
        for key in keys:
            yield from walk(node[key], rest, prefix + [key])

    yield from walk(report, path.split("."), [])


def same_configuration(baseline: dict, current: dict) -> bool:
    """True when two artifacts ran the same benchmark configuration.

    ``smoke`` and ``repeats`` are presentation knobs, not workload shape,
    except that a smoke run *does* change shape whenever any other key
    differs — which the remaining keys capture.
    """
    def essence(report: dict) -> dict:
        config = dict(report.get("configuration", {}))
        config.pop("repeats", None)
        config.pop("smoke", None)
        return config

    return essence(baseline) == essence(current)


@dataclass
class Outcome:
    """Accumulated check results with printable lines."""

    lines: List[str] = field(default_factory=list)
    failures: int = 0
    checks: int = 0

    def record(self, ok: bool, line: str, skipped: bool = False) -> None:
        if skipped:
            self.lines.append(f"  [skip] {line}")
            return
        self.checks += 1
        if ok:
            self.lines.append(f"  [ ok ] {line}")
        else:
            self.failures += 1
            self.lines.append(f"  [FAIL] {line}")


def load_report(path: Path) -> dict:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if not isinstance(report, dict) or "benchmark" not in report:
        raise SystemExit(f"error: {path} is not a benchmark artifact "
                         "(no 'benchmark' key)")
    return report


def check_invariants(report: dict, spec: BenchSpec, out: Outcome) -> None:
    for path, expected in spec.invariants:
        matches = list(expand(report, path))
        if not matches:
            out.record(False, f"{path}: missing from artifact")
            continue
        for concrete, value in matches:
            out.record(value == expected,
                       f"{concrete} == {expected!r} (got {value!r})")
    for fn in spec.derived:
        name, ok, detail = fn(report)
        out.record(ok, f"{name}: {detail}")


def compare_reports(baseline: dict, current: dict, spec: BenchSpec,
                    out: Outcome) -> None:
    config_matches = same_configuration(baseline, current)
    for metric in spec.metrics:
        if metric.same_config and not config_matches:
            out.record(True, f"{metric.path}: configurations differ",
                       skipped=True)
            continue
        base_values = dict(expand(baseline, metric.path))
        curr_values = dict(expand(current, metric.path))
        shared = sorted(set(base_values) & set(curr_values))
        if not shared:
            out.record(True, f"{metric.path}: no shared entries",
                       skipped=True)
            continue
        for concrete in shared:
            base, curr = base_values[concrete], curr_values[concrete]
            if not isinstance(base, (int, float)) or \
                    not isinstance(curr, (int, float)):
                out.record(False, f"{concrete}: non-numeric "
                                  f"({base!r} vs {curr!r})")
                continue
            worse = metric.worse_by(float(base), float(curr))
            allowed = metric.allowance(float(base))
            arrow = "->"
            detail = (f"{concrete} ({metric.direction} is better): "
                      f"{base:.6g} {arrow} {curr:.6g} "
                      f"(worse by {max(worse, 0.0):.6g}, "
                      f"allowed {allowed:.6g})")
            out.record(worse <= allowed, detail)


# -------------------------------------------------------------------- CLI
def run_check(paths: Sequence[Path]) -> int:
    status = 0
    for path in paths:
        report = load_report(path)
        name = report["benchmark"]
        spec = REGISTRY.get(name)
        out = Outcome()
        print(f"{path} ({name}):")
        if spec is None:
            print("  [skip] benchmark not in registry")
            continue
        check_invariants(report, spec, out)
        print("\n".join(out.lines) or "  [skip] nothing registered")
        if out.failures:
            status = 1
    return status


def run_compare(baseline_path: Path, current_path: Path) -> int:
    baseline = load_report(baseline_path)
    current = load_report(current_path)
    if baseline["benchmark"] != current["benchmark"]:
        raise SystemExit(
            f"error: artifacts disagree on benchmark name: "
            f"{baseline['benchmark']!r} vs {current['benchmark']!r}")
    spec = REGISTRY.get(baseline["benchmark"])
    if spec is None:
        print(f"{baseline['benchmark']}: not in registry, nothing to gate")
        return 0
    out = Outcome()
    print(f"{baseline['benchmark']}: {baseline_path} (baseline) "
          f"vs {current_path} (current)")
    check_invariants(current, spec, out)
    compare_reports(baseline, current, spec, out)
    print("\n".join(out.lines))
    verdict = ("PASS" if not out.failures
               else f"FAIL ({out.failures} of {out.checks} checks)")
    print(f"result: {verdict}")
    return 1 if out.failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", type=Path,
                        help="artifacts for --check mode (default: "
                             "all BENCH_*.json at the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="validate artifact invariants only")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed artifact to diff against")
    parser.add_argument("--current", type=Path, default=None,
                        help="freshly produced artifact to gate")
    args = parser.parse_args(argv)

    if args.check:
        if args.baseline or args.current:
            parser.error("--check takes artifact files, not "
                         "--baseline/--current")
        paths = args.files or sorted(REPO_ROOT.glob("BENCH_*.json"))
        if not paths:
            parser.error("no BENCH_*.json artifacts found")
        return run_check(paths)
    if args.baseline is None or args.current is None:
        parser.error("need --check, or both --baseline and --current")
    if args.files:
        parser.error("positional files only apply to --check mode")
    return run_compare(args.baseline, args.current)


if __name__ == "__main__":
    sys.exit(main())

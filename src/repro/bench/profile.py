"""Host-time attribution: where does the wall-clock actually go?

The engine's host cost has three very different owners:

* **sim-core** — the discrete-event kernel, the flow network and the
  communication/RDD machinery that drives virtual time forward,
* **user-compute** — the NumPy math inside tasks (gradients, merges,
  dataset generation): work a real cluster would also pay,
* **serde** — payload size estimation and (de)serialization.

:func:`profile_host` runs a callable under :mod:`cProfile` and buckets
every function's *self* time into those categories by module path, so a
perf PR can show exactly which owner it moved. Attribution is by the file
a function is defined in; C builtins carry no file and land in ``other``
(they are a stable, small slice — dict/heap ops mostly owned by the
kernel).

``sim_core`` is additionally split into sub-buckets, because the two
hottest kernel paths evolve independently and a perf PR needs to show
which one it touched:

* **allocator** — the max-min fair flow solver (``repro/cluster/flows``),
* **calendar** — the bucket-queue event calendar (``repro/sim/calendar``),
* **dispatch** — everything else driving virtual time (event trampoline,
  executors, RDD machinery, comm engines).

Command line::

    python -m repro.bench.profile LR-A --nodes 8 --agg tree --iters 3

prints the bucket table plus the top self-time functions for one workload.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["HostTimeBreakdown", "profile_host", "classify_path",
           "classify_sim_core", "BUCKETS", "SIM_CORE_SUBBUCKETS"]

#: first match wins; paths are matched as substrings of the defining file
_BUCKET_RULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("serde", ("/repro/serde/",)),
    ("sim_core", ("/repro/sim/", "/repro/cluster/", "/repro/comm/",
                  "/repro/rdd/", "/repro/obs/")),
    ("user_compute", ("/repro/ml/", "/repro/data/", "/numpy/",
                      "numpy/__init__")),
)

#: every bucket a breakdown reports, in display order
BUCKETS: Tuple[str, ...] = ("sim_core", "user_compute", "serde", "other")

#: first match wins; sub-attribution of ``sim_core`` self-time
_SIM_CORE_SUBRULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("allocator", ("/repro/cluster/flows",)),
    ("calendar", ("/repro/sim/calendar",)),
)

#: sub-buckets of ``sim_core``, in display order
SIM_CORE_SUBBUCKETS: Tuple[str, ...] = ("allocator", "calendar", "dispatch")


def classify_path(filename: str) -> str:
    """Bucket name for a function defined in ``filename``."""
    for bucket, needles in _BUCKET_RULES:
        for needle in needles:
            if needle in filename:
                return bucket
    return "other"


def classify_sim_core(filename: str) -> str:
    """Sub-bucket of ``sim_core`` for a kernel function's defining file."""
    for sub, needles in _SIM_CORE_SUBRULES:
        for needle in needles:
            if needle in filename:
                return sub
    return "dispatch"


@dataclass
class HostTimeBreakdown:
    """Self-time per owner, plus the heaviest individual functions."""

    total: float
    buckets: Dict[str, float] = field(default_factory=dict)
    #: ``sim_core`` self-time split into allocator / calendar / dispatch
    sim_core_split: Dict[str, float] = field(default_factory=dict)
    #: ``(bucket, "file:function", self_seconds)`` — heaviest first
    top: List[Tuple[str, str, float]] = field(default_factory=list)

    def fraction(self, bucket: str) -> float:
        """Share of total self-time owned by ``bucket`` (0.0 when idle)."""
        if self.total <= 0:
            return 0.0
        return self.buckets.get(bucket, 0.0) / self.total

    def sim_core_fraction(self, sub: str) -> float:
        """Share of ``sim_core`` self-time owned by sub-bucket ``sub``."""
        sim_core = self.buckets.get("sim_core", 0.0)
        if sim_core <= 0:
            return 0.0
        return self.sim_core_split.get(sub, 0.0) / sim_core

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by ``benchmarks/host_perf.py``)."""
        return {
            "total_self_time": self.total,
            "buckets": dict(self.buckets),
            "fractions": {b: self.fraction(b) for b in BUCKETS},
            "sim_core_split": dict(self.sim_core_split),
            "sim_core_fractions": {
                s: self.sim_core_fraction(s) for s in SIM_CORE_SUBBUCKETS
            },
            "top": [
                {"bucket": bucket, "function": name, "self_time": seconds}
                for bucket, name, seconds in self.top
            ],
        }

    def __str__(self) -> str:
        parts = [
            f"{bucket}={self.buckets.get(bucket, 0.0):.3f}s"
            f" ({self.fraction(bucket):.0%})"
            for bucket in BUCKETS
        ]
        split = ", ".join(
            f"{sub} {self.sim_core_fraction(sub):.0%}"
            for sub in SIM_CORE_SUBBUCKETS
        )
        return (f"host time {self.total:.3f}s: " + ", ".join(parts)
                + f" [sim_core: {split}]")


def profile_host(fn: Callable, *args: Any,
                 top_n: int = 15, **kwargs: Any
                 ) -> Tuple[Any, HostTimeBreakdown]:
    """Run ``fn(*args, **kwargs)`` under cProfile and attribute its time.

    Returns ``(result, breakdown)``. The callable runs exactly once;
    exceptions propagate (with the profiler already detached).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    buckets: Dict[str, float] = {bucket: 0.0 for bucket in BUCKETS}
    sim_core_split: Dict[str, float] = {
        sub: 0.0 for sub in SIM_CORE_SUBBUCKETS}
    rows: List[Tuple[str, str, float]] = []
    total = 0.0
    for (filename, _lineno, funcname), entry in stats.stats.items():
        self_time = entry[2]  # (cc, nc, tt, ct, callers)
        if self_time <= 0.0:
            continue
        bucket = "other" if filename == "~" else classify_path(filename)
        buckets[bucket] += self_time
        if bucket == "sim_core":
            sim_core_split[classify_sim_core(filename)] += self_time
        total += self_time
        short = filename.rsplit("/", 1)[-1] if filename != "~" else "builtin"
        rows.append((bucket, f"{short}:{funcname}", self_time))
    rows.sort(key=lambda row: row[2], reverse=True)
    return result, HostTimeBreakdown(total=total, buckets=buckets,
                                     sim_core_split=sim_core_split,
                                     top=rows[:top_n])


def _main(argv: List[str] | None = None) -> int:
    import argparse

    from ..cluster import ClusterConfig
    from .workloads import run_workload

    parser = argparse.ArgumentParser(
        description="Attribute one workload's host time to its owners")
    parser.add_argument("workload", nargs="?", default="LR-A")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--agg", default="tree",
                        choices=["tree", "split", "ring"])
    parser.add_argument("--iters", type=int, default=3)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)

    result, breakdown = profile_host(
        run_workload, args.workload, ClusterConfig.bic(args.nodes),
        aggregation=args.agg, iterations=args.iters, top_n=args.top)
    print(result)
    print(breakdown)
    sim_core = breakdown.buckets.get("sim_core", 0.0)
    print(f"  sim_core breakdown ({sim_core:.3f}s):")
    for sub in SIM_CORE_SUBBUCKETS:
        print(f"  {breakdown.sim_core_split.get(sub, 0.0):8.3f}s"
              f"  [{sub:>12}]  {breakdown.sim_core_fraction(sub):.0%}"
              " of sim_core")
    for bucket, name, seconds in breakdown.top:
        print(f"  {seconds:8.3f}s  [{bucket:>12}]  {name}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(_main())

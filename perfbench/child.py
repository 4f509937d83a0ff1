"""One run of one workload in a fresh interpreter; prints one JSON line.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload split-ring --seed 0 --mode untraced

``run.py`` starts every timed run this way, so module-level memos in the
program (the dataset generation memo, warn-once sets) start cold each
time. ``--mode traced`` installs the layer spans of :mod:`spans` and
records the event bus; ``--mode untraced`` touches neither.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy  # noqa: F401  - imported before the set-up clock starts


def _event_counts(events) -> dict:
    by_kind: dict = {}
    for event in events:
        by_kind.setdefault(event.kind, []).append(event)
    return by_kind


def traced_metrics(rec, probes, events, outcome, base: dict) -> dict:
    """The per-layer metrics of one traced window."""
    from repro.obs import attribute_critical_path

    kinds = _event_counts(events)

    def count(kind: str) -> int:
        return len(kinds.get(kind, ()))

    task_ends = kinds.get("task_end", [])
    ok_tasks = sum(1 for e in task_ends if e.status == "ok")
    # every pipelined aggregation closes with one completion, streamed or
    # downgraded
    attempts = sum(1 for e in kinds.get("collective_completed", ())
                   if e.algorithm == "pipelined_ring")
    downgraded = sum(1 for e in kinds.get("collective_downgraded", ())
                     if e.requested == "pipelined_ring")
    waits = [r.started - r.submitted for r in probes.job_records
             if r.started is not None]
    layer_self = rec.layer_self_s()
    vt = attribute_critical_path(events).totals()

    metrics = {
        "sim.events": base["events"],
        "sim.self_s": layer_self["sim"],
        "cluster.flows": rec.calls_of("cluster:FlowNetwork.flow"),
        "cluster.peak_active_flows": probes.peak_active_flows,
        "cluster.self_s": layer_self["cluster"],
        "comm.messages": count("message_delivered"),
        "comm.bytes": sum(e.nbytes for e in kinds.get("message_delivered",
                                                      ())),
        "comm.collectives": count("collective_completed"),
        "comm.self_s": layer_self["comm"],
        "core.aggregations": rec.calls_of("core:split_aggregate",
                                          "core:tree_aggregate"),
        "core.pipelined_attempts": attempts,
        "core.downgrades": count("collective_downgraded"),
        # vacuously 1.0 when nothing tried to stream
        "core.streamed_frac": ((attempts - downgraded) / attempts
                               if attempts else 1.0),
        "core.imm_merges": count("imm_merge"),
        "core.self_s": layer_self["core"],
        "rdd.tasks": len(task_ends),
        "rdd.task_failures": len(task_ends) - ok_tasks,
        "rdd.task_success_frac": (ok_tasks / len(task_ends)
                                  if task_ends else 1.0),
        "rdd.stages": count("stage_completed"),
        "rdd.self_s": layer_self["rdd"],
        "ml.merges": rec.calls_of("ml:FlatAggregator.merge",
                                  "ml:AggregatorSegment.merge"),
        "ml.self_s": layer_self["ml"],
        "serde.sizeof_calls": rec.calls_of("serde:sim_sizeof"),
        "serde.self_s": layer_self["serde"],
        "data.generate_s": probes.generate_ns / 1e9,
        "faults.injected": count("fault_injected"),
        "faults.recovery_actions": count("recovery_action"),
        "service.jobs": len(probes.job_records),
        "service.rejected": int(outcome.extra.get("rejected", 0)),
        "service.admission_wait_p50_vs": (statistics.median(waits)
                                          if waits else 0.0),
        "service.generator_lag_vs": outcome.extra.get("generator_lag_vs",
                                                      0.0),
        "service.handoffs": rec.calls_of("service:Cooperator.await_event"),
        "service.self_s": layer_self["service"],
        "window.self_s": layer_self["window"],
        "trace.window_s": rec.window_ns / 1e9,
    }
    for label in ("compute", "serde", "wire", "queueing", "driver",
                  "recovery", "overhead"):
        metrics[f"vt.{label}_s"] = vt.get(label, 0.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("untraced", "traced"),
                        required=True)
    args = parser.parse_args(argv)
    traced = args.mode == "traced"

    began = time.perf_counter()
    import workloads

    if traced:
        import spans
        rec = spans.SpanRecorder()
        probes = spans.install(rec)
    prepared = workloads.SETUPS[args.workload](args.seed)
    sc = prepared.sc
    events_before = sc.env.events_scheduled
    tasks_before = sum(e.tasks_run for e in sc.executors)
    if traced:
        from repro.obs import RecordingListener
        listener = RecordingListener()
        sc.event_bus.subscribe(listener)
        rec.start()
    setup_s = time.perf_counter() - began

    clock = time.perf_counter()
    summarize = prepared.window()
    wall_s = time.perf_counter() - clock
    if traced:
        rec.stop()
        sc.event_bus.unsubscribe(listener)

    outcome = summarize()
    base = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "virtual_s": outcome.virtual_s,
        "events": sc.env.events_scheduled - events_before,
        "tasks": sum(e.tasks_run for e in sc.executors) - tasks_before,
        "operations": outcome.operations,
        "digests": outcome.digests,
        "job_latencies": outcome.job_latencies,
        "samples": outcome.samples,
        "faults_injected": outcome.extra.get("faults_injected", 0),
        "errors": outcome.errors,
    }
    if traced:
        base["layers"] = traced_metrics(rec, probes, listener.events,
                                        outcome, base)
        base["functions"] = {key: [rec.calls.get(key, 0), ns / 1e9]
                             for key, ns in sorted(rec.self_ns.items())}
        base["self_sum_ns"] = sum(rec.self_ns.values())
        base["window_ns"] = rec.window_ns
    prepared.close()
    base["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
    sys.stdout.write(json.dumps(base) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

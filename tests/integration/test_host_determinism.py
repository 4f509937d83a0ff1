"""Determinism guarantees of the host-performance layer.

Two seeded runs of the same workload must produce byte-identical trace
streams and virtual times: the serial fast paths (DESIGN.md §9) may
change only host wall-clock, never a simulated quantity.
"""

import numpy as np

from repro.bench.workloads import run_workload
from repro.cluster import ClusterConfig
from repro.obs import EventLogWriter


def _train(tmp_path, tag):
    log = tmp_path / f"{tag}.jsonl"
    writer = EventLogWriter(log)
    try:
        result = run_workload("LR-A", ClusterConfig.bic(2),
                              aggregation="tree", iterations=2,
                              listener=writer)
    finally:
        writer.close()
    return result, log.read_bytes()


def test_two_runs_identical_stream_and_virtual_time(tmp_path):
    first, stream_a = _train(tmp_path, "a")
    second, stream_b = _train(tmp_path, "b")
    assert stream_a == stream_b
    assert first.end_to_end == second.end_to_end
    assert first.final_loss == second.final_loss
    assert (np.asarray(first.final_weights).tobytes()
            == np.asarray(second.final_weights).tobytes())
    assert first.sim_events == second.sim_events


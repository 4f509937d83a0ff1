"""SparkerSession tests: run/submit parity, spec policy, lifecycle."""

import warnings

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core.spec import AggregationSpec
from repro.bench.workloads import run_workload
from repro.rdd import SparkerContext
from repro.service import JobCancelled, PoolConfig, SparkerSession
from repro.service.session import service_spec


CFG = ClusterConfig.laptop(num_nodes=2)


def test_run_matches_run_workload_exactly():
    via_session = SparkerSession(CFG).run("LR-A", iterations=2, partitions=4)
    via_legacy = run_workload("LR-A", CFG, iterations=2, partitions=4)
    assert via_session.end_to_end == via_legacy.end_to_end
    assert via_session.final_loss == via_legacy.final_loss
    assert np.array_equal(via_session.final_weights,
                          via_legacy.final_weights)


def test_concurrent_submissions_match_isolated_runs():
    with SparkerSession(CFG) as session:
        handles = {
            name: session.submit(name, tenant=name, iterations=2,
                                 partitions=4)
            for name in ("LR-A", "SVM-A")
        }
        session.server.drain()
        for name, handle in handles.items():
            isolated = SparkerSession(CFG).run(name, iterations=2,
                                               partitions=4)
            assert np.array_equal(handle.result().final_weights,
                                  isolated.final_weights), name


def test_split_submission_matches_isolated_run():
    spec = AggregationSpec(parallelism=2)
    with SparkerSession(CFG) as session:
        handle = session.submit("LR-A", spec, aggregation="split",
                                iterations=2, partitions=4)
        isolated = SparkerSession(CFG).run("LR-A", spec=spec,
                                           aggregation="split",
                                           iterations=2, partitions=4)
        assert np.array_equal(handle.result().final_weights,
                              isolated.final_weights)


def test_service_spec_rejects_topk_compression():
    with pytest.raises(ValueError, match="error-feedback"):
        service_spec(AggregationSpec(compression="topk"),
                     SparkerContext(CFG))


def test_service_spec_rejects_recovery_policy():
    from repro.faults.plan import RecoveryPolicy
    with pytest.raises(ValueError, match="recovery"):
        service_spec(AggregationSpec(recovery=RecoveryPolicy()),
                     SparkerContext(CFG))


def test_service_spec_downgrades_pipelined_ring_warning_once():
    spec = AggregationSpec(collective="pipelined_ring")
    sc = SparkerContext(CFG)
    with pytest.warns(RuntimeWarning, match="pipelined_ring"):
        adapted = service_spec(spec, sc)
    assert adapted.collective == "ring"
    # a second downgrade on the same context is silent (warn-once)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = service_spec(spec, sc)
    assert again.collective == "ring"
    # the warn-once state belongs to the context, not the process
    with pytest.warns(RuntimeWarning, match="pipelined_ring"):
        service_spec(spec, SparkerContext(CFG))


def test_handle_lifecycle_and_cancelled_queued_raises():
    pools = {"narrow": PoolConfig(max_running=1)}
    with SparkerSession(CFG, pools=pools) as session:
        first = session.submit("LR-A", pool="narrow", iterations=1,
                               partitions=4)
        second = session.submit("LR-A", pool="narrow", iterations=1,
                                partitions=4)
        assert not second.done()
        assert second.cancel("changed my mind")
        result = first.result()
        assert first.done() and first.status() == "succeeded"
        assert first.latency is not None and first.latency > 0
        assert result.final_weights is not None
        with pytest.raises(JobCancelled):
            second.result()


def test_session_repr_and_lazy_server():
    session = SparkerSession(CFG)
    assert "service not started" in repr(session)
    session.close()  # closing a never-started service is a no-op
    with SparkerSession(CFG) as live:
        live.submit("LR-A", iterations=1, partitions=4)
        live.server.drain()
        assert "service not started" not in repr(live)

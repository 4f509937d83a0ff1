"""A known defect, pinned: a clean streamed run under a recovery policy.

With a default ``RecoveryPolicy()`` every ring recv carries a 0.5 s
failure-detection deadline. On a clean ``pipelined_ring`` run a rank
that is ready early starts waiting on a peer that is still folding its
partitions; when that fold takes longer than the deadline the wait is
read as a lost peer, the stream is aborted and the aggregation
downgrades to the phased ring ("heard nothing from rank ... for 0.5s").
The result stays exact, but the overlap the collective exists for is
lost: the repository benchmark's ``pipelined-recovery`` workload shows
it as ``core.streamed_frac = 0.0``.

The test states the intended behaviour and is marked as a strict
expected failure, so it fails loudly (XPASS) as soon as a change alters
that behaviour — the fix must come with a benchmark re-baseline.
"""

import numpy as np
import pytest

from .conftest import PAYLOAD_ARGS
from repro import AggregationSpec
from repro.cluster import ClusterConfig
from repro.faults import RecoveryPolicy
from repro.obs import CollectiveDowngraded
from repro.rdd import SparkerContext
from repro.rdd.costing import Costed
from repro.serde import SizedPayload

WIDTH = 16


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a peer folding longer than recv_timeout is "
                   "taken for a dead one, so a clean stream downgrades "
                   "to the phased ring")
def test_slow_fold_does_not_downgrade_a_clean_stream():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    events = []
    sc.event_bus.subscribe(events.append)
    # Executor 1 folds 8x slower: its ~1 s fold outlasts the 0.5 s
    # deadline of the ranks already waiting on it.
    sc.executor_by_id(1).compute_scale = 8.0
    data = [SizedPayload(np.full(WIDTH, float(i))) for i in range(8)]
    rdd = sc.parallelize(data, 4)
    args = dict(PAYLOAD_ARGS, seq_op=Costed(PAYLOAD_ARGS["seq_op"], 0.05))
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(WIDTH)),
        spec=AggregationSpec(collective="pipelined_ring", parallelism=2,
                             recovery=RecoveryPolicy()),
        **args)
    np.testing.assert_array_equal(result.data, np.full(WIDTH, 28.0))
    downgrades = [e for e in events if isinstance(e, CollectiveDowngraded)]
    assert downgrades == [], downgrades[0].detail

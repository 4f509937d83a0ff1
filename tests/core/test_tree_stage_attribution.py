"""``tree_aggregate``'s compute/reduce breakdown under a shared context.

Contract: the breakdown measures only the calling job's own first stage.
Under a service job scope other jobs' stages interleave in the shared
stage log and may still be open (``duration is None``) when the tree
aggregation finishes; they must neither be measured nor crash it.
"""

import numpy as np

from repro.cluster import ClusterConfig
from repro.core.aggregation import tree_aggregate
from repro.rdd import SparkerContext
from repro.rdd.context import JobScope
from repro.rdd.costing import Costed


def test_breakdown_ignores_another_jobs_open_stage():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    # Another job, submitted first and still running when the tree
    # aggregation ends: its stage opens first in the shared log.
    slow = sc.parallelize(list(range(4)), 2).map(Costed(lambda x: x, 50.0))
    other = sc.env.process(
        sc.dag.run_job(slow, lambda _i, data, _ctx: len(data),
                       job_id=sc.new_job_id()),
        name="other-job")
    rdd = sc.parallelize([np.full(4, float(i)) for i in range(8)], 4)
    scope = sc.enter_job_scope(JobScope(sc))
    try:
        began = sc.now
        result = tree_aggregate(rdd, lambda: np.zeros(4),
                                lambda acc, x: acc + x,
                                lambda a, b: a + b)
        total = sc.now - began
    finally:
        sc.exit_job_scope()
    np.testing.assert_array_equal(result, np.full(4, float(sum(range(8)))))
    assert other.is_alive, "the other job must outlive the aggregation"

    own = [s for s in sc.dag.stage_log if s.job_id in scope.job_ids]
    compute = scope.stopwatch.total("agg.compute")
    assert compute == own[0].duration
    assert scope.stopwatch.total("agg.reduce") == total - compute
    sc.env.run(until=other)

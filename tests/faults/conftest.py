"""Shared harness for the fault-injection suite.

``run_split_agg`` runs one split aggregation of a fixed integer-valued
workload (exact float addition, so recovery must reproduce the fault-free
result *bitwise*) under an optional plan, and reports everything the
tests assert on: the result array, the final virtual time, and the
controller's injected/recovery records.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import AggregationSpec
from repro.faults import FaultController, FaultPlan, RecoveryPolicy
from repro.ml import aggregators as flat
from repro.rdd import SparkerContext
from repro.serde import SizedPayload

PAYLOAD_ARGS = dict(
    seq_op=lambda a, x: a.merge_inplace(x),
    split_op=lambda u, i, n: u.split(i, n),
    reduce_op=lambda a, b: a.merge(b),
    concat_op=SizedPayload.concat,
)


def _fold_flat(agg, x):
    np.add(agg.payload, x, out=agg.payload)
    return agg


#: the same callbacks over FlatAggregator holders, the type the opt-in
#: top-k tier sparsifies
FLAT_ARGS = dict(
    seq_op=_fold_flat,
    split_op=flat.split_op,
    reduce_op=flat.reduce_op,
    concat_op=flat.concat_op,
    merge_op=lambda a, b: a.merge(b),
)


N_ITEMS = 24
N_PARTITIONS = 8
WIDTH = 64


def make_context(num_nodes: int = 4) -> SparkerContext:
    return SparkerContext(ClusterConfig.laptop(num_nodes=num_nodes))


def expected_sum() -> np.ndarray:
    return np.sum([np.full(WIDTH, float(i)) for i in range(N_ITEMS)],
                  axis=0)


@dataclass
class AggRun:
    """One split aggregation's observable outcome."""

    result: np.ndarray
    now: float
    injected: List = field(default_factory=list)
    actions: List = field(default_factory=list)

    @property
    def action_names(self) -> List[str]:
        return [a.action for a in self.actions]


def run_split_agg(plan: Optional[FaultPlan] = None,
                  recovery: Optional[RecoveryPolicy] = None,
                  num_nodes: int = 4, parallelism: int = 4,
                  sc: Optional[SparkerContext] = None,
                  collective: str = "ring",
                  chunk_bytes: Optional[float] = None,
                  topk_k: Optional[int] = None) -> AggRun:
    """Aggregate the fixed workload, optionally under an armed plan.

    ``collective``/``chunk_bytes`` select the reduce-scatter strategy
    (``"pipelined_ring"`` exercises the resilient streamed path).
    ``topk_k`` runs the opt-in top-k tier instead: the same items fold
    into FlatAggregators and each holder sends its ``topk_k`` largest
    coordinates; ``result`` is then the aggregator's whole buffer.
    """
    if sc is None:
        sc = make_context(num_nodes)
    controller = None
    if plan is not None:
        controller = FaultController(sc, plan, recovery).arm()
    items = [np.full(WIDTH, float(i)) for i in range(N_ITEMS)]
    spec_kwargs = dict(collective=collective, parallelism=parallelism,
                       recovery=None if plan is not None else recovery)
    if chunk_bytes is not None:
        spec_kwargs["chunk_bytes"] = chunk_bytes
    if topk_k is None:
        rdd = sc.parallelize([SizedPayload(x) for x in items], N_PARTITIONS)
        result = rdd.split_aggregate(
            lambda: SizedPayload(np.zeros(WIDTH)),
            spec=AggregationSpec(**spec_kwargs), **PAYLOAD_ARGS).data
    else:
        rdd = sc.parallelize(items, N_PARTITIONS)
        result = rdd.split_aggregate(
            lambda: flat.FlatAggregator(WIDTH),
            spec=AggregationSpec(compression="topk", topk_k=topk_k,
                                 **spec_kwargs),
            **FLAT_ARGS).to_dense().buf
    return AggRun(result=result, now=sc.now,
                  injected=list(controller.injected) if controller else [],
                  actions=list(controller.actions) if controller else [])


@pytest.fixture(scope="module")
def baseline() -> AggRun:
    """The fault-free run every recovery test compares against bitwise."""
    return run_split_agg()

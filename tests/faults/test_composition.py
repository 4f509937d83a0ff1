"""One split-aggregation driver, every composition of its features.

Contract: whatever the collective (phased ``ring``/``hd`` or streamed
``pipelined_ring``), the recovery policy (none, or the default policy),
the compression tier, the chaos plan and whether the run is traced, the
result is byte-identical to the unfaulted, untraced phased ring of the
same draw. Top-k draws are compared with the top-k phased ring, never
with the exact sum. Top-k is drawn only without a recovery policy (the
two are rejected together), and chaos plans only with one.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import make_context, run_split_agg
from .test_pipelined_recovery import PLAN_CLASSES, plan_for
from repro.faults import RecoveryPolicy

NUM_NODES = 4
TOPK_K = 8


@lru_cache(maxsize=None)
def phased_ring_bytes(topk_k):
    return run_split_agg(num_nodes=NUM_NODES, topk_k=topk_k).result.tobytes()


@st.composite
def compositions(draw):
    recovered = draw(st.booleans())
    return dict(
        collective=draw(st.sampled_from(["ring", "hd", "pipelined_ring"])),
        recovered=recovered,
        topk_k=None if recovered or not draw(st.booleans()) else TOPK_K,
        plan=draw(st.sampled_from([None] + PLAN_CLASSES))
        if recovered else None,
        traced=draw(st.booleans()),
    )


@settings(derandomize=True, max_examples=48, deadline=None)
@given(draw=compositions())
def test_every_composition_matches_the_phased_ring(draw):
    sc = make_context(NUM_NODES)
    events = []
    if draw["traced"]:
        sc.event_bus.subscribe(events.append)
    run = run_split_agg(
        plan=None if draw["plan"] is None else plan_for(draw["plan"],
                                                        NUM_NODES),
        recovery=RecoveryPolicy() if draw["recovered"] else None,
        num_nodes=NUM_NODES, sc=sc, collective=draw["collective"],
        topk_k=draw["topk_k"])
    assert run.result.tobytes() == phased_ring_bytes(draw["topk_k"]), draw
    assert bool(events) == draw["traced"]

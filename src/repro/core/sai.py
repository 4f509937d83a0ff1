"""Split aggregation: the paper's contribution (§3.1, §4.3, Figure 6).

``splitAggregate(zeroValue)(seqOp, splitOp, reduceOp, concatOp,
parallelism)`` generalizes ``treeAggregate`` with object-splitting
callbacks so the reduction can run a *scalable* algorithm:

* ``seqOp(U, T) -> U`` — fold one element into an aggregator (unchanged),
* ``splitOp(U, i, n) -> V`` — extract segment ``i`` of ``n`` from an
  aggregator; aggregator (``U``) and segment (``V``) types may differ
  (Figure 7's ``Agg`` vs ``AggSeg`` rationale),
* ``reduceOp(V, V) -> V`` — merge two segments,
* ``concatOp(Seq[V]) -> V`` — reassemble segments into the final value.

Execution (§4.3): a **reduced-result stage** folds every partition and
merges task results per executor in memory (IMM), leaving exactly one
aggregator per executor; a **SpawnRDD** pins one task per holding executor;
those tasks run the PDR ring **reduce-scatter** over ``N * parallelism``
segments; the owned segments are collected to the driver and concatenated.

The executor-local IMM merge operates on whole aggregators, which is the
one operation the four SAI callbacks cannot express when ``U != V``; pass
``merge_op`` (MLlib's existing ``combOp``) for such types. When ``U`` and
``V`` coincide (Figure 7's arrays, the micro-benchmarks), the default
derives the merge from ``splitOp``/``reduceOp`` on the whole-object
segment.

One call, one recovery policy. :class:`_AggregationRun` holds the call's
state and runs it on one of two schedules: **phased** (the reduced-result
stage finishes, then the collective runs over its holders) or
**streamed** (``collective="pipelined_ring"``: the ring is built from the
predicted placement before the stage starts, and each executor streams
its aggregator the moment its last partition merges).

With a :class:`~repro.faults.RecoveryPolicy` in effect (via an armed
:class:`~repro.faults.FaultController` or ``spec.recovery``) the phased
reduce is a detect/recompute/rebuild loop:

1. **detect** — ring recvs carry a failure-detection timeout and every
   holding executor gets a death listener that aborts the collective the
   instant it dies;
2. **recompute** — a dead holder's lost partitions re-run through lineage
   (a partial reduced-result job over only those partitions), and the
   recomputed partials are absorbed into the surviving aggregators under
   a fresh *aggregation epoch* that fences any stale task merges;
3. **rebuild** — a new ring over the survivors (hostname re-sorted), up
   to ``max_ring_attempts`` times, after which the aggregation falls back
   to ``treeAggregate`` over the same lineage.

The stream is armored the same way plus a per-chunk delivery ledger; a
mid-stream fault downgrades it to the phased loop, where rebuilds replay
only the chunk columns the ledger has not acknowledged.

"No recovery" is the degenerate policy of the same code: no recv
timeout, no death listeners, no ledger, no fault controller on the
communicator, and one reduce attempt whose exception propagates
unchanged — an unfaulted run schedules exactly the seed's events.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..comm.ring import ChunkLedger, ScalableCommunicator
from ..obs import CollectiveChosen, CollectiveCompleted, CollectiveCostEstimate, CollectiveDowngraded, RecoveryAction, ResidualNorm
from ..rdd.costing import ELEMENT_OVERHEAD, cost_of
from ..rdd.rdd import RDD
from ..rdd.scheduler import JobFailed
from ..rdd.task_context import TaskContext
from ..serde import sim_sizeof
from ..sim import SimulationError
from .aggregation import fresh_zero, tree_aggregate
from .spawn_rdd import SpawnRDD
from .spec import AggregationSpec

__all__ = ["split_aggregate"]

SeqOp = Callable[[Any, Any], Any]
SplitOp = Callable[[Any, int, int], Any]
ReduceOp = Callable[[Any, Any], Any]
ConcatOp = Callable[[Sequence[Any]], Any]
MergeOp = Callable[[Any, Any], Any]

#: (executor_id, object_id) pairs as returned by run_reduced_job
Holders = List[Tuple[int, Tuple[int, int]]]


def split_aggregate(rdd: RDD, zero: Any, seq_op: SeqOp, split_op: SplitOp,
                    reduce_op: ReduceOp, concat_op: ConcatOp,
                    spec: Optional[AggregationSpec] = None, *,
                    merge_op: Optional[MergeOp] = None) -> Any:
    """Sparker's ``splitAggregate`` (blocking driver call).

    Returns the fully reduced value of type ``V`` (Figure 6: the action's
    result type is the segment type, produced by ``concatOp``).

    ``spec`` carries every reduction knob (see
    :class:`~repro.core.spec.AggregationSpec`): the collective algorithm
    (``"ring"`` | ``"hd"`` | ``"hierarchical"``, or ``"auto"`` to let the
    cost-model tuner pick algorithm and parallelism from the holders'
    actual wire sizes), the channel parallelism, topology awareness and
    the recovery policy.

    With no recovery policy in the spec one is taken from the context's
    armed fault controller (``sc.faults``); when neither exists the
    aggregation runs under the degenerate no-recovery policy.
    """
    spec = AggregationSpec.from_env(spec)
    sc = rdd.sc

    if merge_op is None:
        def merge_op(a: Any, b: Any) -> Any:  # noqa: F811 - documented default
            return reduce_op(split_op(a, 0, 1), split_op(b, 0, 1))

    if rdd.num_partitions() == 0:
        z = fresh_zero(zero)
        return concat_op([split_op(z, i, spec.parallelism)
                          for i in range(spec.parallelism)])

    controller = sc.faults
    recovery = spec.recovery
    if recovery is None and controller is not None:
        recovery = controller.recovery

    if spec.compression != "none" and recovery is not None:
        raise ValueError(
            'compression="topk" is incompatible with a recovery policy: '
            "error-feedback residuals live on the executors and die with "
            "them, so a recovered ring would silently lose compensation "
            "state. Disable compression or the recovery policy.")

    run = _AggregationRun(rdd, spec, zero, seq_op, split_op, reduce_op,
                          concat_op, merge_op, recovery)
    # A controller armed without a recovery policy injects faults the
    # stream could not survive; such runs take the phased schedule.
    if spec.collective == "pipelined_ring" and (recovery is not None
                                                or controller is None):
        return run.streamed()
    return run.phased()


# ---------------------------------------------------------------------------
# Collective bookkeeping shared by both schedules
# ---------------------------------------------------------------------------

def _holder_value_bytes(sc: Any, holders: Holders) -> float:
    """Mean wire size of the holders' in-memory aggregators.

    This is the ``__sim_size__`` probe, so the density-adaptive sparse
    format prices at its actual encoded size — the tuner sees the same
    bytes the ring would put on the wire.
    """
    total = 0.0
    for executor_id, obj in holders:
        value = sc.executor_by_id(executor_id).object_manager.get(obj)
        total += sim_sizeof(value)
    return total / len(holders)


def _slots_for(sc: Any, executor_ids: Iterable[int]) -> list:
    slot_by_id = {slot.executor_id: slot
                  for slot in sc.cluster.executors}
    return [slot_by_id[executor_id] for executor_id in executor_ids]


def _emit_chosen(sc: Any, cid: int, holders: Holders, algorithm: str,
                 parallelism: int, span_id: int, *, source: str = "spec",
                 predicted: float = 0.0) -> None:
    """Emit the :class:`CollectiveChosen` record of a collective over
    ``holders`` (the caller has checked that the bus is active)."""
    slots = _slots_for(sc, (executor_id for executor_id, _ in holders))
    value_bytes = _holder_value_bytes(sc, holders)
    bus = sc.event_bus
    bus.emit(CollectiveChosen(
        time=sc.now, collective_id=cid, algorithm=algorithm,
        parallelism=parallelism, source=source, ranks=len(slots),
        hosts=len({s.hostname for s in slots}), value_bytes=value_bytes,
        segment_bytes=value_bytes / (len(slots) * parallelism),
        predicted=predicted,
        span_id=span_id, parent_span_id=bus.tracer.current_parent))


def _choose_collective(sc: Any, spec: AggregationSpec, holders: Holders
                       ) -> Tuple[int, str, int, float, Any]:
    """Decide this aggregation's ``(algorithm, parallelism)``.

    With ``spec.collective="auto"`` the cost model prices every
    ``algorithm x parallelism_candidates`` pair against the holders'
    measured wire sizes and placement; otherwise the spec's pinned choice
    passes straight through. Returns ``(collective_id, algorithm,
    parallelism, predicted_seconds, model)`` — ``model`` is None unless
    the tuner ran (its prediction feeds the post-run calibration).

    The decision itself is driver-side Python: it schedules no simulation
    events, so a pinned-ring run remains bit-identical to the seed.
    """
    cid = sc.new_collective_id()
    bus = sc.event_bus
    if spec.collective != "auto":
        if bus.active:
            _emit_chosen(sc, cid, holders, spec.collective, spec.parallelism,
                         bus.tracer.open_collective(cid))
        return cid, spec.collective, spec.parallelism, 0.0, None

    from ..comm.cost import choose_collective, cost_model_for
    model = cost_model_for(sc)
    slots = _slots_for(sc, (executor_id for executor_id, _ in holders))
    value_bytes = _holder_value_bytes(sc, holders)
    algorithms = ["ring", "pipelined_ring", "hd"]
    if spec.topology_aware:
        algorithms.append("hierarchical")
    # Degraded holders slow every merge hop they participate in; the ring
    # runs at the pace of its slowest rank, so price the worst penalty.
    health = getattr(sc, "health", None)
    penalty = 1.0
    if health is not None:
        penalty = max((health.compute_penalty(eid) for eid, _ in holders),
                      default=1.0)
    winner, estimates = choose_collective(
        model, value_bytes, slots, algorithms, spec.parallelism_candidates,
        chunk_bytes=spec.chunk_bytes, compute_penalty=penalty)
    predicted = next(est for plan, est in estimates if plan is winner)
    if bus.active:
        tracer = bus.tracer
        cspan = tracer.open_collective(cid)
        for plan, est in estimates:
            bus.emit(CollectiveCostEstimate(
                time=sc.now, collective_id=cid, algorithm=plan.algorithm,
                parallelism=plan.parallelism, predicted=est,
                chosen=plan is winner,
                span_id=tracer.new_span(), parent_span_id=cspan))
        _emit_chosen(sc, cid, holders, winner.algorithm, winner.parallelism,
                     cspan, source="auto", predicted=predicted)
    return cid, winner.algorithm, winner.parallelism, predicted, model


def _finish_collective(sc: Any, model: Any, cid: int, algorithm: str,
                       parallelism: int, predicted: float,
                       began: float) -> None:
    """Close the measurement window: calibrate the model, emit the span."""
    measured = sc.now - began
    if model is not None:
        model.observe(algorithm, predicted, measured)
    if sc.event_bus.active:
        sc.event_bus.emit(CollectiveCompleted(
            time=sc.now, collective_id=cid, algorithm=algorithm,
            parallelism=parallelism, began=began, seconds=measured,
            predicted=predicted,
            span_id=sc.event_bus.tracer.close_collective(cid)))


def _communicator(sc: Any, executor_ids: Iterable[int], parallelism: int,
                  topology_aware: bool, recovery: Any, chunk_bytes: float,
                  span_id: int) -> ScalableCommunicator:
    """A communicator over ``executor_ids``, armored by ``recovery``: the
    fault controller on its fabric and the policy's recv deadline (both
    absent under the degenerate no-recovery policy)."""
    armored = recovery is not None
    comm = ScalableCommunicator(
        sc.cluster, parallelism=parallelism, topology_aware=topology_aware,
        slots=_slots_for(sc, executor_ids), bus=sc.event_bus,
        faults=sc.faults if armored else None,
        recv_timeout=recovery.recv_timeout if armored else None)
    comm.set_span(span_id)
    # only algorithm="pipelined_ring" reads the chunk size
    comm.chunk_bytes = chunk_bytes
    return comm


@contextmanager
def _death_watch(sc: Any, executor_ids: Iterable[int],
                 on_death: Optional[Callable[[Any], None]]) -> Iterator[None]:
    """Call ``on_death`` the instant any listed executor dies, for the
    duration of the block (nothing is installed when it is None)."""
    watched = ([sc.executor_by_id(eid) for eid in executor_ids]
               if on_death is not None else [])
    for executor in watched:
        executor.add_death_listener(on_death)
    try:
        yield
    finally:
        for executor in watched:
            executor.remove_death_listener(on_death)


def _reduce_once(sc: Any, holders: Holders, parallelism: int,
                 topology_aware: bool, split_op: SplitOp,
                 reduce_op: ReduceOp, concat_op: ConcatOp, *,
                 algorithm: str, recovery: Any, chunk_bytes: float,
                 ledger: Optional[ChunkLedger] = None,
                 span_id: int = -1) -> Any:
    """One SpawnRDD + reduce-scatter + gather pass over ``holders``.

    ``algorithm`` dispatches the reduce-scatter strategy by registry name
    (:mod:`repro.comm.collectives` — every strategy is bit-identical).
    ``recovery`` arms the pass: ring recvs carry its failure-detection
    deadline, the fault controller sees the fabric, and a death listener
    aborts the collective (interrupting all of its processes) the instant
    any holding executor dies, so a mid-collective crash surfaces
    immediately instead of via timeout. With ``recovery`` None this is
    exactly the original reduce step.

    ``chunk_bytes`` is read only by ``algorithm="pipelined_ring"``
    (chunk-level wire/merge overlap with every aggregator in hand — the
    mode the tuner prices, and the rebuild mode of a streamed downgrade),
    whose bound ``ledger`` replays acknowledged chunk columns from their
    recorded reductions instead of the wire.
    """
    holder_ids = [executor_id for executor_id, _ in holders]
    comm = _communicator(sc, holder_ids, parallelism, topology_aware,
                         recovery, chunk_bytes, span_id)
    comm.ledger = ledger
    spawned = SpawnRDD.from_holders(sc, holders)
    # The SpawnRDD launch validates static placement and reads each
    # executor's aggregator; its (cheap) results stay executor-side —
    # the ring operates on the very same in-memory objects.
    object_by_executor = dict(holders)
    values = [sc.executor_by_id(slot.executor_id).object_manager.get(
        object_by_executor[slot.executor_id]) for slot in comm.ranked]
    spawn_results = sc.run_job(spawned, lambda _i, data, _ctx: len(data))
    if len(spawn_results) != len(holders):  # pragma: no cover
        raise RuntimeError("SpawnRDD lost partitions")

    def on_death(executor: Any) -> None:
        comm.abort(f"executor {executor.executor_id} died mid-collective")

    with _death_watch(sc, holder_ids,
                      on_death if recovery is not None else None):
        try:
            proc = sc.env.process(comm.reduce_scatter_gather(
                values, split_op, reduce_op, concat_op, algorithm=algorithm))
            result = sc.env.run(until=proc)
        except BaseException:
            if recovery is not None:
                # Kill any surviving ranks of the failed collective:
                # zombies would keep exchanging segments and burn NIC
                # bandwidth under the rebuilt ring.
                comm.abort("collective failed")
            raise

    SpawnRDD.cleanup_holders(sc, holders)
    return result


# ---------------------------------------------------------------------------
# Opt-in top-k compression (the approximate tier)
# ---------------------------------------------------------------------------

def _topk_compress(spec: AggregationSpec, executor: Any, value: Any
                   ) -> Tuple[Any, float, dict]:
    """Sparsify one executor's merged aggregator before it hits the wire.

    Returns ``(compressed, cost_seconds, stats)``. Only the payload is
    sparsified — the loss/weight stats slots always travel exact, so the
    convergence diagnostics stay trustworthy. With ``error_feedback`` the
    unsent remainder accumulates in ``executor.residuals`` (keyed by
    payload size, cleared when the executor dies) and is added back before
    the next selection, so every coordinate is eventually transmitted.

    The sparsification itself costs one pass over the dense payload at
    the platform's merge bandwidth (select + subtract are both linear);
    the caller charges it as virtual time and emits the gauge.
    """
    import numpy as np

    from ..ml.aggregators import FlatAggregator
    from ..serde import DEFAULT_SPARSE_POLICY, topk_sparsify

    if not isinstance(value, FlatAggregator):
        raise TypeError(
            f'compression="topk" needs a FlatAggregator holder, got '
            f"{type(value).__name__}")
    value.to_dense()
    d = value.payload_size
    payload = np.asarray(value.payload, dtype=np.float64)
    if spec.topk_k is not None:
        k = spec.topk_k
    else:
        k = max(1, int(round(spec.topk_ratio * d)))
    k = min(k, d) if d else 0
    key = ("topk", d)
    residual = executor.residuals.get(key) if spec.error_feedback else None
    if residual is not None:
        corrected = payload + residual
    else:
        corrected = payload.copy()
    idx, sent, remainder = topk_sparsify(corrected, max(1, k))
    if spec.error_feedback:
        executor.residuals[key] = remainder
    policy = value.policy or DEFAULT_SPARSE_POLICY
    comp = FlatAggregator(d, value.size_scale, policy=policy)
    comp.payload.scatter_add(idx, sent)
    comp.add_stats(value.loss_sum, value.weight_sum)
    cost = (value.__sim_dense_size__()
            / executor.sc.cluster.config.merge_bandwidth)
    stats = {"k": int(k), "payload_size": int(d),
             "sent_norm": float(np.linalg.norm(sent)),
             "residual_norm": float(np.linalg.norm(remainder))}
    return comp, cost, stats


def _compress_holder(sc: Any, spec: AggregationSpec, executor_id: int,
                     obj: Tuple[int, int], parent_span: int):
    """Process body: sparsify one holder in place, charge the pass as
    virtual time and emit its :class:`ResidualNorm` gauge."""
    executor = sc.executor_by_id(executor_id)
    value = executor.object_manager.get(obj)
    comp, cost, stats = _topk_compress(spec, executor, value)
    if cost > 0:
        yield sc.env.timeout(cost)
    executor.object_manager.replace(obj, comp)
    bus = sc.event_bus
    if bus.active:
        bus.emit(ResidualNorm(
            time=sc.now, executor_id=executor_id, job_id=obj[0],
            error_feedback=spec.error_feedback,
            span_id=bus.tracer.new_span(), parent_span_id=parent_span,
            **stats))


def _compress_holders(sc: Any, spec: AggregationSpec,
                      holders: Holders) -> None:
    """Sparsify every holder in place (concurrently, blocking driver call)
    between the phased schedule's stage and collective; the streamed
    schedule runs :func:`_compress_holder` in each executor's cook step."""
    env = sc.env
    procs = [env.process(_compress_holder(sc, spec, eid, obj, -1),
                         name=f"topk:{eid}")
             for eid, obj in holders]
    for proc in procs:
        env.run(until=proc)


def _plan_placement(sc: Any, rdd: RDD, partitions: Sequence[int]) -> List[int]:
    """Predict, driver-side, which executor each partition will land on.

    Mirrors :meth:`DAGScheduler._pick_executor` with an empty ``tried``
    set (including its skip of health-quarantined executors) — exact as
    long as no task fails. The plan lets the ring be built *before* the
    reduced-result stage finishes. If a fault makes the stage land
    anywhere else, the streamed driver detects the deviation after the
    fact and downgrades to the phased reduce loop.
    """
    alive = [e for e in sc.executors if e.alive]
    if not alive:
        raise RuntimeError("no alive executors in the cluster")
    health = getattr(sc, "health", None)

    def quarantined(executor_id: int) -> bool:
        return health is not None and health.is_quarantined(executor_id)

    pool = [e for e in alive if not quarantined(e.executor_id)] or alive
    plan: List[int] = []
    for position, partition in enumerate(partitions):
        pinned = rdd.pinned_executor(partition)
        if pinned is not None:
            plan.append(pinned)
            continue
        chosen: Optional[int] = None
        for executor_id in rdd.preferred_executors(partition):
            if (sc.executor_by_id(executor_id).alive
                    and not quarantined(executor_id)):
                chosen = executor_id
                break
        if chosen is None:
            chosen = pool[position % len(pool)].executor_id
        plan.append(chosen)
    return plan


def _emit_downgrade(sc: Any, controller: Any, reason: str, detail: str,
                    job_id: int, span_id: int) -> None:
    """Record a pipelined→phased downgrade: obs event plus one warning."""
    bus = sc.event_bus
    if bus.active:
        bus.emit(CollectiveDowngraded(
            time=sc.now, requested="pipelined_ring", actual="ring",
            reason=reason, job_id=job_id, detail=detail,
            span_id=bus.tracer.new_span(), parent_span_id=span_id))
    action = RecoveryAction(time=sc.now, action="streamed_abort",
                            site="pipelined", job_id=job_id,
                            detail=f"{reason}: {detail}",
                            parent_span_id=span_id)
    if controller is not None:
        controller.actions.append(action)
    if bus.active:
        bus.emit(action)
    sc.warn_once(
        f"pipelined_downgrade:{reason}",
        f"pipelined_ring downgraded to the phased fault-tolerant path "
        f"({reason}): {detail}. The result is unaffected; only the "
        f"compute/communication overlap is lost. Further downgrades "
        f"of this kind on this context warn only on the event stream.")


# ---------------------------------------------------------------------------
# One aggregation: the phased and streamed schedules
# ---------------------------------------------------------------------------

class _AggregationRun:
    """The state of one ``split_aggregate`` call, shared by both schedules.

    ``recovery`` is the policy in effect (None is the degenerate
    no-recovery policy); ``controller`` is the context's armed fault
    controller, which records every recovery action.
    """

    def __init__(self, rdd: RDD, spec: AggregationSpec, zero: Any,
                 seq_op: SeqOp, split_op: SplitOp, reduce_op: ReduceOp,
                 concat_op: ConcatOp, merge_op: MergeOp, recovery: Any):
        self.sc = rdd.sc
        self.rdd = rdd
        self.spec = spec
        self.zero = zero
        self.seq_op = seq_op
        self.split_op = split_op
        self.reduce_op = reduce_op
        self.concat_op = concat_op
        self.merge_op = merge_op
        self.recovery = recovery
        self.controller = self.sc.faults

    def partial_func(self, _idx: int, data: list, ctx: TaskContext) -> Any:
        """Stage 1's task body: fold one partition into a fresh zero."""
        acc = fresh_zero(self.zero)
        # Opt-in whole-partition fold (e.g. the batched CSR gradient
        # kernel): the seqOp object declares it and stays responsible for
        # charging the same virtual time the per-element loop would.
        seq_op = self.seq_op
        folder = getattr(seq_op, "fold_partition", None)
        if folder is not None:
            return folder(acc, data, ctx)
        for x in data:
            ctx.charge(cost_of(seq_op, acc, x) + ELEMENT_OVERHEAD)
            acc = seq_op(acc, x)
        return acc

    # ------------------------------------------------------------- phased
    def phased(self) -> Any:
        """Fold every partition, then reduce the holders. Top-k
        compression sparsifies every holder first, so the tuner and the
        ring both see the compressed wire sizes."""
        sc, spec = self.sc, self.spec
        with sc.stopwatch.span("agg.compute"):
            holders, contributions = sc.run_reduced_job(
                self.rdd, self.partial_func, self.merge_op, detail=True)
        with sc.stopwatch.span("agg.reduce"):
            if spec.compression != "none":
                _compress_holders(sc, spec, holders)
            decision = _choose_collective(sc, spec, holders)
            cid, algorithm, chosen_p, predicted, model = decision
            began = sc.now
            result = self.reduce(holders, contributions, chosen_p, algorithm,
                                 sc.event_bus.tracer.collective_span(cid))
            _finish_collective(sc, model, cid, algorithm, chosen_p,
                               predicted, began)
        return result

    def reduce(self, holders: Holders, contributions: dict,
               parallelism: int, algorithm: str, span_id: int,
               ledger: Optional[ChunkLedger] = None) -> Any:
        """The phased reduce loop: detect / recompute / rebuild.

        Under the degenerate no-recovery policy this is one
        :func:`_reduce_once` attempt whose exception propagates unchanged.
        The loop is algorithm-agnostic: every collective surfaces a lost
        peer as :class:`~repro.rdd.executor.ExecutorLost` (recv deadline)
        or an abort interrupt (death listener), and rebuilds keep the
        chosen ``algorithm`` — a shrunken ring is re-priced only on the
        next aggregation.

        ``ledger`` (streamed downgrades only) carries per-chunk completion
        records across attempts, re-bound before each pass to the exact
        holder set, parallelism and aggregation epoch: a retry over
        unchanged holders (link faults) salvages every acknowledged column,
        while a crash re-keys it, because recomputed aggregators invalidate
        every prior partial reduction.
        """
        sc, spec, recovery = self.sc, self.spec, self.recovery

        def attempt(holders: Holders) -> Any:
            return _reduce_once(
                sc, holders, parallelism, spec.topology_aware, self.split_op,
                self.reduce_op, self.concat_op, algorithm=algorithm,
                recovery=recovery, chunk_bytes=spec.chunk_bytes,
                ledger=ledger, span_id=span_id)

        if recovery is None:
            return attempt(holders)

        controller = self.controller
        agg_job = holders[0][1][0]  # stage 1's job id, for recovery events
        attempts = 0
        epoch = 0
        first_detect: Optional[float] = None
        #: span of the recovery epoch (first detection -> recovered); every
        #: recovery action and recompute job parents to it. Opened lazily
        #: so a fault-free run allocates nothing.
        epoch_span = -1

        def emit(action: str, **kw: Any) -> None:
            nonlocal epoch_span
            if sc.event_bus.active:
                tracer = sc.event_bus.tracer
                if epoch_span < 0:
                    epoch_span = tracer.new_span()
                if action == "recovered":
                    # The epoch span closes on its own id, like JobEnd does.
                    kw.setdefault("span_id", epoch_span)
                    kw.setdefault("parent_span_id", span_id)
                else:
                    kw.setdefault("span_id", tracer.new_span())
                    kw.setdefault("parent_span_id", epoch_span)
            event = RecoveryAction(time=sc.now, action=action,
                                   job_id=agg_job, **kw)
            if controller is not None:
                controller.actions.append(event)
            if sc.event_bus.active:
                sc.event_bus.emit(event)

        while attempts < recovery.max_ring_attempts:
            lost = [(eid, obj) for eid, obj in holders
                    if not sc.executor_by_id(eid).alive]
            if lost:
                if first_detect is None:
                    first_detect = sc.now
                live = [(eid, obj) for eid, obj in holders
                        if sc.executor_by_id(eid).alive]
                lost_parts = sorted(
                    p for eid, _ in lost for p in contributions.get(eid, ()))
                for eid, _ in lost:
                    emit("partial_recompute", executor_id=eid,
                         attempt=attempts, ranks=len(live),
                         detail=f"partitions {lost_parts} via lineage")
                    contributions.pop(eid, None)
                # Lineage recompute: re-run the reduced-result stage over
                # only the dead holders' partitions. The scheduler places
                # them on surviving executors (and survives further losses
                # itself).
                tracer = sc.event_bus.tracer
                tracer.push_parent(epoch_span)
                try:
                    new_holders, new_contribs = sc.run_reduced_job(
                        self.rdd, self.partial_func, self.merge_op,
                        partitions=lost_parts, detail=True)
                finally:
                    tracer.pop_parent()
                # Fence the surviving aggregators at a fresh epoch so any
                # zombie merge from the original stage raises
                # StaleMergeError, then absorb the recomputed partials.
                epoch += 1
                live_by_id = dict(live)
                for eid, obj in live:
                    sc.executor_by_id(eid).object_manager.fence(obj, epoch)
                for eid, temp_obj in new_holders:
                    manager = sc.executor_by_id(eid).object_manager
                    temp_value = manager.get(temp_obj)
                    if eid in live_by_id:
                        # The recomputed partial lands on an executor that
                        # already holds an original: merge the two in
                        # memory.
                        proc = sc.env.process(manager.absorb(
                            live_by_id[eid], epoch, temp_value,
                            self.merge_op))
                        sc.env.run(until=proc)
                        manager.clear(temp_obj)
                        contributions[eid] = sorted(
                            contributions.get(eid, []) + new_contribs[eid])
                    else:
                        # A fresh holder joins the ring with the recomputed
                        # partial as its aggregator.
                        manager.fence(temp_obj, epoch)
                        live.append((eid, temp_obj))
                        live_by_id[eid] = temp_obj
                        contributions[eid] = sorted(new_contribs[eid])
                holders = live
                # Re-check before ringing: a holder may have died during
                # the recompute job itself.
                continue
            if ledger is not None:
                ledger.bind((tuple(eid for eid, _ in holders), parallelism,
                             epoch), size=len(holders))
            try:
                result = attempt(holders)
            except (JobFailed, SimulationError):
                # Retry budgets below this loop are already exhausted (or
                # the kernel itself broke): rebuilding cannot help.
                raise
            except Exception as exc:
                # ExecutorLost (recv timeout or pinned-task failure),
                # Interrupt (a death listener aborted the collective),
                # StaleMergeError — all mean this ring attempt is dead;
                # rebuild over survivors.
                attempts += 1
                emit("ring_abort", attempt=attempts, ranks=len(holders),
                     detail=str(exc))
                if first_detect is None:
                    first_detect = sc.now
                if attempts < recovery.max_ring_attempts:
                    emit("ring_rebuild", attempt=attempts,
                         ranks=len(holders))
                continue
            if first_detect is not None:
                emit("recovered", seconds=sc.now - first_detect,
                     attempt=attempts, ranks=len(holders))
            return result

        # ---- ring budget exhausted: fall back to the tree ---------------
        emit("tree_fallback", site="tree", attempt=attempts)
        SpawnRDD.cleanup_holders(sc, holders)
        if not recovery.tree_fallback:
            raise RuntimeError(
                f"split aggregation failed {attempts} ring attempts and "
                f"tree fallback is disabled")
        tracer = sc.event_bus.tracer
        tracer.push_parent(epoch_span)
        try:
            agg = tree_aggregate(self.rdd, self.zero, self.seq_op,
                                 self.merge_op, depth=recovery.tree_depth,
                                 imm=True)
        finally:
            tracer.pop_parent()
        result = self.concat_op([self.split_op(agg, i, parallelism)
                                 for i in range(parallelism)])
        if first_detect is not None:
            emit("recovered", site="tree", seconds=sc.now - first_detect,
                 attempt=attempts)
        return result

    # ----------------------------------------------------------- streamed
    def streamed(self) -> Any:
        """Overlap the reduced-result stage with the ring reduce-scatter.

        The ring is built up front from the predicted placement; each
        rank waits for its executor's last partition merge (the
        ``on_merged`` hook) and a *cook* step (top-k compression, when
        asked for), so early finishers stream chunk columns while
        stragglers still fold. Merge order is fixed by topology, not by
        readiness timing — the result is bit-identical to the phased ring.

        Under a recovery policy the stream is armored: recv deadlines,
        death listeners on every planned executor, and a
        :class:`ChunkLedger` recording each chunk column once all ranks
        reduced it. A crash, a link fault or a placement deviation tears
        the stream down and downgrades to :meth:`reduce`'s loop with
        ``algorithm="pipelined_ring"`` and the ledger, so a rebuild over
        the same holders and epoch replays acknowledged columns. Under the
        degenerate policy only a placement deviation (impossible without
        faults) loses the stream; the phased schedule then reruns the
        reduction, provided nothing streamed yet.
        """
        sc, spec, recovery = self.sc, self.spec, self.recovery
        env = sc.env
        bus = sc.event_bus
        plan = _plan_placement(sc, self.rdd,
                               range(self.rdd.num_partitions()))
        #: planned executor -> partition count, in first-placement order
        expected: dict = {}
        for executor_id in plan:
            expected[executor_id] = expected.get(executor_id, 0) + 1
        planned_order = list(expected)

        cid = sc.new_collective_id()
        if bus.active:
            bus.tracer.open_collective(cid)
        span_id = bus.tracer.collective_span(cid)

        comm = _communicator(sc, planned_order, spec.parallelism,
                             spec.topology_aware, recovery, spec.chunk_bytes,
                             span_id)
        ledger = None
        if recovery is not None:
            # Epoch 0 of the chunk ledger: completions recorded by the
            # stream are salvageable by any rebuild over the same holders
            # and epoch.
            ledger = ChunkLedger()
            ledger.bind((tuple(planned_order), spec.parallelism, 0),
                        size=len(planned_order))
            comm.ledger = ledger

        #: why the stream was lost; None while it is healthy
        lost: Optional[str] = None

        def abort_stream(reason: str) -> None:
            nonlocal lost
            if lost is None:
                lost = reason
                comm.abort(reason)

        def on_death(executor: Any) -> None:
            abort_stream(f"executor {executor.executor_id} died mid-stream")

        counts: dict = {executor_id: 0 for executor_id in expected}
        merged_objects: dict = {}
        complete = {executor_id: env.event(name=f"agg-complete:{executor_id}")
                    for executor_id in planned_order}
        streamable = {executor_id: env.event(name=f"agg-ready:{executor_id}")
                      for executor_id in planned_order}

        def on_merged(executor_id: int, _partition: int,
                      object_id: Tuple[int, int]) -> None:
            if lost is not None:
                # Merges of a resubmitted stage must not restart the stream.
                return
            merged_objects[executor_id] = object_id
            counts[executor_id] = counts.get(executor_id, 0) + 1
            if counts[executor_id] == expected.get(executor_id):
                event = complete.get(executor_id)
                if event is not None and not event.triggered:
                    event.succeed()

        def cook(executor_id: int):
            yield complete[executor_id]
            if spec.compression != "none":
                yield from _compress_holder(sc, spec, executor_id,
                                            merged_objects[executor_id],
                                            span_id)
            streamable[executor_id].succeed()

        comm.pipeline = [
            (streamable[slot.executor_id],
             lambda eid=slot.executor_id: sc.executor_by_id(eid)
             .object_manager.get(merged_objects[eid]))
            for slot in comm.ranked]

        with _death_watch(sc, planned_order,
                          on_death if recovery is not None else None):
            began = sc.now
            job_id = sc.new_job_id()
            job_proc = env.process(
                sc.dag.run_reduced_job(self.rdd, self.partial_func,
                                       self.merge_op, job_id, detail=True,
                                       on_merged=on_merged),
                name="reduced-job")
            cooks = [env.process(cook(executor_id),
                                 name=f"cook:{executor_id}")
                     for executor_id in planned_order]
            collective = env.process(
                comm.reduce_scatter_gather([None] * len(planned_order),
                                           self.split_op, self.reduce_op,
                                           self.concat_op,
                                           algorithm="pipelined_ring"),
                name="pipelined-collective")

            def teardown(reason: str) -> None:
                abort_stream(reason)
                try:
                    env.run(until=collective)
                except BaseException:  # noqa: BLE001 - the abort is the point
                    pass
                for proc in cooks:
                    if proc.is_alive:
                        proc.interrupt(reason)

            with sc.stopwatch.span("agg.compute"):
                try:
                    holders, contributions = env.run(until=job_proc)
                except BaseException:
                    # Stage budget exhausted or driver teardown: recovery
                    # below this level already failed; don't leave a
                    # zombie stream.
                    teardown("reduced-result stage failed")
                    raise

            deviated = lost is None and (
                [executor_id for executor_id, _ in holders] != planned_order
                or any(counts.get(executor_id) != expected.get(executor_id)
                       for executor_id in expected)
                or any(merged_objects.get(executor_id) != obj
                       for executor_id, obj in holders))

            if lost is None and not deviated:
                if bus.active:
                    _emit_chosen(sc, cid, holders, "pipelined_ring",
                                 spec.parallelism, span_id)
                with sc.stopwatch.span("agg.reduce"):
                    try:
                        result = env.run(until=collective)
                    except Exception as exc:
                        if recovery is None or isinstance(
                                exc, (JobFailed, SimulationError)):
                            teardown("collective failed")
                            raise
                        # Recv timeout, dropped link, or a late crash:
                        # downgrade.
                        lost = str(exc)
                    else:
                        # began is the *job* start: the completed-span
                        # covers the whole overlapped window, which is the
                        # number the overlap benchmark compares against
                        # compute + reduce of the phased schedule.
                        _finish_collective(sc, None, cid, "pipelined_ring",
                                           spec.parallelism, 0.0, began)
                        SpawnRDD.cleanup_holders(sc, holders)
                        return result

            # ---- stream lost: tear it down, rerun phased ------------------
            reason = "placement_deviation" if deviated else "streamed_abort"
            detail = lost or ("reduced-result stage landed off the planned "
                              "executors")
            teardown(detail)

        if recovery is None:
            if any(event.triggered
                   for event in streamable.values()):  # pragma: no cover
                raise RuntimeError(
                    "pipelined ring streamed an aggregator from a deviated "
                    "placement; cannot fall back safely")
        else:
            _emit_downgrade(sc, self.controller, reason, detail, job_id,
                            span_id)
        with sc.stopwatch.span("agg.reduce"):
            result = self.reduce(holders, contributions, spec.parallelism,
                                 "pipelined_ring", span_id, ledger)
            _finish_collective(sc, None, cid, "pipelined_ring",
                               spec.parallelism, 0.0, began)
        return result

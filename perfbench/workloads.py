"""The three benchmark workloads: seeded inputs, set-up, measured window.

Every workload is split the same way. ``setup(seed)`` builds the cluster,
generates the seeded inputs and materializes cached datasets; it returns a
:class:`Prepared` whose ``window()`` is the measured call. ``window()``
returns a function that, called after the clock stops, summarizes the run
as an :class:`Outcome` with everything the benchmark checks and reports. The
program receives only the generated inputs: the seed moves the dataset
seeds (through ``dataclasses.replace`` on the registry's specs), the
traffic schedule seed and the fault plan seed.

Seed 0 leaves the registry's datasets and the repository's traffic seed
unchanged; ``perfbench/reference.json`` pins its outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Callable, Dict, List

import numpy as np

from repro import AggregationSpec, ClusterConfig
from repro.bench.workloads import WORKLOADS
from repro.data import registry
from repro.faults import AtRingHop, ExecutorCrash, FaultController, FaultPlan
from repro.faults import RecoveryPolicy
from repro.ml import LDA, LogisticRegressionWithSGD
from repro.service import PoolConfig, SparkerSession, TenantProfile
from repro.service import run_open_loop

#: the traffic seed ``benchmarks/service.py`` commits BENCH_service.json at
SERVICE_BASE_SEED = 2026


def digest(array) -> str:
    """SHA-256 of an array's float64 bytes."""
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


@dataclasses.dataclass
class Outcome:
    """What one measured window produced."""

    virtual_s: float
    #: (operation label, status) per operation attempted; status is "ok",
    #: "failed" (raised or refused) or "mismatch" (a duplicate signature
    #: trained a different model)
    operations: List[tuple]
    #: operation label -> SHA-256 of its trained model
    digests: Dict[str, str]
    #: virtual job latencies (from each job's due time)
    job_latencies: List[float]
    samples: int
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: why each failed operation failed
    errors: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Prepared:
    """A set-up workload, ready for its measured window."""

    #: the context the workload runs on
    sc: object
    window: Callable[[], Callable[[], Outcome]]
    close: Callable[[], None]


def seeded_dataset(name: str, seed: int):
    """The registry's dataset ``name`` with its seed moved by ``seed``,
    installed in the registry so every lookup by name sees it."""
    base = registry.DATASETS[name]
    spec = dataclasses.replace(base, seed=base.seed + seed)
    registry.DATASETS[name] = spec
    return spec


def _cached_rdd(sc, spec):
    samples, _truth = spec.generate()
    rdd = sc.parallelize(samples, sc.default_parallelism).cache()
    rdd.count()  # materialize MEMORY_ONLY before the measured window
    return rdd


# ----------------------------------------------------------- split-ring
SPLIT_RING_ITERATIONS = 5


def setup_split_ring(seed: int) -> Prepared:
    """LR-C on bic(8), split aggregation over the phased ring."""
    wl = WORKLOADS["LR-C"]
    ds = seeded_dataset(wl.dataset_name, seed)
    sc = SparkerSession(ClusterConfig.bic(8)).context()
    rdd = _cached_rdd(sc, ds)

    def window():
        began = sc.now
        model = LogisticRegressionWithSGD.train(
            rdd, ds.surrogate_features,
            num_iterations=SPLIT_RING_ITERATIONS,
            step_size=wl.step_size, reg_param=wl.reg_param,
            mini_batch_fraction=wl.mini_batch_fraction,
            aggregation="split", spec=AggregationSpec(collective="ring"),
            size_scale=ds.size_scale, sample_scale=ds.compute_scale)
        virtual = sc.now - began
        return lambda: Outcome(
            virtual_s=virtual, operations=[("train", "ok")],
            digests={"train": digest(model.weights)},
            job_latencies=[virtual],
            samples=ds.surrogate_samples * SPLIT_RING_ITERATIONS)

    return Prepared(sc=sc, window=window, close=sc.stop)


# --------------------------------------------------- pipelined-recovery
PIPELINED_ITERATIONS = 4


def crash_plan(seed: int, executor_ids: List[int]) -> FaultPlan:
    """One executor crash at a ring hop, drawn from ``seed``."""
    rng = random.Random(f"pipelined-recovery:{seed}")
    crash = ExecutorCrash(rng.choice(executor_ids),
                          AtRingHop(hop=rng.randrange(1, 4),
                                    occurrence=rng.randrange(0, 8)))
    return FaultPlan(faults=(crash,), seed=seed)


def setup_pipelined_recovery(seed: int) -> Prepared:
    """LDA-N on bic(8), pipelined ring under the default recovery policy,
    with one seeded executor crash at a ring hop."""
    wl = WORKLOADS["LDA-N"]
    ds = seeded_dataset(wl.dataset_name, seed)
    sc = SparkerSession(ClusterConfig.bic(8)).context()
    rdd = _cached_rdd(sc, ds)
    plan = crash_plan(seed, [e.executor_id for e in sc.executors])
    controller = FaultController(sc, plan, RecoveryPolicy()).arm()

    def window():
        began = sc.now
        model = LDA(
            k=registry.SURROGATE_LDA_TOPICS,
            num_iterations=PIPELINED_ITERATIONS, aggregation="split",
            spec=AggregationSpec(collective="pipelined_ring"),
            size_scale=ds.size_scale, sample_scale=ds.compute_scale,
        ).fit(rdd, ds.surrogate_features)
        virtual = sc.now - began
        return lambda: Outcome(
            virtual_s=virtual, operations=[("train", "ok")],
            digests={"train": digest(model.topics)},
            job_latencies=[virtual],
            samples=ds.surrogate_samples * PIPELINED_ITERATIONS,
            extra={"faults_injected": len(controller.injected)})

    return Prepared(sc=sc, window=window, close=sc.stop)


# ---------------------------------------------------------- service-mix
SERVICE_NODES = 4
SERVICE_PARTITIONS = 4
SERVICE_ITERATIONS = 2
SERVICE_JOBS_PER_TENANT = 13
SERVICE_POOLS = {
    "gold": PoolConfig(weight=3.0),
    "silver": PoolConfig(weight=2.0),
    "bronze": PoolConfig(weight=1.0),
}
_SPLIT_SPECS = (AggregationSpec(collective="ring", parallelism=2),
                AggregationSpec(collective="hd", parallelism=2))


def tenant_mix() -> List[TenantProfile]:
    """Eight tenants over three FAIR pools, two of them bursty — the mix
    ``benchmarks/service.py`` measures."""
    common = dict(jobs=SERVICE_JOBS_PER_TENANT, iterations=SERVICE_ITERATIONS,
                  partitions=SERVICE_PARTITIONS)
    return [
        TenantProfile("ads-train", pool="gold", workloads=("LR-A",),
                      aggregation="split", specs=_SPLIT_SPECS,
                      mean_interarrival=30.0, **common),
        TenantProfile("feed-rank", pool="gold", workloads=("SVM-A",),
                      aggregation="tree", mean_interarrival=30.0, **common),
        TenantProfile("spam-filter", pool="silver",
                      workloads=("LR-A", "SVM-A"), aggregation="tree",
                      mean_interarrival=40.0, **common),
        TenantProfile("ctr-sweep", pool="silver", workloads=("LR-A",),
                      aggregation="split", specs=_SPLIT_SPECS,
                      mean_interarrival=90.0, burst=3, **common),
        TenantProfile("churn-model", pool="silver", workloads=("SVM-A",),
                      aggregation="tree_imm", mean_interarrival=40.0,
                      **common),
        TenantProfile("analyst-1", pool="bronze",
                      workloads=("LR-A", "SVM-A"), aggregation="tree",
                      mean_interarrival=50.0, **common),
        TenantProfile("analyst-2", pool="bronze", workloads=("SVM-A",),
                      aggregation="split", specs=_SPLIT_SPECS,
                      mean_interarrival=120.0, burst=4, **common),
        TenantProfile("intern", pool="bronze", workloads=("LR-A",),
                      aggregation="tree", mean_interarrival=50.0, **common),
    ]


class _StampingSession(SparkerSession):
    """A session that notes the virtual instant of every admitted job, so
    latency can be counted from the arrival's due time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted_at: Dict[int, float] = {}

    def submit(self, *args, **kwargs):
        handle = super().submit(*args, **kwargs)
        self.admitted_at[handle.job_id] = self.server.sc.now
        return handle


def signature_label(arrival) -> str:
    """What determines an arrival's trained model, as a stable string."""
    spec = ("default" if arrival.spec is None
            else f"{arrival.spec.collective}/{arrival.spec.parallelism}")
    return (f"{arrival.workload}|{arrival.aggregation}|{arrival.iterations}"
            f"|{arrival.partitions}|{spec}")


def setup_service_mix(seed: int) -> Prepared:
    """104 open-loop jobs from 8 tenants on laptop(4)."""
    tenants = tenant_mix()
    names = {name for t in tenants for name in t.workloads}
    for dataset_name in sorted({WORKLOADS[n].dataset_name for n in names}):
        seeded_dataset(dataset_name, seed).generate()
    session = _StampingSession(
        ClusterConfig.laptop(num_nodes=SERVICE_NODES),
        pools=dict(SERVICE_POOLS))
    sc = session.server.sc

    def window():
        began = sc.now
        result = run_open_loop(session, tenants,
                               seed=SERVICE_BASE_SEED + seed)
        return lambda: summarize(began, result)

    def summarize(began: float, result) -> Outcome:
        operations = []
        errors: List[str] = []
        digests: Dict[str, str] = {}
        latencies = []
        samples = 0
        lags = []
        for arrival, handle in result.submissions:
            label = signature_label(arrival)
            if handle is None:
                operations.append((label, "failed"))
                errors.append(f"{label}: refused")
                continue
            try:
                weights = digest(handle.result().final_weights)
            except Exception as exc:  # the job failed; count it, go on
                operations.append((label, "failed"))
                errors.append(f"{label}: {exc!r}")
                continue
            # duplicate signatures must train byte-identical models
            same = digests.setdefault(label, weights) == weights
            operations.append((label, "ok" if same else "mismatch"))
            due = began + arrival.time
            lag = session.admitted_at[handle.job_id] - due
            lags.append(lag)
            latencies.append(handle.latency + lag)
            wl = WORKLOADS[arrival.workload]
            samples += (registry.DATASETS[wl.dataset_name].surrogate_samples
                        * arrival.iterations)
        return Outcome(
            virtual_s=result.makespan, operations=operations,
            digests=digests, job_latencies=latencies, samples=samples,
            extra={"generator_lag_vs": max(lags) if lags else 0.0,
                   "rejected": len(result.rejections)},
            errors=errors)

    return Prepared(sc=sc, window=window, close=session.close)


SETUPS: Dict[str, Callable[[int], Prepared]] = {
    "split-ring": setup_split_ring,
    "pipelined-recovery": setup_pipelined_recovery,
    "service-mix": setup_service_mix,
}

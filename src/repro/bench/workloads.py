"""The nine end-to-end workloads (Table 3 models x Table 2 datasets).

``LDA-E, LDA-N, LR-A, LR-C, LR-K, SVM-A, SVM-C, SVM-K, SVM-K12`` — the
combinations the paper evaluates in Figures 1/2/17 (LR-K12 is excluded:
it ran out of memory on both of the paper's configurations).

:func:`run_workload` trains one workload on one cluster configuration with
one aggregation backend and returns the end-to-end time plus the 4-way
decomposition; it is ``SparkerSession(config).run(...)`` under its
historical name, with every reduction knob on one
:class:`~repro.core.AggregationSpec`. Iteration counts are configurable:
the paper runs up to 40 (BIC) / 15 (AWS) iterations; simulated runs
default to fewer since per-iteration behaviour is what every figure
reduces to (speedups are iteration-count invariant as long as both sides
use the same count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster import ClusterConfig
from ..core.spec import AggregationSpec
from ..data.registry import DatasetSpec, dataset
from .harness import TimeBreakdown

__all__ = ["WorkloadSpec", "WORKLOADS", "WorkloadResult", "run_workload"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One model-dataset combination of the paper's evaluation."""

    name: str
    model: str  # "lr" | "svm" | "lda"
    dataset_name: str
    #: Table 3 parameters
    step_size: float = 1.0
    reg_param: float = 0.0
    mini_batch_fraction: float = 1.0

    @property
    def spec(self) -> DatasetSpec:
        return dataset(self.dataset_name)


#: the paper's nine workloads, in Figure 1 order
WORKLOADS: Dict[str, WorkloadSpec] = {
    w.name: w for w in [
        WorkloadSpec("LDA-E", "lda", "enron"),
        WorkloadSpec("LDA-N", "lda", "nytimes"),
        WorkloadSpec("LR-A", "lr", "avazu"),
        WorkloadSpec("LR-C", "lr", "criteo"),
        WorkloadSpec("LR-K", "lr", "kdd10"),
        WorkloadSpec("SVM-A", "svm", "avazu", reg_param=0.01),
        WorkloadSpec("SVM-C", "svm", "criteo", reg_param=0.01),
        WorkloadSpec("SVM-K", "svm", "kdd10", reg_param=0.01),
        WorkloadSpec("SVM-K12", "svm", "kdd12", reg_param=0.01),
    ]
}


@dataclass
class WorkloadResult:
    """Outcome of one training run."""

    workload: str
    config_name: str
    num_nodes: int
    aggregation: str
    iterations: int
    end_to_end: float
    breakdown: TimeBreakdown
    final_loss: float
    #: kernel events scheduled during the whole run (host-perf metric)
    sim_events: int = 0
    #: task attempts executed across all executors
    tasks_run: int = 0
    #: trained weight vector (LinearModel workloads; None for LDA) — lets
    #: the host-perf benchmark checksum results byte-for-byte
    final_weights: Optional[object] = None

    def __str__(self) -> str:
        return (f"{self.workload} on {self.num_nodes}x{self.config_name} "
                f"[{self.aggregation}] {self.iterations} iters: "
                f"{self.end_to_end:.2f}s ({self.breakdown})")


def run_workload(name: str, config: ClusterConfig,
                 aggregation: str = "tree", iterations: int = 3,
                 spec: Optional[AggregationSpec] = None,
                 partitions: Optional[int] = None,
                 listener=None) -> WorkloadResult:
    """Train one workload end-to-end on a fresh simulated cluster.

    Data generation and cache materialization happen before the measured
    window (the paper measures model training, with datasets preloaded
    MEMORY_ONLY). ``spec`` carries every reduction knob — collective
    algorithm (or ``"auto"`` for the cost-model tuner), parallelism, the
    density-adaptive sparse payload and the per-partition CSR ``batched``
    kernel. ``listener``, when given, is subscribed to the context's
    event bus for the training window.

    This is a plain pass-through to
    :meth:`repro.service.SparkerSession.run` (the session is the
    canonical entry point, sync and async).
    """
    from ..service.session import SparkerSession

    return SparkerSession(config).run(
        name, aggregation=aggregation, iterations=iterations, spec=spec,
        partitions=partitions, listener=listener)


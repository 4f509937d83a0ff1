"""Online variational LDA (Hoffman et al.; MLlib's default optimizer).

Where the EM trainer (:class:`~repro.ml.lda.LDA`) aggregates expected
counts over the *whole* corpus each iteration, online LDA samples a
mini-batch, aggregates the same ``K x V`` sufficient statistics over it,
and blends them into the variational topic parameters with a decaying
weight ``rho_t = (tau0 + t)^(-kappa)``. The aggregator is identical in
shape and size to EM's — so the paper's aggregation trade-off applies to
both MLlib LDA optimizers, just at mini-batch frequency.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from numpy.random import default_rng
from scipy.special import digamma

from ..core.aggregation import tree_aggregate
from ..core.sai import split_aggregate
from ..core.spec import AggregationSpec
from ..rdd.costing import Costed
from ..rdd.rdd import RDD
from .aggregators import FlatAggregator, concat_op, reduce_op, split_op
from .lda import LDA_TOKEN_TIME, LDAModel, _E_STEP_SWEEPS
from .linalg import SparseVector
from .optimization import AGGREGATION_MODES, ScaledPayloadValue

__all__ = ["OnlineLDA"]


class OnlineLDA:
    """Mini-batch variational Bayes for LDA over the simulated engine."""

    def __init__(self, k: int = 10, num_iterations: int = 20,
                 mini_batch_fraction: float = 0.25,
                 doc_concentration: float = 0.1,
                 topic_concentration: float = 0.01,
                 tau0: float = 1.0, kappa: float = 0.51,
                 aggregation: str = "tree",
                 spec: Optional[AggregationSpec] = None,
                 size_scale: float = 1.0, sample_scale: float = 1.0,
                 token_time: float = LDA_TOKEN_TIME, seed: int = 7):
        if aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {aggregation!r}")
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if not 0.0 < mini_batch_fraction <= 1.0:
            raise ValueError(
                f"mini_batch_fraction in (0, 1]: {mini_batch_fraction}")
        if kappa < 0.5 or kappa > 1.0:
            raise ValueError(
                f"kappa in [0.5, 1] required for convergence: {kappa}")
        self.k = k
        self.num_iterations = num_iterations
        self.mini_batch_fraction = mini_batch_fraction
        self.doc_concentration = doc_concentration
        self.topic_concentration = topic_concentration
        self.tau0 = tau0
        self.kappa = kappa
        self.aggregation = aggregation
        self.spec = spec if spec is not None else AggregationSpec()
        self.size_scale = size_scale
        self.sample_scale = sample_scale
        self.token_time = token_time
        self.seed = seed

    @property
    def parallelism(self) -> int:
        return self.spec.parallelism

    def fit(self, corpus: RDD, vocab_size: int) -> LDAModel:
        """Train on an RDD of word-count :class:`SparseVector` docs."""
        if vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1: {vocab_size}")
        sc = corpus.sc
        k, vocab = self.k, vocab_size
        corpus_size = corpus.count()
        if corpus_size == 0:
            raise ValueError("cannot fit on an empty corpus")
        rng = default_rng(self.seed)
        # Variational topic parameters lambda (K x V), gamma-distributed
        # initialization as in Hoffman et al.
        lam = rng.gamma(100.0, 1.0 / 100.0, (k, vocab))
        alpha = self.doc_concentration
        eta = self.topic_concentration
        per_token = self.token_time * self.sample_scale
        log_likelihoods: List[float] = []

        for iteration in range(1, self.num_iterations + 1):
            # Expected log beta under the current variational posterior.
            e_log_beta = digamma(lam) - digamma(
                lam.sum(axis=1, keepdims=True))
            exp_e_log_beta = np.exp(e_log_beta)

            with sc.stopwatch.span("ml.broadcast"):
                bc = sc.broadcast(ScaledPayloadValue(
                    exp_e_log_beta, k * vocab * 8.0 * self.size_scale))

            batch = (corpus if self.mini_batch_fraction >= 1.0
                     else corpus.sample(self.mini_batch_fraction,
                                        seed=self.seed + iteration))

            def fold(agg: FlatAggregator, doc: SparseVector
                     ) -> FlatAggregator:
                if doc.nnz == 0:
                    return agg
                stats = agg.payload.reshape(k, vocab)
                beta_w = bc.value.value[:, doc.indices]
                gamma = np.ones(k)
                phi = beta_w.copy()
                for _ in range(_E_STEP_SWEEPS):
                    phi = beta_w * gamma[:, None]
                    phi /= phi.sum(axis=0, keepdims=True) + 1e-100
                    gamma = alpha + phi @ doc.values
                stats[:, doc.indices] += phi * doc.values
                theta = gamma / gamma.sum()
                word_prob = theta @ beta_w + 1e-100
                agg.add_stats(float(doc.values @ np.log(word_prob)), 1.0)
                return agg

            seq_op = Costed(
                fold, lambda _a, d: k * d.nnz * per_token)
            merge = Costed(lambda a, b: a.merge(b), 0.0)
            size_scale = self.size_scale
            zero = lambda: FlatAggregator(k * vocab, size_scale)  # noqa: E731

            if self.aggregation == "split":
                agg = split_aggregate(
                    batch, zero, seq_op, split_op, reduce_op, concat_op,
                    self.spec, merge_op=merge)
            else:
                agg = tree_aggregate(
                    batch, zero, seq_op, merge,
                    imm=(self.aggregation == "tree_imm"))
            bc.destroy()
            batch_docs = agg.weight_sum
            if batch_docs == 0:
                continue  # empty mini-batch: skip the update

            # --- driver update: natural-gradient step on lambda ----------
            with sc.stopwatch.span("ml.driver"):
                stats = agg.payload.reshape(k, vocab)
                rho = (self.tau0 + iteration) ** (-self.kappa)
                lam_hat = eta + (corpus_size / batch_docs) * stats
                lam = (1.0 - rho) * lam + rho * lam_hat
                log_likelihoods.append(
                    agg.loss_sum * corpus_size / batch_docs)
                driver_seconds = (20.0 * k * vocab * 8.0 * self.size_scale
                                  / sc.cluster.config.merge_bandwidth)
                proc = sc.env.process(sc.driver_work(driver_seconds))
                sc.env.run(until=proc)

        topics = lam / lam.sum(axis=1, keepdims=True)
        return LDAModel(topics, log_likelihoods, alpha, eta)

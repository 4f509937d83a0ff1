"""Feature preprocessing: StandardScaler over distributed statistics.

MLlib standardizes features before training linear models; computing the
per-feature mean and variance is itself a global aggregation of two dense
``dim``-sized arrays — structurally the exact ``Agg{sum1, sum2}`` example
of the paper's Figure 7. The scaler therefore runs through the same
tree/split aggregation backends as training, making it both a realistic
preprocessing stage and a second production consumer of the SAI.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.aggregation import tree_aggregate
from ..core.sai import split_aggregate
from ..core.spec import AggregationSpec
from ..rdd.costing import Costed
from ..rdd.rdd import RDD
from .aggregators import FlatAggregator, concat_op, reduce_op, split_op
from .linalg import LabeledPoint, SparseVector
from .optimization import AGGREGATION_MODES, JVM_FLOP_TIME

__all__ = ["StandardScaler", "StandardScalerModel"]


class StandardScalerModel:
    """Fitted per-feature statistics; transforms sparse vectors.

    Only scaling by the standard deviation is applied to sparse data
    (centering would densify it — the same choice MLlib makes when
    ``withMean=False``).
    """

    def __init__(self, mean: np.ndarray, variance: np.ndarray,
                 count: float):
        self.mean = mean
        self.variance = variance
        self.count = count
        std = np.sqrt(variance)
        # Features with no variance pass through unscaled.
        self._inv_std = np.where(std > 0, 1.0 / np.maximum(std, 1e-300),
                                 1.0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def transform(self, features: SparseVector) -> SparseVector:
        """Scale a sparse vector's non-zeros by 1/std."""
        return SparseVector(
            features.size, features.indices,
            features.values * self._inv_std[features.indices])

    def transform_point(self, point: LabeledPoint) -> LabeledPoint:
        return LabeledPoint(point.label, self.transform(point.features))

    def transform_rdd(self, data: RDD) -> RDD:
        """Scale an RDD of :class:`LabeledPoint` (lazy, per-element)."""
        model = self
        return data.map(lambda p: model.transform_point(p))


class StandardScaler:
    """Fits per-feature mean/variance with one distributed aggregation."""

    def __init__(self, aggregation: str = "tree",
                 spec: Optional[AggregationSpec] = None,
                 size_scale: float = 1.0, sample_scale: float = 1.0,
                 flop_time: float = JVM_FLOP_TIME):
        if aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {aggregation!r}")
        self.aggregation = aggregation
        self.spec = spec if spec is not None else AggregationSpec()
        self.size_scale = size_scale
        self.sample_scale = sample_scale
        self.flop_time = flop_time

    @property
    def parallelism(self) -> int:
        return self.spec.parallelism

    def fit(self, data: RDD, num_features: int) -> StandardScalerModel:
        """One pass: aggregate sum and sum-of-squares per feature.

        The aggregator payload is ``[sums..., sums_of_squares...]`` — two
        arrays in one flat buffer, Figure 7's shape.
        """
        if num_features < 1:
            raise ValueError(f"num_features must be >= 1: {num_features}")
        dim = num_features
        per_nnz = 3.0 * self.flop_time * self.sample_scale

        def fold(agg: FlatAggregator, point: LabeledPoint
                 ) -> FlatAggregator:
            features = point.features
            sums = agg.payload[:dim]
            squares = agg.payload[dim:]
            features.add_to(sums)
            np.add.at(squares, features.indices, features.values ** 2)
            agg.add_stats(0.0, 1.0)
            return agg

        seq_op = Costed(
            fold, lambda _agg, p: p.features.nnz * per_nnz)
        merge = Costed(lambda a, b: a.merge(b), 0.0)
        size_scale = self.size_scale
        zero = lambda: FlatAggregator(2 * dim, size_scale)  # noqa: E731

        if self.aggregation == "split":
            agg = split_aggregate(data, zero, seq_op, split_op, reduce_op,
                                  concat_op, self.spec, merge_op=merge)
        else:
            agg = tree_aggregate(data, zero, seq_op, merge,
                                 imm=(self.aggregation == "tree_imm"))
        count = agg.weight_sum
        if count <= 0:
            raise ValueError("cannot fit a scaler on an empty dataset")
        sums = agg.payload[:dim]
        squares = agg.payload[dim:]
        mean = sums / count
        # Unbiased sample variance, clamped against rounding negatives.
        if count > 1:
            variance = np.maximum(
                (squares - count * mean ** 2) / (count - 1), 0.0)
        else:
            variance = np.zeros(dim)
        return StandardScalerModel(mean, variance, count)

"""Tests for automatic split-op derivation (§6 future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core import AggregationSpec, UnsplittableError, derive_split_ops
from repro.rdd import SparkerContext


class TwoArrayAgg:
    """Figure 7's shape: two arrays plus an additive scalar."""

    def __init__(self, dim):
        self.sum1 = np.zeros(dim)
        self.sum2 = np.zeros(dim)
        self.count = 0.0

    def add(self, x):
        self.sum1 += x
        self.sum2 += x * x
        self.count += 1
        return self


class MatrixAgg:
    """A 2-D state field (LDA-like)."""

    def __init__(self, k, v):
        self.counts = np.zeros((k, v))
        self.loglik = 0.0


class SlottedAgg:
    __slots__ = ("values", "total")

    def __init__(self, dim):
        self.values = np.zeros(dim)
        self.total = 0.0


def test_field_plan_structure():
    ops = derive_split_ops(TwoArrayAgg(8))
    kinds = {p.name: p.kind for p in ops.fields}
    assert kinds == {"sum1": "array", "sum2": "array", "count": "scalar"}


def test_split_merge_concat_algebra():
    rng = np.random.default_rng(0)
    a, b = TwoArrayAgg(10), TwoArrayAgg(10)
    for _ in range(5):
        a.add(rng.standard_normal(10))
        b.add(rng.standard_normal(10))
    ops = derive_split_ops(TwoArrayAgg(10))
    merged_segments = [
        ops.reduce_op(ops.split_op(a, i, 4), ops.split_op(b, i, 4))
        for i in range(4)
    ]
    rebuilt = ops.concat_op(merged_segments)
    np.testing.assert_allclose(rebuilt.sum1, a.sum1 + b.sum1)
    np.testing.assert_allclose(rebuilt.sum2, a.sum2 + b.sum2)
    assert rebuilt.count == 10.0
    assert isinstance(rebuilt, TwoArrayAgg)


def test_matrix_field_round_trip():
    rng = np.random.default_rng(1)
    agg = MatrixAgg(3, 7)
    agg.counts += rng.random((3, 7))
    agg.loglik = -42.0
    ops = derive_split_ops(MatrixAgg(3, 7))
    rebuilt = ops.concat_op([ops.split_op(agg, i, 5) for i in range(5)])
    np.testing.assert_allclose(rebuilt.counts, agg.counts)
    assert rebuilt.counts.shape == (3, 7)
    assert rebuilt.loglik == pytest.approx(-42.0)


def test_slots_objects_supported():
    agg = SlottedAgg(6)
    agg.values += 2.0
    ops = derive_split_ops(SlottedAgg(6))
    rebuilt = ops.concat_op([ops.split_op(agg, i, 2) for i in range(2)])
    np.testing.assert_allclose(rebuilt.values, 2.0)


def test_merge_op_accumulates_in_place():
    ops = derive_split_ops(TwoArrayAgg(4))
    a, b = TwoArrayAgg(4), TwoArrayAgg(4)
    a.add(np.ones(4))
    b.add(np.full(4, 2.0))
    out = ops.merge_op(a, b)
    assert out is a
    np.testing.assert_allclose(a.sum1, 3.0)
    assert a.count == 2.0


def test_rejects_non_numeric_fields():
    class Bad:
        def __init__(self):
            self.values = np.zeros(4)
            self.name = "hello"

    with pytest.raises(UnsplittableError, match="name"):
        derive_split_ops(Bad())


def test_rejects_integer_arrays():
    class Bad:
        def __init__(self):
            self.values = np.zeros(4, dtype=np.int64)

    with pytest.raises(UnsplittableError, match="float"):
        derive_split_ops(Bad())


def test_rejects_stateless_objects():
    class Empty:
        pass

    with pytest.raises(UnsplittableError):
        derive_split_ops(Empty())


def test_rejects_scalar_only_objects():
    class ScalarOnly:
        def __init__(self):
            self.count = 1.0

    with pytest.raises(UnsplittableError, match="no array state"):
        derive_split_ops(ScalarOnly())


def test_verification_catches_non_additive_merge():
    # NaN state breaks the 2x-check (NaN != 2*NaN), standing in for any
    # object whose merge algebra is not elementwise addition.
    class Weird:
        def __init__(self):
            self.values = np.full(4, np.nan)

    with pytest.raises(UnsplittableError, match="merge algebra"):
        derive_split_ops(Weird())


def test_end_to_end_with_split_aggregate():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rng = np.random.default_rng(3)
    rows = [rng.standard_normal(12) for _ in range(30)]
    rdd = sc.parallelize(rows, 6)
    ops = derive_split_ops(TwoArrayAgg(12))
    result = rdd.split_aggregate(
        lambda: TwoArrayAgg(12), lambda agg, x: agg.add(x),
        ops.split_op, ops.reduce_op, ops.concat_op,
        spec=AggregationSpec(parallelism=2), merge_op=ops.merge_op)
    np.testing.assert_allclose(result.sum1, np.sum(rows, axis=0))
    np.testing.assert_allclose(result.sum2,
                               np.sum([r * r for r in rows], axis=0))
    assert result.count == 30.0


def test_auto_ops_match_tree_aggregate():
    sc = SparkerContext(ClusterConfig.laptop(num_nodes=2))
    rng = np.random.default_rng(4)
    rows = [rng.standard_normal(8) for _ in range(20)]
    rdd = sc.parallelize(rows, 4)
    ops = derive_split_ops(TwoArrayAgg(8))
    tree = rdd.tree_aggregate(lambda: TwoArrayAgg(8),
                              lambda agg, x: agg.add(x), ops.merge_op)
    split = rdd.split_aggregate(
        lambda: TwoArrayAgg(8), lambda agg, x: agg.add(x),
        ops.split_op, ops.reduce_op, ops.concat_op,
        spec=AggregationSpec(parallelism=3), merge_op=ops.merge_op)
    np.testing.assert_allclose(tree.sum1, split.sum1)
    np.testing.assert_allclose(tree.sum2, split.sum2)
    assert tree.count == split.count


@settings(max_examples=15, deadline=None)
@given(dim=st.integers(1, 40), segments=st.integers(1, 8),
       seed=st.integers(0, 100))
def test_auto_split_property(dim, segments, seed):
    rng = np.random.default_rng(seed)
    aggs = []
    for _ in range(3):
        agg = TwoArrayAgg(dim)
        agg.add(rng.standard_normal(dim))
        aggs.append(agg)
    ops = derive_split_ops(TwoArrayAgg(dim))
    merged = []
    for i in range(segments):
        seg = ops.split_op(aggs[0], i, segments)
        for other in aggs[1:]:
            seg = ops.reduce_op(seg, ops.split_op(other, i, segments))
        merged.append(seg)
    rebuilt = ops.concat_op(merged)
    np.testing.assert_allclose(
        rebuilt.sum1, np.sum([a.sum1 for a in aggs], axis=0))
    assert rebuilt.count == 3.0


# ------------------------------------------------- density-adaptive mode
class SparseStateAgg:
    """An aggregator whose array state is mostly zeros."""

    def __init__(self, dim, hot=3):
        self.grad = np.zeros(dim)
        self.count = 0.0
        self._hot = hot

    def add(self, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(self._hot, size=2, replace=False)
        self.grad[idx] += rng.standard_normal(2)
        self.count += 1
        return self


def test_adaptive_split_emits_sparse_segments():
    from repro.serde import DEFAULT_SPARSE_POLICY, sim_sizeof

    agg = SparseStateAgg(400)
    agg.add(1)
    ops = derive_split_ops(SparseStateAgg(400),
                           policy=DEFAULT_SPARSE_POLICY)
    segs = [ops.split_op(agg, i, 4) for i in range(4)]
    assert any(s.is_sparse for s in segs)
    for s in segs:
        if s.is_sparse:
            assert sim_sizeof(s) < s.__sim_dense_size__()
    rebuilt = ops.concat_op(segs)
    np.testing.assert_array_equal(rebuilt.grad, agg.grad)
    assert rebuilt.count == agg.count
    assert isinstance(rebuilt, SparseStateAgg)


def test_adaptive_ops_bit_identical_to_plain_ops():
    from repro.serde import DEFAULT_SPARSE_POLICY

    rng = np.random.default_rng(43)
    plain_ops = derive_split_ops(SparseStateAgg(100), verify=False)
    adaptive_ops = derive_split_ops(SparseStateAgg(100), verify=False,
                                    policy=DEFAULT_SPARSE_POLICY)
    outs = {}
    for name, ops in (("plain", plain_ops), ("adaptive", adaptive_ops)):
        aggs = []
        for k in range(3):
            agg = SparseStateAgg(100, hot=30)
            for s in range(4):
                agg.add(10 * k + s)
            aggs.append(agg)
        merged = []
        for i in range(5):
            seg = ops.split_op(aggs[0], i, 5)
            for other in aggs[1:]:
                seg = ops.reduce_op(seg, ops.split_op(other, i, 5))
            merged.append(seg)
        outs[name] = ops.concat_op(merged)
    np.testing.assert_array_equal(outs["plain"].grad,
                                  outs["adaptive"].grad)
    assert outs["plain"].count == outs["adaptive"].count


def test_adaptive_merge_densifies_past_threshold():
    from repro.serde import DEFAULT_SPARSE_POLICY

    ops = derive_split_ops(SparseStateAgg(40), verify=False,
                           policy=DEFAULT_SPARSE_POLICY)
    a, b = SparseStateAgg(40), SparseStateAgg(40)
    # disjoint hot ranges so the union of non-zeros crosses 50% density
    a.grad[:16] = 1.0
    b.grad[16:32] = 1.0
    sa = ops.split_op(a, 0, 1)
    sb = ops.split_op(b, 0, 1)
    assert sa.is_sparse and sb.is_sparse
    merged = ops.reduce_op(sa, sb)
    assert merged.representation == "dense"
    np.testing.assert_array_equal(merged.to_array()[:41],
                                  a.grad + b.grad)


def test_adaptive_reduce_never_mutates_source_views():
    from repro.serde import DEFAULT_SPARSE_POLICY

    agg = SparseStateAgg(60)
    agg.grad[:] = 1.0  # dense blocks: split hands out views
    before = agg.grad.copy()
    ops = derive_split_ops(SparseStateAgg(60), verify=False,
                           policy=DEFAULT_SPARSE_POLICY)
    seg = ops.split_op(agg, 0, 2)
    ops.reduce_op(seg, ops.split_op(agg, 0, 2))
    np.testing.assert_array_equal(agg.grad, before)

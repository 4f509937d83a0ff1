"""The RDD abstraction: lineage, transformations, and actions.

A faithful (Python-sized) port of Spark's Resilient Distributed Dataset:
an RDD is an immutable, partitioned collection described by its parent
dependencies and a ``compute`` function. Transformations build lineage
lazily; actions hand the lineage to the DAG scheduler, which runs it on the
simulated cluster. Partition contents are real Python lists, so every
result is exact; task *time* comes from the cost models.

Narrow dependencies recompute through :meth:`RDD.iterator` (which also
implements MEMORY_ONLY caching); shuffle dependencies cut stage boundaries
in the DAG scheduler, exactly as in Spark — this is what makes
``treeAggregate`` a multi-stage job whose reduction costs grow with the
cluster (§2.3 of the paper).
"""

from __future__ import annotations

import bisect
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..serde import sim_sizeof
from .costing import ELEMENT_OVERHEAD, Costed, cost_of
from .partitioner import HashPartitioner, Partitioner
from .storage import StorageLevel
from .task_context import TaskContext

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkerContext

__all__ = [
    "RDD",
    "Dependency",
    "NarrowDependency",
    "OneToOneDependency",
    "ShuffleDependency",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "CoalescedRDD",
    "ShuffledRDD",
]


# --------------------------------------------------------------------------
# Dependencies
# --------------------------------------------------------------------------
class Dependency:
    """Base class for lineage edges."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Each child partition depends on a bounded set of parent partitions."""

    def parent_partitions(self, child_index: int) -> List[int]:
        raise NotImplementedError  # pragma: no cover - abstract


class OneToOneDependency(NarrowDependency):
    """Child partition ``i`` depends exactly on parent partition ``i``."""

    def parent_partitions(self, child_index: int) -> List[int]:
        return [child_index]


class _RangeDependency(NarrowDependency):
    """Union: child partitions ``[out_start, out_start+length)`` map to
    parent partitions ``[in_start, in_start+length)``."""

    def __init__(self, rdd: "RDD", in_start: int, out_start: int,
                 length: int):
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parent_partitions(self, child_index: int) -> List[int]:
        if self.out_start <= child_index < self.out_start + self.length:
            return [child_index - self.out_start + self.in_start]
        return []


class _CoalesceDependency(NarrowDependency):
    def __init__(self, rdd: "RDD", groups: List[List[int]]):
        super().__init__(rdd)
        self.groups = groups

    def parent_partitions(self, child_index: int) -> List[int]:
        return list(self.groups[child_index])


class ShuffleDependency(Dependency):
    """A stage boundary: the parent must be re-bucketed by key.

    ``combine_op(a, b) -> merged`` enables map-side and reduce-side
    combining (Spark's ``foldByKey``/``reduceByKey`` path, which
    ``treeAggregate`` relies on).
    """

    def __init__(self, rdd: "RDD", partitioner: Partitioner,
                 shuffle_id: int,
                 combine_op: Optional[Callable[[Any, Any], Any]] = None):
        super().__init__(rdd)
        self.partitioner = partitioner
        self.shuffle_id = shuffle_id
        self.combine_op = combine_op


# --------------------------------------------------------------------------
# RDD base
# --------------------------------------------------------------------------
class RDD:
    """One distributed dataset in the lineage graph."""

    def __init__(self, sc: "SparkerContext", deps: Sequence[Dependency]):
        self.sc = sc
        self.deps: List[Dependency] = list(deps)
        self.id = sc._register_rdd(self)
        self.storage_level: Optional[str] = None
        self.name = type(self).__name__

    # ---- to be provided by subclasses -------------------------------------
    def num_partitions(self) -> int:
        raise NotImplementedError  # pragma: no cover - abstract

    def compute(self, index: int, ctx: TaskContext) -> list:
        """Materialize partition ``index`` (called inside a task)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # ---- engine plumbing ----------------------------------------------------
    def iterator(self, index: int, ctx: TaskContext) -> list:
        """Get-or-compute with MEMORY_ONLY caching (Spark's ``iterator``)."""
        if self.storage_level is None:
            return self.compute(index, ctx)
        store = ctx.executor.memory_store
        block_id = (self.id, index)
        cached = store.get(block_id)
        if cached is not None:
            return cached
        data = self.compute(index, ctx)
        size = store.put(block_id, data)
        self.sc.block_tracker.register(block_id, ctx.executor.executor_id)
        # Materializing into the cache costs one pass over the data.
        ctx.charge(size / self.sc.cluster.config.merge_bandwidth)
        return data

    def shuffle_reads(self, index: int) -> List[Tuple[int, int]]:
        """All ``(shuffle_id, reduce_partition)`` pairs that computing
        partition ``index`` will consume (walking narrow lineage only)."""
        reads: List[Tuple[int, int]] = []
        for dep in self.deps:
            if isinstance(dep, ShuffleDependency):
                reads.append((dep.shuffle_id, index))
            elif isinstance(dep, NarrowDependency):
                for parent_index in dep.parent_partitions(index):
                    reads.extend(dep.rdd.shuffle_reads(parent_index))
        return reads

    def preferred_executors(self, index: int) -> List[int]:
        """Executor ids where partition ``index`` would run fastest."""
        if self.storage_level is not None:
            holders = self.sc.block_tracker.locations((self.id, index))
            if holders:
                return holders
        for dep in self.deps:
            if isinstance(dep, NarrowDependency):
                parents = dep.parent_partitions(index)
                if parents:
                    preference = dep.rdd.preferred_executors(parents[0])
                    if preference:
                        return preference
        return []

    def pinned_executor(self, index: int) -> Optional[int]:
        """Hard placement constraint (SpawnRDD overrides); None = free."""
        return None

    def narrow_parents(self) -> List["RDD"]:
        """Parents reachable without crossing a shuffle boundary."""
        return [dep.rdd for dep in self.deps
                if isinstance(dep, NarrowDependency)]

    # ---- persistence ----------------------------------------------------------
    def persist(self, level: str = StorageLevel.MEMORY_ONLY) -> "RDD":
        """Mark this RDD for caching on first materialization."""
        if level != StorageLevel.MEMORY_ONLY:
            raise ValueError(f"unsupported storage level {level!r}")
        self.storage_level = level
        return self

    def cache(self) -> "RDD":
        """Alias for ``persist(MEMORY_ONLY)``."""
        return self.persist()

    def unpersist(self) -> "RDD":
        """Drop cached blocks everywhere."""
        self.storage_level = None
        for executor in self.sc.executors:
            executor.memory_store.remove_rdd(self.id)
        self.sc.block_tracker.unregister_rdd(self.id)
        return self

    def set_name(self, name: str) -> "RDD":
        """Label this RDD (shows up in stage logs and history)."""
        self.name = name
        return self

    # ---- transformations -------------------------------------------------------
    def map(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to every element."""
        def run(_idx: int, data: list, ctx: TaskContext) -> list:
            _charge_elementwise(ctx, f, data)
            return [f(x) for x in data]
        return MapPartitionsRDD(self, run, label="map")

    def filter(self, f: Callable[[Any], bool]) -> "RDD":
        """Keep elements where ``f`` is true."""
        def run(_idx: int, data: list, ctx: TaskContext) -> list:
            _charge_elementwise(ctx, f, data)
            return [x for x in data if f(x)]
        return MapPartitionsRDD(self, run, label="filter")

    def flat_map(self, f: Callable[[Any], Sequence[Any]]) -> "RDD":
        """Apply ``f`` and flatten the results."""
        def run(_idx: int, data: list, ctx: TaskContext) -> list:
            _charge_elementwise(ctx, f, data)
            out: list = []
            for x in data:
                out.extend(f(x))
            return out
        return MapPartitionsRDD(self, run, label="flatMap")

    def map_partitions(self, f: Callable[[list], list]) -> "RDD":
        """Apply ``f`` to each whole partition."""
        def run(_idx: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD + cost_of(f, data))
            return list(f(data))
        return MapPartitionsRDD(self, run, label="mapPartitions")

    def map_partitions_with_index(
            self, f: Callable[[int, list], list]) -> "RDD":
        """Apply ``f(partition_index, partition_data)`` to each partition."""
        def run(idx: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD + cost_of(f, idx, data))
            return list(f(idx, data))
        return MapPartitionsRDD(self, run, label="mapPartitionsWithIndex")

    def glom(self) -> "RDD":
        """Each partition becomes a single list element."""
        def run(_idx: int, data: list, _ctx: TaskContext) -> list:
            return [list(data)]
        return MapPartitionsRDD(self, run, label="glom")

    def key_by(self, f: Callable[[Any], Any]) -> "RDD":
        """Pair every element with ``f(element)`` as its key."""
        return self.map(lambda x: (f(x), x))

    def map_values(self, f: Callable[[Any], Any]) -> "RDD":
        """Apply ``f`` to the value of every key-value pair."""
        return self.map(lambda kv: (kv[0], f(kv[1])))

    def keys(self) -> "RDD":
        """First element of every key-value pair."""
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        """Second element of every key-value pair."""
        return self.map(lambda kv: kv[1])

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (partitions are concatenated, not merged)."""
        return UnionRDD(self.sc, [self, other])

    def coalesce(self, num_partitions: int) -> "RDD":
        """Narrow repartitioning into fewer partitions."""
        return CoalescedRDD(self, num_partitions)

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample of each partition (deterministic per seed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def run(idx: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD)
            rng = np.random.default_rng((seed, idx))
            keep = rng.random(len(data)) < fraction
            return [x for x, k in zip(data, keep) if k]
        return MapPartitionsRDD(self, run, label="sample")

    def distinct(self) -> "RDD":
        """Remove duplicates (requires hashable elements)."""
        deduped = (self.map(lambda x: (x, None))
                   .reduce_by_key(lambda a, _b: a)
                   .keys())
        return deduped

    # ---- shuffles ------------------------------------------------------------
    def partition_by(self, partitioner: Partitioner,
                     combine_op: Optional[Callable] = None) -> "RDD":
        """Re-bucket key-value pairs by ``partitioner`` (a full shuffle)."""
        return ShuffledRDD(self, partitioner, combine_op=combine_op)

    def reduce_by_key(self, op: Callable[[Any, Any], Any],
                      num_partitions: Optional[int] = None) -> "RDD":
        """Merge values per key with map-side combining."""
        n = num_partitions or self.num_partitions()
        return ShuffledRDD(self, HashPartitioner(n), combine_op=op)

    def fold_by_key(self, zero: Any, op: Callable[[Any, Any], Any],
                    partitioner: Optional[Partitioner] = None) -> "RDD":
        """Spark's ``foldByKey`` (zero is merged in reduce-side order)."""
        part = partitioner or HashPartitioner(self.num_partitions())
        return ShuffledRDD(self, part, combine_op=op)

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        """Group values per key into lists (no map-side combining)."""
        n = num_partitions or self.num_partitions()
        shuffled = ShuffledRDD(self, HashPartitioner(n), combine_op=None,
                               group=True)
        return shuffled

    def cogroup(self, other: "RDD",
                num_partitions: Optional[int] = None) -> "RDD":
        """Group both RDDs' values per key: ``(k, ([left...], [right...]))``.

        Implemented Spark-style by tagging each side, unioning, and
        grouping through one shuffle.
        """
        n = num_partitions or max(self.num_partitions(),
                                  other.num_partitions())
        tagged = self.map_values(lambda v: (0, v)).union(
            other.map_values(lambda v: (1, v)))
        grouped = tagged.group_by_key(num_partitions=n)

        def untag(kv):
            key, pairs = kv
            left = [v for tag, v in pairs if tag == 0]
            right = [v for tag, v in pairs if tag == 1]
            return key, (left, right)

        return grouped.map(untag)

    def join(self, other: "RDD",
             num_partitions: Optional[int] = None) -> "RDD":
        """Inner join on keys: ``(k, (v_left, v_right))`` per value pair."""
        def expand(kv):
            key, (left, right) = kv
            return [(key, (lv, rv)) for lv in left for rv in right]

        return self.cogroup(other, num_partitions).flat_map(expand)

    def left_outer_join(self, other: "RDD",
                        num_partitions: Optional[int] = None) -> "RDD":
        """Left outer join: missing right values appear as ``None``."""
        def expand(kv):
            key, (left, right) = kv
            if not right:
                return [(key, (lv, None)) for lv in left]
            return [(key, (lv, rv)) for lv in left for rv in right]

        return self.cogroup(other, num_partitions).flat_map(expand)

    def sort_by(self, key_fn: Callable[[Any], Any],
                ascending: bool = True,
                num_partitions: Optional[int] = None) -> "RDD":
        """Globally sort by ``key_fn`` using range partitioning.

        Spark samples the data to build range bounds; here the bounds come
        from an exact quantile pass (one extra job), then a shuffle routes
        each element to its range, and partitions sort locally.
        """
        n = num_partitions or self.num_partitions()
        keys = sorted(self.map(key_fn).collect())
        if not keys:
            return self
        if not ascending:
            keys = keys[::-1]
        bounds = [keys[(i + 1) * len(keys) // n] for i in range(n - 1)]

        def range_partition(key):
            lo = 0
            for i, bound in enumerate(bounds):
                cmp = key <= bound if ascending else key >= bound
                if cmp:
                    return i
                lo = i + 1
            return lo

        class _RangePartitioner(Partitioner):
            def partition(self, key):  # noqa: D401 - tiny adapter
                return range_partition(key)

        keyed = self.map(lambda x: (key_fn(x), x))
        shuffled = ShuffledRDD(keyed, _RangePartitioner(n), combine_op=None)

        def local_sort(_idx: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD)
            ordered = sorted(data, key=lambda kv: kv[0],
                             reverse=not ascending)
            return [value for _key, value in ordered]

        return MapPartitionsRDD(shuffled, local_sort, label="sortBy")

    def zip_with_index(self) -> "RDD":
        """Pair each element with its global index.

        Like Spark, this triggers one job to learn partition sizes before
        the lazy indexed RDD can be built.
        """
        sizes = self.sc.run_job(
            self, lambda _i, data, ctx: (
                ctx.charge(len(data) * ELEMENT_OVERHEAD), len(data))[1])
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)

        def run(idx: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD)
            base = offsets[idx]
            return [(x, base + i) for i, x in enumerate(data)]

        return MapPartitionsRDD(self, run, label="zipWithIndex")

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs ``(a, b)``; |partitions| = product of both sides'.

        Spark computes this with a CartesianRDD; here the right side is
        collected and broadcast per task (adequate for the small right
        sides this engine targets, and the cost model still charges the
        replication through the broadcast).
        """
        right_bc = self.sc.broadcast(other.collect())

        def run(_idx: int, data: list, ctx: TaskContext) -> list:
            right = right_bc.value
            ctx.charge(len(data) * len(right) * ELEMENT_OVERHEAD)
            return [(a, b) for a in data for b in right]

        return MapPartitionsRDD(self, run, label="cartesian")

    def intersection(self, other: "RDD") -> "RDD":
        """Distinct elements present in both RDDs (one shuffle)."""
        tagged = (self.map(lambda x: (x, 0))
                  .cogroup(other.map(lambda x: (x, 1))))
        return (tagged
                .filter(lambda kv: bool(kv[1][0]) and bool(kv[1][1]))
                .keys())

    def subtract(self, other: "RDD") -> "RDD":
        """Elements of this RDD not present in ``other`` (multiset-safe)."""
        tagged = (self.map(lambda x: (x, 0))
                  .cogroup(other.map(lambda x: (x, 1))))
        return tagged.filter(lambda kv: not kv[1][1]) \
            .flat_map(lambda kv: [kv[0]] * len(kv[1][0]))

    # ---- actions (delegate to the context) -------------------------------------
    def count_by_key(self) -> Dict[Any, int]:
        """Counts per key (returned to the driver as a dict)."""
        return dict(self.map(lambda kv: (kv[0], 1))
                    .reduce_by_key(lambda a, b: a + b).collect())

    def count_by_value(self) -> Dict[Any, int]:
        """Counts per distinct element."""
        return dict(self.map(lambda x: (x, 1))
                    .reduce_by_key(lambda a, b: a + b).collect())

    def top(self, n: int, key: Optional[Callable[[Any], Any]] = None
            ) -> list:
        """The ``n`` largest elements, descending (Spark's ``top``)."""
        return self.take_ordered(n, key=key, reverse=True)

    def take_ordered(self, n: int,
                     key: Optional[Callable[[Any], Any]] = None,
                     reverse: bool = False) -> list:
        """The ``n`` smallest (or largest) elements.

        Each partition keeps only its local top-n (what Spark's
        bounded-priority-queue does), so only ``n * partitions`` elements
        reach the driver.
        """
        if n < 0:
            raise ValueError(f"takeOrdered(n) needs n >= 0, got {n}")
        if n == 0:
            return []
        key_fn = key if key is not None else (lambda x: x)

        def local_top(_i: int, data: list, ctx: TaskContext) -> list:
            ctx.charge(len(data) * ELEMENT_OVERHEAD)
            return sorted(data, key=key_fn, reverse=reverse)[:n]

        partials = self.sc.run_job(self, local_top)
        merged: list = []
        for chunk in partials:
            merged.extend(chunk)
        return sorted(merged, key=key_fn, reverse=reverse)[:n]

    def collect(self) -> list:
        """Materialize the whole dataset at the driver."""
        return self.sc.collect(self)

    def count(self) -> int:
        """Number of elements."""
        return self.sc.count(self)

    def first(self) -> Any:
        """The first element (raises on an empty RDD)."""
        return self.take(1)[0]

    def take(self, n: int) -> list:
        """First ``n`` elements in partition order."""
        return self.sc.take(self, n)

    def reduce(self, op: Callable[[Any, Any], Any]) -> Any:
        """Reduce all elements with ``op`` (partitions, then driver)."""
        return self.sc.reduce(self, op)

    def fold(self, zero: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Fold with a zero value (zero folded once per partition)."""
        return self.sc.fold(self, zero, op)

    def aggregate(self, zero: Any, seq_op: Callable, comb_op: Callable) -> Any:
        """Single-level aggregate: partitions then a flat driver merge."""
        return self.sc.aggregate(self, zero, seq_op, comb_op)

    def tree_aggregate(self, zero: Any, seq_op: Callable, comb_op: Callable,
                       depth: int = 2, imm: bool = False) -> Any:
        """Spark's ``treeAggregate`` (see :mod:`repro.core.aggregation`).

        ``imm=True`` runs the paper's Tree+IMM variant (in-memory merge of
        task results inside each executor before the tree).
        """
        from ..core.aggregation import tree_aggregate
        return tree_aggregate(self, zero, seq_op, comb_op, depth=depth,
                              imm=imm)

    def tree_reduce(self, op: Callable[[Any, Any], Any],
                    depth: int = 2) -> Any:
        """``treeReduce`` expressed through ``treeAggregate``."""
        from ..core.aggregation import tree_reduce
        return tree_reduce(self, op, depth=depth)

    def split_aggregate(self, zero: Any, seq_op: Callable, split_op: Callable,
                        reduce_op: Callable, concat_op: Callable,
                        spec: Any = None, *,
                        merge_op: Optional[Callable] = None) -> Any:
        """Sparker's split aggregation (see :mod:`repro.core.sai`).

        ``spec`` is an :class:`~repro.core.AggregationSpec` carrying the
        collective algorithm (or ``"auto"`` for the cost-model tuner),
        parallelism, topology awareness and recovery policy. ``merge_op``
        is the executor-local IMM merge over whole aggregators (defaults
        to a whole-object ``splitOp``/``reduceOp`` round-trip, valid when
        aggregator and segment types coincide).
        """
        from ..core.sai import split_aggregate
        return split_aggregate(self, zero, seq_op, split_op, reduce_op,
                               concat_op, spec, merge_op=merge_op)

    def sum(self) -> Any:
        """Sum of all elements."""
        return self.fold(0, lambda a, b: a + b)

    def foreach(self, f: Callable[[Any], None]) -> None:
        """Run ``f`` on every element (for side effects)."""
        self.sc.run_job(self, lambda _idx, data, ctx: (
            _charge_elementwise(ctx, f, data),
            [f(x) for x in data],
        )[0])

    def num_partitions_action(self) -> int:
        """Spark's ``getNumPartitions`` (no job needed)."""
        return self.num_partitions()

    def __repr__(self) -> str:
        return (f"<{self.name} id={self.id} "
                f"partitions={self.num_partitions()}>")


def _charge_elementwise(ctx: TaskContext, f: Callable, data: list) -> None:
    """Charge iteration overhead plus any per-element Costed costs."""
    total = len(data) * ELEMENT_OVERHEAD
    if isinstance(f, Costed):
        for x in data:
            total += f.cost(x)
    ctx.charge(total)


# --------------------------------------------------------------------------
# Concrete RDDs
# --------------------------------------------------------------------------
class ParallelCollectionRDD(RDD):
    """Driver data sliced into partitions (``sc.parallelize``)."""

    def __init__(self, sc: "SparkerContext", data: Sequence[Any],
                 num_slices: int):
        if num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        super().__init__(sc, deps=[])
        self._data = list(data)
        self._slices = min(num_slices, max(1, len(self._data))) \
            if self._data else num_slices
        bounds = np.linspace(0, len(self._data), self._slices + 1)
        self._bounds = [int(round(b)) for b in bounds]

    def num_partitions(self) -> int:
        return self._slices

    def compute(self, index: int, ctx: TaskContext) -> list:
        lo, hi = self._bounds[index], self._bounds[index + 1]
        return self._data[lo:hi]


class MapPartitionsRDD(RDD):
    """The workhorse narrow transformation."""

    def __init__(self, parent: RDD,
                 run: Callable[[int, list, TaskContext], list],
                 label: str = "mapPartitions"):
        super().__init__(parent.sc, deps=[OneToOneDependency(parent)])
        self._parent = parent
        self._run = run
        self.name = label

    def num_partitions(self) -> int:
        return self._parent.num_partitions()

    def compute(self, index: int, ctx: TaskContext) -> list:
        data = self._parent.iterator(index, ctx)
        return self._run(index, data, ctx)


class UnionRDD(RDD):
    """Concatenation of several parents' partition lists."""

    def __init__(self, sc: "SparkerContext", parents: Sequence[RDD]):
        if not parents:
            raise ValueError("union needs at least one parent")
        deps: List[Dependency] = []
        out_start = 0
        self._offsets: List[Tuple[int, RDD]] = []
        for parent in parents:
            n = parent.num_partitions()
            deps.append(_RangeDependency(parent, 0, out_start, n))
            self._offsets.append((out_start, parent))
            out_start += n
        self._total = out_start
        super().__init__(sc, deps=deps)

    def num_partitions(self) -> int:
        return self._total

    def compute(self, index: int, ctx: TaskContext) -> list:
        starts = [s for s, _ in self._offsets]
        pos = bisect.bisect_right(starts, index) - 1
        start, parent = self._offsets[pos]
        return parent.iterator(index - start, ctx)


class CoalescedRDD(RDD):
    """Narrow repartitioning: adjacent parent partitions are grouped."""

    def __init__(self, parent: RDD, num_partitions: int):
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}")
        n_parent = parent.num_partitions()
        n_out = min(num_partitions, n_parent)
        bounds = np.linspace(0, n_parent, n_out + 1)
        groups = [list(range(int(round(bounds[i])), int(round(bounds[i + 1]))))
                  for i in range(n_out)]
        super().__init__(parent.sc,
                         deps=[_CoalesceDependency(parent, groups)])
        self._parent = parent
        self._groups = groups

    def num_partitions(self) -> int:
        return len(self._groups)

    def compute(self, index: int, ctx: TaskContext) -> list:
        out: list = []
        for parent_index in self._groups[index]:
            out.extend(self._parent.iterator(parent_index, ctx))
        return out


class ShuffledRDD(RDD):
    """Reduce side of a shuffle: merges fetched buckets per key."""

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 combine_op: Optional[Callable[[Any, Any], Any]] = None,
                 group: bool = False):
        shuffle_id = parent.sc.shuffle_manager_new_id()
        self.dep = ShuffleDependency(parent, partitioner, shuffle_id,
                                     combine_op=combine_op)
        super().__init__(parent.sc, deps=[self.dep])
        self._group = group
        parent.sc.map_output_tracker.register_shuffle(
            shuffle_id, parent.num_partitions())

    def num_partitions(self) -> int:
        return self.dep.partitioner.num_partitions

    def compute(self, index: int, ctx: TaskContext) -> list:
        records = ctx.fetched.get((self.dep.shuffle_id, index))
        if records is None:
            raise RuntimeError(
                f"shuffle {self.dep.shuffle_id} partition {index} was not "
                f"fetched before compute — scheduler bug")
        ctx.charge(len(records) * ELEMENT_OVERHEAD)
        merged: Dict[Any, Any] = {}
        op = self.dep.combine_op
        merge_bw = self.sc.cluster.config.merge_bandwidth
        if self._group:
            for key, value in records:
                merged.setdefault(key, []).append(value)
        elif op is not None:
            for key, value in records:
                if key in merged:
                    combined = op(merged[key], value)
                    ctx.charge(sim_sizeof(combined) / merge_bw
                               + cost_of(op, merged[key], value))
                    merged[key] = combined
                else:
                    merged[key] = value
        else:
            # No combining: keep every record (like a plain partitionBy).
            return list(records)
        return list(merged.items())

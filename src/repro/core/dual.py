"""Dual-tree spatial joins between two datasets (Section IV-D).

The self-join algorithms adapt directly to spatial joins: only the
two-node subroutine is invoked, starting from the two roots.  Output
semantics change, though — a spatial join reports only *cross* pairs, one
point from each dataset, so the compact output consists of **group
pairs** ``(A, B)`` standing for all links in ``A x B``.  The invariant is
the same as for self-join groups: the combined MBR of ``A ∪ B`` has a
diagonal strictly below the query range, which guarantees every cross pair
qualifies.

As the paper observes, when the two datasets populate the same dense
regions their indexes place similarly small nodes there, so the dual-node
early stop still fires where an output explosion threatens; with disjoint
distributions the inclusion check rarely succeeds, but then there is no
explosion to control either.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

import numpy as np

from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.index.base import IndexNode, SpatialIndex
from repro.index.rtree import RectNode
from repro.io.writer import width_for
from repro.stats.counters import JoinStats

__all__ = ["spatial_join", "compact_spatial_join"]


def spatial_join(
    tree_a: SpatialIndex,
    tree_b: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Standard dual-tree spatial join: every cross link individually.

    Link ids are positional: ``(i, j)`` means row ``i`` of ``tree_a``'s
    points and row ``j`` of ``tree_b``'s.  Links are therefore *not*
    normalised to ``i < j`` — the two sides are different relations.
    """
    return _dual_join(tree_a, tree_b, eps, sink, g=None, label="ssj-spatial")


def compact_spatial_join(
    tree_a: SpatialIndex,
    tree_b: SpatialIndex,
    eps: float,
    g: int = 10,
    sink: Optional[JoinSink] = None,
) -> JoinResult:
    """Compact dual-tree spatial join: group pairs plus residual links.

    ``g = 0`` gives the naive variant (early stop only, no link merging),
    mirroring N-CSJ.
    """
    if g < 0:
        raise ValueError(f"window size g must be >= 0, got {g}")
    label = f"csj({g})-spatial" if g else "ncsj-spatial"
    return _dual_join(tree_a, tree_b, eps, sink, g=g, label=label)


def _dual_join(tree_a, tree_b, eps, sink, g, label) -> JoinResult:
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    if tree_a.metric != tree_b.metric:
        raise ValueError(
            f"metric mismatch: {tree_a.metric.name} vs {tree_b.metric.name}"
        )
    if sink is None:
        sink = CollectSink(id_width=width_for(max(tree_a.size, tree_b.size)))
    runner = _make_runner(tree_a, tree_b, eps, g, sink)
    start = time.perf_counter()
    if tree_a.root is not None and tree_b.root is not None:
        runner.join_pair(tree_a.root, tree_b.root)
    runner.flush()
    sink.stats.compute_time += time.perf_counter() - start - sink.stats.write_time
    return JoinResult.from_sink(
        sink, eps=eps, algorithm=label, g=g, index_name=type(tree_a).name
    )


def _make_runner(tree_a, tree_b, eps, g, sink) -> "_DualRunner":
    """The batched runner when both trees pack with the same kind."""
    from repro.core.frontier import _VecDualRunner  # lazy: cycle
    from repro.index.packed import pack_index

    packed_a = pack_index(tree_a)
    packed_b = pack_index(tree_b)
    if packed_a is not None and packed_b is not None and packed_a.kind == packed_b.kind:
        return _VecDualRunner(tree_a, tree_b, eps, g, sink, packed_a, packed_b)
    return _DualRunner(tree_a, tree_b, eps, g, sink)


class _PairGroup:
    """An in-flight spatial-join group: one id set per side, joint bounds."""

    __slots__ = ("ids_a", "ids_b", "lo", "hi")

    def __init__(self, ids_a: set[int], ids_b: set[int], lo: list, hi: list):
        self.ids_a = ids_a
        self.ids_b = ids_b
        self.lo = lo
        self.hi = hi


class _DualRunner:
    """Recursive runner for one (compact) spatial join execution."""

    def __init__(self, tree_a, tree_b, eps: float, g: Optional[int], sink: JoinSink):
        self.points_a = tree_a.points
        self.points_b = tree_b.points
        self.metric = tree_a.metric
        self.eps = float(eps)
        self.compact = g is not None
        self.g = int(g) if g else 0
        self.sink = sink
        self.stats: JoinStats = sink.stats
        self._window: deque[_PairGroup] = deque()

    # ------------------------------------------------------------------
    # Recursion
    # ------------------------------------------------------------------
    def join_pair(self, n1: IndexNode, n2: IndexNode) -> None:
        self.stats.node_pairs_visited += 1
        if self.compact:
            self.stats.mbr_checks += 1
            if n1.union_diameter(n2, self.metric) < self.eps:
                self._emit_pair_group(n1, n2)
                return
        if n1.is_leaf and n2.is_leaf:
            self._leaf_cross(n1, n2)
            return
        if n1.is_leaf:
            for child in n2.children:
                self.stats.mbr_checks += 1
                if n1.min_dist(child, self.metric) < self.eps:
                    self.join_pair(n1, child)
            return
        if n2.is_leaf:
            for child in n1.children:
                self.stats.mbr_checks += 1
                if child.min_dist(n2, self.metric) < self.eps:
                    self.join_pair(child, n2)
            return
        for c1 in n1.children:
            for c2 in n2.children:
                self.stats.mbr_checks += 1
                if c1.min_dist(c2, self.metric) < self.eps:
                    self.join_pair(c1, c2)

    def _leaf_cross(self, n1: IndexNode, n2: IndexNode) -> None:
        ids1 = n1.entry_ids
        ids2 = n2.entry_ids
        if not len(ids1) or not len(ids2):
            return
        pts1 = self.points_a[np.asarray(ids1, dtype=np.intp)]
        pts2 = self.points_b[np.asarray(ids2, dtype=np.intp)]
        dists = self.metric.pairwise(pts1, pts2)
        self.stats.distance_computations += len(ids1) * len(ids2)
        rows, cols = np.nonzero(dists < self.eps)
        if not len(rows):
            return
        if self.g == 0:
            # Standard / naive spatial join: unnormalised individual links.
            for r, c in zip(rows.tolist(), cols.tolist()):
                self.sink.write_link_raw(ids1[r], ids2[c])
            return
        coords1 = pts1.tolist()
        coords2 = pts2.tolist()
        for r, c in zip(rows.tolist(), cols.tolist()):
            self._emit_link(ids1[r], ids2[c], coords1[r], coords2[c])

    # ------------------------------------------------------------------
    # Output routing
    # ------------------------------------------------------------------
    def _emit_link(self, i: int, j: int, p_i, p_j) -> None:
        """mergeIntoPrevGroup for cross links (``p_*`` are plain lists)."""
        pair_lo = [a if a < b else b for a, b in zip(p_i, p_j)]
        pair_hi = [b if a < b else a for a, b in zip(p_i, p_j)]
        norm_seq = self.metric.norm_seq
        for group in reversed(self._window):
            self.stats.merge_attempts += 1
            self.stats.mbr_checks += 1
            lo = [g if g < p else p for g, p in zip(group.lo, pair_lo)]
            hi = [g if g > p else p for g, p in zip(group.hi, pair_hi)]
            if norm_seq([h - l for l, h in zip(lo, hi)]) < self.eps:
                group.lo = lo
                group.hi = hi
                group.ids_a.add(i)
                group.ids_b.add(j)
                self.stats.merge_successes += 1
                return
        self._push_group(_PairGroup({i}, {j}, pair_lo, pair_hi))

    def _emit_pair_group(self, n1: IndexNode, n2: IndexNode) -> None:
        ids_a = n1.subtree_ids()
        ids_b = n2.subtree_ids()
        self.stats.early_stops += 1
        if not len(ids_a) or not len(ids_b):
            return
        if isinstance(n1, RectNode) and isinstance(n2, RectNode):
            mbr = n1.mbr.union(n2.mbr)
            lo, hi = mbr.lo.tolist(), mbr.hi.tolist()
        else:
            pts = np.vstack([self.points_a[ids_a], self.points_b[ids_b]])
            lo, hi = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        group = _PairGroup(set(ids_a.tolist()), set(ids_b.tolist()), lo, hi)
        if self.compact and self.g > 0:
            self._push_group(group)
        else:
            self._write_group(group)

    def _push_group(self, group: _PairGroup) -> None:
        self._window.append(group)
        if len(self._window) > self.g:
            self._write_group(self._window.popleft())

    def _write_group(self, group: _PairGroup) -> None:
        if len(group.ids_a) == 1 and len(group.ids_b) == 1:
            (i,), (j,) = group.ids_a, group.ids_b
            self.sink.write_link_raw(i, j)
            return
        self.sink.write_group_pair(group.ids_a, group.ids_b)

    def flush(self) -> None:
        while self._window:
            self._write_group(self._window.popleft())

"""The R*-tree of Beckmann, Kriegel, Schneider and Seeger [5].

The paper's experiments use an R*-tree by default (the UC Riverside Spatial
Index Library); this module reimplements the three R* heuristics on top of
the Guttman machinery in :mod:`repro.index.rtree`:

* **ChooseSubtree** — at the level just above the leaves the child is
  picked by least *overlap* enlargement (ties: least area enlargement),
  instead of least area enlargement alone;
* **Forced reinsertion** — the first time a node overflows at each level
  during one insertion, the 30% of its entries farthest from the node
  center are removed and re-inserted, which re-shapes bad nodes instead of
  splitting them;
* **R\\* split** — the split axis minimises the summed margins of the
  candidate distributions, and the chosen distribution along that axis
  minimises overlap (ties: total area).

Each heuristic runs as a few NumPy batch operations per insertion, and
each batch repeats the per-rectangle ``MBR`` arithmetic exactly, so the
trees are bit-identical to one ``MBR`` object per candidate (pinned by
``tests/test_index_goldens.py``); :func:`least_overlap_child` and
:meth:`RStarTree._rstar_partition` give the argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.mbr import MBR
from repro.index.rtree import RectNode, RTree, least_enlargement_child

__all__ = ["RStarTree", "least_overlap_child"]

_FLOAT_MAX = float(np.finfo(float).max)


def least_overlap_child(
    lows: np.ndarray, highs: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> int:
    """R* ChooseSubtree above the leaves: the child box whose overlap with
    its siblings grows least when it is extended to cover ``[lo, hi]``;
    ties by least area enlargement, then least area, then lowest index.

    ``lows``/``highs`` are the children's ``(k, d)`` corner matrices.

    The full criterion is O(k^2): every candidate's overlap with every
    sibling, before and after the extension.  It is skipped, exactly,
    when some child already *contains* the new box and every child that
    does not has a positive area enlargement:

    * a containing child keeps its box, so its key is ``(0, 0, area)``;
    * every key is at least ``(0, 0)`` — the extended box covers the old
      one, min and max are exact, and IEEE subtraction, products and
      sums are monotone under rounding, so neither the overlap sum nor
      the area can shrink, and their differences are ``>= 0``;
    * a non-containing child with positive enlargement therefore sorts
      after every containing child, whatever its overlap.

    The winner is then the containing child of least area, lowest index
    on ties — what the stable ``lexsort`` below would pick.  When an
    area is not finite (``inf - inf`` is NaN) or could overflow in an
    overlap sum, or a non-containing child has zero enlargement (a
    degenerate box grown along a zero-width axis ties on the first two
    keys), the full computation runs unchanged.
    """
    new_lo = np.minimum(lows, lo)
    new_hi = np.maximum(highs, hi)
    areas = (highs - lows).prod(axis=1)
    enlarged_areas = (new_hi - new_lo).prod(axis=1)
    enlargement = enlarged_areas - areas
    contains = (lows <= lo).all(axis=1) & (highs >= hi).all(axis=1)
    # Each overlap term is at most one box's area, so areas below
    # MAX / 2k keep every overlap sum finite (False for inf and NaN).
    bounded = enlarged_areas.max() < _FLOAT_MAX / (2.0 * len(areas))
    if contains.any() and bounded and (enlargement[~contains] > 0.0).all():
        return int(np.argmin(np.where(contains, areas, np.inf)))

    def overlap_sums(cand_lo, cand_hi):
        inter_lo = np.maximum(cand_lo[:, None, :], lows[None, :, :])
        inter_hi = np.minimum(cand_hi[:, None, :], highs[None, :, :])
        overlap = np.prod(np.maximum(0.0, inter_hi - inter_lo), axis=2)
        np.fill_diagonal(overlap, 0.0)
        return overlap.sum(axis=1)

    delta_overlap = overlap_sums(new_lo, new_hi) - overlap_sums(lows, highs)
    order = np.lexsort((areas, enlargement, delta_overlap))
    return int(order[0])


class RStarTree(RTree):
    """R*-tree: Guttman R-tree with the Beckmann et al. heuristics."""

    name = "rstar"
    #: Fraction of a node's entries removed on forced reinsertion.
    reinsert_fraction = 0.3

    def __init__(
        self,
        points: np.ndarray,
        metric: object = None,
        max_entries: int = 64,
        min_fill: float = 0.4,
        shuffle_seed: Optional[int] = None,
    ):
        self._reinserted_levels: set[int] = set()
        super().__init__(
            points,
            metric,
            max_entries,
            min_fill,
            split="quadratic",  # placeholder; _split is overridden below
            shuffle_seed=shuffle_seed,
        )

    # ------------------------------------------------------------------
    # Insertion with forced reinsert
    # ------------------------------------------------------------------
    def insert(self, pid: int) -> None:
        """Insert point id ``pid`` with R* overflow treatment."""
        # Forced reinsertion applies once per level per top-level insert
        # ("the first call at each level during one data insertion").
        self._reinserted_levels = set()
        self._deleted.discard(pid)
        self._insert_entry(pid, MBR.of_point(self.points[pid]), target_level=0)

    def _insert_entry(self, entry, mbr_add: MBR, target_level: int) -> None:
        """Insert a point id (level 0) or a whole subtree during reinsertion.

        ``mbr_add`` is the entry's bounding box, built once per insertion
        and shared by every level of the descent.
        """
        if self.root is None:
            self.root = RectNode(level=0, mbr=mbr_add)
            self.root.entry_ids.append(entry)
            return
        split = self._rstar_insert(self.root, entry, mbr_add, target_level)
        if split is not None:
            self._grow_root(split)

    def _rstar_insert(
        self, node: RectNode, entry, mbr_add: MBR, target_level: int
    ) -> Optional[RectNode]:
        node.invalidate_cache()
        node.mbr = mbr_add.copy() if node.mbr is None else node.mbr
        node.mbr.extend_mbr(mbr_add)
        if node.level == target_level:
            if node.is_leaf:
                node.entry_ids.append(entry)
            else:
                node.children.append(entry)
            if node.fanout > self.max_entries:
                return self._overflow(node)
            return None
        child = self._choose_subtree_rstar(node, mbr_add)
        split = self._rstar_insert(child, entry, mbr_add, target_level)
        if split is not None:
            node.children.append(split)
            if len(node.children) > self.max_entries:
                return self._overflow(node)
        return None

    def _choose_subtree_rstar(self, node: RectNode, mbr_add: MBR) -> RectNode:
        lows, highs = MBR.stack(child.mbr for child in node.children)
        if node.level == 1:
            best = least_overlap_child(lows, highs, mbr_add.lo, mbr_add.hi)
        else:
            best = least_enlargement_child(lows, highs, mbr_add.lo, mbr_add.hi)
        return node.children[best]

    def _overflow(self, node: RectNode) -> Optional[RectNode]:
        """OverflowTreatment: forced reinsert once per level, else split."""
        if node is not self.root and node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._forced_reinsert(node)
            return None
        return self._split(node)

    def _forced_reinsert(self, node: RectNode) -> None:
        items, lows, highs = self._node_corners(node)
        # Row norms of the centre offsets: the same per-row arithmetic as
        # one ``metric.norm`` call per entry.
        dists = self.metric.norm_rows((lows + highs) / 2.0 - node.mbr.center)
        order = np.argsort(dists)  # farthest entries are reinserted
        n_reinsert = max(1, int(round(self.reinsert_fraction * len(items))))
        keep = [items[i] for i in order[: len(items) - n_reinsert]]
        evicted = [items[i] for i in order[len(items) - n_reinsert:]]
        self._assign_items(node, keep)
        node.recompute_mbr(self.points)
        # Re-insert far entries first ("reinsert in distant order" variant).
        for item in reversed(evicted):
            if node.is_leaf:
                pid = int(item)
                self._insert_entry(pid, MBR.of_point(self.points[pid]), target_level=0)
            else:
                self._insert_entry(item, item.mbr, target_level=node.level)

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------
    def _split(self, node: RectNode) -> RectNode:
        items, lows, highs = self._node_corners(node)
        group_a, group_b = self._rstar_partition(lows, highs)
        sibling = RectNode(level=node.level)
        self._assign_items(node, [items[i] for i in group_a])
        self._assign_items(sibling, [items[i] for i in group_b])
        node.recompute_mbr(self.points)
        sibling.recompute_mbr(self.points)
        node.invalidate_cache()
        return sibling

    def _rstar_partition(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[list[int], list[int]]:
        """Split the boxes ``[lows[i], highs[i]]`` into two index groups.

        A distribution along a sort order puts its first ``k`` boxes left
        and the rest right, for every ``k`` honouring the minimum fill.
        All left covers of one order are the prefix min/max of the sorted
        corners and all right covers the suffix min/max; min and max are
        exact, so these are the very covers a per-distribution
        ``lows[idx].min(axis=0)`` would give.  Margins, areas and
        overlaps then use ``MBR.margin``/``area``/``overlap_area``'s
        per-axis arithmetic row by row, and the margin sum and the
        first-minimum choice run over Python floats in distribution
        order, so the chosen axis and split cannot differ from one
        ``MBR`` per cover.
        """
        n, dim = lows.shape
        m = self.min_entries
        sizes = np.arange(m, n - m + 1)  # left-group sizes

        def covers(order: np.ndarray):
            """(left lo, left hi, right lo, right hi) of every distribution."""
            lo, hi = lows[order], highs[order]
            pre_lo = np.minimum.accumulate(lo)
            pre_hi = np.maximum.accumulate(hi)
            suf_lo = np.minimum.accumulate(lo[::-1])[::-1]
            suf_hi = np.maximum.accumulate(hi[::-1])[::-1]
            return pre_lo[sizes - 1], pre_hi[sizes - 1], suf_lo[sizes], suf_hi[sizes]

        # ChooseSplitAxis: minimise the margin sum over both sortings.
        best_axis, best_margin, axis_orders = 0, np.inf, None
        for axis in range(dim):
            orders = (
                np.lexsort((highs[:, axis], lows[:, axis])),
                np.lexsort((lows[:, axis], highs[:, axis])),
            )
            margin_sum = 0.0
            for order in orders:
                l_lo, l_hi, r_lo, r_hi = covers(order)
                left = np.sum(l_hi - l_lo, axis=1).tolist()
                right = np.sum(r_hi - r_lo, axis=1).tolist()
                for margin_l, margin_r in zip(left, right):
                    margin_sum += margin_l + margin_r
            if margin_sum < best_margin:
                best_axis, best_margin, axis_orders = axis, margin_sum, orders

        # ChooseSplitIndex: minimise overlap, ties by total area.
        best_key, best_split = None, None
        for order in axis_orders:
            l_lo, l_hi, r_lo, r_hi = covers(order)
            sides = np.minimum(l_hi, r_hi) - np.maximum(l_lo, r_lo)
            overlaps = np.where(
                np.any(sides < 0, axis=1), 0.0, np.prod(sides, axis=1)
            ).tolist()
            areas = np.prod(l_hi - l_lo, axis=1) + np.prod(r_hi - r_lo, axis=1)
            for k, key in zip(sizes.tolist(), zip(overlaps, areas.tolist())):
                if best_key is None or key < best_key:
                    best_key, best_split = key, (order, k)
        assert best_split is not None, f"no valid split for {n} entries"
        order, k = best_split
        return order[:k].tolist(), order[k:].tolist()

    # Deletion inherits Guttman's CondenseTree from RTree; the reinsert
    # bookkeeping must be reset so deletions can trigger fresh inserts.
    # Tombstone accounting lives in SpatialIndex.delete — identical for
    # every tree.
    def _remove(self, pid: int) -> bool:
        """Structural removal (Guttman CondenseTree + R* reinserts)."""
        self._reinserted_levels = set()
        return super()._remove(pid)

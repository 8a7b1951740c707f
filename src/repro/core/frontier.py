"""The task streams of the tree self-joins, and the batched dual-tree runner.

SSJ, N-CSJ and CSJ(g) are one recursion (Figure 3).  Its
output-producing work is a deterministic sequence of *tasks*, in the
order the recursion visits them:

* ``("group", n)`` — an early-stopped subtree (lines 2-3, compact only);
* ``("self", n)`` — a leaf self-join (lines 5-10);
* ``("cross", n1, n2)`` — a leaf-pair cross join (lines 23-29);
* ``("pgroup", n1, n2)`` — an early-stopped node pair (lines 20-21,
  compact only).

This module generates that sequence lazily, in two forms of one stream:

* :func:`iter_packed_tasks` walks a :class:`~repro.index.packed.PackedIndex`
  with an **explicit-stack frontier loop** and yields packed node *ids*:
  pop a task, prune the whole fanout² candidate block with one kernel
  call (:mod:`repro.geometry.kernels`), push the survivors in reverse so
  the LIFO pop order reproduces the recursion's preorder exactly;
* :func:`iter_node_tasks` recurses over
  :class:`~repro.index.base.IndexNode` objects with the per-pair
  ``min_dist`` / ``diameter`` / ``union_diameter`` bounds.  It serves
  the trees :func:`~repro.index.packed.pack_index` declines (object
  metrics, exotic node types).

The input picks the stream (``pack_index(tree) is None``), never an
option.  Both make the identical ``< eps`` decisions — the kernels
perform the scalar bounds' exact elementwise operations over float64
copies of the same per-node arrays — so they yield the same tasks in
the same order, and a task executes to the same events either way
(:func:`repro.core.csj.execute_tree_task`).

Given ``stats`` / ``budget`` / ``pager``, a stream charges
``nodes_visited``, ``node_pairs_visited`` and ``mbr_checks``, checks the
budget and visits pages as the recursion enters each node and node
pair.  The packed stream charges a pruned candidate block's
``mbr_checks`` in one batch rather than one by one between descents;
nothing observes the interleaving
(:class:`~repro.resilience.budget.Budget` reads only the deadline,
output bytes and group counts) and the totals are equal.  Without
``stats`` the counters go to a throwaway object — the form the task
list of :class:`~repro.parallel.tasks.TaskState` uses.

:class:`_VecDualRunner` is the frontier loop of the two-dataset joins in
:mod:`repro.core.dual`, which are not on the task stream.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.dual import _DualRunner
from repro.index.packed import PackedIndex
from repro.stats.counters import JoinStats

__all__ = [
    "iter_packed_tasks",
    "iter_node_tasks",
    "enumerate_packed_task_ids",
    "_VecDualRunner",
]

# Frontier stack entries: ``(tag, a, b, ud)``.
#   (_NODE, nid, 0, 0.0)      simJoin(n)        — Figure 3 lines 1-18
#   (_NPAIRS, nid, 0, 0.0)    the deferred a<b child-pair block of n,
#                             popped after all child subtrees finish
#                             (the recursion's pair loop runs after the
#                             child recursion)
#   (_PAIR, n1, n2, ud)       simJoin(n1, n2)   — Figure 3 lines 19-41;
#                             ``ud`` is the precomputed union diameter
#                             for the compact early stop
_NODE, _NPAIRS, _PAIR = 0, 1, 2


def iter_packed_tasks(
    p: PackedIndex,
    eps: float,
    compact: bool,
    stats: Optional[JoinStats] = None,
    budget=None,
    pager=None,
) -> Iterator[tuple]:
    """Lazily yield the canonical task sequence of ``p`` as node ids.

    ``compact`` enables the early stops of N-CSJ / CSJ(g).  ``pager``
    visits ``p.nodes``, so it needs a pack made from a live tree.
    """
    if stats is None:
        stats = JoinStats()
    eps = float(eps)
    nodes = p.nodes
    leaf = p.leaf.tolist()
    child_beg = p.child_beg.tolist()
    child_end = p.child_end.tolist()
    diam = p.diam.tolist()
    stack: list[tuple] = [(_NODE, 0, 0, 0.0)]
    push = stack.append

    def push_pairs(rows, cols, base1, base2) -> None:
        ids1 = rows + base1 if base1 else rows
        ids2 = cols + base2 if base2 else cols
        if compact:
            ud = p.union_diag(ids1, ids2)
            for i1, i2, u in zip(
                ids1[::-1].tolist(), ids2[::-1].tolist(), ud[::-1].tolist()
            ):
                push((_PAIR, i1, i2, u))
        else:
            for i1, i2 in zip(ids1[::-1].tolist(), ids2[::-1].tolist()):
                push((_PAIR, i1, i2, 0.0))

    while stack:
        tag, a, b, ud = stack.pop()
        if tag == _PAIR:
            stats.node_pairs_visited += 1
            if budget is not None:
                budget.check(stats)
            if pager is not None:
                pager.visit(nodes[a])
                pager.visit(nodes[b])
            if compact:
                # Early stop (line 20): both subtrees form one group.
                stats.mbr_checks += 1
                if ud < eps:
                    yield ("pgroup", a, b)
                    continue
            la = leaf[a]
            lb = leaf[b]
            if la and lb:
                yield ("cross", a, b)
                continue
            if la:
                beg, end = child_beg[b], child_end[b]
                stats.mbr_checks += end - beg
                _, cols = p.prune_cross([a], slice(beg, end), eps)
                push_pairs(np.full(len(cols), a, dtype=np.intp), cols, 0, beg)
            elif lb:
                beg, end = child_beg[a], child_end[a]
                stats.mbr_checks += end - beg
                rows, _ = p.prune_cross(slice(beg, end), [b], eps)
                push_pairs(rows, np.full(len(rows), b, dtype=np.intp), beg, 0)
            else:
                b1, e1 = child_beg[a], child_end[a]
                b2, e2 = child_beg[b], child_end[b]
                stats.mbr_checks += (e1 - b1) * (e2 - b2)
                rows, cols = p.prune_cross(slice(b1, e1), slice(b2, e2), eps)
                push_pairs(rows, cols, b1, b2)
        elif tag == _NODE:
            stats.nodes_visited += 1
            if budget is not None:
                budget.check(stats)
            if pager is not None:
                pager.visit(nodes[a])
            if compact:
                # Early stop (line 2): the whole subtree is one group.
                stats.mbr_checks += 1
                if diam[a] < eps:
                    yield ("group", a)
                    continue
            if leaf[a]:
                yield ("self", a)
                continue
            beg, end = child_beg[a], child_end[a]
            push((_NPAIRS, a, 0, 0.0))
            for cid in range(end - 1, beg - 1, -1):
                push((_NODE, cid, 0, 0.0))
        else:  # _NPAIRS
            beg, end = child_beg[a], child_end[a]
            k = end - beg
            stats.mbr_checks += k * (k - 1) // 2
            rows, cols = p.prune_self(beg, end, eps)
            push_pairs(rows, cols, beg, beg)


def iter_node_tasks(
    tree,
    eps: float,
    compact: bool,
    stats: Optional[JoinStats] = None,
    budget=None,
    pager=None,
) -> Iterator[tuple]:
    """Lazily yield the canonical task sequence of ``tree`` as node objects.

    The recursion of Figure 3 itself; the same tasks, in the same order,
    with the same hooks as :func:`iter_packed_tasks`.
    """
    if stats is None:
        stats = JoinStats()
    eps = float(eps)
    metric = tree.metric

    def visit(node) -> Iterator[tuple]:
        stats.nodes_visited += 1
        if budget is not None:
            budget.check(stats)
        if pager is not None:
            pager.visit(node)
        if compact:
            stats.mbr_checks += 1
            if node.diameter(metric) < eps:
                yield ("group", node)
                return
        if node.is_leaf:
            yield ("self", node)
            return
        children = node.children
        for child in children:
            yield from visit(child)
        for a in range(len(children)):
            for b in range(a + 1, len(children)):
                stats.mbr_checks += 1
                if children[a].min_dist(children[b], metric) < eps:
                    yield from visit_pair(children[a], children[b])

    def visit_pair(n1, n2) -> Iterator[tuple]:
        stats.node_pairs_visited += 1
        if budget is not None:
            budget.check(stats)
        if pager is not None:
            pager.visit(n1)
            pager.visit(n2)
        if compact:
            stats.mbr_checks += 1
            if n1.union_diameter(n2, metric) < eps:
                yield ("pgroup", n1, n2)
                return
        if n1.is_leaf and n2.is_leaf:
            yield ("cross", n1, n2)
            return
        if n1.is_leaf:
            for child in n2.children:
                stats.mbr_checks += 1
                if n1.min_dist(child, metric) < eps:
                    yield from visit_pair(n1, child)
            return
        if n2.is_leaf:
            for child in n1.children:
                stats.mbr_checks += 1
                if child.min_dist(n2, metric) < eps:
                    yield from visit_pair(child, n2)
            return
        for c1 in n1.children:
            for c2 in n2.children:
                stats.mbr_checks += 1
                if c1.min_dist(c2, metric) < eps:
                    yield from visit_pair(c1, c2)

    if tree.root is not None and tree.size > 1:
        yield from visit(tree.root)


def enumerate_packed_task_ids(packed, eps: float, compact: bool) -> list:
    """The packed task stream of ``packed``, materialised as a list.

    Tuples are ``("group", nid)``, ``("self", nid)``, ``("cross", nid1,
    nid2)``, ``("pgroup", nid1, nid2)``.  This is the form the task list
    of :class:`~repro.parallel.tasks.TaskState` and the shared-memory
    data plane execute against: it needs only the packed arrays, never
    the node objects, so a worker that adopted the arrays from a segment
    can enumerate (and execute) without ever holding a tree.
    """
    if packed is None or len(packed.entries) <= 1:
        return []
    return list(iter_packed_tasks(packed, eps, compact))


class _VecDualRunner(_DualRunner):
    """Frontier-loop runner for the dual-tree (two-dataset) joins."""

    def __init__(self, tree_a, tree_b, eps, g, sink,
                 packed_a: PackedIndex, packed_b: PackedIndex):
        super().__init__(tree_a, tree_b, eps, g, sink)
        self.packed_a = packed_a
        self.packed_b = packed_b

    def join_pair(self, n1, n2) -> None:
        pa = self.packed_a
        pb = self.packed_b
        if n1 is not pa.nodes[0] or n2 is not pb.nodes[0]:
            super().join_pair(n1, n2)
            return
        stats = self.stats
        eps = self.eps
        compact = self.compact
        nodes_a = pa.nodes
        nodes_b = pb.nodes
        leaf_a = pa.leaf.tolist()
        leaf_b = pb.leaf.tolist()
        cb_a, ce_a = pa.child_beg.tolist(), pa.child_end.tolist()
        cb_b, ce_b = pb.child_beg.tolist(), pb.child_end.tolist()
        root_ud = (
            float(pa.union_diag(np.array([0]), np.array([0]), pb)[0])
            if compact
            else 0.0
        )
        stack: list[tuple] = [(0, 0, root_ud)]
        push = stack.append

        def push_pairs(rows, cols, base1, base2) -> None:
            ids1 = rows + base1 if base1 else rows
            ids2 = cols + base2 if base2 else cols
            if compact:
                ud = pa.union_diag(ids1, ids2, pb)
                for i1, i2, u in zip(
                    ids1[::-1].tolist(), ids2[::-1].tolist(), ud[::-1].tolist()
                ):
                    push((i1, i2, u))
            else:
                for i1, i2 in zip(ids1[::-1].tolist(), ids2[::-1].tolist()):
                    push((i1, i2, 0.0))

        while stack:
            aid, bid, ud = stack.pop()
            stats.node_pairs_visited += 1
            if compact:
                stats.mbr_checks += 1
                if ud < eps:
                    self._emit_pair_group(nodes_a[aid], nodes_b[bid])
                    continue
            la = leaf_a[aid]
            lb = leaf_b[bid]
            if la and lb:
                self._leaf_cross(nodes_a[aid], nodes_b[bid])
                continue
            if la:
                beg, end = cb_b[bid], ce_b[bid]
                stats.mbr_checks += end - beg
                _, cols = pa.prune_cross([aid], slice(beg, end), eps, pb)
                push_pairs(np.full(len(cols), aid, dtype=np.intp), cols, 0, beg)
            elif lb:
                beg, end = cb_a[aid], ce_a[aid]
                stats.mbr_checks += end - beg
                rows, _ = pa.prune_cross(slice(beg, end), [bid], eps, pb)
                push_pairs(rows, np.full(len(rows), bid, dtype=np.intp), beg, 0)
            else:
                b1, e1 = cb_a[aid], ce_a[aid]
                b2, e2 = cb_b[bid], ce_b[bid]
                stats.mbr_checks += (e1 - b1) * (e2 - b2)
                rows, cols = pa.prune_cross(slice(b1, e1), slice(b2, e2), eps, pb)
                push_pairs(rows, cols, b1, b2)

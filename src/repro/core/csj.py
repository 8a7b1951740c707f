"""N-CSJ and CSJ(g) — the compact similarity joins (Sections IV-B, IV-C).

Both algorithms follow the SSJ recursion but add the *early stopping*
clauses of Figure 3 (shown in italics in the paper):

* entering a single node whose bounding-shape diameter is below the query
  range emits the whole subtree as one group (line 2-3);
* entering a node pair whose combined bounding shape has diameter below
  the range emits both subtrees as one group (line 20-21).

They differ at the leaves: N-CSJ writes each remaining qualifying pair
individually (exactly like SSJ), whereas CSJ(g) offers each pair to the
``g`` most recently created groups via ``mergeIntoPrevGroup``
(:class:`~repro.core.groups.GroupBuffer`), creating a fresh two-point group
when no recent group can absorb it.  N-CSJ is implemented as CSJ with an
empty merge window (``g = 0``), which reproduces its behaviour exactly: a
two-point group is written as a plain link in the paper's output format.

All three tree self-joins (SSJ included) run on one loop,
:func:`_tree_join`: it pulls tasks from the task stream of
:mod:`repro.core.frontier`, executes each with :func:`execute_tree_task`
and applies the events through the merge window.  The task list of
:class:`~repro.parallel.tasks.TaskState` (parallel, checkpointed and
sharded runs) is the same stream and the same executor.

Theorem 1 (completeness — every qualifying pair is implied by the output)
and Theorem 2 (correctness — no non-qualifying pair is implied) hold by
construction; the test suite re-verifies both against a brute-force join
for randomised inputs.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.frontier import iter_node_tasks, iter_packed_tasks
from repro.core.groups import GroupBuffer, apply_events
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError
from repro.index.base import IndexNode, SpatialIndex
from repro.index.packed import pack_index
from repro.index.rtree import RectNode
from repro.io.pagesim import NodePager
from repro.io.writer import width_for
from repro.obs.logging import get_logger
from repro.obs.tracing import span as trace_span
from repro.stats.counters import JoinStats

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = [
    "csj",
    "ncsj",
    "group_bounds",
    "pair_group_bounds",
    "node_group_delta",
    "pair_group_delta",
    "packed_node_group_delta",
    "packed_pair_group_delta",
    "leaf_self_delta",
    "leaf_cross_delta",
    "execute_tree_task",
]

logger = get_logger("core.csj")


# ---------------------------------------------------------------------------
# Pure per-task executors
#
# Each returns a serializable description of the task's output (the event
# vocabulary of :func:`repro.core.groups.apply_events`) instead of writing
# anywhere, so the same code runs in the serial loop, under the
# checkpointed driver, and inside parallel worker processes.
# ---------------------------------------------------------------------------

def group_bounds(points: np.ndarray, node: IndexNode, ids: np.ndarray) -> tuple[list, list]:
    """Group boundary corners for an early-stopped subtree.

    R-tree nodes already carry an MBR ("these shapes can be used
    directly", Section V-A); ball-shaped nodes fall back to the exact
    point MBR, which costs one pass over points we are about to write
    out anyway.
    """
    if isinstance(node, RectNode):
        return node.mbr.lo.tolist(), node.mbr.hi.tolist()
    pts = points[ids]
    return pts.min(axis=0).tolist(), pts.max(axis=0).tolist()


def pair_group_bounds(
    points: np.ndarray, n1: IndexNode, n2: IndexNode, ids: np.ndarray
) -> tuple[list, list]:
    """Combined boundary corners for an early-stopped node pair."""
    if isinstance(n1, RectNode) and isinstance(n2, RectNode):
        mbr = n1.mbr.union(n2.mbr)
        return mbr.lo.tolist(), mbr.hi.tolist()
    pts = points[ids]
    return pts.min(axis=0).tolist(), pts.max(axis=0).tolist()


def node_group_delta(points: np.ndarray, node: IndexNode) -> list:
    """Events for one early-stopped subtree (Figure 3, lines 2-3)."""
    ids = node.subtree_ids()
    if len(ids) < 2:
        return []  # a singleton implies no links; nothing to report
    lo, hi = group_bounds(points, node, ids)
    return [("group", ids.tolist(), lo, hi)]


def pair_group_delta(points: np.ndarray, n1: IndexNode, n2: IndexNode) -> list:
    """Events for one early-stopped node pair (Figure 3, lines 20-21)."""
    ids = np.concatenate([n1.subtree_ids(), n2.subtree_ids()])
    if len(ids) < 2:
        return []
    lo, hi = pair_group_bounds(points, n1, n2, ids)
    return [("group", ids.tolist(), lo, hi)]


def packed_node_group_delta(points: np.ndarray, packed, nid: int) -> list:
    """:func:`node_group_delta` against a packed index, by node id.

    Byte-identical to the node-object version: ``packed.lo/hi`` rows are
    float64 copies of the very MBR corners ``group_bounds`` reads, and
    :meth:`~repro.index.packed.PackedIndex.subtree_entry_ids` reproduces
    ``IndexNode.subtree_ids()`` order exactly.
    """
    ids = packed.subtree_entry_ids(nid)
    if len(ids) < 2:
        return []  # a singleton implies no links; nothing to report
    if packed.kind == "rect":
        lo = packed.lo[nid].tolist()
        hi = packed.hi[nid].tolist()
    else:
        pts = points[ids]
        lo = pts.min(axis=0).tolist()
        hi = pts.max(axis=0).tolist()
    return [("group", ids.tolist(), lo, hi)]


def packed_pair_group_delta(
    points: np.ndarray, packed, nid1: int, nid2: int
) -> list:
    """:func:`pair_group_delta` against a packed index, by node ids.

    The rect union uses ``np.minimum`` / ``np.maximum`` over the packed
    corner rows — elementwise identical to ``MBR.union``.
    """
    ids = np.concatenate(
        [packed.subtree_entry_ids(nid1), packed.subtree_entry_ids(nid2)]
    )
    if len(ids) < 2:
        return []
    if packed.kind == "rect":
        lo = np.minimum(packed.lo[nid1], packed.lo[nid2]).tolist()
        hi = np.maximum(packed.hi[nid1], packed.hi[nid2]).tolist()
    else:
        pts = points[ids]
        lo = pts.min(axis=0).tolist()
        hi = pts.max(axis=0).tolist()
    return [("group", ids.tolist(), lo, hi)]


def leaf_self_delta(
    points: np.ndarray, metric, eps: float, ids, g: int
) -> tuple[list, int]:
    """Pure leaf self-join task: ``(events, distance_computations)``.

    With ``g == 0`` residual links go out individually (SSJ / N-CSJ);
    with ``g > 0`` they are described as a ``linkseq`` to be routed
    through the merge window by whoever applies the events.
    """
    id_arr = np.asarray(ids, dtype=np.intp)
    k = len(id_arr)
    if k < 2:
        return [], 0
    pts = points[id_arr]
    # Condensed upper-triangle distances: same values and pair order as
    # the full k x k matrix masked with triu, at ~half the peak memory.
    t_rows, t_cols, dists = metric.condensed_self(pts)
    dc = k * (k - 1) // 2
    hit = np.flatnonzero(dists < eps)
    if not len(hit):
        return [], dc
    rows, cols = t_rows[hit], t_cols[hit]
    if g == 0:
        return [("links", id_arr[rows], id_arr[cols])], dc
    coords = pts.tolist()
    id_list = id_arr.tolist()
    rows = rows.tolist()
    cols = cols.tolist()
    return [(
        "linkseq",
        [id_list[r] for r in rows],
        [id_list[c] for c in cols],
        [coords[r] for r in rows],
        [coords[c] for c in cols],
    )], dc


def leaf_cross_delta(
    points: np.ndarray, metric, eps: float, ids1, ids2, g: int
) -> tuple[list, int]:
    """Pure leaf cross-join twin of :func:`leaf_self_delta`."""
    arr1 = np.asarray(ids1, dtype=np.intp)
    arr2 = np.asarray(ids2, dtype=np.intp)
    if not len(arr1) or not len(arr2):
        return [], 0
    pts1 = points[arr1]
    pts2 = points[arr2]
    dists = metric.pairwise(pts1, pts2)
    dc = len(arr1) * len(arr2)
    rows, cols = np.nonzero(dists < eps)
    if not len(rows):
        return [], dc
    if g == 0:
        return [("links", arr1[rows], arr2[cols])], dc
    coords1 = pts1.tolist()
    coords2 = pts2.tolist()
    id1 = arr1.tolist()
    id2 = arr2.tolist()
    rows = rows.tolist()
    cols = cols.tolist()
    return [(
        "linkseq",
        [id1[r] for r in rows],
        [id2[c] for c in cols],
        [coords1[r] for r in rows],
        [coords2[c] for c in cols],
    )], dc




def execute_tree_task(
    task: tuple, points: np.ndarray, metric, eps: float, g: int, packed=None
) -> tuple[list, tuple[int, int, int]]:
    """Run one tree-join task; returns ``(events, (dc, mbr_checks, early_stops))``.

    ``task`` comes from :func:`~repro.core.frontier.iter_packed_tasks`
    (node ids; pass its ``packed``) or
    :func:`~repro.core.frontier.iter_node_tasks` (node objects;
    ``packed=None``).  Pure: no sink writes, no window mutation, no
    stats mutation — safe to run in any process and to run twice
    (speculation, retries) with identical results.
    """
    kind = task[0]
    if packed is not None:
        if kind == "group":
            return packed_node_group_delta(points, packed, task[1]), (0, 0, 1)
        if kind == "pgroup":
            return (
                packed_pair_group_delta(points, packed, task[1], task[2]),
                (0, 0, 1),
            )
        ids1 = packed.leaf_entry_ids(task[1])
        ids2 = packed.leaf_entry_ids(task[2]) if kind == "cross" else None
    else:
        if kind == "group":
            return node_group_delta(points, task[1]), (0, 0, 1)
        if kind == "pgroup":
            return pair_group_delta(points, task[1], task[2]), (0, 0, 1)
        ids1 = task[1].entry_ids
        ids2 = task[2].entry_ids if kind == "cross" else None
    if kind == "self":
        events, dc = leaf_self_delta(points, metric, eps, ids1, g)
    else:
        events, dc = leaf_cross_delta(points, metric, eps, ids1, ids2, g)
    return events, (dc, 0, 0)


def _tree_join(
    tree: SpatialIndex,
    packed,
    eps: float,
    g: int,
    compact: bool,
    label: str,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """The one serial loop behind ``ssj``, ``ncsj`` and ``csj``.

    Pulls the next task from the packed stream (``packed`` is
    ``pack_index(tree)``) or, when ``packed`` is ``None``, from the node
    stream; runs :func:`execute_tree_task` on it and applies the events
    to ``sink`` through the merge window.  The stream charges traversal
    counters, checks ``budget`` and visits ``pager`` pages as the
    recursion enters each node and node pair; tasks execute as they are
    yielded, so sink writes interleave with those checks exactly as in
    the recursion.

    A breached ``budget`` flushes the in-flight group window, so the sink
    holds a valid prefix of the output, which is attached to the raised
    :class:`~repro.errors.BudgetExceededError` as ``exc.partial``.  The
    one exception is SSJ over its output-byte budget, which returns the
    analytic estimate instead (:func:`_estimated_fallback`).
    """
    if sink is None:
        sink = CollectSink(id_width=width_for(tree.size))
    stats = sink.stats
    points = tree.points
    metric = tree.metric
    buffer = None
    if compact:
        dim = points.shape[1] if points.ndim == 2 else None
        buffer = GroupBuffer(g, eps, sink, metric=metric, stats=stats, dim=dim)
    if packed is None:
        tasks = iter_node_tasks(tree, eps, compact, stats, budget, pager)
    elif tree.size > 1:
        tasks = iter_packed_tasks(packed, eps, compact, stats, budget, pager)
    else:
        tasks = ()
    result_g = g if compact else None
    span_fields = {"g": g} if compact else {}
    if budget is not None:
        budget.start()
    start = time.perf_counter()
    try:
        with trace_span("descend", algorithm=label, eps=eps, **span_fields):
            for task in tasks:
                events, (dc, _, stops) = execute_tree_task(
                    task, points, metric, eps, g, packed
                )
                stats.distance_computations += dc
                stats.early_stops += stops
                apply_events(events, sink, buffer)
        if buffer is not None:
            with trace_span("emit", algorithm=label):
                buffer.flush()
    except BudgetExceededError as exc:
        if buffer is not None:
            buffer.flush()
        stats.compute_time += time.perf_counter() - start - stats.write_time
        logger.warning(
            "join budget breach",
            extra={"algorithm": label, "kind": exc.kind, "limit": exc.limit},
        )
        if not compact and exc.kind == "output_bytes":
            return _estimated_fallback(tree, eps, sink, stats)
        exc.partial = JoinResult.from_sink(
            sink, eps=eps, algorithm=label, g=result_g, index_name=type(tree).name
        )
        raise
    stats.compute_time += time.perf_counter() - start - stats.write_time
    if pager is not None:
        stats.page_reads += pager.cache.misses
        stats.cache_hits += pager.cache.hits
    logger.debug(
        "join finished",
        extra={
            "algorithm": label,
            "links_emitted": stats.links_emitted,
            "groups_emitted": stats.groups_emitted,
            "bytes_written": stats.bytes_written,
            "distance_computations": stats.distance_computations,
            "early_stops": stats.early_stops,
            "merge_successes": stats.merge_successes,
        },
    )
    return JoinResult.from_sink(
        sink, eps=eps, algorithm=label, g=result_g, index_name=type(tree).name
    )


def _estimated_fallback(tree: SpatialIndex, eps: float, sink: JoinSink, partial_stats):
    """The paper's crash protocol as a first-class mechanism (SSJ only).

    The exact link count is obtained cheaply (dual-tree counting, no pair
    materialisation) and the output size follows from the fixed-width
    format; the returned result carries ``estimated=True`` so tables can
    mark it like the paper's "full, black shapes".
    """
    from repro.experiments.estimate import estimate_ssj  # deferred: no cycle

    estimate = estimate_ssj(tree.points, eps, sink.id_width, metric=tree.metric)
    stats = JoinStats()
    stats.links_emitted = estimate.links
    stats.bytes_written = estimate.output_bytes
    # Keep the honest measurements made before the breach.
    stats.compute_time = partial_stats.compute_time
    stats.write_time = partial_stats.write_time
    stats.distance_computations = partial_stats.distance_computations
    return JoinResult(
        eps=eps,
        algorithm="ssj",
        stats=stats,
        index_name=type(tree).name,
        estimated=True,
    )


def csj(
    tree: SpatialIndex,
    eps: float,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
    _algorithm_label: Optional[str] = None,
) -> JoinResult:
    """Run the compact similarity join CSJ(g) on ``tree``.

    ``g`` is the merge-window length; the paper recommends ``g ~ 10``
    (Figure 6).  ``g = 0`` degenerates to N-CSJ.  Returns a
    :class:`~repro.core.results.JoinResult` whose groups and links together
    imply exactly the SSJ output (Theorems 1 and 2).

    A breached ``budget`` stops the run cleanly: the in-flight group
    window is flushed first, so the sink holds a valid prefix of the
    output (every emitted link and group individually correct), which is
    attached to the raised :class:`~repro.errors.BudgetExceededError` as
    ``exc.partial``.
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    if g < 0:
        raise ValueError(f"window size g must be >= 0, got {g}")
    label = _algorithm_label or (f"csj({g})" if g else "ncsj")
    return _tree_join(
        tree, pack_index(tree), float(eps), int(g), True, label, sink, pager, budget
    )


def ncsj(
    tree: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Run the naive compact similarity join N-CSJ on ``tree``.

    Early stopping on tree nodes only; links that cross nodes are written
    individually, exactly like SSJ (Section IV-B).
    """
    return csj(
        tree, eps, g=0, sink=sink, pager=pager, budget=budget,
        _algorithm_label="ncsj",
    )

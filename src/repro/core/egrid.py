"""The epsilon-grid-order join and its compact extension (Section VII).

Boehm, Braunmueller, Krebs and Kriegel's epsilon-grid-order [2] is the
paper's reference technique for the index-free setting: lay a virtual grid
of cell width ``eps`` over the data; two points can only qualify when
their cells differ by at most one in every coordinate, so each cell is
joined with itself and with its lexicographically larger neighbours.

Section VII notes that the compact idea carries over: "one need only
modify the JoinBuffer function ... to add the early termination-as-a-group
case".  That is what :func:`egrid_join` does when ``compact=True``:

* a cell (or a cell pair) whose *actual point* MBR has a diagonal below
  the range is emitted as one group instead of being pair-enumerated, and
* residual links flow through the same ``g``-recent-group merge window as
  CSJ(g).

Substitution note: the original operates out-of-core over a sorted stream;
our in-memory hash-grid performs the identical cell-pair joins (same
candidate set, same output), which is the behaviour relevant to output
compaction.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.groups import GroupBuffer, apply_events
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError
from repro.geometry.metrics import Metric, get_metric
from repro.io.writer import width_for
from repro.obs.tracing import span as trace_span

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = [
    "egrid_join",
    "egrid_sorted_join",
    "grid_cells",
    "enumerate_egrid_tasks",
    "epsilon_grid_order",
    "cell_self_delta",
    "cell_pair_delta",
]


def grid_cells(points: np.ndarray, eps: float) -> dict[tuple[int, ...], np.ndarray]:
    """Bucket point ids into grid cells of side ``eps``.

    Returns a mapping from integer cell coordinates to id arrays, ordered
    lexicographically by cell coordinate (the "epsilon grid order").
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = np.floor(pts / eps).astype(np.int64)
    order = np.lexsort(coords.T[::-1])
    cells: dict[tuple[int, ...], np.ndarray] = {}
    start = 0
    sorted_coords = coords[order]
    for i in range(1, len(order) + 1):
        if i == len(order) or not np.array_equal(sorted_coords[i], sorted_coords[start]):
            key = tuple(int(c) for c in sorted_coords[start])
            cells[key] = order[start:i]
            start = i
    return cells


def _positive_neighbour_offsets(dim: int) -> list[tuple[int, ...]]:
    """Offsets in {-1, 0, 1}^d that are lexicographically positive.

    Joining each cell only with its lexicographically larger neighbours
    visits every neighbouring cell pair exactly once.
    """
    offsets = []
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        for component in offset:
            if component > 0:
                offsets.append(offset)
                break
            if component < 0:
                break
    return offsets


def egrid_join(
    points: np.ndarray,
    eps: float,
    compact: bool = False,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    metric: Optional[Metric] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Similarity self-join via the epsilon grid order.

    With ``compact=False`` this is the standard index-free join: all
    qualifying pairs individually.  With ``compact=True`` the JoinBuffer
    early-termination-as-a-group extension is active (``g`` as in CSJ).

    The metric must not exceed the grid reach: any Minkowski metric is
    safe because ``distance < eps`` implies every coordinate difference is
    below ``eps``, hence neighbouring cells.
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    m = get_metric(metric)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if sink is None:
        sink = CollectSink(id_width=width_for(len(pts)))
    stats = sink.stats
    buffer = GroupBuffer(
        g if compact else 0, eps, sink, metric=m, stats=stats, dim=pts.shape[1]
    )

    if budget is not None:
        budget.start()
    start_time = time.perf_counter()
    with trace_span("grid", algorithm="egrid", points=len(pts)):
        cells = grid_cells(pts, eps)
    offsets = _positive_neighbour_offsets(pts.shape[1])

    try:
        with trace_span("descend", algorithm="egrid", cells=len(cells)):
            for key, ids in cells.items():
                if budget is not None:
                    budget.check(stats)
                _join_cell_self(pts, ids, eps, m, compact, buffer, sink, stats)
                for offset in offsets:
                    neighbour = tuple(k + o for k, o in zip(key, offset))
                    other = cells.get(neighbour)
                    if other is not None:
                        _join_cell_pair(pts, ids, other, eps, m, compact, buffer, sink, stats)
        with trace_span("emit", algorithm="egrid"):
            buffer.flush()
    except BudgetExceededError as exc:
        buffer.flush()
        stats.compute_time += time.perf_counter() - start_time - stats.write_time
        label = (f"egrid-csj({g})" if g else "egrid-ncsj") if compact else "egrid"
        exc.partial = JoinResult.from_sink(
            sink, eps=eps, algorithm=label, g=g if compact else None,
            index_name="egrid",
        )
        raise
    stats.compute_time += time.perf_counter() - start_time - stats.write_time
    label = (f"egrid-csj({g})" if g else "egrid-ncsj") if compact else "egrid"
    return JoinResult.from_sink(
        sink, eps=eps, algorithm=label, g=g if compact else None, index_name="egrid"
    )


def enumerate_egrid_tasks(pts: np.ndarray, eps: float) -> list[tuple]:
    """The cell work units of :func:`egrid_join`, in its visit order.

    ``("self", ids)`` for each cell, each followed by ``("cross", ids,
    other)`` for its lexicographically positive neighbours — the task
    list that parallel and checkpointed grid joins execute.
    """
    cells = grid_cells(pts, eps)
    offsets = _positive_neighbour_offsets(pts.shape[1])
    tasks: list[tuple] = []
    for key, ids in cells.items():
        tasks.append(("self", ids))
        for offset in offsets:
            neighbour = tuple(k + o for k, o in zip(key, offset))
            other = cells.get(neighbour)
            if other is not None:
                tasks.append(("cross", ids, other))
    return tasks


def epsilon_grid_order(points: np.ndarray, eps: float) -> np.ndarray:
    """The permutation sorting points into the epsilon grid order.

    Points are ordered lexicographically by their grid-cell coordinates
    (Boehm et al.'s total order); within a cell the original order is
    kept.  The defining property: all join partners of a point lie within
    a contiguous window of this order bounded by the cells at
    lexicographic distance one — the basis of the external-memory
    algorithm.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = np.floor(pts / eps).astype(np.int64)
    return np.lexsort(coords.T[::-1])


def egrid_sorted_join(
    points: np.ndarray,
    eps: float,
    compact: bool = False,
    g: int = 10,
    sink: Optional[JoinSink] = None,
    metric: Optional[Metric] = None,
) -> JoinResult:
    """The sorted (sequential-scan) formulation of the grid-order join.

    This is the shape of the original algorithm [2]: sort once by the
    epsilon grid order, then sweep; each cell joins itself and, via the
    lexicographic window, exactly its not-yet-visited neighbour cells.
    Output and semantics are identical to :func:`egrid_join` (the test
    suite asserts it); the hash variant is faster in memory, this one
    reflects how the join streams from disk.  ``compact=True`` applies
    the same Section VII early-termination extension.
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    m = get_metric(metric)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if sink is None:
        sink = CollectSink(id_width=width_for(len(pts)))
    stats = sink.stats
    buffer = GroupBuffer(
        g if compact else 0, eps, sink, metric=m, stats=stats, dim=pts.shape[1]
    )

    start_time = time.perf_counter()
    if len(pts) > 1:
        order = epsilon_grid_order(pts, eps)
        coords = np.floor(pts / eps).astype(np.int64)
        sorted_coords = coords[order]
        # Cut the sorted sequence into cell runs.
        boundaries = [0]
        for i in range(1, len(order)):
            if not np.array_equal(sorted_coords[i], sorted_coords[i - 1]):
                boundaries.append(i)
        boundaries.append(len(order))
        runs = {
            tuple(int(c) for c in sorted_coords[boundaries[k]]): order[
                boundaries[k]:boundaries[k + 1]
            ]
            for k in range(len(boundaries) - 1)
        }
        offsets = _positive_neighbour_offsets(pts.shape[1])
        # Sweep the cells in grid order; each joins itself and its
        # lexicographically *following* neighbours (all within the
        # bounded window ahead of the scan position).
        for key in sorted(runs):
            ids = runs[key]
            _join_cell_self(pts, ids, eps, m, compact, buffer, sink, stats)
            for offset in offsets:
                neighbour = tuple(k + o for k, o in zip(key, offset))
                other = runs.get(neighbour)
                if other is not None:
                    _join_cell_pair(
                        pts, ids, other, eps, m, compact, buffer, sink, stats
                    )
    buffer.flush()
    stats.compute_time += time.perf_counter() - start_time - stats.write_time
    label = (
        (f"egrid-sorted-csj({g})" if g else "egrid-sorted-ncsj")
        if compact
        else "egrid-sorted"
    )
    return JoinResult.from_sink(
        sink,
        eps=eps,
        algorithm=label,
        g=g if compact else None,
        index_name="egrid-sorted",
    )


def cell_self_delta(
    pts: np.ndarray, ids: np.ndarray, eps: float, metric, compact: bool
) -> tuple[list, int, int, int]:
    """Pure grid-cell self-join task.

    Returns ``(events, distance_computations, mbr_checks, early_stops)``
    — the event list is the vocabulary of
    :func:`repro.core.groups.apply_events`.  In compact mode residual
    links are a ``linkseq`` (the JoinBuffer extension routes them through
    the merge window even at ``g = 0``, where a two-point group
    degenerates to a plain link).
    """
    k = len(ids)
    if k < 2:
        return [], 0, 0, 0
    cell_pts = pts[ids]
    if compact:
        lo = cell_pts.min(axis=0)
        hi = cell_pts.max(axis=0)
        if metric.norm(hi - lo) < eps:
            # Early termination as a group: the whole cell qualifies.
            return [("group", ids.tolist(), lo.tolist(), hi.tolist())], 0, 1, 1
    t_rows, t_cols, dists = metric.condensed_self(cell_pts)
    dc = k * (k - 1) // 2
    hit = np.flatnonzero(dists < eps)
    rows, cols = t_rows[hit], t_cols[hit]
    if not compact:
        if not len(rows):
            return [], dc, 0, 0
        return [("links", ids[rows], ids[cols])], dc, 0, 0
    if not len(rows):
        return [], dc, 1, 0
    coords = cell_pts.tolist()
    id_list = ids.tolist()
    rows = rows.tolist()
    cols = cols.tolist()
    return [(
        "linkseq",
        [id_list[r] for r in rows],
        [id_list[c] for c in cols],
        [coords[r] for r in rows],
        [coords[c] for c in cols],
    )], dc, 1, 0


def cell_pair_delta(
    pts: np.ndarray, ids_a: np.ndarray, ids_b: np.ndarray, eps: float,
    metric, compact: bool,
) -> tuple[list, int, int, int]:
    """Pure grid-cell pair-join twin of :func:`cell_self_delta`."""
    pts_a = pts[ids_a]
    pts_b = pts[ids_b]
    if compact:
        both = np.vstack([pts_a, pts_b])
        lo = both.min(axis=0)
        hi = both.max(axis=0)
        if metric.norm(hi - lo) < eps:
            ids = np.concatenate([ids_a, ids_b])
            return [("group", ids.tolist(), lo.tolist(), hi.tolist())], 0, 1, 1
    dists = metric.pairwise(pts_a, pts_b)
    dc = len(ids_a) * len(ids_b)
    rows, cols = np.nonzero(dists < eps)
    if not compact:
        if not len(rows):
            return [], dc, 0, 0
        return [("links", ids_a[rows], ids_b[cols])], dc, 0, 0
    if not len(rows):
        return [], dc, 1, 0
    coords_a = pts_a.tolist()
    coords_b = pts_b.tolist()
    id_a = ids_a.tolist()
    id_b = ids_b.tolist()
    rows = rows.tolist()
    cols = cols.tolist()
    return [(
        "linkseq",
        [id_a[r] for r in rows],
        [id_b[c] for c in cols],
        [coords_a[r] for r in rows],
        [coords_b[c] for c in cols],
    )], dc, 1, 0


def _join_cell_self(pts, ids, eps, metric, compact, buffer, sink, stats) -> None:
    events, dc, checks, stops = cell_self_delta(pts, ids, eps, metric, compact)
    stats.mbr_checks += checks
    stats.early_stops += stops
    stats.distance_computations += dc
    apply_events(events, sink, buffer)


def _join_cell_pair(pts, ids_a, ids_b, eps, metric, compact, buffer, sink, stats) -> None:
    events, dc, checks, stops = cell_pair_delta(pts, ids_a, ids_b, eps, metric, compact)
    stats.mbr_checks += checks
    stats.early_stops += stops
    stats.distance_computations += dc
    apply_events(events, sink, buffer)

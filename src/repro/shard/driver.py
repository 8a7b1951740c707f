"""The sharded join driver: per-shard discovery + canonical replay.

:func:`sharded_join` runs a similarity self-join as a two-phase
pipeline over a :class:`~repro.shard.planner.ShardPlan`:

**Phase 1 — discovery.**  Each shard builds its own index over its
working set (core + ε-margin halo) and runs its canonical task
sequence; the owner rule reduces every task's events to the globally
owned qualifying links (see :mod:`repro.shard.state`).  Tasks run
serially or through the existing parallel supervisor — shm or pickle
plane — exactly like an unsharded parallel join; links are collected,
never written.

**Phase 2 — canonical replay.**  The owned links (each global pair
appears exactly once, by the owner rule — there is no dedup pass) are
replayed through the standard emission path.  Plain joins write them
in ``(i, j)`` order straight to the sink.  Compact joins replay the
*unsharded* join: the parent builds one global tree with the default
recipe of :func:`repro.api.similarity_join` (R*-tree, STR bulk load,
64 entries), walks its CSJ task stream, turns each early-stop task
into its group and feeds each owned link to the CSJ(``g``) window at
the position its leaf-pair task would have produced it
(:class:`ReplayPlan`).  Owned links inside an early-stop group are
implied by that group and dropped; their count is checked against the
pairs the groups imply.

The replay stream depends only on the *set* of qualifying pairs and
the dataset, which are exact for any plan.  Output bytes and all
output-side counters are therefore **invariant across shard count,
partitioner, worker count, data plane and index**, and compact output
is byte-identical to the unsharded ``similarity_join(points, eps,
algorithm, g)`` — the shard-parity battery proves both over that
whole matrix.  Work counters (distance computations, MBR checks,
early stops) are inherently K-dependent — halo points are probed in
more than one shard — and are reported
separately on ``JoinResult.shard_report["work"]`` plus the
``repro_shard_work_*_total`` metrics; the canonical ``repro_join_*``
counters stay identical in every cell.

Budget semantics: deadlines bind end-to-end through both phases; the
byte/group caps are enforced conservatively against the phase-1
collection volume and exactly during replay.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.csj import execute_tree_task
from repro.core.frontier import iter_node_tasks, iter_packed_tasks
from repro.core.groups import GroupBuffer, apply_events
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError, PoisonTaskError, ReproError
from repro.geometry.metrics import get_metric
from repro.index.packed import pack_index
from repro.io.writer import width_for
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.resilience.budget import Budget
from repro.stats.counters import JoinStats

__all__ = [
    "OwnedLinkSink",
    "REPLAY_CHECK_EVERY",
    "REPLAY_TREE",
    "ReplayPlan",
    "ShardedJoin",
    "sharded_join",
    "sorted_owned_links",
]

logger = get_logger("shard.driver")

#: Budget-check cadence (replay units) during phase 2.
REPLAY_CHECK_EVERY = 256

#: The global tree a compact replay walks: the default recipe of
#: :func:`repro.api.similarity_join`, so the replayed task stream is
#: the unsharded join's.
REPLAY_TREE = {"index": "rstar", "bulk": "str", "max_entries": 64}


class OwnedLinkSink(JoinSink):
    """Phase-1 sink: collects owned links as int64 array chunks.

    16 bytes per link instead of a Python tuple each; counts links and
    bytes like every sink, so phase-1 budget checks see the collection
    volume.
    """

    def __init__(self, id_width: int = 8):
        super().__init__(id_width=id_width)
        self._chunks: list[np.ndarray] = []

    def write_links(self, ids_i: Sequence[int], ids_j: Sequence[int]) -> None:
        chunk = np.empty((len(ids_i), 2), dtype=np.int64)
        chunk[:, 0] = ids_i
        chunk[:, 1] = ids_j
        self._chunks.append(chunk)
        self.stats.links_emitted += len(chunk)
        self.stats.bytes_written += len(chunk) * self._link_bytes

    def _store_link(self, i: int, j: int) -> None:
        self._chunks.append(np.array([[i, j]], dtype=np.int64))

    def pairs(self) -> np.ndarray:
        """Every collected link as one ``(m, 2)`` array, in arrival order."""
        if len(self._chunks) != 1:
            chunks = self._chunks or [np.empty((0, 2), dtype=np.int64)]
            self._chunks = [np.concatenate(chunks)]
        return self._chunks[0]


def sorted_owned_links(links) -> np.ndarray:
    """Canonicalise collected owned links: an ``(m, 2)`` array sorted by
    ``(i, j)``.  ``links`` is an ``(m, 2)`` array or a list of pairs
    (``CollectSink.links``).  The owner rule guarantees uniqueness, so
    sorting alone fixes the order — no dedup pass."""
    if not len(links):
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]


class ReplayPlan:
    """The unit sequence of a compact replay, in unsharded task order.

    Built from the owned links and the dataset alone: one global tree
    (:data:`REPLAY_TREE`) and its CSJ task stream.  Units are the
    stream's early-stop tasks (``group``/``pgroup``), each replayed as
    its group, and the owned links, each placed at its leaf-pair task
    and ordered by (task rank, slot in the task's first leaf, slot in
    its second leaf) — the order that task's leaf kernel yields them
    in.  A link whose leaf pair has no task lies inside an early-stop
    group, which implies it, so it is dropped.

    ``links`` holds the replayed links (``(m, 2)``, oriented as the
    task yields them); group ``k`` is unit ``group_pos[k]``.  Unit
    positions are what a checkpointed replay journals as its cursor.
    """

    def __init__(self, pairs: np.ndarray, points: np.ndarray, metric, eps: float):
        from repro.api import build_index  # deferred: api imports the shard package

        self.points = points
        self.metric = metric
        self.eps = float(eps)
        tree = build_index(points, metric=metric, **REPLAY_TREE)
        self.packed = packed = pack_index(tree)
        if packed is None:
            tasks = iter_node_tasks(tree, eps, True)
            leaf_ids, size = _node_entry_ids, _node_size
        elif tree.size > 1:
            tasks = iter_packed_tasks(packed, eps, True)
            leaf_ids = packed.leaf_entry_ids
            size = _subtree_sizes(packed).__getitem__
        else:
            tasks = ()
        leaves: dict = {}  # leaf (packed id or node object) -> leaf index
        leaf_blocks: list[np.ndarray] = []
        self.group_tasks: list[tuple] = []
        group_ranks: list[int] = []
        pair_rows: list[tuple[int, int, int]] = []  # (first leaf, second leaf, rank)
        implied = 0
        for rank, task in enumerate(tasks):
            kind = task[0]
            if kind == "group" or kind == "pgroup":
                if kind == "group":
                    k = size(task[1])
                    implied += k * (k - 1) // 2
                else:
                    implied += size(task[1]) * size(task[2])
                self.group_tasks.append(task)
                group_ranks.append(rank)
                continue
            handles = task[1:] if kind == "cross" else task[1:2] * 2
            for handle in handles:
                if handle not in leaves:
                    leaves[handle] = len(leaf_blocks)
                    leaf_blocks.append(leaf_ids(handle))
            pair_rows.append((leaves[handles[0]], leaves[handles[1]], rank))
        self.links, link_ranks = self._place(
            np.asarray(pairs, dtype=np.int64).reshape(-1, 2),
            len(points), leaf_blocks, pair_rows, implied,
        )
        ranks = np.asarray(group_ranks, dtype=np.int64)
        self.group_pos = (
            np.searchsorted(link_ranks, ranks) + np.arange(len(ranks))
        ).tolist()

    @staticmethod
    def _place(pairs, n, leaf_blocks, pair_rows, implied):
        """Orient and order the links that have a leaf-pair task."""
        leaf = np.full(n, -1, dtype=np.int64)
        slot = np.zeros(n, dtype=np.int64)
        for index, ids in enumerate(leaf_blocks):
            leaf[ids] = index
            slot[ids] = np.arange(len(ids))
        table = np.asarray(pair_rows, dtype=np.int64).reshape(-1, 3)
        nl = max(len(leaf_blocks), 1)
        # Both orientations of every leaf pair; the flag says the link's
        # endpoints arrive swapped relative to the task's leaves.
        keys = np.concatenate(
            [table[:, 0] * nl + table[:, 1], table[:, 1] * nl + table[:, 0]]
        )
        task_rank = np.concatenate([table[:, 2], table[:, 2]])
        swapped = np.repeat([False, True], len(table))
        order = np.argsort(keys, kind="stable")
        keys, task_rank, swapped = keys[order], task_rank[order], swapped[order]
        a, b = pairs[:, 0], pairs[:, 1]
        la, lb = leaf[a], leaf[b]
        link_keys = la * nl + lb
        found = (la >= 0) & (lb >= 0)
        if len(keys):
            at = np.minimum(np.searchsorted(keys, link_keys), len(keys) - 1)
            found &= keys[at] == link_keys
        else:
            at = np.zeros(len(pairs), dtype=np.intp)
            found[:] = False
        dropped = int(len(pairs) - found.sum())
        if dropped != implied:
            raise ReproError(
                f"sharded replay: {dropped} owned links lie in no leaf task, "
                f"but the early-stop groups imply {implied}"
            )
        a, b, at = a[found], b[found], at[found]
        # Self tasks list a leaf's pairs by ascending slot.
        swap = np.where(la[found] == lb[found], slot[a] > slot[b], swapped[at])
        first = np.where(swap, b, a)
        second = np.where(swap, a, b)
        rank = task_rank[at]
        order = np.lexsort((slot[second], slot[first], rank))
        links = np.empty((len(order), 2), dtype=np.int64)
        links[:, 0] = first[order]
        links[:, 1] = second[order]
        return links, rank[order]

    def __len__(self) -> int:
        return len(self.links) + len(self.group_tasks)

    def replay(
        self,
        window: GroupBuffer,
        budget: Optional[Budget] = None,
        stats: Optional[JoinStats] = None,
        start_cursor: int = 0,
        on_unit_replayed=None,
    ) -> None:
        """Feed units ``start_cursor..`` to ``window``; see :func:`replay_links`."""
        stats = stats if stats is not None else window.stats
        add_link = window.add_link  # looked up on the instance: callers may wrap it
        # Plain floats, not ndarray rows: the merge window's scalar compares
        # run several times slower on NumPy scalars (same doubles either way).
        coords = self.points.tolist()
        group_pos = self.group_pos
        gi = int(np.searchsorted(group_pos, start_cursor))
        unit = start_cursor
        k = unit - gi  # links replayed so far
        total = len(self)
        while unit < total:
            if budget is not None and unit % REPLAY_CHECK_EVERY == 0:
                budget.check(stats)
            if gi < len(group_pos) and unit == group_pos[gi]:
                events, _ = execute_tree_task(
                    self.group_tasks[gi], self.points, self.metric, self.eps,
                    window.g, self.packed,
                )
                apply_events(events, window.sink, window)
                gi += 1
                unit += 1
                if on_unit_replayed is not None:
                    on_unit_replayed(unit)
                continue
            # The links up to the next group or budget check, converted
            # one block at a time so no per-link list spans the replay.
            end = group_pos[gi] if gi < len(group_pos) else total
            end = min(end, (unit // REPLAY_CHECK_EVERY + 1) * REPLAY_CHECK_EVERY)
            block = self.links[k : k + end - unit].tolist()
            k += len(block)
            for i, j in block:
                add_link(i, j, coords[i], coords[j])
                unit += 1
                if on_unit_replayed is not None:
                    on_unit_replayed(unit)


def _node_entry_ids(node) -> np.ndarray:
    return np.asarray(node.entry_ids, dtype=np.int64)


def _node_size(node) -> int:
    return len(node.subtree_ids())


def _subtree_sizes(packed) -> list[int]:
    """Entry count below every packed node (children have larger ids)."""
    sizes = (packed.entry_end - packed.entry_beg).tolist()
    leaf = packed.leaf.tolist()
    child_beg = packed.child_beg.tolist()
    child_end = packed.child_end.tolist()
    for nid in range(len(sizes) - 1, -1, -1):
        if not leaf[nid]:
            sizes[nid] = sum(sizes[child_beg[nid]:child_end[nid]])
    return sizes


def sharded_join(
    points: np.ndarray,
    eps: float,
    algorithm: str = "csj",
    g: int = 10,
    shards: int = 1,
    partitioner: str = "grid",
    index: str = "rstar",
    metric: object = None,
    sink: Optional[JoinSink] = None,
    max_entries: int = 64,
    bulk: Optional[str] = "str",
    budget: Optional[Budget] = None,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    config: object = None,
    fault: object = None,
    data_plane: str = "auto",
    shared: object = None,
) -> JoinResult:
    """Similarity self-join over ``shards`` spatial shards.

    Parameters mirror :func:`repro.api.similarity_join`; additionally
    ``shards``/``partitioner`` select the plan, ``workers`` > 1 runs
    phase 1 through the parallel supervisor (``config``/``fault`` as in
    :func:`repro.parallel.parallel_join`), and ``shared`` reuses a
    pre-published :class:`~repro.parallel.shm.SharedDataset`.

    Guarantee: output bytes and canonical output counters are identical
    for every ``(shards, partitioner, workers, data_plane, index)``
    choice, and the implied pair set equals the unsharded join's; for
    ``csj``/``ncsj`` the bytes and output counters equal the unsharded
    join with the default index recipe.
    """
    from repro.parallel.tasks import JoinSpec

    deadline_at = None
    parallel = workers is not None and workers > 1
    if budget is not None:
        remaining = budget.remaining_seconds()
        if budget.deadline_at is not None:
            deadline_at = budget.deadline_at
        elif remaining is not None:
            deadline_at = time.monotonic() + remaining
        if parallel:
            capped = budget.cap_timeout(task_timeout)
            if capped is not None and capped <= 0:
                capped = 1e-3
            task_timeout = capped

    owned_dataset = None
    plane = "pickle"
    if parallel:
        from repro.parallel.shm import SharedDataset, resolve_data_plane

        plane = resolve_data_plane(data_plane)
        if shared is None and plane == "shm":
            owned_dataset = shared = SharedDataset(
                points, metric=metric, data_plane=data_plane
            )
    if shared is not None:
        points = shared.points
        plane = shared.plane

    try:
        spec = JoinSpec(
            points=points,
            eps=eps,
            algorithm=algorithm,
            g=g,
            index=index,
            max_entries=max_entries,
            bulk=bulk,
            metric=metric,
            deadline_at=deadline_at,
            data_plane=plane,
            dataset_ref=shared.ref if shared is not None else None,
            shards=shards,
            partitioner=partitioner,
        )
        if shared is not None:
            spec._shared = shared
        state = spec.build_state()
        plan = state.plan
        get_registry().record_shard_plan(
            shards=plan.k,
            points=plan.points,
            halo_points=plan.halo_points,
            tasks=len(state.tasks),
            skew_ratio=plan.skew_ratio,
        )

        if sink is None:
            sink = CollectSink(id_width=width_for(len(spec.points)))
        stats = sink.stats
        buffer = state.make_buffer(sink, stats)  # always None: replay windows
        metric_obj = get_metric(metric)
        pts = spec.points
        dim = pts.shape[1]
        compact = spec.compact
        report = plan.report()
        report["tasks"] = len(state.tasks)
        write_time_before = stats.write_time
        start = time.perf_counter()

        def finish(window: Optional[GroupBuffer]) -> JoinResult:
            if window is not None:
                window.flush()
            elapsed = time.perf_counter() - start
            stats.compute_time += elapsed - (stats.write_time - write_time_before)
            result = JoinResult.from_sink(
                sink,
                eps=spec.eps,
                algorithm=spec.label(),
                g=spec.g if compact else None,
                index_name=state.index_name,
            )
            result.shard_report = report
            return result

        # ------------------------------------------------------------------
        # Phase 1: per-shard discovery -> owned links (no output writes)
        # ------------------------------------------------------------------
        phase_sink = OwnedLinkSink(id_width=width_for(len(spec.points)))
        phase_stats = phase_sink.stats
        try:
            run_phase1(
                state,
                phase_sink,
                phase_stats,
                budget=budget,
                workers=workers if parallel else None,
                task_timeout=task_timeout,
                config=config,
                fault=fault,
            )
        except (BudgetExceededError, PoisonTaskError) as exc:
            report["work"] = record_work(phase_stats)
            exc.partial = finish(None)
            raise
        report["work"] = record_work(phase_stats)

        # ------------------------------------------------------------------
        # Phase 2: canonical replay (all output happens here)
        # ------------------------------------------------------------------
        pairs = phase_sink.pairs()
        window = None
        if compact:
            window = GroupBuffer(
                spec.g, spec.eps, sink, metric=metric_obj, stats=stats, dim=dim
            )
        else:
            pairs = sorted_owned_links(pairs)
        try:
            replay_links(pairs, sink, window, pts, budget=budget, stats=stats)
        except BudgetExceededError as exc:
            exc.partial = finish(window)
            raise
        logger.debug(
            "sharded join finished",
            extra={
                "shards": plan.k,
                "partitioner": plan.partitioner,
                "owned_links": int(len(pairs)),
                "halo_points": plan.halo_points,
            },
        )
        return finish(window)
    finally:
        if owned_dataset is not None:
            owned_dataset.close()


def run_phase1(
    state,
    phase_sink: JoinSink,
    phase_stats: JoinStats,
    budget: Optional[Budget] = None,
    workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    config: object = None,
    fault: object = None,
    start_cursor: int = 0,
) -> None:
    """Execute every shard task, collecting owned links into ``phase_sink``.

    With ``workers`` > 1 the tasks run through the existing supervised
    pool (heartbeats, retries, respawn, speculation — identical failure
    policy to an unsharded parallel join); otherwise a serial loop.
    """
    if workers is not None and workers > 1:
        from repro.parallel.scheduler import WorkScheduler
        from repro.parallel.supervisor import SupervisorConfig

        if config is None:
            config = SupervisorConfig(workers=workers, task_timeout=task_timeout)
        WorkScheduler(
            state,
            phase_sink,
            config,
            stats=phase_stats,
            buffer=None,
            budget=budget,
            fault=fault,
            start_cursor=start_cursor,
            skip_poisoned=True,
        ).run()
        return
    if budget is not None:
        budget.start()
    for task_id in range(start_cursor, len(state.tasks)):
        if budget is not None:
            budget.check(phase_stats)
        events, counters = state.execute(task_id)
        state.apply(events, counters, phase_sink, None, phase_stats)


def replay_links(
    pairs: np.ndarray,
    sink: JoinSink,
    window: Optional[GroupBuffer],
    points: np.ndarray,
    budget: Optional[Budget] = None,
    stats: Optional[JoinStats] = None,
    start_cursor: int = 0,
    on_link_replayed=None,
    plan: Optional[ReplayPlan] = None,
) -> None:
    """Replay owned ``(i, j)`` pairs through the emission path.

    Plain joins (``window is None``) write ``pairs`` in the given order
    straight to the sink, in batches.  Compact joins replay the
    :class:`ReplayPlan` of ``pairs`` (built here unless ``plan`` is
    given) through the single CSJ(g) ``window``: early-stop groups and
    links in the unsharded join's task order.  ``start_cursor`` and
    ``on_link_replayed(cursor)``, which fires after each unit, are the
    checkpoint hooks of resumable sharded runs; units are links for a
    plain replay and plan positions for a compact one.
    """
    stats = stats if stats is not None else sink.stats
    if budget is not None:
        budget.start()
    if window is not None:
        if plan is None:
            plan = ReplayPlan(pairs, points, window.metric, window.eps)
        plan.replay(window, budget, stats, start_cursor, on_link_replayed)
        return
    n = len(pairs)
    if on_link_replayed is None:
        for lo in range(start_cursor, n, REPLAY_CHECK_EVERY):
            hi = min(lo + REPLAY_CHECK_EVERY, n)
            if budget is not None:
                budget.check(stats)
            chunk = pairs[lo:hi]
            sink.write_links(chunk[:, 0], chunk[:, 1])
        return
    # Checkpointed: one write per unit so the journal cursor always
    # equals the number of links durably written (batching would let
    # the recorded offset run ahead of the cursor and duplicate links on
    # resume).
    for idx in range(start_cursor, n):
        if budget is not None and idx % REPLAY_CHECK_EVERY == 0:
            budget.check(stats)
        sink.write_link(int(pairs[idx, 0]), int(pairs[idx, 1]))
        on_link_replayed(idx + 1)


def record_work(phase_stats: JoinStats) -> dict:
    """The K-dependent phase-1 work charges (halo overhead accounting),
    published as the ``repro_shard_work_*_total`` metrics."""
    work = {
        "distance_computations": int(phase_stats.distance_computations),
        "mbr_checks": int(phase_stats.mbr_checks),
        "early_stops": int(phase_stats.early_stops),
    }
    get_registry().record_shard_work(work)
    return work


class ShardedJoin:
    """Reusable driver object: one configuration, many ``run()`` calls.

    Thin object form of :func:`sharded_join` for callers that prepare a
    sharded join once and execute it repeatedly (services, benchmarks):

    >>> import numpy as np
    >>> pts = np.random.default_rng(0).random((200, 2))
    >>> job = ShardedJoin(pts, 0.05, shards=4, partitioner="grid")
    >>> result = job.run()
    >>> result.shard_report["shards"]
    4
    """

    def __init__(self, points: np.ndarray, eps: float, **kwargs):
        self.points = points
        self.eps = eps
        self.kwargs = dict(kwargs)

    def run(self, **overrides) -> JoinResult:
        """Execute the sharded join; ``overrides`` patch the stored
        configuration for this call only (e.g. ``workers=4``)."""
        merged = dict(self.kwargs)
        merged.update(overrides)
        return sharded_join(self.points, self.eps, **merged)

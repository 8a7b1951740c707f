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
sorted by ``(i, j)`` and replayed through the standard emission path:
straight to the sink for plain joins, through a single CSJ(``g``) merge
window for compact ones.

The replay stream depends only on the *set* of qualifying pairs, which
is exact for any plan.  Output bytes and all output-side counters are
therefore **invariant across shard count, partitioner, worker count,
data plane and index** — the shard-parity battery proves
byte-identity over that whole matrix.  Work counters (distance
computations, MBR checks, early stops) are inherently K-dependent —
halo points are probed in more than one shard — and are reported
separately on ``JoinResult.shard_report["work"]`` plus the
``repro_shard_*`` metrics; the canonical ``repro_join_*`` counters stay
identical in every cell.

Budget semantics: deadlines bind end-to-end through both phases; the
byte/group caps are enforced conservatively against the phase-1
collection volume and exactly during replay.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.groups import GroupBuffer
from repro.core.results import CollectSink, JoinResult, JoinSink
from repro.errors import BudgetExceededError, PoisonTaskError
from repro.geometry.metrics import get_metric
from repro.io.writer import width_for
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.resilience.budget import Budget
from repro.stats.counters import JoinStats

__all__ = ["ShardedJoin", "sharded_join", "sorted_owned_links", "REPLAY_CHECK_EVERY"]

logger = get_logger("shard.driver")

#: Budget-check cadence (replayed links) during phase 2.
REPLAY_CHECK_EVERY = 256


def sorted_owned_links(links) -> np.ndarray:
    """Canonicalise collected owned links: an ``(m, 2)`` array sorted by
    ``(i, j)``.  The owner rule guarantees uniqueness, so sorting alone
    fixes the replay order — no dedup pass."""
    if not len(links):
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]


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
    choice, and the implied pair set equals the unsharded
    join's.
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
        phase_sink = CollectSink(id_width=width_for(len(spec.points)))
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
            report["work"] = _work_report(phase_stats)
            exc.partial = finish(None)
            raise
        report["work"] = _work_report(phase_stats)

        # ------------------------------------------------------------------
        # Phase 2: canonical replay (all output happens here)
        # ------------------------------------------------------------------
        pairs = sorted_owned_links(phase_sink.links)
        window = None
        if compact:
            window = GroupBuffer(
                spec.g, spec.eps, sink, metric=metric_obj, stats=stats, dim=dim
            )
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
) -> None:
    """Replay canonical ``(i, j)`` pairs through the emission path.

    Plain joins batch straight to the sink; compact joins route every
    pair through the single CSJ(g) ``window`` with the endpoints'
    coordinates.  ``on_link_replayed(cursor)`` fires after each unit —
    the checkpoint hook for resumable sharded runs.
    """
    stats = stats if stats is not None else sink.stats
    if budget is not None:
        budget.start()
    n = len(pairs)
    if window is None and on_link_replayed is None:
        for lo in range(start_cursor, n, REPLAY_CHECK_EVERY):
            hi = min(lo + REPLAY_CHECK_EVERY, n)
            if budget is not None:
                budget.check(stats)
            chunk = pairs[lo:hi]
            sink.write_links(chunk[:, 0], chunk[:, 1])
        return
    if window is None:
        # Checkpointed: one write per unit so the journal cursor always
        # equals the number of links durably written (batching would let
        # the recorded offset run ahead of the cursor and duplicate
        # links on resume).
        for idx in range(start_cursor, n):
            if budget is not None and idx % REPLAY_CHECK_EVERY == 0:
                budget.check(stats)
            sink.write_link(int(pairs[idx, 0]), int(pairs[idx, 1]))
            on_link_replayed(idx + 1)
        return
    add_link = window.add_link
    # Plain floats, not ndarray rows: the merge window's scalar compares
    # run several times slower on NumPy scalars (same doubles either way).
    coords = points.tolist()
    for idx in range(start_cursor, n):
        if budget is not None and idx % REPLAY_CHECK_EVERY == 0:
            budget.check(stats)
        i = int(pairs[idx, 0])
        j = int(pairs[idx, 1])
        add_link(i, j, coords[i], coords[j])
        if on_link_replayed is not None:
            on_link_replayed(idx + 1)


def _work_report(phase_stats: JoinStats) -> dict:
    """The K-dependent phase-1 work charges (halo overhead accounting)."""
    return {
        "distance_computations": int(phase_stats.distance_computations),
        "mbr_checks": int(phase_stats.mbr_checks),
        "early_stops": int(phase_stats.early_stops),
    }


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

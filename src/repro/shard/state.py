"""Per-process materialisation of a sharded join's canonical task list.

:class:`ShardTaskState` is the sharded counterpart of
:class:`repro.parallel.tasks.TaskState` and plugs into the same
machinery: the :class:`~repro.parallel.scheduler.WorkScheduler` and the
worker loop only need ``tasks``, ``spec``, ``execute`` and ``apply``,
so shard tasks flow through the existing supervisor (shm or pickle
plane) unchanged.

Construction builds **one index per shard**: each shard's working set
(core + ε-margin halo, see :mod:`repro.shard.planner`) gets its own sub
:class:`~repro.parallel.tasks.JoinSpec` with the requested algorithm
and index, and the global task list is the concatenation of the
sub-states' canonical task lists in shard order.  Everything is
deterministic, so every process derives the identical sequence.

:meth:`execute` runs one shard-local task and converts its events into
**owned global links**: local ids are mapped through the shard's member
table, any ``group`` event is expanded to its implied pairs (exact — a
group's diameter is strictly below ``eps``), and the canonical owner
rule keeps a pair iff the home shard of its min-id endpoint is this
shard.  Discovery uses the plain variant of the requested algorithm
(see :data:`DISCOVERY_VARIANT`) so the owned stream carries each pair
exactly once.  The result is a plain ``("links", ...)`` event stream,
so the parent replays it with the inherited :meth:`TaskState.apply` —
no merge window in phase 1; compact grouping happens in the driver's
canonical replay (:mod:`repro.shard.driver`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.geometry.metrics import get_metric, triu_pair_indices
from repro.parallel.tasks import JoinSpec, TaskState
from repro.shard.planner import ShardPlanner

__all__ = ["DISCOVERY_VARIANT", "ShardTaskState"]

#: Phase-1 discovery runs the *plain* variant of the requested
#: algorithm.  Compact discovery events over-imply: an early-stopped
#: node-pair (or cell-union) group implies every pair in the union,
#: including intra-node pairs the nodes' own events already covered.
#: The merge window absorbs those repeats in classic execution, but the
#: sharded replay stream must carry each qualifying pair exactly once —
#: the owner rule is the only de-duplication mechanism, by design — so
#: discovery stays non-compact and the compact structure is built
#: entirely by the driver's canonical replay (the global tree's
#: early-stop groups plus the CSJ(g) window).
DISCOVERY_VARIANT = {
    "csj": "ssj",
    "ncsj": "ssj",
    "egrid-csj": "egrid",
    "pbsm-csj": "pbsm",
}


class ShardTaskState:
    """One process's view of a sharded join: plan, sub-states, tasks."""

    #: Compatibility with ``TaskState`` plumbing (warm cache, packed-ref
    #: restoration): shard states never use the packed fast path at the
    #: outer level — each *sub*-state packs its own shard index.
    task_mode = "shard"
    packed = None
    tree = None

    def __init__(self, spec):
        self.spec = spec
        self.points = spec.points
        self.metric = get_metric(spec.metric)
        self.eps = spec.eps
        self.compact = spec.compact
        self.g = spec.g if spec.compact else 0
        self.plan = ShardPlanner(spec.shards, spec.partitioner).plan(
            spec.points, spec.eps, self.metric
        )
        #: shard id -> built sub-state (only shards with >= 2 members).
        self.substates: dict[int, TaskState] = {}
        #: Canonical task list: ``("shard", shard_id, local_task_id)``.
        self.tasks: list[tuple] = []
        index_name = None
        for s, ids in enumerate(self.plan.members):
            if len(ids) < 2:
                continue
            sub = JoinSpec(
                points=self.points[ids],
                eps=self.eps,
                algorithm=DISCOVERY_VARIANT.get(spec.algorithm, spec.algorithm),
                g=spec.g,
                index=spec.index,
                max_entries=spec.max_entries,
                bulk=spec.bulk,
                metric=spec.metric,
                partitions_per_axis=spec.partitions_per_axis,
            ).build_state()
            self.substates[s] = sub
            self.tasks.extend(("shard", s, t) for t in range(len(sub.tasks)))
            index_name = sub.index_name
        if index_name is None:
            from repro.index import get_index_class

            if spec.family == "tree":
                index_name = get_index_class(spec.index).name
            else:
                index_name = spec.family
        self.index_name = index_name

    def __len__(self) -> int:
        return len(self.tasks)

    def rebind(self, spec) -> "ShardTaskState":
        """Warm-cache clone bound to ``spec`` (see ``TaskState.rebind``)."""
        if spec is self.spec:
            return self
        clone = object.__new__(ShardTaskState)
        clone.__dict__ = self.__dict__.copy()
        clone.spec = spec
        return clone

    # ------------------------------------------------------------------
    # Pure execution (any process)
    # ------------------------------------------------------------------
    def execute(self, task_id: int) -> tuple[list, tuple[int, int, int]]:
        """Run one shard task; returns owned global links plus counters.

        Pure like ``TaskState.execute``: no sink, no window, no stats —
        safe to retry or speculate.  The returned counters are the
        shard-local work charges (distance computations, MBR checks,
        early stops); they are *work* accounting, K-dependent by nature
        (halo points are probed in more than one shard), and the driver
        routes them into the shard report, not the canonical output
        counters.
        """
        _, s, local = self.tasks[task_id]
        events, counters = self.substates[s].execute(local)
        members = self.plan.members[s]
        home = self.plan.home
        out_i: list[np.ndarray] = []
        out_j: list[np.ndarray] = []
        for event in events:
            kind = event[0]
            if kind == "links" or kind == "linkseq":
                li = np.asarray(event[1], dtype=np.int64)
                lj = np.asarray(event[2], dtype=np.int64)
            elif kind == "group":
                ids = np.asarray(sorted(event[1]), dtype=np.int64)
                rows, cols = triu_pair_indices(len(ids))
                li, lj = ids[rows], ids[cols]
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown shard sub-event kind {kind!r}")
            if len(li) == 0:
                continue
            gi = members[li]
            gj = members[lj]
            lo = np.minimum(gi, gj)
            hi = np.maximum(gi, gj)
            owned = home[lo] == s
            if owned.any():
                out_i.append(lo[owned])
                out_j.append(hi[owned])
        if not out_i:
            return [], counters
        return (
            [("links", np.concatenate(out_i), np.concatenate(out_j))],
            counters,
        )

    # ------------------------------------------------------------------
    # Replay plumbing (parent)
    # ------------------------------------------------------------------
    def make_buffer(self, sink, stats) -> Optional[object]:
        """Phase 1 never windows: links are collected, sorted, and only
        then routed through the CSJ(g) window by the driver's canonical
        replay — that is what makes the output invariant across K."""
        return None

    # ``apply`` replays plain link events and charges work counters —
    # identical needs to the unsharded state, so adopt it verbatim.
    apply = staticmethod(TaskState.apply)

"""Names, units and intent of every metric the repo benchmark reports.

``BENCHMARK.json`` lists each metric with its name, unit and direction
only.  This module is the fuller record: what each end-to-end metric
means on each workload, and for every per-layer metric the end-to-end
metric it should move and on which workloads.  The runner prints from
these tables and the smoke tests check ``BENCHMARK.json`` against them,
so a later change can cite a metric or a workload by name.

Every workload prints every metric.  A per-layer metric of a layer that
a workload does not use reads 0 there.  End-to-end times are normalised
to a nominal host speed (see ``clock``); per-layer times are raw seconds
of one traced pass.
"""

from __future__ import annotations

from dataclasses import dataclass

BATCH = ("csj-clustered2d", "ssj-sierpinski3d")
SHARDED = ("sharded-clustered2d",)
SERVE = ("serve-churn",)
ALL = BATCH + SHARDED + SERVE

#: workload -> why it is in the benchmark (one line each).
WORKLOADS = {
    "csj-clustered2d": (
        "CSJ(10) on half-blob clustered 2-D points: the merge window does most "
        "of the work, so merge-window changes show here"
    ),
    "ssj-sierpinski3d": (
        "SSJ on the 3-D Sierpinski pyramid: no merge window, sink encoding and "
        "leaf kernels dominate; the bypass case for merge-window changes"
    ),
    "sharded-clustered2d": (
        "CSJ(10) over 4 hilbert shards and 2 workers: shard planning, pool "
        "discovery over shm, sort and replay"
    ),
    "serve-churn": (
        "one client mixes MaintainedJoin inserts/deletes with cached and "
        "uncached JoinService reads: the only user of the service and dynamic layers"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metrics this layer metric should move ...
    moves: tuple[str, ...]
    #: ... on these workloads.
    on: tuple[str, ...]
    meaning: str


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median one-time preparation the timed operations reuse: build_index + "
        "pack_index (batch); SharedDataset publish + shard task state (sharded); "
        "register_dataset + R*-tree + MaintainedJoin (serve-churn)",
    ),
    EndToEnd(
        "join_s", "s", "lower", 0.25,
        "median wall of one full join, call until the sink is closed; on "
        "serve-churn, submit until outcome of a read that missed the cache "
        "(mean over the nine read kinds of each kind's median)",
    ),
    EndToEnd(
        "output_bytes", "B", "lower", 0.1,
        "bytes of one join's output file (equals stats.bytes_written); on "
        "serve-churn, bytes of the admitted reads of the seed's first steps",
    ),
    EndToEnd(
        "compaction_ratio", "x", "higher", 0.1,
        "implied pairs * line_bytes(2, width) / output_bytes, pairs counted by "
        "expanding the output",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.1,
        "high-water RSS of the benchmark process (the parent) during the workload",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "completed operations per second: joins (batch, sharded) or reads plus "
        "writes (serve-churn)",
    ),
)

_JOIN = ("join_s",)
_SETUP = ("setup_s",)
_SERVE_READ = ("join_s", "ops_per_s")
_SERVE_WRITE = ("ops_per_s", "setup_s")
_SHARD_ALL = ("join_s", "output_bytes", "compaction_ratio", "peak_rss_mb")

PER_LAYER = (
    # -- index ---------------------------------------------------------------
    PerLayer("index.build_s", "s", "lower", ("setup_s", "join_s"), ALL,
             "median build_index call; on serve-churn every cache miss builds one"),
    PerLayer("index.pack_s", "s", "lower", _SETUP, BATCH + SHARDED,
             "median pack_index call"),
    PerLayer("index.range_query_ms", "ms", "lower", _SERVE_WRITE, SERVE,
             "median range_query on the tree handed to MaintainedJoin"),
    PerLayer("index.insert_ms", "ms", "lower", _SERVE_WRITE, SERVE,
             "median add_point on the tree handed to MaintainedJoin"),
    PerLayer("index.delete_ms", "ms", "lower", _SERVE_WRITE, SERVE,
             "median delete on the tree handed to MaintainedJoin"),
    PerLayer("index.self_s", "s", "lower", _JOIN, ALL,
             "self time of every index span in one traced pass"),
    # -- core ----------------------------------------------------------------
    PerLayer("core.prune_s", "s", "lower", _JOIN, BATCH + SHARDED,
             "enumerate_packed_task_ids: node-pair pruning into the task list"),
    PerLayer("core.tasks", "count", "lower", _JOIN, BATCH + SHARDED,
             "tasks in the canonical task list"),
    PerLayer("core.early_stops", "count", "higher", _JOIN, BATCH,
             "early-stopped node groups"),
    PerLayer("core.leaf_s", "s", "lower", _JOIN, BATCH + SHARDED,
             "sum of TaskState.execute (leaf kernels and group deltas); on the "
             "sharded workload measured in process"),
    PerLayer("core.distance_computations", "count", "lower", _JOIN, BATCH + SHARDED,
             "point-pair distances the leaf kernels computed"),
    PerLayer("core.pair_yield", "ratio", "higher", _JOIN, BATCH + SHARDED,
             "qualifying pairs out of the leaf kernels / distance computations "
             "(owned pairs on the sharded workload)"),
    PerLayer("core.merge_s", "s", "lower", _JOIN, BATCH + SHARDED,
             "merge window self time: TaskState.apply and window flush, or the "
             "shard replay's add_link calls, minus sink time"),
    PerLayer("core.links_offered", "count", "lower", _JOIN, ("csj-clustered2d",) + SHARDED,
             "links routed into the CSJ(g) merge window"),
    PerLayer("core.merge_attempts", "count", "lower", _JOIN, ("csj-clustered2d",) + SHARDED,
             "window groups tried by mergeIntoPrevGroup"),
    PerLayer("core.merge_successes", "count", "higher", ("output_bytes",),
             ("csj-clustered2d",) + SHARDED, "offered links absorbed by a recent group"),
    PerLayer("core.merge_hit_ratio", "ratio", "higher", ("output_bytes", "join_s"),
             ("csj-clustered2d",) + SHARDED, "merge_successes / links_offered"),
    PerLayer("core.self_s", "s", "lower", _JOIN, ALL,
             "self time of every core span in one traced pass"),
    # -- io ------------------------------------------------------------------
    PerLayer("io.sink_s", "s", "lower", _JOIN, BATCH + SHARDED,
             "sum of TextSink write_* and close"),
    PerLayer("io.sink_calls", "count", "lower", _JOIN, BATCH + SHARDED,
             "TextSink write_* and close calls"),
    PerLayer("io.bytes", "B", "lower", ("output_bytes",), BATCH + SHARDED,
             "bytes the traced sink accounted; equals output_bytes"),
    PerLayer("io.self_s", "s", "lower", _JOIN, ALL,
             "self time of every io span in one traced pass"),
    # -- shard ---------------------------------------------------------------
    PerLayer("shard.state_s", "s", "lower", ("setup_s",), SHARDED,
             "JoinSpec(shards=...).build_state self time (plan and sub-states)"),
    PerLayer("shard.discover_s", "s", "lower", _SHARD_ALL, SHARDED,
             "run_phase1 through the worker pool"),
    PerLayer("shard.sort_s", "s", "lower", _SHARD_ALL, SHARDED,
             "sorted_owned_links"),
    PerLayer("shard.replay_s", "s", "lower", _SHARD_ALL, SHARDED,
             "replay_links without merge-window and sink time"),
    PerLayer("shard.owned_links", "count", "lower", _SHARD_ALL, SHARDED,
             "owned links collected in phase 1 (held by the parent)"),
    PerLayer("shard.halo_points", "count", "lower", _SHARD_ALL, SHARDED,
             "points replicated into ε-margin halos"),
    PerLayer("shard.skew_ratio", "ratio", "lower", _SHARD_ALL, SHARDED,
             "largest shard working set / mean"),
    PerLayer("shard.bytes_vs_unsharded", "ratio", "lower", ("output_bytes", "compaction_ratio"),
             SHARDED, "sharded output bytes / unsharded CSJ(10) bytes of the same points"),
    PerLayer("shard.self_s", "s", "lower", _SHARD_ALL, ALL,
             "self time of every shard span in one traced pass"),
    # -- parallel ------------------------------------------------------------
    PerLayer("parallel.efficiency", "ratio", "higher", _JOIN, SHARDED,
             "sum of per-task execute measured in process / (workers * shard.discover_s)"),
    PerLayer("parallel.spawns", "count", "lower", _JOIN, SHARDED,
             "worker processes started per join"),
    PerLayer("parallel.respawns", "count", "lower", _JOIN, SHARDED,
             "workers respawned per join"),
    PerLayer("parallel.retries", "count", "lower", _JOIN, SHARDED,
             "task retries per join"),
    PerLayer("parallel.speculated", "count", "lower", _JOIN, SHARDED,
             "straggler tasks re-dispatched per join"),
    PerLayer("parallel.shm_fallbacks", "count", "lower", _JOIN, SHARDED,
             "shm-to-pickle fallbacks per join"),
    PerLayer("parallel.spec_bytes", "B", "lower", _JOIN, SHARDED,
             "pickled JoinSpec bytes shipped to workers per join (0 under fork)"),
    PerLayer("parallel.self_s", "s", "lower", _JOIN, ALL,
             "self time of every parallel span in one traced pass (pool discovery, "
             "shm publish, task-state construction)"),
    # -- service -------------------------------------------------------------
    PerLayer("service.query_ms_p50", "ms", "lower", _SERVE_READ, SERVE,
             "median read latency, submit until outcome, tracing off"),
    PerLayer("service.query_ms_p90", "ms", "lower", _SERVE_READ, SERVE,
             "90th-percentile read latency, tracing off (>= 100 reads)"),
    PerLayer("service.submit_ms", "ms", "lower", _SERVE_READ, SERVE,
             "median JoinService.submit (admission)"),
    PerLayer("service.fingerprint_ms", "ms", "lower", _SERVE_READ, SERVE,
             "median ResultCache.key_for"),
    PerLayer("service.cache_hit_ratio", "ratio", "higher", _SERVE_READ, SERVE,
             "cache hits / cache lookups"),
    PerLayer("service.miss_join_s", "s", "lower", _SERVE_READ, SERVE,
             "median similarity_join inside the service on a cache miss"),
    PerLayer("service.outcomes.admitted", "count", "higher", _SERVE_READ, SERVE,
             "reads served exactly"),
    PerLayer("service.outcomes.degraded", "count", "lower", _SERVE_READ, SERVE,
             "reads answered by the estimator"),
    PerLayer("service.outcomes.shed", "count", "lower", _SERVE_READ, SERVE,
             "reads refused at admission"),
    PerLayer("service.outcomes.breaker_open", "count", "lower", _SERVE_READ, SERVE,
             "reads failed fast on an open circuit"),
    PerLayer("service.outcomes.failed", "count", "lower", _SERVE_READ, SERVE,
             "reads that failed"),
    PerLayer("service.peak_queue", "count", "lower", _SERVE_READ, SERVE,
             "admission queue high-water mark"),
    PerLayer("service.self_s", "s", "lower", _SERVE_READ, ALL,
             "self time of every service span in one traced pass"),
    # -- dynamic -------------------------------------------------------------
    PerLayer("dynamic.update_ms_p50", "ms", "lower", _SERVE_WRITE, SERVE,
             "median insert or delete latency, tracing off"),
    PerLayer("dynamic.update_ms_p90", "ms", "lower", _SERVE_WRITE, SERVE,
             "90th-percentile insert or delete latency, tracing off"),
    PerLayer("dynamic.insert_ms", "ms", "lower", _SERVE_WRITE, SERVE,
             "median MaintainedJoin.insert self time (without index calls)"),
    PerLayer("dynamic.delete_ms", "ms", "lower", _SERVE_WRITE, SERVE,
             "median MaintainedJoin.delete self time (without index calls)"),
    PerLayer("dynamic.absorbed_ratio", "ratio", "higher", ("output_bytes",), SERVE,
             "inserts absorbed into an existing group / inserts"),
    PerLayer("dynamic.materialize_s", "s", "lower", _SETUP, SERVE,
             "MaintainedJoin construction on a built tree"),
    PerLayer("dynamic.self_s", "s", "lower", _SERVE_WRITE, ALL,
             "self time of every dynamic span in one traced pass"),
    # -- obs -----------------------------------------------------------------
    PerLayer("obs.trace_overhead", "ratio", "lower", (), ALL,
             "traced wall / untraced wall of the same set-up plus join (or serve pass)"),
    PerLayer("obs.layer_coverage", "ratio", "higher", (), ALL,
             "named layers' self time / traced wall; at least 0.9 on batch workloads"),
)

LAYERS = ("index", "core", "io", "shard", "parallel", "service", "dynamic")

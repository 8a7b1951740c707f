"""The four workloads: untraced measurement, traced replay and correctness gate.

Every workload is a closed loop with one caller.  The seed makes the
points (and serve-churn's operations); the program only sees the
generated points.  With tracing off a run measures the end-to-end
metrics; with tracing on it alternates untraced and traced passes over
the same work and reports the per-layer metrics.

End-to-end times are normalised to a nominal host speed (see
:mod:`clock`); raw walls are kept in ``Result.raw``.  Per-layer times
are raw seconds of one traced pass.

The traced batch pass replays the join through its public decomposition
(``JoinSpec.build_state`` -> ``TaskState.execute`` / ``TaskState.apply``
into a timed ``TextSink``), the sharded pass through ``run_phase1`` ->
``sorted_owned_links`` -> ``replay_links``.  Both must write files
byte-identical to the untraced run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import repro.api
import repro.core.frontier
import repro.index.packed
from repro.api import build_index, open_service, similarity_join
from repro.core.groups import GroupBuffer
from repro.core.results import CollectSink, TextSink
from repro.datasets import sierpinski_pyramid
from repro.dynamic import MaintainedJoin
from repro.index import get_index_class
from repro.index.packed import pack_index
from repro.io.writer import line_bytes, width_for
from repro.obs.metrics import get_registry
from repro.parallel.shm import SharedDataset, clear_process_caches
from repro.parallel.tasks import JoinSpec
from repro.service import JoinRequest
from repro.service.cache import ResultCache
from repro.shard import sharded_join
from repro.shard.driver import replay_links, run_phase1, sorted_owned_links

import catalogue
import gate
from clock import Clock
from spans import Spans, TimedTextSink, patched

#: Points per workload at ``--scale 1``.
SIZES = {
    "csj-clustered2d": 6_000,
    "ssj-sierpinski3d": 10_000,
    "sharded-clustered2d": 3_000,
    "serve-churn": 2_000,
}
#: Set-ups per run at least; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: serve-churn's set-up takes about a second, so it repeats less.
SERVE_SETUP_REPEATS = 5


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float
    out_dir: Path

    @property
    def n(self) -> int:
        return max(50, int(round(SIZES[self.workload] * self.scale)))

    def path(self, tag: str) -> str:
        return str(self.out_dir / f"{self.workload}-{os.getpid()}-{tag}.txt")


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    #: Raw (not normalised) medians and the reference loop's median wall.
    raw: dict = field(default_factory=dict)
    #: Traced runs: span table and layer self times, for the trace file.
    trace: Optional[dict] = None

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


class Timings:
    """Raw and normalised durations of one kind of operation."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.norm: list[float] = []

    def add(self, wall: float, factor: float) -> None:
        self.wall.append(wall)
        self.norm.append(wall * factor)

    def median(self) -> float:
        return statistics.median(self.norm)

    def median_wall(self) -> float:
        return statistics.median(self.wall)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def clustered(n: int, rng: np.random.Generator) -> np.ndarray:
    """Half the points in a tight 0.08-wide blob, half uniform.

    The recipe of ``clustered_dataset`` in ``benchmarks/bench_shard.py``.
    """
    blob = 0.05 + 0.08 * rng.random((n // 2, 2))
    rest = rng.random((n - n // 2, 2))
    return np.vstack([blob, rest])


def make_points(run: Run) -> np.ndarray:
    if run.workload == "ssj-sierpinski3d":
        return sierpinski_pyramid(run.n, seed=run.seed)
    return clustered(run.n, np.random.default_rng(run.seed))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_for(seconds: float, op) -> None:
    """Call ``op()`` for ``seconds``, at least once.

    Starts no further call that the previous one predicts would end past
    the budget.
    """
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        op()
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return


def guarded(result: Result, what: str, fn, *args, **kwargs):
    """Call ``fn``; a raised exception is counted as one failed operation."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - the benchmark must report, not die
        result.fail(f"{what} raised:\n{traceback.format_exc()}")
        return None


def gate_file(result: Result, path: str, points: np.ndarray,
              reference: np.ndarray) -> int:
    """Gate one output file; returns its implied pair count (0 on failure)."""
    n = len(points)
    try:
        ids, sizes = gate.parse_output(path, width_for(n))
        return gate.check_implied(ids, sizes, n, reference)
    except gate.GateError as exc:
        result.fail(f"{os.path.basename(path)}: {exc}")
        return 0


@contextlib.contextmanager
def traced_state_build(spans: Spans):
    """Spans around ``build_index``, ``pack_index`` and ``enumerate_packed_task_ids``.

    The join paths measured here look each name up when they call it, so
    replacing the module attribute reaches them.
    """
    with patched(repro.api, "build_index", spans.timed("index.build", build_index)), \
            patched(repro.index.packed, "pack_index", spans.timed("index.pack", pack_index)), \
            patched(repro.core.frontier, "enumerate_packed_task_ids", spans.timed(
                "core.prune", repro.core.frontier.enumerate_packed_task_ids)):
        yield


def layer_metrics(spans: Spans, wall: float) -> dict:
    """``<layer>.self_s`` for every layer and ``obs.layer_coverage``."""
    selfs = spans.layer_self()
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in catalogue.LAYERS}
    out["obs.layer_coverage"] = sum(selfs.values()) / wall
    return out


def trace_doc(spans: Spans, wall: float) -> dict:
    selfs = spans.layer_self()
    return {
        "traced_wall_s": wall,
        "layers": {layer: selfs.get(layer, 0.0) for layer in catalogue.LAYERS},
        "spans": spans.table(),
    }


def untraced_file_joins(run: Run, result: Result, points, setup, join, release,
                        clock: Clock) -> dict:
    """Set up ``SETUP_REPEATS`` times, then join into one file for ``run.seconds``.

    ``setup(points)`` returns the handle the joins reuse, ``join(handle,
    path)`` returns the ``JoinResult``, ``release(handle)`` frees it.
    Every output must have the size ``stats.bytes_written`` claims and
    the same bytes as the last one, which ``finish_file_joins`` gates.
    """
    setups, joins = Timings(), Timings()
    path = run.path("untraced")
    digests: list[str] = []
    handle = None
    try:
        for _ in range(SETUP_REPEATS):
            if handle is not None:
                release(handle)
                handle = None
            handle, wall, factor = clock.measure(setup, points)
            setups.add(wall, factor)

        def one_join() -> None:
            out, wall, factor = clock.measure(guarded, result, "join", join, handle, path)
            result.attempted += 1
            if out is None:
                return
            joins.add(wall, factor)
            size = os.path.getsize(path)
            if size != out.stats.bytes_written:
                result.fail(f"file holds {size} B, stats.bytes_written {out.stats.bytes_written}")
            digests.append(file_digest(path))

        run_for(run.seconds, one_join)
    finally:
        if handle is not None:
            release(handle)
    return {"clock": clock, "setups": setups, "joins": joins, "digests": digests,
            "path": path, "rss": peak_rss_mb()}


def finish_file_joins(result: Result, points, measured: dict, pairs: int) -> None:
    """End-to-end metrics of ``untraced_file_joins``; ``pairs`` is 0 if the gate failed."""
    digests, joins, path = measured["digests"], measured["joins"], measured["path"]
    if not digests:
        return
    # The gate judged the last file; every join wrote the same bytes or failed.
    result.failed += (len(digests) - 1 if not pairs
                      else sum(d != digests[-1] for d in digests))
    size = os.path.getsize(path)
    os.remove(path)
    result.metrics = {
        "setup_s": measured["setups"].median(),
        "join_s": joins.median(),
        "output_bytes": size,
        "compaction_ratio": pairs * line_bytes(2, width_for(len(points))) / size,
        "peak_rss_mb": measured["rss"],
        "ops_per_s": len(joins.norm) / sum(joins.norm),
    }
    result.raw = {
        "setup_s": measured["setups"].median_wall(),
        "join_s": joins.median_wall(),
        "reference_s": measured["clock"].median_reference(),
    }


def alternate_passes(run: Run, result: Result, untraced_pass, traced_pass,
                     clock: Clock) -> tuple:
    """Alternate untraced and traced passes for ``run.seconds``, at least one each.

    ``untraced_pass()`` returns ``(wall, normalised wall or None)`` and
    ``traced_pass()`` returns ``(wall, spans, metrics, extra)``, with the
    normalised wall under ``extra["norm"]`` if the pass measured it.  A
    pass that did not is normalised by the references around it.
    Returns the normalised untraced walls and the traced tuples, whose
    first item becomes the normalised wall.
    """
    untraced: list[float] = []
    traced: list[tuple] = []

    def one_pair() -> None:
        plain, _, plain_factor = clock.measure(guarded, result, "untraced pass", untraced_pass)
        gc.collect()
        out, _, factor = clock.measure(guarded, result, "traced pass", traced_pass)
        result.attempted += 2
        if plain is not None and out is not None:
            untraced.append(plain[1] if plain[1] is not None else plain[0] * plain_factor)
            norm = out[3].get("norm")
            traced.append((norm if norm is not None else out[0] * factor,) + tuple(out[1:]))

    run_for(run.seconds, one_pair)
    return untraced, traced


def finish_traced(result: Result, untraced: list, traced: list) -> None:
    """Per-layer metrics: medians over traced passes, plus the tracing overhead."""
    passes = [t[2] for t in traced]
    result.metrics.update({key: statistics.median(p[key] for p in passes)
                           for key in passes[0]})
    result.metrics["obs.trace_overhead"] = (
        statistics.median(t[0] for t in traced) / statistics.median(untraced))
    result.trace = trace_doc(traced[-1][1], traced[-1][3]["wall"])


# ---------------------------------------------------------------------------
# Batch workloads: csj-clustered2d, ssj-sierpinski3d
# ---------------------------------------------------------------------------

BATCH_PARAMS = {
    "csj-clustered2d": {"eps": 0.01, "algorithm": "csj", "g": 10},
    "ssj-sierpinski3d": {"eps": 0.06, "algorithm": "ssj", "g": 10},
}


def batch_setup(points: np.ndarray):
    tree = build_index(points, "rstar", bulk="str")
    pack_index(tree)
    return tree


def batch_join(points, tree, params, path: str):
    sink = TextSink(path, id_width=width_for(len(points)))
    try:
        return similarity_join(
            points, params["eps"], algorithm=params["algorithm"], g=params["g"],
            index=tree, sink=sink,
        )
    finally:
        sink.close()


def batch_untraced(run: Run, points: np.ndarray) -> Result:
    params = BATCH_PARAMS[run.workload]
    result = Result(params=dict(params, n=len(points)))
    measured = untraced_file_joins(
        run, result, points, batch_setup,
        lambda tree, path: batch_join(points, tree, params, path),
        lambda tree: None, Clock(),
    )
    pairs = 0
    if measured["digests"]:
        reference = gate.reference_codes(points, params["eps"])
        pairs = gate_file(result, measured["path"], points, reference)
    finish_file_joins(result, points, measured, pairs)
    return result


def batch_traced_pass(points, params, path: str) -> tuple:
    """Set-up plus one join through the public task decomposition, traced."""
    spans = Spans()
    start = perf_counter()
    with traced_state_build(spans):
        spec = JoinSpec(points=points, eps=params["eps"], algorithm=params["algorithm"],
                        g=params["g"])
        state = spans.timed("parallel.task_state", spec.build_state)()
    sink = TimedTextSink(path, id_width=width_for(len(points)))
    stats = sink.stats
    buffer = state.make_buffer(sink, stats)
    leaf = merge = 0.0
    kernel_pairs = offered = 0
    for task_id in range(len(state.tasks)):
        t0 = perf_counter()
        events, counters = state.execute(task_id)
        t1 = perf_counter()
        busy = sink.busy
        state.apply(events, counters, sink, buffer, stats)
        t2 = perf_counter()
        leaf += t1 - t0
        merge += (t2 - t1) - (sink.busy - busy)
        for event in events:
            if event[0] in ("links", "linkseq"):
                kernel_pairs += len(event[1])
            if event[0] == "linkseq":
                offered += len(event[1])
    if buffer is not None:
        t0 = perf_counter()
        busy = sink.busy
        buffer.flush()
        merge += perf_counter() - t0 - (sink.busy - busy)
    sink.close()
    wall = perf_counter() - start
    spans.add("core.leaf", leaf, calls=len(state.tasks))
    spans.add("core.merge", merge)
    spans.add("io.sink", sink.busy, calls=sink.calls)
    dc = stats.distance_computations
    metrics = {
        "index.build_s": spans.median("index.build"),
        "index.pack_s": spans.median("index.pack"),
        "core.prune_s": spans.total["core.prune"],
        "core.tasks": len(state.tasks),
        "core.early_stops": stats.early_stops,
        "core.leaf_s": leaf,
        "core.distance_computations": dc,
        "core.pair_yield": kernel_pairs / dc if dc else 0.0,
        "core.merge_s": merge,
        "core.links_offered": offered,
        "core.merge_attempts": stats.merge_attempts,
        "core.merge_successes": stats.merge_successes,
        "core.merge_hit_ratio": stats.merge_successes / offered if offered else 0.0,
        "io.sink_s": sink.busy,
        "io.sink_calls": sink.calls,
        "io.bytes": stats.bytes_written,
        **layer_metrics(spans, wall),
    }
    return wall, spans, metrics, {"wall": wall}


def batch_traced(run: Run, points: np.ndarray) -> Result:
    params = BATCH_PARAMS[run.workload]
    result = Result(params=dict(params, n=len(points)))
    plain_path, traced_path = run.path("untraced"), run.path("traced")

    def untraced_pass() -> tuple:
        start = perf_counter()
        batch_join(points, batch_setup(points), params, plain_path)
        return perf_counter() - start, None

    def traced_pass() -> tuple:
        out = batch_traced_pass(points, params, traced_path)
        if file_digest(plain_path) != file_digest(traced_path):
            result.fail("traced replay wrote different bytes than the untraced join")
        if out[2]["io.bytes"] != os.path.getsize(plain_path):
            result.fail("io.bytes differs from output_bytes")
        return out

    untraced, traced = alternate_passes(run, result, untraced_pass, traced_pass, Clock())
    if traced:
        gate_file(result, plain_path, points, gate.reference_codes(points, params["eps"]))
        finish_traced(result, untraced, traced)
    for path in (plain_path, traced_path):
        if os.path.exists(path):
            os.remove(path)
    return result


# ---------------------------------------------------------------------------
# sharded-clustered2d
# ---------------------------------------------------------------------------

SHARD_PARAMS = {"eps": 0.01, "algorithm": "csj", "g": 10, "shards": 4,
                "partitioner": "hilbert", "workers": 2}


def shard_spec(shared: SharedDataset) -> JoinSpec:
    """The spec ``sharded_join`` builds for this dataset and configuration."""
    p = SHARD_PARAMS
    return JoinSpec(
        points=shared.points, eps=p["eps"], algorithm=p["algorithm"], g=p["g"],
        data_plane=shared.plane, dataset_ref=shared.ref, shards=p["shards"],
        partitioner=p["partitioner"],
    )


def shard_setup(points: np.ndarray) -> SharedDataset:
    """Publish the dataset and build (and cache) its shard task state afresh."""
    clear_process_caches()
    shared = SharedDataset(points, data_plane="shm")
    try:
        shard_spec(shared).build_state()
    except BaseException:
        shared.close()
        raise
    return shared


def shard_join(shared: SharedDataset, path: str):
    p = SHARD_PARAMS
    sink = TextSink(path, id_width=width_for(len(shared.points)))
    try:
        return sharded_join(
            shared.points, p["eps"], algorithm=p["algorithm"], g=p["g"],
            shards=p["shards"], partitioner=p["partitioner"], workers=p["workers"],
            shared=shared, sink=sink,
        )
    finally:
        sink.close()


def gate_sharded(result: Result, run: Run, points, path: str) -> tuple[int, int]:
    """Gate the sharded file and the unsharded CSJ(10) join of the same points.

    Both are checked against one reference, so passing means both imply
    the same pair set.  Returns ``(sharded pairs or 0, unsharded bytes)``.
    """
    p = SHARD_PARAMS
    reference = gate.reference_codes(points, p["eps"])
    pairs = gate_file(result, path, points, reference)
    plain = run.path("unsharded")
    sink = TextSink(plain, id_width=width_for(len(points)))
    try:
        similarity_join(points, p["eps"], algorithm=p["algorithm"], g=p["g"], sink=sink)
    finally:
        sink.close()
    if not gate_file(result, plain, points, reference):
        pairs = 0
    size = os.path.getsize(plain)
    os.remove(plain)
    return pairs, size


def sharded_untraced(run: Run, points: np.ndarray) -> Result:
    result = Result(params=dict(SHARD_PARAMS, n=len(points)))
    measured = untraced_file_joins(
        run, result, points, shard_setup, shard_join, lambda shared: shared.close(),
        Clock())
    pairs = 0
    if measured["digests"]:
        pairs, _ = gate_sharded(result, run, points, measured["path"])
    finish_file_joins(result, points, measured, pairs)
    return result


POOL_COUNTERS = {
    "parallel.spawns": "repro_pool_spawns_total",
    "parallel.respawns": "repro_pool_respawns_total",
    "parallel.retries": "repro_pool_task_retries_total",
    "parallel.speculated": "repro_pool_speculated_total",
    "parallel.shm_fallbacks": "repro_shm_fallback_total",
    "parallel.spec_bytes": "repro_spec_bytes_total",
}


def sharded_traced_pass(points, path: str) -> tuple:
    """Set-up plus one sharded join through its public phases, traced."""
    p = SHARD_PARAMS
    spans = Spans()
    registry_before = get_registry().snapshot()
    clear_process_caches()
    start = perf_counter()
    shared = spans.timed("parallel.publish", SharedDataset)(points, data_plane="shm")
    try:
        spec = shard_spec(shared)
        with traced_state_build(spans):
            state = spans.timed("shard.state", spec.build_state)()
        phase_sink = CollectSink(id_width=width_for(len(points)))
        phase_stats = phase_sink.stats
        spans.timed("shard.discover", run_phase1)(
            state, phase_sink, phase_stats, workers=p["workers"])
        pairs = spans.timed("shard.sort", sorted_owned_links)(phase_sink.links)
        sink = TimedTextSink(path, id_width=width_for(len(points)))
        stats = sink.stats
        window = GroupBuffer(spec.g, spec.eps, sink, stats=stats, dim=points.shape[1])
        add_link = window.add_link
        in_window = [0.0]

        def timed_add_link(i, j, p_i, p_j):
            t0 = perf_counter()
            add_link(i, j, p_i, p_j)
            in_window[0] += perf_counter() - t0

        window.add_link = timed_add_link
        t0 = perf_counter()
        busy = sink.busy
        replay_links(pairs, sink, window, spec.points)
        replay = perf_counter() - t0 - in_window[0]
        merge = in_window[0] - (sink.busy - busy)
        t0 = perf_counter()
        busy = sink.busy
        window.flush()
        merge += perf_counter() - t0 - (sink.busy - busy)
        sink.close()
    finally:
        shared.close()
    wall = perf_counter() - start
    spans.add("shard.replay", replay)
    spans.add("core.merge", merge)
    spans.add("io.sink", sink.busy, calls=sink.calls)
    registry_after = get_registry().snapshot()
    dc = phase_stats.distance_computations
    offered = len(pairs)
    metrics = {
        "index.build_s": spans.median("index.build"),
        "index.pack_s": spans.median("index.pack"),
        "core.prune_s": spans.total["core.prune"],
        "core.tasks": len(state.tasks),
        "core.early_stops": phase_stats.early_stops,
        "core.distance_computations": dc,
        "core.pair_yield": offered / dc if dc else 0.0,
        "core.merge_s": merge,
        "core.links_offered": offered,
        "core.merge_attempts": stats.merge_attempts,
        "core.merge_successes": stats.merge_successes,
        "core.merge_hit_ratio": stats.merge_successes / offered if offered else 0.0,
        "io.sink_s": sink.busy,
        "io.sink_calls": sink.calls,
        "io.bytes": stats.bytes_written,
        "shard.state_s": spans.self_time("shard.state"),
        "shard.discover_s": spans.total["shard.discover"],
        "shard.sort_s": spans.total["shard.sort"],
        "shard.replay_s": replay,
        "shard.owned_links": offered,
        "shard.halo_points": state.plan.halo_points,
        "shard.skew_ratio": state.plan.skew_ratio,
        **layer_metrics(spans, wall),
    }
    for name, counter in POOL_COUNTERS.items():
        metrics[name] = registry_after.get(counter, 0) - registry_before.get(counter, 0)
    return wall, spans, metrics, {"wall": wall, "state": state}


def sharded_traced(run: Run, points: np.ndarray) -> Result:
    p = SHARD_PARAMS
    result = Result(params=dict(p, n=len(points)))
    plain_path, traced_path = run.path("untraced"), run.path("traced")

    def untraced_pass() -> tuple:
        start = perf_counter()
        shared = shard_setup(points)
        try:
            shard_join(shared, plain_path)
        finally:
            shared.close()
        return perf_counter() - start, None

    def traced_pass() -> tuple:
        out = sharded_traced_pass(points, traced_path)
        if file_digest(plain_path) != file_digest(traced_path):
            result.fail("traced replay wrote different bytes than the untraced join")
        return out

    untraced, traced = alternate_passes(run, result, untraced_pass, traced_pass,
                                        Clock())
    if traced:
        _, base = gate_sharded(result, run, points, plain_path)
        finish_traced(result, untraced, traced)
        result.metrics["shard.bytes_vs_unsharded"] = os.path.getsize(plain_path) / base
        # The pool ran the tasks in its workers; time them here, in process.
        state = traced[-1][3]["state"]
        start = perf_counter()
        for task_id in range(len(state.tasks)):
            state.execute(task_id)
        leaf = perf_counter() - start
        result.metrics["core.leaf_s"] = leaf
        result.metrics["parallel.efficiency"] = leaf / (
            p["workers"] * result.metrics["shard.discover_s"])
    for path in (plain_path, traced_path):
        if os.path.exists(path):
            os.remove(path)
    return result


# ---------------------------------------------------------------------------
# serve-churn
# ---------------------------------------------------------------------------

SERVE_PARAMS = {"eps": 0.01, "g": 10, "cache_bytes": 4 << 20}
READ_MIX = [(a, e) for a in ("ssj", "ncsj", "csj") for e in (0.005, 0.01, 0.02)]
#: One block of steps: every read kind once on its own and once followed
#: by the same read again, which finds the dataset unchanged and hits the
#: cache (a third of all reads); every other read follows a write and misses.
BLOCK = [(algorithm, eps, repeat) for algorithm, eps in READ_MIX for repeat in (False, True)]
#: Steps per round; a round holds more than 100 reads, so the 90th
#: latency percentile has at least 10 samples beyond it.
ROUND_STEPS = 4 * len(BLOCK)
#: Every this many reads, an admitted result is compared with a direct join.
VERIFY_EVERY = 6
#: Steps between host-speed references.
CALIBRATE_EVERY = 5


def serve_plan(seed: int):
    """The seeded operations of one round, in blocks of ``len(BLOCK)`` steps.

    A step is one write (inserts and deletes half each per block) and its
    reads; each block visits the read kinds in a seeded order, so every
    round of every seed does the same mix of work.
    """
    rng = np.random.default_rng([seed, 1])
    for _ in range(ROUND_STEPS // len(BLOCK)):
        inserts = rng.permutation([True, False] * (len(BLOCK) // 2))
        for insert, k in zip(inserts, rng.permutation(len(BLOCK))):
            if insert:
                yield ("insert", clustered(2, rng)[int(rng.integers(2))])
            else:
                yield ("delete", float(rng.random()))
            algorithm, eps, repeat = BLOCK[k]
            yield ("read", algorithm, eps)
            if repeat:
                yield ("read", algorithm, eps)


class ServeSession:
    """One JoinService plus one MaintainedJoin driven by one client."""

    def __init__(self, points: np.ndarray, spans: Optional[Spans] = None):
        self.spans = spans
        self.service = open_service(
            queue_depth=8, executors=1, workers=1,
            cache_bytes=SERVE_PARAMS["cache_bytes"],
        )
        try:
            start = perf_counter()
            self._timed("service.register", self.service.register_dataset)(points)
            tree = self._timed("index.insert_load", get_index_class("rstar"))(
                points.copy(), max_entries=64)
            self.join = self._timed("dynamic.materialize", MaintainedJoin)(
                points, SERVE_PARAMS["eps"], g=SERVE_PARAMS["g"], index=tree)
            #: register_dataset + R*-tree + MaintainedJoin, raw seconds.
            self.setup_s = perf_counter() - start
        except BaseException:
            self.service.close()
            raise
        if spans is not None:
            tree.add_point = spans.timed("index.insert", tree.add_point)
            tree.range_query = spans.timed("index.range_query", tree.range_query)
            tree.delete = spans.timed("index.delete", tree.delete)
            self.join.insert = spans.timed("dynamic.insert", self.join.insert)
            self.join.delete = spans.timed("dynamic.delete", self.join.delete)
            submit = spans.timed("service.submit", self.service.submit)
            self.read = spans.timed("service.request", lambda req: submit(req).wait())
        else:
            self.read = lambda req: self.service.submit(req).wait()
        #: The registered array serves reads until the first write.
        self.snapshot: Optional[np.ndarray] = points

    def _timed(self, name: str, fn):
        return fn if self.spans is None else self.spans.timed(name, fn)

    def write(self, op) -> float:
        """One insert or delete; returns its latency (choosing the victim excluded)."""
        if op[0] == "insert":
            start = perf_counter()
            self.join.insert(op[1])
        else:
            live = self.join.live_ids()
            victim = live[int(op[1] * len(live))]
            start = perf_counter()
            self.join.delete(victim)
        elapsed = perf_counter() - start
        self.snapshot = None
        return elapsed

    def request(self, op) -> JoinRequest:
        if self.snapshot is None:
            join = self.join
            self.snapshot = join.tree.points[np.asarray(join.live_ids(), dtype=np.intp)]
        return JoinRequest(self.snapshot, op[2], algorithm=op[1], g=SERVE_PARAMS["g"])

    def close(self) -> None:
        self.service.close()


@dataclass
class ServeLog:
    queries: Timings = field(default_factory=Timings)
    #: (algorithm, eps) -> latencies of the reads of that kind that missed.
    misses: dict = field(default_factory=dict)
    updates: Timings = field(default_factory=Timings)
    #: Per read: (bytes written, bytes of the same pairs as plain links,
    #: payload digest).
    reads: list = field(default_factory=list)
    #: Loop time without verification or references, raw and normalised.
    loop_s: float = 0.0
    loop_norm_s: float = 0.0
    ops: int = 0


def payload_digest(res) -> int:
    """Identity of an in-memory result: its links, groups and byte count.

    Python's hash of tuples of ints does not depend on the process.
    """
    return hash((res.stats.bytes_written, tuple(res.links), tuple(res.groups)))


def serve_loop(session: ServeSession, result: Result, seed: int, clock: Clock,
               verify: bool = False, expand: bool = False) -> ServeLog:
    """Drive the session through one round of ``serve_plan(seed)``.

    With ``expand`` every read's implied pairs are counted (for
    ``compaction_ratio``); otherwise its second field is 0.
    """
    log = ServeLog()
    link_bytes_of: dict[int, int] = {}
    registry = get_registry()
    steps = 0
    factor = clock.scale()
    segment = perf_counter()

    def close_segment() -> None:
        wall = perf_counter() - segment
        log.loop_s += wall
        log.loop_norm_s += wall * factor

    for op in serve_plan(seed):
        if op[0] != "read":
            if steps % CALIBRATE_EVERY == 0:
                close_segment()
                clock.reference()
                factor = clock.scale()
                segment = perf_counter()
            steps += 1
            result.attempted += 1
            elapsed = guarded(result, op[0], session.write, op)
            if elapsed is not None:
                log.updates.add(elapsed, factor)
                log.ops += 1
            continue
        request = session.request(op)
        misses = registry.counter("repro_cache_misses_total").value
        t0 = perf_counter()
        outcome = guarded(result, "read", session.read, request)
        elapsed = perf_counter() - t0
        result.attempted += 1
        if outcome is None:
            continue
        if outcome.status != "admitted":
            result.fail(f"read {outcome.request_id} ended {outcome.status}: {outcome.error!r}")
            continue
        log.ops += 1
        log.queries.add(elapsed, factor)
        if registry.counter("repro_cache_misses_total").value > misses:
            log.misses.setdefault(op[1:], Timings()).add(elapsed, factor)
        close_segment()
        res = outcome.result
        digest = payload_digest(res)
        if expand and digest not in link_bytes_of:
            n = len(request.points)
            ids, sizes = gate.payload_ids(res.links, res.groups)
            link_bytes_of[digest] = (gate.implied_count(ids, sizes, n)
                                     * line_bytes(2, width_for(n)))
        log.reads.append((res.stats.bytes_written, link_bytes_of.get(digest, 0), digest))
        if verify and len(log.reads) % VERIFY_EVERY == 0:
            direct = similarity_join(request.points, request.eps,
                                     algorithm=request.algorithm, g=request.g)
            if payload_digest(direct) != payload_digest(res):
                result.fail(f"read {outcome.request_id} differs from a direct join")
        segment = perf_counter()
    close_segment()
    return log


def check_maintained(result: Result, join: MaintainedJoin) -> None:
    """MaintainedJoin.expanded_links() must equal a brute-force join of the live points."""
    live = np.asarray(join.live_ids(), dtype=np.int64)
    total = len(join.tree.points)
    local = gate.reference_codes(join.tree.points[live], SERVE_PARAMS["eps"])
    i, j = np.divmod(local, len(live))
    expected = live[i] * total + live[j]
    got = np.unique(np.fromiter(
        (a * total + b for a, b in join.expanded_links()), dtype=np.int64))
    if not np.array_equal(expected, got):
        result.fail("MaintainedJoin.expanded_links() differs from a brute-force join")


def serve_round(points, result: Result, seed: int, clock: Clock, expand: bool = False):
    """Set up a fresh session, run one verified round; ``(session, log, factor)``."""
    session, _, factor = clock.measure(ServeSession, points)
    try:
        log = serve_loop(session, result, seed, clock, verify=True, expand=expand)
        check_maintained(result, session.join)
    finally:
        session.close()
    return session, log, factor


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1000.0, q))


def serve_untraced(run: Run, points: np.ndarray) -> Result:
    """Rounds of set-up plus ``ROUND_STEPS`` steps for ``run.seconds``.

    Every round replays the seed's operations on fresh state, so each
    serves the same bytes; the service's memory stays that of one round.
    """
    result = Result(params=dict(SERVE_PARAMS, n=len(points)))
    clock = Clock()
    setups = Timings()
    logs: list[ServeLog] = []

    def one_round() -> None:
        session, log, factor = serve_round(points, result, run.seed, clock,
                                           expand=not logs)
        setups.add(session.setup_s, factor)
        logs.append(log)

    run_for(run.seconds, one_round)
    rss = peak_rss_mb()
    while len(setups.wall) < SERVE_SETUP_REPEATS:
        session, _, factor = clock.measure(ServeSession, points)
        session.close()
        setups.add(session.setup_s, factor)
    digests = [[d for _, _, d in log.reads] for log in logs]
    if any(d != digests[0] for d in digests):
        result.fail("rounds of the same operations served different results")
    result.params.update(rounds=len(logs), reads_per_round=len(logs[0].reads))
    if not logs[0].misses:
        return result
    # The mean over read kinds of each kind's median miss: medians of a
    # pooled mix would jump between the kinds' latency clusters.
    kinds = logs[0].misses
    per_kind = {kind: [m for log in logs for m in log.misses[kind].norm] for kind in kinds}
    per_kind_wall = {kind: [m for log in logs for m in log.misses[kind].wall] for kind in kinds}
    out_bytes = sum(b for b, _, _ in logs[0].reads)
    queries = [q for log in logs for q in log.queries.wall]
    updates = [u for log in logs for u in log.updates.wall]
    result.metrics = {
        "setup_s": setups.median(),
        "join_s": statistics.mean(statistics.median(v) for v in per_kind.values()),
        "output_bytes": out_bytes,
        "compaction_ratio": sum(k for _, k, _ in logs[0].reads) / out_bytes,
        "peak_rss_mb": rss,
        "ops_per_s": sum(log.ops for log in logs) / sum(log.loop_norm_s for log in logs),
    }
    result.raw = {
        "setup_s": setups.median_wall(),
        "join_s": statistics.mean(statistics.median(v) for v in per_kind_wall.values()),
        "query_ms_p90": percentile_ms(queries, 90),
        "update_ms_p90": percentile_ms(updates, 90),
        "reference_s": clock.median_reference(),
    }
    return result


def serve_traced_pass(points, result: Result, seed: int) -> tuple:
    """Set-up plus one round, traced."""
    spans = Spans()
    before = get_registry().snapshot()
    key_for = ResultCache.__dict__["key_for"].__func__
    with traced_state_build(spans), \
            patched(repro.api, "similarity_join", spans.timed(
                "service.miss_join", similarity_join, adopt_into="service.request")), \
            patched(ResultCache, "key_for", staticmethod(spans.timed(
                "service.fingerprint", key_for, adopt_into="service.request"))):
        clock = Clock()
        factor = clock.scale()
        session = ServeSession(points, spans)
        try:
            log = serve_loop(session, result, seed, clock)
            counts = session.service.counts()
            peak_queue = session.service.peak_queue
            join_counts = dict(session.join.counts)
        finally:
            session.close()
    wall = session.setup_s + log.loop_s
    after = get_registry().snapshot()
    hits, misses = (after.get(f"repro_cache_{k}_total", 0) - before.get(f"repro_cache_{k}_total", 0)
                    for k in ("hits", "misses"))
    metrics = {
        "index.build_s": spans.median("index.build"),
        "index.pack_s": spans.median("index.pack"),
        "index.range_query_ms": spans.median("index.range_query") * 1e3,
        "index.insert_ms": spans.median("index.insert") * 1e3,
        "index.delete_ms": spans.median("index.delete") * 1e3,
        "service.submit_ms": spans.median("service.submit") * 1e3,
        "service.fingerprint_ms": spans.median("service.fingerprint") * 1e3,
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.miss_join_s": spans.median("service.miss_join"),
        "service.peak_queue": peak_queue,
        "dynamic.insert_ms": spans.median("dynamic.insert", self_only=True) * 1e3,
        "dynamic.delete_ms": spans.median("dynamic.delete", self_only=True) * 1e3,
        "dynamic.absorbed_ratio": (join_counts["absorbed"] / join_counts["inserts"]
                                   if join_counts["inserts"] else 0.0),
        "dynamic.materialize_s": spans.total["dynamic.materialize"],
        **{f"service.outcomes.{status}": count for status, count in counts.items()},
        **layer_metrics(spans, wall),
    }
    norm = session.setup_s * factor + log.loop_norm_s
    return wall, spans, metrics, {"wall": wall, "norm": norm, "log": log}


def serve_traced(run: Run, points: np.ndarray) -> Result:
    result = Result(params=dict(SERVE_PARAMS, n=len(points)))
    clock = Clock()
    logs: list[ServeLog] = []

    def untraced_pass() -> tuple:
        session, log, factor = serve_round(points, result, run.seed, clock)
        logs.append(log)
        return session.setup_s + log.loop_s, session.setup_s * factor + log.loop_norm_s

    def traced_pass() -> tuple:
        out = serve_traced_pass(points, result, run.seed)
        if [d for _, _, d in logs[-1].reads] != [d for _, _, d in out[3]["log"].reads]:
            result.fail("the traced pass served different results than the untraced pass")
        return out

    untraced, traced = alternate_passes(run, result, untraced_pass, traced_pass, clock)
    if traced:
        finish_traced(result, untraced, traced)
        # Latency distributions come from the untraced passes.
        queries = [q for log in logs for q in log.queries.norm]
        updates = [u for log in logs for u in log.updates.norm]
        result.metrics.update({
            "service.query_ms_p50": percentile_ms(queries, 50),
            "service.query_ms_p90": percentile_ms(queries, 90),
            "dynamic.update_ms_p50": percentile_ms(updates, 50),
            "dynamic.update_ms_p90": percentile_ms(updates, 90),
        })
    return result


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

RUNNERS = {
    "csj-clustered2d": (batch_untraced, batch_traced),
    "ssj-sierpinski3d": (batch_untraced, batch_traced),
    "sharded-clustered2d": (sharded_untraced, sharded_traced),
    "serve-churn": (serve_untraced, serve_traced),
}


def run_workload(run: Run) -> Result:
    """Run one workload; every catalogue metric of the mode is in the result.

    Workloads that run in one process are pinned to one CPU, so the
    reference loops that normalise their times run where they run.  The
    sharded workload's pool needs every CPU; its references run wherever
    the parent, which replays most of the join, runs.
    """
    if run.workload not in catalogue.SHARDED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    points = make_points(run)
    untraced, traced = RUNNERS[run.workload]
    result = (traced if run.trace else untraced)(run, points)
    table = catalogue.PER_LAYER if run.trace else catalogue.END_TO_END
    if not result.metrics and not result.failed:
        result.fail("no operation completed")
    result.metrics = {m.name: result.metrics.get(m.name, 0) for m in table}
    return result

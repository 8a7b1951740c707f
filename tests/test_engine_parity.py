"""Packed task stream vs. node task stream: byte-identical output, identical counters.

Tree self-joins run on one loop fed by one of two forms of the same task
stream (:mod:`repro.core.frontier`): batched pruning over the packed
index, or the per-pair recursion over node objects, which serves trees
that cannot be packed.  The packed stream is only admissible because it
is *observationally identical* to the node stream: same links, same
groups, in the same order, with the same ``JoinStats`` counters, page
accesses and budget behaviour — at any worker count, and across a
kill-and-resume boundary.  This suite is that contract's regression
harness, on the paper's two workload shapes (the Figure 5 real-data
distribution and the Figure 7 fractal used for scalability).  Both
streams are reached through the private serial driver, which is how the
public ``ssj`` / ``ncsj`` / ``csj`` run.
"""

import filecmp

import numpy as np
import pytest

import repro.index.packed
from repro.api import build_index, similarity_join, spatial_join_datasets
from repro.core.csj import _tree_join
from repro.core.egrid import egrid_join
from repro.core.frontier import enumerate_packed_task_ids, iter_node_tasks
from repro.core.results import CollectSink, TextSink
from repro.datasets import load_dataset
from repro.errors import BudgetExceededError
from repro.index.packed import pack_index
from repro.io.pagesim import NodePager, PageCache
from repro.io.writer import width_for
from repro.parallel.tasks import JoinSpec
from repro.resilience.budget import Budget
from repro.resilience.chaos import FailurePlan, FlakySink
from repro.resilience.checkpoint import CheckpointedJoin
from repro.stats.counters import JoinStats

# Small cuts of the paper's workloads: fig5's real-data distribution and
# fig7's fractal. Sizes keep the full matrix under a few seconds.
WORKLOADS = {
    "fig5": (load_dataset("mg_county", 300, seed=0), 0.05),
    "fig7": (load_dataset("sierpinski3d", 400, seed=0), 0.125),
}
TREE_ALGORITHMS = ["ssj", "ncsj", "csj"]
#: algorithm -> (g, compact, label), as the public entry points pass them
DRIVER_ARGS = {
    "ssj": (0, False, "ssj"),
    "ncsj": (0, True, "ncsj"),
    "csj": (10, True, "csj(10)"),
}


def _stream_join(tree, eps, algorithm, packed, **kwargs):
    """Run ``algorithm`` through the serial driver on one stream."""
    g, compact, label = DRIVER_ARGS[algorithm]
    stream = pack_index(tree) if packed else None
    if packed:
        assert stream is not None, "tree must be packable for the packed stream"
    return _tree_join(tree, stream, float(eps), g, compact, label, **kwargs)


def _both_streams(tree, eps, algorithm, **kwargs):
    return (
        _stream_join(tree, eps, algorithm, packed=True, **kwargs),
        _stream_join(tree, eps, algorithm, packed=False, **kwargs),
    )


def _payload(result):
    return (result.links, result.groups, result.group_pairs)


def _int_counters(result):
    return {
        k: v for k, v in result.stats.as_dict().items() if isinstance(v, int)
    }


def _assert_identical(a, b, context=""):
    assert _payload(a) == _payload(b), f"payload diverged: {context}"
    assert _int_counters(a) == _int_counters(b), f"counters diverged: {context}"


def _replay_tasks(spec):
    """Execute a spec's task list serially: execute + apply, in order."""
    state = spec.build_state()
    sink = CollectSink(id_width=width_for(len(spec.points)))
    buffer = state.make_buffer(sink, sink.stats)
    for task_id in range(len(state.tasks)):
        events, counters = state.execute(task_id)
        state.apply(events, counters, sink, buffer, sink.stats)
    if buffer is not None:
        buffer.flush()
    return sink


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", TREE_ALGORITHMS + ["egrid"])
def test_serial_engines_identical(workload, algorithm):
    pts, eps = WORKLOADS[workload]
    if algorithm == "egrid":
        # The grid join has no tree stream; its serial loop and its task
        # list (what parallel and checkpointed runs execute) must agree.
        serial = egrid_join(pts, eps)
        sink = _replay_tasks(JoinSpec(points=pts, eps=eps, algorithm="egrid"))
        assert serial.links == sink.links
        assert serial.stats.distance_computations == sink.stats.distance_computations
        assert serial.stats.bytes_written == sink.stats.bytes_written
        return
    tree = build_index(pts, "rstar", bulk="str")
    packed, node = _both_streams(tree, eps, algorithm)
    _assert_identical(packed, node, f"{algorithm} on {workload}")
    public = similarity_join(pts, eps, algorithm=algorithm)
    _assert_identical(public, packed, f"public {algorithm} on {workload}")


@pytest.mark.parametrize("index", ["rtree", "mtree"])
def test_serial_engines_identical_other_indexes(index):
    bulk = "str" if index == "rtree" else None
    for workload in sorted(WORKLOADS):
        pts, eps = WORKLOADS[workload]
        tree = build_index(pts, index, max_entries=8, bulk=bulk)
        for algorithm in TREE_ALGORITHMS:
            packed, node = _both_streams(tree, eps, algorithm)
            _assert_identical(packed, node, f"{algorithm} on {index}/{workload}")


@pytest.mark.parametrize("compact", [False, True])
def test_dual_tree_engines_identical(compact, monkeypatch):
    """The dual-tree join's batched runner matches its recursive runner."""
    pts_a, eps = WORKLOADS["fig7"]
    pts_b = load_dataset("sierpinski3d", 350, seed=1)
    batched = spatial_join_datasets(pts_a, pts_b, eps, compact=compact)
    # Without a packed form, the dual join takes the recursive runner.
    declined = []
    monkeypatch.setattr(repro.index.packed, "pack_index", declined.append)
    recursive = spatial_join_datasets(pts_a, pts_b, eps, compact=compact)
    assert declined, "the dual join no longer asks pack_index"
    _assert_identical(batched, recursive, f"dual compact={compact}")


@pytest.mark.parametrize("algorithm", ["ssj", "csj"])
def test_workers_two_engines_identical(algorithm):
    pts, eps = WORKLOADS["fig5"]
    tree = build_index(pts, "rstar", bulk="str")
    packed, node = _both_streams(tree, eps, algorithm)
    pooled = similarity_join(pts, eps, algorithm=algorithm, workers=2)
    assert _payload(pooled) == _payload(packed)
    assert _payload(pooled) == _payload(node)


@pytest.mark.parametrize("compact", [False, True])
def test_packed_task_enumeration_matches_recursive(compact):
    for workload in sorted(WORKLOADS):
        pts, eps = WORKLOADS[workload]
        for index, bulk in (("rstar", "str"), ("rtree", None), ("mtree", None)):
            tree = build_index(pts, index, max_entries=8, bulk=bulk)
            packed = pack_index(tree)
            assert packed is not None
            as_nodes = [
                (t[0],) + tuple(packed.nodes[i] for i in t[1:])
                for t in enumerate_packed_task_ids(packed, eps, compact)
            ]
            assert as_nodes == list(iter_node_tasks(tree, eps, compact))


def test_kill_and_resume_across_engines(tmp_path):
    """A checkpointed run killed mid-way and resumed is byte-identical to
    an uninterrupted serial run on the node stream."""
    pts, eps = WORKLOADS["fig5"]
    baseline = tmp_path / "baseline.txt"
    tree = build_index(pts, "rstar", bulk="str")
    sink = TextSink(str(baseline), id_width=width_for(len(pts)))
    try:
        _stream_join(tree, eps, "csj", packed=False, sink=sink)
    finally:
        sink.close()

    out = tmp_path / "resumed.txt"
    wrapper = lambda inner: FlakySink(
        inner, FailurePlan(seed=5, rate=0.0, fail_at=[40])
    )
    with pytest.raises(OSError):
        CheckpointedJoin(pts, eps, str(out), algorithm="csj", cadence=9,
                         sink_wrapper=wrapper).run()
    CheckpointedJoin(pts, eps, str(out), algorithm="csj", cadence=9).run(
        resume=True
    )
    assert filecmp.cmp(str(baseline), str(out), shallow=False)


def test_object_metric_falls_back_to_scalar():
    """A non-vectorizable metric must quietly take the node stream — the
    input picks it, pack_index declines the tree — with the same results."""
    from repro.core.metricspace import ObjectMetric, brute_force_object_links

    objects = list(np.random.default_rng(2).random((80, 2)))
    l1 = lambda a, b: float(np.abs(a - b).sum())  # noqa: E731
    metric = ObjectMetric(objects, l1, name="obj-l1")
    ids = np.arange(len(objects), dtype=float).reshape(-1, 1)
    # SSJ / N-CSJ over object ids: lossless against brute force.  CSJ's
    # merge window needs a vector norm, so it runs over the raw rows
    # (the metric then reads each row's first coordinate as its id).
    cases = (("ssj", ids), ("ncsj", ids), ("csj", np.stack(objects)))
    for algorithm, pts in cases:
        tree = build_index(pts, "mtree", metric=metric, max_entries=8, bulk=None)
        assert pack_index(tree) is None
        public = similarity_join(
            pts, 0.1, algorithm=algorithm, index="mtree", bulk=None,
            metric=metric, max_entries=8,
        )
        node = _stream_join(tree, 0.1, algorithm, packed=False)
        _assert_identical(public, node, f"object metric {algorithm}")
        if pts is ids:
            expected = brute_force_object_links(objects, 0.1, l1)
            assert public.expanded_links() == expected


def test_pager_counts_identical():
    """Both streams visit the same pages in the same order."""
    pts, eps = WORKLOADS["fig7"]
    tree = build_index(pts, "rstar", max_entries=8, bulk="str")
    for algorithm in TREE_ALGORITHMS:
        runs = []
        for packed in (True, False):
            pager = NodePager(tree, PageCache(16))
            runs.append(_stream_join(tree, eps, algorithm, packed, pager=pager))
        _assert_identical(*runs, f"paged {algorithm}")
        assert runs[0].stats.page_reads > 0
        assert runs[0].stats.cache_hits > 0


def test_budget_partial_identical():
    """A CSJ byte-budget breach leaves the same partial payload on both."""
    pts, eps = WORKLOADS["fig5"]
    tree = build_index(pts, "rstar", max_entries=8, bulk="str")
    full = _stream_join(tree, eps, "csj", packed=True)
    limit = full.stats.bytes_written // 2
    partials = []
    for packed in (True, False):
        with pytest.raises(BudgetExceededError) as info:
            _stream_join(
                tree, eps, "csj", packed, budget=Budget(max_output_bytes=limit)
            )
        assert info.value.kind == "output_bytes"
        partials.append(info.value.partial)
    _assert_identical(*partials, "csj partial")
    assert 0 < partials[0].stats.bytes_written < full.stats.bytes_written


def test_ssj_estimated_fallback_identical():
    """An SSJ byte-budget breach falls back to the same estimate on both."""
    pts, eps = WORKLOADS["fig7"]
    tree = build_index(pts, "rstar", max_entries=8, bulk="str")
    full = _stream_join(tree, eps, "ssj", packed=True)
    runs = [
        _stream_join(
            tree, eps, "ssj", packed,
            budget=Budget(max_output_bytes=full.stats.bytes_written // 3),
        )
        for packed in (True, False)
    ]
    for run in runs:
        assert run.estimated is True
        assert run.stats.links_emitted == full.stats.links_emitted
    _assert_identical(*runs, "ssj estimate")


def test_stream_hooks_charge_identical_counters():
    """Standalone streams with ``stats`` charge the same traversal counters."""
    from repro.core.frontier import iter_packed_tasks

    pts, eps = WORKLOADS["fig7"]
    tree = build_index(pts, "rstar", max_entries=8, bulk="str")
    for compact in (False, True):
        packed_stats, node_stats = JoinStats(), JoinStats()
        packed_tasks = list(
            iter_packed_tasks(pack_index(tree), eps, compact, packed_stats)
        )
        node_tasks = list(iter_node_tasks(tree, eps, compact, node_stats))
        assert len(packed_tasks) == len(node_tasks)
        assert packed_stats.as_dict() == node_stats.as_dict()
        assert packed_stats.nodes_visited > 0 and packed_stats.mbr_checks > 0

"""The shard-parity battery: sharded execution is invisible in the output.

The load-bearing claim of :mod:`repro.shard`: partitioning the dataset
into K ε-replicated spatial shards and joining each shard independently
is an *execution* strategy, not an algorithm change — output bytes and
every canonical output counter are identical for any shard count,
partitioner, index, metric and worker count, and the implied pair set
equals the classic unsharded join's.  Compact (csj/ncsj) output is
moreover byte-identical to the unsharded join with the default index
recipe.  This suite proves that over the full matrix
(deterministically) and over random datasets (hypothesis).
"""

import filecmp

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import similarity_join
from repro.core.bruteforce import brute_force_links
from repro.core.groups import GroupBuffer
from repro.core.results import TextSink
from repro.datasets.sierpinski import sierpinski_pyramid
from repro.errors import ReproError
from repro.geometry.metrics import Chebyshev, Euclidean, Manhattan, get_metric
from repro.io.writer import width_for
from repro.obs.metrics import get_registry, reset_registry
from repro.shard.driver import ReplayPlan, replay_links

INDEXES = ["rtree", "rstar", "mtree"]
METRICS = [Manhattan(), Euclidean(), Chebyshev()]
SHARD_COUNTS = [1, 2, 3, 8]


class TestParityMatrix:
    """index x metric x K x partitioner, one shared dataset."""

    @pytest.mark.parametrize("index", INDEXES)
    @pytest.mark.parametrize("metric", METRICS, ids=[m.name for m in METRICS])
    def test_index_metric_matrix(self, sharded_dataset, parity_check, index, metric):
        parity_check(
            sharded_dataset,
            0.06,
            index=index,
            metric=metric,
            cases=[(2, "grid", None), (3, "hilbert", None), (8, "grid", None)],
        )

    @pytest.mark.parametrize("algorithm", ["ssj", "ncsj", "csj", "egrid-csj", "pbsm"])
    def test_algorithm_matrix(self, sharded_dataset, parity_check, algorithm):
        parity_check(
            sharded_dataset,
            0.06,
            algorithm=algorithm,
            cases=[(3, "grid", None), (8, "hilbert", None)],
        )

    def test_worker_matrix(self, sharded_dataset, parity_check):
        # workers in {1, 2} per shard count: phase 1 through the real
        # supervised pool must not perturb a single output byte.
        parity_check(
            sharded_dataset,
            0.06,
            cases=[(2, "grid", 2), (3, "hilbert", 2), (8, "grid", 1), (8, "grid", 2)],
        )

    def test_shards_one_equals_no_sharding_pair_set(self, sharded_dataset):
        plain = similarity_join(sharded_dataset, 0.06, algorithm="csj", g=10)
        one = similarity_join(sharded_dataset, 0.06, algorithm="csj", g=10, shards=1)
        assert one.expanded_links() == plain.expanded_links()


OUTPUT_COUNTERS = (
    "links_emitted",
    "groups_emitted",
    "group_links_implied",
    "bytes_written",
    "merge_attempts",
    "merge_successes",
)


#: Query range per dimension for :func:`_blob_and_uniform`.
BLOB_EPS = {2: 0.06, 3: 0.15}


def _blob_and_uniform(dim: int) -> np.ndarray:
    """Uniform points beside a dense blob whose leaves stop early."""
    rng = np.random.default_rng(29 + dim)
    return np.vstack([rng.random((160, dim)), 1.5 + 0.02 * rng.random((240, dim))])


def _join_to_file(path, points, eps, **kwargs):
    sink = TextSink(str(path), id_width=width_for(len(points)))
    result = similarity_join(points, eps, sink=sink, **kwargs)
    sink.close()
    return result


class TestUnshardedIdentity:
    """Sharded csj/ncsj files equal the unsharded default-recipe join's."""

    def _assert_identical(self, tmp_path, points, eps, algorithm, metric, cases):
        ref = _join_to_file(
            tmp_path / "unsharded.txt", points, eps, algorithm=algorithm, metric=metric
        )
        for k, partitioner, workers in cases:
            got = _join_to_file(
                tmp_path / "sharded.txt", points, eps, algorithm=algorithm,
                metric=metric, shards=k, partitioner=partitioner, workers=workers,
            )
            label = f"shards={k} partitioner={partitioner} workers={workers}"
            assert filecmp.cmp(
                str(tmp_path / "unsharded.txt"), str(tmp_path / "sharded.txt"),
                shallow=False,
            ), label
            for name in OUTPUT_COUNTERS:
                assert getattr(got.stats, name) == getattr(ref.stats, name), (name, label)
        return ref

    @pytest.mark.parametrize("algorithm", ["csj", "ncsj"])
    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matrix(self, tmp_path, dim, metric, algorithm):
        points = _blob_and_uniform(dim)
        cases = [
            (k, partitioner, workers)
            for k in SHARD_COUNTS
            for partitioner in ("grid", "hilbert")
            for workers in (1, 2)
        ]
        ref = self._assert_identical(
            tmp_path, points, BLOB_EPS[dim], algorithm, metric, cases
        )
        assert ref.stats.early_stops > 0, "the blob must stop early"

    def test_duplicate_points(self, tmp_path):
        rng = np.random.default_rng(8)
        base = rng.random((150, 2))
        points = np.vstack([base, base[:60], base[:20]])
        self._assert_identical(
            tmp_path, points, 0.08, "csj", None,
            [(2, "grid", None), (3, "hilbert", 2), (8, "grid", None)],
        )

    @pytest.mark.parametrize("algorithm", ["csj", "ncsj"])
    def test_eps_above_dataset_diameter(self, tmp_path, algorithm):
        points = np.random.default_rng(4).random((90, 2))
        ref = self._assert_identical(
            tmp_path, points, 2.0, algorithm, None,
            [(2, "grid", None), (8, "hilbert", 2)],
        )
        assert ref.stats.groups_emitted == 1 and ref.stats.links_emitted == 0

    def test_other_indexes_replay_the_default_recipe(self, tmp_path):
        # The per-shard index is an execution knob: the replay always
        # walks the global default-recipe tree.
        points = _blob_and_uniform(2)
        ref = _join_to_file(tmp_path / "unsharded.txt", points, 0.06)
        for index in ("rtree", "mtree"):
            _join_to_file(tmp_path / f"{index}.txt", points, 0.06, shards=3, index=index)
            assert filecmp.cmp(
                str(tmp_path / "unsharded.txt"), str(tmp_path / f"{index}.txt"),
                shallow=False,
            ), index
        assert ref.stats.early_stops > 0


class TestReplayPlan:
    """The compact replay's units and its dropped-link check."""

    def _plan(self, pairs, points, eps):
        return ReplayPlan(pairs, points, get_metric(None), eps)

    def test_group_implied_links_are_dropped_and_counted(self):
        points = _blob_and_uniform(2)
        eps = BLOB_EPS[2]
        pairs = np.array(sorted(brute_force_links(points, eps)), dtype=np.int64)
        plan = self._plan(pairs, points, eps)
        assert plan.group_tasks
        assert len(plan.links) < len(pairs)
        assert len(plan) == len(plan.links) + len(plan.group_tasks)
        kept = {tuple(sorted(link)) for link in plan.links.tolist()}
        dropped = [row for row in pairs.tolist() if tuple(row) not in kept]
        # A group-implied link missing, or owned twice: either way the
        # count no longer matches the groups.
        missing = np.array([row for row in pairs.tolist() if row != dropped[0]])
        with pytest.raises(ReproError, match="early-stop groups imply"):
            self._plan(missing, points, eps)
        twice = np.vstack([pairs, [dropped[0]]])
        with pytest.raises(ReproError, match="early-stop groups imply"):
            self._plan(twice, points, eps)

    def test_unpackable_tree_replays_the_node_stream(self, tmp_path, monkeypatch):
        # A tree that does not pack replays its node-object task stream:
        # the same tasks in the same order, so the same bytes.
        import repro.shard.driver as driver

        points = _blob_and_uniform(2)
        eps = BLOB_EPS[2]
        ref = _join_to_file(tmp_path / "unsharded.txt", points, eps)
        monkeypatch.setattr(driver, "pack_index", lambda tree: None)
        got = _join_to_file(tmp_path / "sharded.txt", points, eps, shards=3)
        assert filecmp.cmp(
            str(tmp_path / "unsharded.txt"), str(tmp_path / "sharded.txt"),
            shallow=False,
        )
        assert got.stats.merge_attempts == ref.stats.merge_attempts
        assert ref.stats.early_stops > 0

    def test_empty_and_single_point(self):
        point = np.array([[0.5, 0.5]])
        assert len(self._plan(np.empty((0, 2), dtype=np.int64), point, 0.1)) == 0


class TestCounterIdentity:
    """The repro_join_* metrics are K-invariant (the counter contract)."""

    def _join_counters(self, points, **kwargs):
        reset_registry()
        result = similarity_join(points, 0.06, algorithm="csj", g=10, **kwargs)
        get_registry().record_join_stats(result.stats)
        snapshot = get_registry().snapshot()
        # Wall-clock seconds legitimately vary run to run; every other
        # repro_join_* counter must not.
        return {
            k: v
            for k, v in snapshot.items()
            if k.startswith("repro_join_") and "_seconds_" not in k
        }

    def test_repro_join_metrics_identical_across_k(self, sharded_dataset):
        base = self._join_counters(sharded_dataset, shards=1)
        assert base["repro_join_links_emitted_total"] > 0
        try:
            for k in (2, 3, 8):
                for partitioner in ("grid", "hilbert"):
                    got = self._join_counters(
                        sharded_dataset, shards=k, partitioner=partitioner
                    )
                    assert got == base, (k, partitioner)
        finally:
            reset_registry()

    def test_work_counters_live_in_shard_report_not_stats(self, sharded_dataset):
        reset_registry()
        try:
            result = similarity_join(sharded_dataset, 0.06, shards=4)
            snap = get_registry().snapshot()
        finally:
            reset_registry()
        # Phase-1 tree descent work is K-dependent (halo points are
        # probed in more than one shard) so it is quarantined in the
        # shard report and its own metric series; the canonical stats
        # charge nothing for it.
        assert result.stats.distance_computations == 0
        work = result.shard_report["work"]
        assert work["distance_computations"] > 0
        for name, value in work.items():
            assert snap[f"repro_shard_work_{name}_total"] == value

    def test_shard_metrics_recorded(self, sharded_dataset):
        reset_registry()
        try:
            result = similarity_join(
                sharded_dataset, 0.06, shards=4, partitioner="grid"
            )
            snap = get_registry().snapshot()
            assert snap["repro_shard_plans_total"] == 1
            assert snap["repro_shard_count"] == 4
            assert snap["repro_shard_points"] == len(sharded_dataset)
            assert snap["repro_shard_halo_points"] == result.shard_report["halo_points"]
            assert snap["repro_shard_tasks"] == result.shard_report["tasks"]
            assert snap["repro_shard_skew_ratio"] == pytest.approx(
                result.shard_report["skew_ratio"]
            )
        finally:
            reset_registry()


class TestParityProperty:
    """Hypothesis: parity holds on arbitrary datasets, not just ours."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 120),
        dim=st.integers(1, 3),
        eps=st.floats(0.02, 0.3),
        k=st.sampled_from(SHARD_COUNTS),
        partitioner=st.sampled_from(["grid", "hilbert"]),
        index=st.sampled_from(INDEXES),
        metric=st.sampled_from(["l1", "l2", "linf"]),
        algorithm=st.sampled_from(["csj", "ncsj", "ssj"]),
    )
    def test_random_datasets_byte_identical(
        self, tmp_path_factory, seed, n, dim, eps, k, partitioner, index,
        metric, algorithm,
    ):
        """Compact runs equal the unsharded join; SSJ (replayed in id
        order) equals its own ``shards=1`` run."""
        d = tmp_path_factory.mktemp("shard-prop")
        points = np.random.default_rng(seed).random((n, dim))
        kwargs = dict(algorithm=algorithm, g=10, metric=metric)
        if algorithm == "ssj":
            base = _join_to_file(d / "base.txt", points, eps, index=index,
                                 shards=1, **kwargs)
        else:
            base = _join_to_file(d / "base.txt", points, eps, **kwargs)
        sharded = _join_to_file(d / "sharded.txt", points, eps, index=index,
                                shards=k, partitioner=partitioner, **kwargs)
        assert filecmp.cmp(str(d / "base.txt"), str(d / "sharded.txt"), shallow=False)
        for name in OUTPUT_COUNTERS:
            assert getattr(sharded.stats, name) == getattr(base.stats, name), name
        plain = similarity_join(points, eps, index=index, **kwargs)
        assert sharded.expanded_links() == plain.expanded_links()


def _clustered_2d(n: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    return np.vstack([0.05 + 0.08 * rng.random((n // 2, 2)), rng.random((n - n // 2, 2))])


class TestReplayCoordinates:
    """Phase-2 replay feeds the merge window plain floats; the result must
    equal feeding it the ndarray rows (the same doubles as NumPy scalars)
    in the same replay order."""

    @staticmethod
    def _replay(tmp_path, tag, points, eps, feed):
        pairs = np.array(sorted(brute_force_links(points, eps)), dtype=np.intp)
        path = str(tmp_path / f"{tag}.txt")
        sink = TextSink(path, id_width=width_for(len(points)))
        window = GroupBuffer(10, eps, sink, dim=points.shape[1])
        feed(pairs, sink, window)
        window.flush()
        sink.close()
        with open(path, "rb") as handle:
            data = handle.read()
        stats = sink.stats
        return data, (stats.merge_attempts, stats.mbr_checks, stats.merge_successes)

    @pytest.mark.parametrize(
        "points,eps",
        [(_clustered_2d(500), 0.02), (sierpinski_pyramid(400, seed=3), 0.08)],
        ids=["clustered-2d", "sierpinski-3d"],
    )
    def test_replay_matches_ndarray_row_feed(self, tmp_path, points, eps):
        def ndarray_rows(pairs, sink, window):
            add_link = window.add_link

            def add_rows(i, j, p_i, p_j):
                add_link(i, j, points[i], points[j])

            window.add_link = add_rows
            replay_links(pairs, sink, window, points)

        feeds = {
            "ndarray-rows": ndarray_rows,
            "ndarray": lambda pairs, sink, window: replay_links(
                pairs, sink, window, points
            ),
        }
        runs = {
            name: self._replay(tmp_path, name, points, eps, feed)
            for name, feed in feeds.items()
        }
        reference = runs["ndarray-rows"]
        assert reference[1][2] > 0, "workload must exercise merges"
        for name, run in runs.items():
            assert run == reference, name

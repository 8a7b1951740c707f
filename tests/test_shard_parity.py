"""The shard-parity battery: sharded execution is invisible in the output.

The load-bearing claim of :mod:`repro.shard`: partitioning the dataset
into K ε-replicated spatial shards and joining each shard independently
is an *execution* strategy, not an algorithm change — output bytes and
every canonical output counter are identical for any shard count,
partitioner, index, metric and worker count, and the implied pair set
equals the classic unsharded join's.  This suite proves that over the
full matrix (deterministically) and over random datasets (hypothesis).
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
from repro.geometry.metrics import Chebyshev, Euclidean, Manhattan
from repro.io.writer import width_for
from repro.obs.metrics import get_registry, reset_registry
from repro.shard.driver import replay_links

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
        result = similarity_join(sharded_dataset, 0.06, shards=4)
        # Phase-1 tree descent work is K-dependent (halo points are
        # probed in more than one shard) so it is quarantined in the
        # shard report; the canonical stats charge nothing for it.
        assert result.stats.distance_computations == 0
        assert result.shard_report["work"]["distance_computations"] > 0

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
        algorithm=st.sampled_from(["csj", "ssj"]),
    )
    def test_random_datasets_byte_identical(
        self, tmp_path_factory, seed, n, dim, eps, k, partitioner, index,
        metric, algorithm,
    ):
        d = tmp_path_factory.mktemp("shard-prop")
        points = np.random.default_rng(seed).random((n, dim))
        width = width_for(n)
        kwargs = dict(algorithm=algorithm, g=10, index=index, metric=metric)

        def run(path, **extra):
            sink = TextSink(str(path), id_width=width)
            result = similarity_join(points, eps, sink=sink, **kwargs, **extra)
            sink.close()
            return result

        base = run(d / "base.txt", shards=1)
        sharded = run(d / "sharded.txt", shards=k, partitioner=partitioner)
        assert filecmp.cmp(str(d / "base.txt"), str(d / "sharded.txt"), shallow=False)
        assert sharded.stats.links_emitted == base.stats.links_emitted
        assert sharded.stats.groups_emitted == base.stats.groups_emitted
        assert sharded.stats.bytes_written == base.stats.bytes_written
        plain = similarity_join(points, eps, **kwargs)
        assert sharded.expanded_links() == plain.expanded_links()


def _clustered_2d(n: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    return np.vstack([0.05 + 0.08 * rng.random((n // 2, 2)), rng.random((n - n // 2, 2))])


class TestReplayCoordinates:
    """Phase-2 replay feeds the merge window plain floats; the result must
    equal feeding it the ndarray rows (the same doubles as NumPy scalars)."""

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
            for i, j in pairs.tolist():
                window.add_link(i, j, points[i], points[j])

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

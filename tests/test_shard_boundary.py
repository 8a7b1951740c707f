"""Adversarial shard geometry: borders, halos, skew and degeneracy.

Every case here is built to stress one clause of the sharding contract:
the strict ``< eps`` predicate at an exact-ε border straddle, halos that
swallow entire neighbor shards, plans where all points land in one
shard, shards with no points at all, and duplicate coordinates
replicated into a halo.  In every case the sharded output must be
byte-identical to the ``shards=1`` run and pair-equal to the classic
unsharded join.
"""

import numpy as np
import pytest

from repro.api import similarity_join
from repro.errors import InvalidInputError
from repro.geometry.metrics import get_metric
from repro.shard import ShardPlanner, sharded_join
from repro.shard.planner import grid_shape


class TestBorderStraddle:
    """Points around a shard border, at and just inside the range."""

    # grid_shape(2, 2) splits the unit square into two cells along one
    # axis; the border of a [0,1]^2 bounding box falls at 0.5 on that
    # axis.  Points at 0.45/0.55 are *exactly* eps=0.1 apart.
    def _straddle(self, delta):
        return np.array(
            [
                [0.45, 0.30], [0.55 - delta, 0.30],   # straddling pair
                [0.10, 0.10], [0.12, 0.10],           # deep inside shard 0
                [0.90, 0.90], [0.88, 0.90],           # deep inside shard 1
            ]
        )

    def test_exactly_eps_apart_is_excluded_everywhere(self, parity_check):
        pts = self._straddle(0.0)
        base = parity_check(
            pts, 0.1, cases=[(2, "grid", None), (4, "grid", None)]
        )
        # The strict predicate drops the exact-ε straddle pair in the
        # sharded run just as in the classic one.
        assert (0, 1) not in base.expanded_links()
        assert (2, 3) in base.expanded_links()

    def test_just_under_eps_straddle_is_kept(self, parity_check):
        pts = self._straddle(1e-9)
        base = parity_check(
            pts, 0.1, cases=[(2, "grid", None), (4, "hilbert", None)]
        )
        assert (0, 1) in base.expanded_links()

    def test_straddle_pair_owned_exactly_once(self):
        pts = self._straddle(1e-9)
        result = sharded_join(pts, 0.1, algorithm="ssj", shards=2)
        assert sorted(result.links).count((0, 1)) == 1


class TestDegeneratePlans:
    # The grid spans the data's bounding box, so a lone far outlier
    # stretches it: the tight cluster then falls entirely inside one
    # cell and most shards end up with an empty core.
    def _clustered(self):
        cluster = 0.01 + 0.01 * np.random.default_rng(0).random((39, 2))
        return np.vstack([cluster, [[0.99, 0.99]]])

    def test_all_points_in_one_shard(self, parity_check):
        pts = self._clustered()
        base = parity_check(pts, 0.05, cases=[(8, "grid", None), (8, "hilbert", None)])
        plan = ShardPlanner(8, "grid").plan(pts, 0.05, get_metric(None))
        assert max(plan.core_counts) == 39  # the whole cluster, one shard
        assert base.stats.links_emitted + base.stats.groups_emitted > 0

    def test_empty_shards_stay_in_the_plan(self):
        pts = self._clustered()
        plan = ShardPlanner(8, "grid").plan(pts, 0.05, get_metric(None))
        assert plan.k == 8
        assert len(plan.members) == 8
        empty_cores = int((np.asarray(plan.core_counts) == 0).sum())
        assert empty_cores >= 1
        # Empty-core shards contribute no tasks but keep their slot, so
        # task ids and the canonical order are stable.
        assert sum(plan.core_counts) == len(pts)

    def test_more_shards_than_points(self, parity_check):
        pts = np.array([[0.1, 0.1], [0.15, 0.1], [0.9, 0.9]])
        parity_check(pts, 0.1, cases=[(8, "grid", None), (8, "hilbert", None)])

    def test_eps_larger_than_a_shard_cell(self, parity_check):
        # eps far beyond the unit square's diameter: every point is
        # within range of every core MBR, so each shard's halo is the
        # *entire* rest of the dataset — maximal replication, and the
        # output must still come out byte-identical.
        pts = np.random.default_rng(3).random((60, 2))
        parity_check(pts, 1.5, cases=[(4, "grid", None), (4, "hilbert", None)])
        plan = ShardPlanner(4, "grid").plan(pts, 1.5, get_metric(None))
        for ids in plan.members:
            assert len(ids) == len(pts)  # halo = whole neighbor(s)
        assert plan.halo_points == 3 * len(pts)

    def test_duplicate_coordinates_in_the_halo(self, parity_check):
        # Four identical points sitting right at the border, plus their
        # duplicates' neighbors: replication must not double-report.
        pts = np.array(
            [
                [0.5, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5],
                [0.48, 0.5], [0.52, 0.5],
                [0.1, 0.1], [0.9, 0.9],
            ]
        )
        base = parity_check(
            pts, 0.05, cases=[(2, "grid", None), (4, "grid", None), (8, "hilbert", None)]
        )
        expanded = base.expanded_links()
        # All 4 duplicates pairwise joined (distance 0 < eps), once each.
        for a in range(4):
            for b in range(a + 1, 4):
                assert (a, b) in expanded

    def test_single_point_and_pair(self, parity_check):
        parity_check(np.array([[0.3, 0.3], [0.31, 0.3]]), 0.05,
                     cases=[(2, "grid", None), (8, "hilbert", None)])


class TestPlannerInvariants:
    def test_grid_shape_covers_k_exactly(self):
        for k in (1, 2, 3, 4, 6, 8, 12, 30):
            for dim in (1, 2, 3):
                shape = grid_shape(k, dim)
                assert len(shape) == dim
                assert int(np.prod(shape)) == k

    @pytest.mark.parametrize("partitioner", ["grid", "hilbert"])
    def test_halo_invariant(self, sharded_dataset, partitioner):
        """Every point within eps of a shard's core MBR is a member."""
        eps = 0.07
        metric = get_metric(None)
        plan = ShardPlanner(6, partitioner).plan(sharded_dataset, eps, metric)
        from repro.geometry.mbr import MBR

        for s, ids in enumerate(plan.members):
            core = np.flatnonzero(plan.home == s)
            if len(core) == 0:
                continue
            box = MBR.of_points(sharded_dataset[core])
            near = np.flatnonzero(
                box.min_dist_points(sharded_dataset, metric) <= eps
            )
            assert set(near).issubset(set(ids.tolist()))
            assert set(core).issubset(set(ids.tolist()))

    def test_homes_partition_the_dataset(self, sharded_dataset):
        for partitioner in ("grid", "hilbert"):
            plan = ShardPlanner(5, partitioner).plan(sharded_dataset, 0.06, get_metric(None))
            assert plan.home.shape == (len(sharded_dataset),)
            assert plan.home.min() >= 0 and plan.home.max() < 5
            assert sum(plan.core_counts) == len(sharded_dataset)

    def test_skew_ratio_reported(self, sharded_dataset):
        result = similarity_join(sharded_dataset, 0.06, shards=4)
        report = result.shard_report
        assert report["skew_ratio"] >= 1.0
        assert report["points"] == len(sharded_dataset)
        assert report["halo_points"] == sum(report["halo_counts"])
        assert len(report["core_counts"]) == 4

    def test_invalid_configuration_rejected(self, sharded_dataset):
        with pytest.raises(InvalidInputError):
            similarity_join(sharded_dataset, 0.06, shards=0)
        with pytest.raises(InvalidInputError):
            similarity_join(sharded_dataset, 0.06, shards=2, partitioner="voronoi")
        from repro.index import get_index_class

        tree = get_index_class("rstar")(sharded_dataset[:10])
        with pytest.raises(InvalidInputError):
            similarity_join(sharded_dataset[:10], 0.06, shards=2, index=tree)

    @pytest.mark.parametrize("entry", ["similarity_join", "CheckpointedJoin"])
    def test_entry_points_agree_on_shard_options(self, sharded_dataset, tmp_path, entry):
        """Both entry points reject a fractional shard count and accept a
        partitioner name in any case, with the same output."""
        from repro.resilience.checkpoint import CheckpointedJoin

        def run(partitioner, shards=2):
            if entry == "similarity_join":
                result = similarity_join(
                    sharded_dataset, 0.06, shards=shards, partitioner=partitioner
                )
                return result.links, result.groups
            out = tmp_path / f"{partitioner}.txt"
            CheckpointedJoin(
                sharded_dataset, 0.06, str(out), shards=shards,
                partitioner=partitioner,
            ).run()
            return out.read_bytes()

        with pytest.raises(InvalidInputError):
            run("grid", shards=2.5)
        assert run("Hilbert") == run("hilbert")

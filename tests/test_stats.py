"""Unit tests for repro.stats.counters."""

import time

import pytest

from repro.stats.counters import JoinStats, Timer


class TestJoinStats:
    def test_defaults_zero(self):
        stats = JoinStats()
        assert stats.distance_computations == 0
        assert stats.total_time == 0.0
        assert stats.bytes_written == 0

    def test_addition(self):
        a = JoinStats(distance_computations=5, compute_time=1.0)
        b = JoinStats(distance_computations=3, compute_time=0.5, links_emitted=2)
        c = a + b
        assert c.distance_computations == 8
        assert c.compute_time == 1.5
        assert c.links_emitted == 2
        # Operands untouched.
        assert a.distance_computations == 5

    def test_addition_wrong_type(self):
        with pytest.raises(TypeError):
            JoinStats() + 5

    def test_total_time(self):
        stats = JoinStats(compute_time=1.5, write_time=0.5)
        assert stats.total_time == 2.0

    def test_as_dict_round_trip(self):
        stats = JoinStats(links_emitted=7)
        d = stats.as_dict()
        assert d["links_emitted"] == 7
        assert set(d) >= {"distance_computations", "compute_time", "write_time"}

    def test_as_dict_includes_derived_values(self):
        stats = JoinStats(links_emitted=4, compute_time=1.5, write_time=0.5)
        d = stats.as_dict()
        assert d["total_time"] == 2.0
        assert d["pairs_reported"] == 4

    def test_as_dict_restores_identical_stats(self):
        stats = JoinStats(links_emitted=9, groups_emitted=3, compute_time=0.25)
        d = stats.as_dict()
        restored = JoinStats()
        from dataclasses import fields

        for f in fields(JoinStats):
            setattr(restored, f.name, d[f.name])
        assert restored == stats
        assert restored.as_dict() == d

    def test_reset(self):
        stats = JoinStats(links_emitted=7, compute_time=1.0)
        stats.reset()
        assert stats.links_emitted == 0
        assert stats.compute_time == 0.0

    def test_reset_preserves_declared_types(self):
        # Regression: under `from __future__ import annotations` field
        # types are strings, so a `f.type is int` check silently reset
        # int counters to 0.0 and they accumulated as floats thereafter.
        stats = JoinStats(links_emitted=7, compute_time=1.0)
        stats.reset()
        from dataclasses import fields

        for f in fields(JoinStats):
            value = getattr(stats, f.name)
            assert type(value) is type(f.default), f.name
        assert type(stats.links_emitted) is int
        assert type(stats.compute_time) is float
        stats.links_emitted += 5
        assert type(stats.links_emitted) is int

    def test_add_preserves_declared_types(self):
        a = JoinStats(links_emitted=2, compute_time=0.5)
        b = JoinStats(links_emitted=3, compute_time=0.25)
        c = a + b
        assert type(c.links_emitted) is int
        assert type(c.distance_computations) is int
        assert type(c.compute_time) is float

    def test_reset_then_add_stays_int(self):
        a = JoinStats(links_emitted=2)
        a.reset()
        a.links_emitted = 4
        c = a + JoinStats(links_emitted=1)
        assert c.links_emitted == 5
        assert type(c.links_emitted) is int

    def test_pairs_reported(self):
        assert JoinStats(links_emitted=4).pairs_reported == 4
        stats = JoinStats(links_emitted=4, group_links_implied=6)
        assert stats.pairs_reported == 10

    def test_pairs_reported_counts_group_lines(self):
        # Clustered points make CSJ emit many groups: the headline count
        # must cover every link a group line stands for, not only the
        # individually written links.
        from repro.api import similarity_join
        from repro.datasets.synthetic import gaussian_clusters

        pts = gaussian_clusters(600, seed=3, n_clusters=5)
        result = similarity_join(pts, 0.03, algorithm="csj", g=10)
        implied = sum(len(g) * (len(g) - 1) // 2 for g in result.groups)
        assert result.groups and implied > 0
        assert result.stats.pairs_reported == len(result.links) + implied
        assert result.stats.pairs_reported >= len(result.expanded_links())

    def test_pairs_reported_counts_group_pairs(self):
        from repro.core.dual import compact_spatial_join
        from repro.datasets.synthetic import gaussian_clusters
        from repro.index.bulk import bulk_load

        tree_a = bulk_load(gaussian_clusters(200, seed=1, n_clusters=3), max_entries=8)
        tree_b = bulk_load(gaussian_clusters(200, seed=1, n_clusters=3), max_entries=8)
        result = compact_spatial_join(tree_a, tree_b, 0.04, g=10)
        implied = sum(len(a) * len(b) for a, b in result.group_pairs)
        assert result.group_pairs and implied > 0
        assert result.stats.pairs_reported == len(result.links) + implied


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        first = timer.elapsed
        assert first >= 0.009
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.elapsed == 0.0

    def test_nested_entry_counts_outer_interval_once(self):
        # Regression: re-entrant __enter__ used to clobber _start, so the
        # outer interval before the inner block was silently dropped and
        # the inner region was double-counted.
        timer = Timer()
        with timer:
            time.sleep(0.02)
            with timer:
                time.sleep(0.01)
            time.sleep(0.02)
        # Exactly one wall-clock interval of ~0.05s, not ~0.01-0.03s.
        assert timer.elapsed >= 0.045
        assert timer.elapsed < 0.5

    def test_nested_exit_restores_reentrancy(self):
        timer = Timer()
        with timer:
            with timer:
                pass
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= first + 0.009

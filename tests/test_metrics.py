"""Unit tests for repro.geometry.metrics."""

import numpy as np
import pytest

from repro.geometry.metrics import (
    Chebyshev,
    Euclidean,
    Manhattan,
    Metric,
    Minkowski,
    get_metric,
)


class TestGetMetric:
    def test_default_is_euclidean(self):
        assert get_metric(None).name == "euclidean"

    @pytest.mark.parametrize(
        "spec,name",
        [
            ("euclidean", "euclidean"),
            ("l2", "euclidean"),
            ("L1", "manhattan"),
            ("cityblock", "manhattan"),
            ("linf", "chebyshev"),
            ("Chebyshev", "chebyshev"),
            (1, "manhattan"),
            (2, "euclidean"),
            (3, "minkowski-3"),
            (2.5, "minkowski-2.5"),
            (float("inf"), "chebyshev"),
        ],
    )
    def test_specs(self, spec, name):
        assert get_metric(spec).name == name

    def test_passthrough(self):
        m = Euclidean()
        assert get_metric(m) is m

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("hamming")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            get_metric(object())

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Minkowski(0.5)

    def test_infinite_order_rejected(self):
        with pytest.raises(ValueError, match="Chebyshev"):
            Minkowski(float("inf"))


class TestDistances:
    def test_euclidean_345(self):
        assert get_metric("euclidean").distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert get_metric("l1").distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert get_metric("linf").distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_three(self):
        expected = (3**3 + 4**3) ** (1 / 3)
        assert get_metric(3).distance([0, 0], [3, 4]) == pytest.approx(expected)

    def test_identity(self, metric):
        p = np.array([0.3, 0.7])
        assert metric.distance(p, p) == 0.0

    def test_symmetry(self, metric, rng):
        a, b = rng.random(3), rng.random(3)
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))

    def test_triangle_inequality(self, metric, rng):
        for _ in range(20):
            a, b, c = rng.random(4), rng.random(4), rng.random(4)
            assert metric.distance(a, c) <= (
                metric.distance(a, b) + metric.distance(b, c) + 1e-12
            )


class TestVectorised:
    def test_pairwise_shape(self, metric, rng):
        a, b = rng.random((7, 2)), rng.random((5, 2))
        assert metric.pairwise(a, b).shape == (7, 5)

    def test_pairwise_matches_scalar(self, metric, rng):
        a, b = rng.random((4, 3)), rng.random((6, 3))
        mat = metric.pairwise(a, b)
        for i in range(4):
            for j in range(6):
                assert mat[i, j] == pytest.approx(metric.distance(a[i], b[j]))

    def test_self_pairwise_symmetric_zero_diag(self, metric, rng):
        pts = rng.random((10, 2))
        mat = metric.self_pairwise(pts)
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 0.0)

    def test_point_to_points(self, metric, rng):
        p = rng.random(2)
        pts = rng.random((8, 2))
        dists = metric.point_to_points(p, pts)
        for j in range(8):
            assert dists[j] == pytest.approx(metric.distance(p, pts[j]))

    def test_norm_seq_matches_norm(self, metric, rng):
        v = rng.random(3) - 0.5
        assert metric.norm_seq(v.tolist()) == pytest.approx(metric.norm(v))

    def test_batched_norm_bit_identical_to_single(self, metric, rng):
        # Batched pruning and per-pair bounds must decide on the very
        # same float, wherever a row sits in the batch.
        diffs = rng.random((2000, 3)) * 10.0 - 5.0
        batched = metric.norm_rows(diffs)
        single = [metric.norm(row) for row in diffs]
        assert batched.tobytes() == np.array(single).tobytes()
        seq = [metric.norm_seq(row.tolist()) for row in diffs]
        assert batched.tobytes() == np.array(seq).tobytes()


class TestEquality:
    def test_same_name_equal(self):
        assert Euclidean() == Minkowski(2) or Euclidean().name != Minkowski(2).name
        assert Euclidean() == Euclidean()
        assert hash(Manhattan()) == hash(Manhattan())

    def test_different_metrics_unequal(self):
        assert Euclidean() != Manhattan()
        assert Chebyshev() != Minkowski(3)

    def test_base_metric_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Metric().norm_rows(np.zeros(2))

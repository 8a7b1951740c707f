"""Shared fixtures for the test suite."""

from __future__ import annotations

import filecmp
import os

import numpy as np
import pytest

from repro.geometry.metrics import Chebyshev, Euclidean, Manhattan, Minkowski


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def sharded_dataset() -> np.ndarray:
    """The canonical dataset of the shard-parity battery (and the
    parallel determinism matrix — same workload, same guarantees).

    ``REPRO_SHARD_SEED`` reseeds it, which is how the CI shard-parity
    job sweeps several datasets without touching the test code.
    """
    seed = int(os.environ.get("REPRO_SHARD_SEED", "5"))
    return np.random.default_rng(seed).random((300, 2))


@pytest.fixture
def parity_check(tmp_path):
    """Callable asserting the sharded-execution contract for one config.

    ``parity_check(points, eps, cases=[(K, partitioner, workers), ...])``
    runs the ``shards=1`` baseline of the pipeline plus every requested
    case, writing each to a fixed-width text file, and asserts:

    * output files are **byte-identical** across every case;
    * the canonical output counters (links, groups, members, bytes,
      merges, pairs) are identical across every case;
    * the implied pair set equals the classic *unsharded* join's;
    * for ``csj``/``ncsj``, the file and those counters equal the
      unsharded join's with the default index recipe.

    Returns the baseline :class:`~repro.core.results.JoinResult`.
    """
    from repro.api import similarity_join
    from repro.core.results import TextSink
    from repro.io.writer import width_for

    counter_names = (
        "links_emitted",
        "groups_emitted",
        "group_members_emitted",
        "group_links_implied",
        "bytes_written",
        "merge_attempts",
        "merge_successes",
        "pairs_reported",
    )

    def check(
        points,
        eps,
        algorithm="csj",
        g=10,
        index="rstar",
        metric=None,
        cases=((2, "grid", None), (3, "hilbert", None), (8, "grid", 2)),
    ):
        kwargs = dict(algorithm=algorithm, g=g, index=index, metric=metric)
        width = width_for(len(points))

        def run_to_file(path, **extra):
            sink = TextSink(str(path), id_width=width)
            result = similarity_join(points, eps, sink=sink, **kwargs, **extra)
            sink.close()
            return result

        base_path = tmp_path / "parity-base.txt"
        base = run_to_file(base_path, shards=1)
        plain = similarity_join(points, eps, **kwargs)
        assert base.expanded_links() == plain.expanded_links(), (
            "sharded pipeline changed the implied pair set"
        )
        if algorithm in ("csj", "ncsj"):
            ref_path = tmp_path / "parity-unsharded.txt"
            sink = TextSink(str(ref_path), id_width=width)
            ref = similarity_join(
                points, eps, algorithm=algorithm, g=g, metric=metric, sink=sink
            )
            sink.close()
            assert filecmp.cmp(str(ref_path), str(base_path), shallow=False), (
                "sharded compact output differs from the unsharded join"
            )
            for name in counter_names:
                assert getattr(base.stats, name) == getattr(ref.stats, name), name
        for case_no, (k, partitioner, workers) in enumerate(cases):
            path = tmp_path / f"parity-{case_no}.txt"
            result = run_to_file(
                path, shards=k, partitioner=partitioner, workers=workers
            )
            label = f"shards={k} partitioner={partitioner} workers={workers}"
            assert filecmp.cmp(str(base_path), str(path), shallow=False), (
                f"output bytes diverged at {label}"
            )
            for name in counter_names:
                assert getattr(result.stats, name) == getattr(base.stats, name), (
                    f"counter {name} diverged at {label}"
                )
            assert result.shard_report["shards"] == k
        return base

    return check


@pytest.fixture
def uniform_2d(rng) -> np.ndarray:
    """500 uniform points in the unit square."""
    return rng.random((500, 2))


@pytest.fixture
def uniform_3d(rng) -> np.ndarray:
    """400 uniform points in the unit cube."""
    return rng.random((400, 3))


@pytest.fixture
def clustered_2d(rng) -> np.ndarray:
    """600 points in 6 tight clusters — the output-explosion workload."""
    centers = rng.random((6, 2))
    choice = rng.integers(0, 6, size=600)
    return np.clip(centers[choice] + rng.normal(scale=0.01, size=(600, 2)), 0, 1)


ALL_METRICS = [Euclidean(), Manhattan(), Chebyshev(), Minkowski(3)]


@pytest.fixture(params=ALL_METRICS, ids=[m.name for m in ALL_METRICS])
def metric(request):
    return request.param

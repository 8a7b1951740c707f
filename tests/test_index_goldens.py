"""Structure goldens for insert-loaded R-trees and R*-trees.

Every downstream artefact — join output, cache keys, maintained results —
depends on the exact shape of the dynamic trees, so the insertion
heuristics must build *bit-identical* trees whatever their internal
formulation.  Each case below is pinned by a SHA-256 digest over the
tree's pre-order traversal (level, fanout, MBR corner bytes, leaf entry
ids, children in stored order).  A digest change means the heuristics
now pick a different child or split, not merely that they got faster.

The hypothesis tests at the bottom compare the vectorised R*
ChooseSubtree (leaf level) and split partition against straightforward
reference formulations kept here verbatim: one ``lexsort`` over the full
O(k^2) overlap computation, and one ``MBR`` cover per candidate
distribution.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.sierpinski import sierpinski_pyramid
from repro.datasets.synthetic import gaussian_clusters, uniform_points
from repro.geometry.mbr import MBR
from repro.geometry.metrics import get_metric
from repro.index.rstar import RStarTree, least_overlap_child
from repro.index.rtree import RTree, least_enlargement_child


def structure_digest(tree) -> str:
    """SHA-256 over the pre-order traversal of ``tree``."""
    h = hashlib.sha256()
    stack = [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        h.update(struct.pack("<qq", node.level, node.fanout))
        if node.mbr is not None:
            h.update(node.mbr.lo.tobytes())
            h.update(node.mbr.hi.tobytes())
        if node.is_leaf:
            h.update(np.asarray(node.entry_ids, dtype=np.int64).tobytes())
        else:
            stack.extend(reversed(node.children))
    return h.hexdigest()


def degenerate_2d(n: int = 480, seed: int = 4) -> np.ndarray:
    """Duplicate- and collinear-heavy points: a 5x5 lattice with many
    repeats, a diagonal line and a vertical line (zero-width boxes),
    interleaved so all three mix in every node."""
    rng = np.random.default_rng(seed)
    k = n // 3
    lattice = rng.integers(0, 5, size=(k, 2)) / 4.0
    t = rng.integers(0, 40, size=k) / 39.0
    diagonal = np.stack([t, 0.25 + 0.5 * t], axis=1)
    vertical = np.stack([np.full(k, 0.5), rng.integers(0, 60, size=k) / 59.0], axis=1)
    pts = np.empty((3 * k, 2))
    pts[0::3], pts[1::3], pts[2::3] = lattice, diagonal, vertical
    return pts


DATASETS = {
    "clustered2d": lambda: gaussian_clusters(500, seed=1, dim=2, n_clusters=6),
    "uniform2d": lambda: uniform_points(500, seed=2),
    "sierpinski3d": lambda: sierpinski_pyramid(500, seed=3),
    "degenerate2d": degenerate_2d,
}


def churned(cls, **kwargs):
    """A tree after an insert/delete churn sequence (CondenseTree reinserts,
    free-slot reuse, and appended points)."""
    pts = gaussian_clusters(300, seed=5, dim=2, n_clusters=4)
    tree = cls(pts, max_entries=6, **kwargs)
    rng = np.random.default_rng(6)
    for step in range(240):
        if step % 3 == 2:
            tree.add_point(rng.random(2))
        else:
            tree.delete(int(rng.integers(0, len(tree.points))))
    tree.validate()
    return tree


# Recorded from the per-child MBR implementations these heuristics
# replaced; see the module docstring.
RSTAR_GOLDENS = {
    ("clustered2d", 6):
        "dec0a517a7325b4dd27a3639a940d4928210bc377ca91cb076a7554ec1067cf4",
    ("clustered2d", 16):
        "3eded373b24aefffb81a21892f7af89e95b31c339783e4a7762405b77c3f8d65",
    ("clustered2d", 64):
        "c93bb4149e18918c03ea781eca4b70c1299376c2d52cd1304c7f4e67c65ec79e",
    ("uniform2d", 6):
        "2f9cdc4bfc6ed49340af95b07fecbfa4a0a3f19195b317630c83ba82216f6878",
    ("uniform2d", 16):
        "49c9cc3fb2daf81a671780bb8a12306541a32538a90eb91777beaeb78fdbd3f2",
    ("uniform2d", 64):
        "78b191bff6d04370c5c224cc2036b0703c012b099578574499a4a4b992fd1e71",
    ("sierpinski3d", 6):
        "caf8ac1e5fe03ae502f1094a434994ab2eb1029d86875dfb8970bd9c166acaec",
    ("sierpinski3d", 16):
        "7ce112f06d96fd647e71b4e987e4b7f528d09e9a16fd996366a6c71ed472e6fd",
    ("sierpinski3d", 64):
        "d3811ca9300a40b4e83c8e4b54ca06ee192dd1570e80b6626038949b09eb47a5",
    ("degenerate2d", 6):
        "02d89421ea3e99b601e54191b30090a54bbac3fc1b59d99a0e00dd7fcd768ec4",
    ("degenerate2d", 16):
        "f5c9a5aec789ad356724b57b9bdfe88ecae7076bcba768557b93d8462cbda286",
    ("degenerate2d", 64):
        "93b6c6a75c08a64c19d5d4a7e68ac0962e314099d541bf537ce7930dc75114fe",
}
RSTAR_UNIFORM_10D = (
    "e49cf081bfc19df32a0cab51ad3725d7a9a8863452dba1d0ff2f48b600dd39c7"
)
RSTAR_MANHATTAN = (
    "39b838e0b3ec741719a1c3c13f55368cd531a5ff173f9f6ff4c5670443d9da59"
)
RSTAR_CHURN = (
    "e47eb3965ffef33ded70f66af2ba6c824a641bdcec062d93e7d6c3e301ab606f"
)

RTREE_GOLDENS = {
    ("clustered2d", 6, "quadratic"):
        "72f7fd6eece22a2f8531dc95a959c38e1ef3ce2b1ec9c53b828e246602d9f6e3",
    ("clustered2d", 16, "quadratic"):
        "d877275d9b30f43c2f8941b2ba3182411a425fe01652ed969a93c54a3a798f90",
    ("clustered2d", 64, "quadratic"):
        "2c89bc221abbb088e2ea5296a8af8fd74f2ce9ecda6d66d33e6ed6066ab8302a",
    ("uniform2d", 6, "quadratic"):
        "6ed4c935fb0e41bfc7ea478d411c95d07bcd41b1426b7e6c2db9c4c5dfbf4d37",
    ("uniform2d", 16, "quadratic"):
        "615d6bf6da534698dea27278061b986ae6b4c11067278bf632ecf8815ebf7782",
    ("uniform2d", 64, "quadratic"):
        "a5c98e539fbb4c9a10db870810ed953fbdb6180e670ca303f06d62224822f6fd",
    ("sierpinski3d", 6, "quadratic"):
        "fb4e90594e6c5b67f199daf9cbe928814e9ff034de8c4aea33c9aa23efbffc07",
    ("sierpinski3d", 16, "quadratic"):
        "d598dcdd9505f9f35932a88084b825adb9a03e71d368279d347981b0f2152403",
    ("sierpinski3d", 64, "quadratic"):
        "f9070333dab93558e2a5171752c1bc2b426c2627a524fb88c0f05c3da4bd9a81",
    ("degenerate2d", 6, "quadratic"):
        "dd882c49040141de9193ad0929d9ba97483a07fbe92382c98eaeab2cb6f7fbb7",
    ("degenerate2d", 16, "quadratic"):
        "1a9e70245266c2d507fdc842cfd110292d3628df2994033f221e72260777f750",
    ("degenerate2d", 64, "quadratic"):
        "5bb06cc85877f367b3cdb56dd79195764336a1c0af4a609200da724328d0b8e4",
    ("clustered2d", 6, "linear"):
        "96e2875061516986dcbd8850b56e4f8ecae020781a4d7f98b01c7e692c0c98ed",
    ("sierpinski3d", 6, "linear"):
        "69a069305f414e77139b2ec384b14d100e0a433d017e2a36de272992d3623fd9",
    ("degenerate2d", 6, "linear"):
        "cb7f6e12cf792afa7208af0df45bd1de3629abc80fd3ef839570244eff2468c3",
}
RTREE_CHURN = (
    "bf90bcfc75f4bda88034ef8845d12fd23557b4655e411db3c50fc1e439b5a5a3"
)


class TestRStarGoldens:
    @pytest.mark.parametrize("dataset,capacity", sorted(RSTAR_GOLDENS))
    def test_insert_loaded(self, dataset, capacity):
        tree = RStarTree(DATASETS[dataset](), max_entries=capacity)
        assert structure_digest(tree) == RSTAR_GOLDENS[dataset, capacity]

    def test_ten_dimensional(self):
        tree = RStarTree(uniform_points(400, seed=7, dim=10), max_entries=16)
        assert structure_digest(tree) == RSTAR_UNIFORM_10D

    def test_manhattan_forced_reinsert(self):
        # Forced reinsertion ranks entries by metric distance to the
        # node centre, so a non-Euclidean metric takes its own path.
        tree = RStarTree(
            DATASETS["clustered2d"](), metric="manhattan", max_entries=6,
            shuffle_seed=8,
        )
        assert structure_digest(tree) == RSTAR_MANHATTAN

    def test_churn(self):
        assert structure_digest(churned(RStarTree)) == RSTAR_CHURN


class TestRTreeGoldens:
    @pytest.mark.parametrize("dataset,capacity,split", sorted(RTREE_GOLDENS))
    def test_insert_loaded(self, dataset, capacity, split):
        tree = RTree(DATASETS[dataset](), max_entries=capacity, split=split)
        assert structure_digest(tree) == RTREE_GOLDENS[dataset, capacity, split]

    def test_churn(self):
        assert structure_digest(churned(RTree)) == RTREE_CHURN


# ---------------------------------------------------------------------------
# Vectorised heuristics vs per-child / per-distribution references
# ---------------------------------------------------------------------------


def reference_least_overlap_child(lows, highs, lo, hi) -> int:
    """Leaf-level R* ChooseSubtree as one lexsort over the O(k^2) keys."""
    new_lo = np.minimum(lows, lo)
    new_hi = np.maximum(highs, hi)
    areas = np.prod(highs - lows, axis=1)
    enlarged_areas = np.prod(new_hi - new_lo, axis=1)

    def overlap_sums(cand_lo, cand_hi):
        inter_lo = np.maximum(cand_lo[:, None, :], lows[None, :, :])
        inter_hi = np.minimum(cand_hi[:, None, :], highs[None, :, :])
        overlap = np.prod(np.maximum(0.0, inter_hi - inter_lo), axis=2)
        np.fill_diagonal(overlap, 0.0)
        return overlap.sum(axis=1)

    delta_overlap = overlap_sums(new_lo, new_hi) - overlap_sums(lows, highs)
    order = np.lexsort((areas, enlarged_areas - areas, delta_overlap))
    return int(order[0])


def reference_least_enlargement_child(mbrs, add: MBR) -> int:
    """Guttman ChooseLeaf / R* internal levels, one MBR per child."""
    best, best_key = None, None
    for i, mbr in enumerate(mbrs):
        key = (mbr.union(add).area() - mbr.area(), mbr.area())
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def reference_rstar_partition(mbrs, m: int):
    """R* split with one MBR cover per candidate distribution."""
    n = len(mbrs)
    dim = mbrs[0].dim
    lows = np.array([r.lo for r in mbrs])
    highs = np.array([r.hi for r in mbrs])

    def distributions(order):
        for k in range(m, n - m + 1):
            yield [int(i) for i in order[:k]], [int(i) for i in order[k:]]

    def cover(idx):
        return MBR(lows[idx].min(axis=0), highs[idx].max(axis=0))

    best_axis, best_margin, axis_orders = 0, np.inf, None
    for axis in range(dim):
        orders = (
            np.lexsort((highs[:, axis], lows[:, axis])),
            np.lexsort((lows[:, axis], highs[:, axis])),
        )
        margin_sum = 0.0
        for order in orders:
            for left, right in distributions(order):
                margin_sum += cover(left).margin() + cover(right).margin()
        if margin_sum < best_margin:
            best_axis, best_margin, axis_orders = axis, margin_sum, orders

    best_key, best_split = None, None
    for order in axis_orders:
        for left, right in distributions(order):
            box_l, box_r = cover(left), cover(right)
            key = (box_l.overlap_area(box_r), box_l.area() + box_r.area())
            if best_key is None or key < best_key:
                best_key, best_split = key, (left, right)
    return best_split


#: Lattice values make ties, shared edges, nested and zero-width boxes
#: common; 1e200 makes areas overflow, which must take the full path.
COORD = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 1.0, allow_nan=False),
    st.just(1e200),
)


@st.composite
def box_sets(draw, min_boxes=2, max_boxes=14):
    dim = draw(st.integers(1, 12))
    k = draw(st.integers(min_boxes, max_boxes))
    a = np.array(draw(st.lists(COORD, min_size=k * dim, max_size=k * dim)))
    b = np.array(draw(st.lists(COORD, min_size=k * dim, max_size=k * dim)))
    a, b = a.reshape(k, dim), b.reshape(k, dim)
    return np.minimum(a, b), np.maximum(a, b)


@st.composite
def box_sets_and_entry(draw):
    """Child boxes plus a new entry box: free, a copy of a child (nested),
    a child's corner point, or a point on a child's edge."""
    lows, highs = draw(box_sets())
    dim = lows.shape[1]
    i = draw(st.integers(0, len(lows) - 1))
    kind = draw(st.sampled_from(["free", "copy", "corner", "edge", "point"]))
    if kind == "copy":
        lo, hi = lows[i].copy(), highs[i].copy()
    elif kind == "corner":
        lo = hi = lows[i].copy()
    elif kind == "edge":
        mask = np.array(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
        lo = hi = np.where(mask, lows[i], highs[i])
    else:
        a = np.array(draw(st.lists(COORD, min_size=dim, max_size=dim)))
        b = a if kind == "point" else np.array(
            draw(st.lists(COORD, min_size=dim, max_size=dim))
        )
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lows, highs, lo, hi


class TestVectorisedHeuristics:
    @settings(max_examples=200, deadline=None)
    @given(box_sets_and_entry())
    def test_least_overlap_child_matches_reference(self, case):
        lows, highs, lo, hi = case
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_least_overlap_child(lows, highs, lo, hi)
            assert least_overlap_child(lows, highs, lo, hi) == expected

    @settings(max_examples=200, deadline=None)
    @given(box_sets_and_entry())
    def test_least_enlargement_child_matches_reference(self, case):
        lows, highs, lo, hi = case
        mbrs = [MBR(a, b) for a, b in zip(lows, highs)]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_least_enlargement_child(mbrs, MBR(lo, hi))
            assert least_enlargement_child(lows, highs, lo, hi) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 16), st.data())
    def test_rstar_partition_matches_reference(self, capacity, data):
        lows, highs = data.draw(box_sets(capacity + 1, capacity + 1))
        tree = RStarTree(np.empty((0, lows.shape[1])), max_entries=capacity)
        mbrs = [MBR(a, b) for a, b in zip(lows, highs)]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_rstar_partition(mbrs, tree.min_entries)
            assert tree._rstar_partition(lows, highs) == expected

    @settings(max_examples=100, deadline=None)
    @given(box_sets(), st.sampled_from(["euclidean", "manhattan", "chebyshev", 3]))
    def test_batched_reinsert_distances_match_per_entry_norms(self, boxes, spec):
        # Forced reinsertion ranks entries by one norm_rows call over the
        # centre offsets instead of one norm per entry.
        lows, highs = boxes
        metric = get_metric(spec)
        center = MBR(lows.min(axis=0), highs.max(axis=0)).center
        with np.errstate(over="ignore", invalid="ignore"):
            batched = metric.norm_rows((lows + highs) / 2.0 - center)
            per_entry = [
                metric.norm(MBR(a, b).center - center) for a, b in zip(lows, highs)
            ]
        assert batched.tobytes() == np.array(per_entry).tobytes()

"""Bulk loading for the R-tree family: STR, Hilbert packing, and OMT.

The paper notes (Section VII) that without a pre-existing index one must
build a tree before running the join, and that bulk-loading algorithms
[22, 23, 24] make this fast.  Three classic algorithms are provided:

* **STR** (Sort-Tile-Recursive, Garcia/Lopez/Leutenegger [22]): recursively
  tile the data set into vertical slabs per dimension;
* **Hilbert packing**: sort points along the Hilbert curve and cut the
  order into consecutive leaves (Kamel & Faloutsos style packing);
* **OMT** (Overlap-Minimising Top-down, Lee & Lee [24]): top-down
  partitioning that fills the root first, producing well-shaped trees even
  when the point count is far from a power of the fanout.

All three produce :class:`~repro.index.rtree.RectNode` hierarchies wrapped
in the requested tree class, so the joins and queries are oblivious to how
the tree was built.  Packed trees remain fully dynamic — later inserts and
deletes use the wrapper class's own heuristics.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.geometry.curves import hilbert_sort, morton_sort
from repro.geometry.mbr import MBR
from repro.index.rstar import RStarTree
from repro.index.rtree import RectNode, RTree
from repro.obs.tracing import span as trace_span

__all__ = ["str_pack", "hilbert_pack", "omt_pack", "bulk_load"]


def _leaf_of(ids: np.ndarray, points: np.ndarray) -> RectNode:
    node = RectNode(level=0, mbr=MBR.of_points(points[ids]))
    node.entry_ids = [int(i) for i in ids]
    return node


def _even_chunks(ids: np.ndarray, max_size: int) -> list[np.ndarray]:
    """Split ``ids`` into near-equal consecutive chunks of at most
    ``max_size`` elements.  Even sizing (rather than greedy full chunks)
    keeps every chunk at least half full, which preserves the trees'
    minimum-fill invariant."""
    n_chunks = max(1, math.ceil(len(ids) / max_size))
    return [c for c in np.array_split(ids, n_chunks) if len(c)]


def _pack_upward(nodes: list[RectNode], fanout: int) -> RectNode:
    """Stack consecutive runs of nodes into parents until one root remains.

    Consecutive order is whatever the caller arranged, so spatial locality
    of the input order is preserved level by level.  Parents are evenly
    sized so no node falls below half fill."""
    level = nodes[0].level
    while len(nodes) > 1:
        level += 1
        parents = []
        for chunk_idx in _even_chunks(np.arange(len(nodes)), fanout):
            chunk = [nodes[i] for i in chunk_idx]
            parent = RectNode(level=level, mbr=MBR.of_mbrs(c.mbr for c in chunk))
            parent.children = chunk
            parents.append(parent)
        nodes = parents
    return nodes[0]


def str_pack(points: np.ndarray, leaf_capacity: int = 64, fanout: int = 64) -> RectNode:
    """Sort-Tile-Recursive packing; returns the root node.

    Points are tiled into ``n / capacity`` leaves using ``d`` rounds of
    sorting: slice the set into slabs along axis 0, slice each slab along
    axis 1, and so on, so each leaf covers a near-square tile.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape

    def tile(ids: np.ndarray, axis: int) -> list[np.ndarray]:
        order = ids[np.argsort(pts[ids, axis], kind="stable")]
        if axis == dim - 1:
            return _even_chunks(order, leaf_capacity)
        leaves_here = math.ceil(len(ids) / leaf_capacity)
        # Number of slabs along this axis: the (d - axis)-th root of the
        # remaining leaf count, per the STR recurrence.
        slabs = max(1, math.ceil(leaves_here ** (1.0 / (dim - axis))))
        out: list[np.ndarray] = []
        for slab in np.array_split(order, slabs):
            if len(slab):
                out.extend(tile(slab, axis + 1))
        return out

    leaf_ids = tile(np.arange(n), axis=0)
    leaves = [_leaf_of(ids, pts) for ids in leaf_ids if len(ids)]
    return _pack_upward(leaves, fanout)


def hilbert_pack(
    points: np.ndarray,
    leaf_capacity: int = 64,
    fanout: int = 64,
    bits: int = 16,
    curve: str = "hilbert",
) -> RectNode:
    """Hilbert (or Z-order) packed tree; returns the root node."""
    pts = np.asarray(points, dtype=float)
    if curve == "hilbert":
        order = hilbert_sort(pts, bits=bits)
    elif curve in ("morton", "zorder", "z-order"):
        order = morton_sort(pts, bits=bits)
    else:
        raise ValueError(f"unknown curve {curve!r}; use 'hilbert' or 'morton'")
    leaves = [_leaf_of(chunk, pts) for chunk in _even_chunks(order, leaf_capacity)]
    return _pack_upward(leaves, fanout)


def omt_pack(points: np.ndarray, leaf_capacity: int = 64, fanout: int = 64) -> RectNode:
    """Overlap-Minimising Top-down packing [24]; returns the root node.

    The height is fixed up front from the leaf count; at every internal
    node the points are striped into near-square tiles (alternating the
    sort axis with recursion depth) so that each child receives a
    near-equal, spatially coherent share.  Top-down filling keeps every
    node at least half full even when the point count is far from a power
    of the fanout.
    """
    pts = np.asarray(points, dtype=float)
    n, dim = pts.shape
    n_leaves = max(1, math.ceil(n / leaf_capacity))
    height = 1 + (0 if n_leaves == 1 else math.ceil(math.log(n_leaves) / math.log(fanout)))

    def stripe(ids: np.ndarray, k: int, axis: int) -> list[np.ndarray]:
        """Partition ``ids`` into ``k`` near-equal, tile-shaped groups.

        Group sizes follow ``np.array_split`` semantics (they differ by at
        most one), which bounds every group by ``ceil(len / k)`` and hence
        keeps subtree and leaf capacities exact.
        """
        if k == 1:
            return [ids]
        order = ids[np.argsort(pts[ids, axis], kind="stable")]
        sizes = [len(part) for part in np.array_split(np.arange(len(order)), k)]
        slabs = min(k, max(2, math.ceil(k ** (1.0 / dim))))
        counts = [len(part) for part in np.array_split(np.arange(k), slabs)]
        out: list[np.ndarray] = []
        pos = 0
        group_pos = 0
        for count in counts:
            take = sum(sizes[group_pos:group_pos + count])
            out.extend(stripe(order[pos:pos + take], count, (axis + 1) % dim))
            pos += take
            group_pos += count
        return out

    def build(ids: np.ndarray, level: int, axis: int) -> RectNode:
        if level == 0:
            return _leaf_of(ids, pts)
        sub_capacity = leaf_capacity * fanout ** (level - 1)
        k = max(1, math.ceil(len(ids) / sub_capacity))
        children = [
            build(group, level - 1, (axis + 1) % dim)
            for group in stripe(ids, k, axis)
            if len(group)
        ]
        node = RectNode(level=level, mbr=MBR.of_mbrs(c.mbr for c in children))
        node.children = children
        return node

    root = build(np.arange(n), height - 1, axis=0)
    # Collapse single-child chains at the top (possible for tiny inputs).
    while not root.is_leaf and len(root.children) == 1:
        root = root.children[0]
    return root


_PACKERS = {"str": str_pack, "hilbert": hilbert_pack, "omt": omt_pack}


def bulk_load(
    points: np.ndarray,
    method: str = "str",
    tree_class: Union[str, type] = RStarTree,
    metric: object = None,
    max_entries: int = 64,
    min_fill: float = 0.4,
    **packer_kwargs: object,
) -> RTree:
    """Bulk load ``points`` into an R-tree-family index.

    ``method`` is ``"str"``, ``"hilbert"`` or ``"omt"``; ``tree_class`` is
    the wrapper class (or its name) determining later dynamic behaviour.

    >>> import numpy as np
    >>> tree = bulk_load(np.random.default_rng(0).random((500, 2)))
    >>> tree.validate()
    """
    try:
        packer = _PACKERS[method.lower()]
    except KeyError:
        raise ValueError(f"unknown bulk method {method!r}; known: {sorted(_PACKERS)}") from None
    if isinstance(tree_class, str):
        from repro.index import get_index_class

        tree_class = get_index_class(tree_class)
    if not issubclass(tree_class, RTree):
        raise TypeError(
            f"bulk loading builds rectangle trees; {tree_class.__name__} is "
            "not in the R-tree family"
        )
    pts = np.asarray(points, dtype=float)
    with trace_span(
        "index-build", index=tree_class.name, n=len(pts), method=method.lower()
    ):
        if len(pts) == 0:
            root = None
        else:
            root = packer(
                pts, leaf_capacity=max_entries, fanout=max_entries, **packer_kwargs
            )
        return tree_class.from_packed_root(
            pts, root, metric=metric, max_entries=max_entries, min_fill=min_fill
        )

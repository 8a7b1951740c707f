"""SSJ — the standard tree-based similarity self-join (Section IV-A).

This is the paper's baseline: the classic recursive R-tree join of
Brinkhoff, Kriegel and Seeger [1], generalised to any index satisfying the
:mod:`repro.index.base` contract.  The tree is descended depth-first; node
pairs are pruned with the minimum-distance lower bound; at the leaves all
qualifying pairs are enumerated *individually* — which is precisely what
triggers the output explosion the compact algorithms fix.

SSJ is the compact joins' recursion without the early stops, so it runs
on the same loop (:func:`repro.core.csj._tree_join`).  Leaf-level pair
checks are vectorised with NumPy (one distance matrix per leaf or leaf
pair), but the logical distance-computation count recorded in
:class:`~repro.stats.counters.JoinStats` matches the scalar algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.csj import _tree_join
from repro.core.results import JoinResult, JoinSink
from repro.index.base import SpatialIndex
from repro.index.packed import pack_index
from repro.io.pagesim import NodePager

if TYPE_CHECKING:
    from repro.resilience.budget import Budget

__all__ = ["ssj"]


def ssj(
    tree: SpatialIndex,
    eps: float,
    sink: Optional[JoinSink] = None,
    pager: Optional[NodePager] = None,
    budget: Optional["Budget"] = None,
) -> JoinResult:
    """Run the standard similarity join on ``tree`` with range ``eps``.

    Every qualifying pair is written to ``sink`` as an individual link.
    Returns a :class:`~repro.core.results.JoinResult`; when ``sink`` is
    omitted a collecting sink is used and the result carries the links.

    ``budget`` bounds the run cooperatively.  An output-byte breach
    *degrades gracefully*: instead of dying mid-explosion (the paper's
    SSJ crashes, Section VI), the run switches to the analytic estimator
    and returns a result flagged ``estimated=True``.  Any other breach
    (deadline, group cap) raises
    :class:`~repro.errors.BudgetExceededError` with the valid partial
    result attached as ``exc.partial``.
    """
    if eps <= 0:
        raise ValueError(f"query range must be positive, got {eps}")
    return _tree_join(
        tree, pack_index(tree), float(eps), 0, False, "ssj", sink, pager, budget
    )

"""Sharded join execution with ε-margin boundary replication.

Public surface:

* :class:`~repro.shard.planner.ShardPlanner` /
  :class:`~repro.shard.planner.ShardPlan` — K-way spatial partitioning
  (grid or Hilbert-curve) with an ε-margin halo that makes every
  per-shard join locally exact;
* :class:`~repro.shard.state.ShardTaskState` — the canonical shard-task
  sequence, executable through the existing parallel supervisor;
* :func:`~repro.shard.driver.sharded_join` /
  :class:`~repro.shard.driver.ShardedJoin` — the two-phase driver whose
  output is byte-identical across shard count, partitioner, worker
  count, data plane and index.

See DESIGN.md's "Sharding" section for the owner rule, the halo
invariant and the fingerprint contract.
"""

from repro.shard.driver import ShardedJoin, sharded_join
from repro.shard.planner import PARTITIONERS, ShardPlan, ShardPlanner
from repro.shard.state import ShardTaskState

__all__ = [
    "PARTITIONERS",
    "ShardPlan",
    "ShardPlanner",
    "ShardTaskState",
    "ShardedJoin",
    "sharded_join",
]

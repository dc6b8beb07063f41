"""Sharded parallel stream execution over mergeable sketches.

Two executors share one data plane (shard descriptors over shared
memory / mmap, flat ``.npz`` state blobs back, stream-order merge) and
one correctness contract (the scalar single pass's answers and
``space_words``; state bytes too unless a scheduled heavy-hitter prune
evicts):

* :class:`~repro.parallel.sharded.ShardedStreamRunner` -- a pool per
  ``run`` call.  Simple, stateless between calls, and the historical
  baseline; every run pays pool spawn + per-worker algorithm and plan
  construction.
* :class:`~repro.parallel.persistent.PersistentShardExecutor` -- a
  resident pool.  Workers are spawned once, build their algorithm and
  fused evaluation plan once, and subsequent submissions ship only
  ~100-byte shard descriptors; state travels once per ``collect``.
  This is what makes sharding actually beat the single pass: the fixed
  costs are amortised across submissions instead of charged to each.

Importing from ``repro.parallel`` is the stable API; the split into
``sharded`` / ``persistent`` modules is an implementation detail.
"""

from repro.parallel.persistent import (
    PersistentShardExecutor,
    ShardExecutionError,
)
from repro.parallel.sharded import (
    FactoryPicklingError,
    ShardTiming,
    ShardedRunReport,
    ShardedStreamRunner,
    compute_shard_bounds,
    dispatch_payload_bytes,
    resolve_dispatch,
)

__all__ = [
    "FactoryPicklingError",
    "ShardTiming",
    "ShardedRunReport",
    "ShardedStreamRunner",
    "PersistentShardExecutor",
    "ShardExecutionError",
    "compute_shard_bounds",
    "resolve_dispatch",
    "dispatch_payload_bytes",
]

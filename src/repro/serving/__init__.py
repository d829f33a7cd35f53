"""Sharded parallel serving over index snapshots.

The paper's cost model prices one machine answering one query; a serving
deployment answers many queries against data partitioned across workers.
This package adds that layer without touching the engines:

* :class:`ShardedSegmentDatabase` partitions an NCT segment set into K
  x-range slabs, each an ordinary :class:`~repro.core.api.SegmentDatabase`,
  routes vertical queries to the (usually one) intersecting shard, and
  merges results duplicate-free;
* shard snapshots (:meth:`ShardedSegmentDatabase.save` /
  :meth:`ShardedSegmentDatabase.open`) make a built sharded database a
  directory of files that serving processes ``open()`` in O(pages) instead
  of rebuilding in O(N log N);
* a :class:`ShardWorkerPool` executes shard sub-batches across OS
  processes: the parent maps each shard's flat page arena into POSIX
  shm once and warm workers attach to it in O(1)
  (:mod:`repro.serving.shm`) — the pool's one transport.  ``workers=0``
  runs the identical routing code synchronously;
* a :class:`ServeDaemon` fronts a pool-backed database with an asyncio
  socket server — request batching, bounded-queue admission control,
  per-request deadlines, structured typed error frames, a health frame,
  graceful drain — driven by ``python -m repro serve``;
* a resilience layer (:mod:`repro.serving.resilience`) keeps it
  answering under failure: a :class:`SupervisorPolicy` gives the pool
  liveness timeouts, executor respawn with shm re-attach, bounded
  jittered retries and per-shard :class:`CircuitBreaker` shedding;
  a shard lost past the retry budget degrades the batch into typed
  partial results with an accurate shard-coverage map rather than an
  exception or a silent wrong answer; and a seeded, replayable
  :class:`RpcChaosSchedule` (worker SIGKILL at named points, frame
  damage through :class:`ChaosProxy`) drives the ``chaos-serve``
  never-silently-wrong oracle in tests and CI.

See DESIGN.md §11 for how shard count and worker count interact with the
paper's per-query I/O bounds, §13 for the arena layout and the
warm-worker attach protocol, and §14 for the failure model.
"""

from .daemon import ServeClient, ServeDaemon, ServeRejected
from .reporting import ShardBatchStats, capture_batch
from .resilience import (WORKER_KILL_POINTS, ChaosProxy, CircuitBreaker,
                         RpcChaosSchedule, ServeConnectionError,
                         ShardDownError, SupervisorPolicy)
from .sharded import ShardedSegmentDatabase
from .shm import AttachedArena, SharedShardArenas, segment_name, shm_available
from .workers import TASK_PHASES, ShardWorkerPool, WorkerTaskResult

__all__ = [
    "AttachedArena",
    "ChaosProxy",
    "CircuitBreaker",
    "RpcChaosSchedule",
    "ServeClient",
    "ServeConnectionError",
    "ServeDaemon",
    "ServeRejected",
    "ShardBatchStats",
    "ShardDownError",
    "ShardWorkerPool",
    "ShardedSegmentDatabase",
    "SharedShardArenas",
    "SupervisorPolicy",
    "TASK_PHASES",
    "WORKER_KILL_POINTS",
    "WorkerTaskResult",
    "capture_batch",
    "segment_name",
    "shm_available",
]

"""X-range sharding of a segment database.

A vertical query touches one x; partitioning the plane into K vertical
slabs therefore routes each query to exactly one shard (two when its x
lands on a slab boundary).  Boundary-crossing segments are **replicated**
into every slab they intersect — the alternative, clipping, would
manufacture segment fragments with new identities and break the NCT
invariant at the cut — and the merge step deduplicates by segment label,
so replication is invisible in results.  The cost is storage: the
``replicated`` counter reports how many extra copies sharding created
(long segments are the worst case, exactly as for the grid baseline's
cell replication).

Each shard is an ordinary :class:`~repro.core.api.SegmentDatabase`, so
every engine, the buffer pool, and the snapshot format all work per shard
unchanged.  Interior boundaries are population quantiles of the segment
x-midpoints, which balances shard sizes under skew better than an even
split of the x-extent.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.api import ENGINES, SegmentDatabase
from ..core.recovery import DegradedBatch, DegradedResult
from ..geometry import Segment, VerticalQuery
from ..iosim import SnapshotFormatError
from ..telemetry import (
    ExplainReport,
    LatencyHistogram,
    SlowQueryLog,
    timed_span,
)
from .reporting import ShardBatchStats, capture_batch
from .resilience import RpcChaosSchedule, ShardDownError, SupervisorPolicy
from .workers import _DEFAULT_SUPERVISOR, ShardWorkerPool

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def _boundary_to_str(value) -> str:
    return str(Fraction(value))


def _boundary_from_str(text: str):
    value = Fraction(text)
    return int(value) if value.denominator == 1 else value


class ShardedSegmentDatabase:
    """K x-range shards behind one query surface.

    Build with :meth:`bulk_load`, persist with :meth:`save`, and serve
    with :meth:`open` — synchronously (``workers=0``, every shard opened
    in-process) or across a :class:`~repro.serving.workers.ShardWorkerPool`
    (``workers>0``).  Both paths share the routing and merge code, so
    their results are identical query for query.
    """

    def __init__(
        self,
        engine: str,
        boundaries: Sequence,
        shards: Optional[List[SegmentDatabase]] = None,
        pool: Optional[ShardWorkerPool] = None,
        segment_count: int = 0,
        replicated: int = 0,
    ):
        if (shards is None) == (pool is None):
            raise ValueError("exactly one of shards / pool must be given")
        self.engine_name = engine
        self.boundaries = list(boundaries)  # interior cuts, ascending
        self.shard_count = (len(shards) if shards is not None
                            else len(pool._paths))
        if len(self.boundaries) != self.shard_count - 1:
            raise ValueError(
                f"{self.shard_count} shards need {self.shard_count - 1} "
                f"interior boundaries, got {len(self.boundaries)}"
            )
        self._shards = shards
        self._pool = pool
        self.segment_count = segment_count
        self.replicated = replicated
        # Telemetry deltas accumulate per shard in *both* execution
        # modes through the same capture helper, so the pooled merged
        # report equals the synchronous one field for field.
        self._shard_stats = [ShardBatchStats() for _ in range(self.shard_count)]
        # Wall-clock observability: per-batch latency histogram, phase
        # decomposition totals (dispatch/deserialize/attach/query/
        # serialize/collect in pool mode, query in sync mode), and the
        # parent-observed task wall those phases must sum to.
        self.batch_latency = LatencyHistogram("serve.batch_s")
        self._phase_seconds: Dict[str, float] = {}
        self._task_wall_s = 0.0
        self._tasks = 0
        self._result_bytes = 0
        self.slow_log: Optional[SlowQueryLog] = None
        # Degradation bookkeeping: batches that lost at least one shard
        # and the individual queries served with partial coverage.
        self.degraded_batches = 0
        self.degraded_queries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        segments,
        shards: int = 4,
        engine: str = "solution2",
        block_capacity: int = 64,
        buffer_pages: Optional[int] = None,
        validate: bool = False,
    ) -> "ShardedSegmentDatabase":
        """Partition ``segments`` into x-range slabs and build each shard."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick one of {ENGINES}")
        segments = list(segments)
        boundaries = cls._choose_boundaries(segments, shards)
        slabs: List[List[Segment]] = [[] for _ in range(len(boundaries) + 1)]
        replicated = 0
        for s in segments:
            hit = cls._slabs_of_range(boundaries, s.xmin, s.xmax)
            replicated += len(hit) - 1
            for i in hit:
                slabs[i].append(s)
        built = [
            SegmentDatabase.bulk_load(
                slab, engine=engine, block_capacity=block_capacity,
                buffer_pages=buffer_pages, validate=validate,
            )
            for slab in slabs
        ]
        return cls(engine, boundaries, shards=built,
                   segment_count=len(segments), replicated=replicated)

    @staticmethod
    def _choose_boundaries(segments: List[Segment], shards: int) -> List:
        """Interior cuts at x-midpoint quantiles (deduplicated, so heavy
        skew may yield fewer effective shards than requested)."""
        if shards == 1 or not segments:
            return []
        mids = sorted(Fraction(s.xmin + s.xmax) / 2 for s in segments)
        cuts = []
        for k in range(1, shards):
            cut = mids[(k * len(mids)) // shards]
            cut = int(cut) if cut.denominator == 1 else cut
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)
        return cuts

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @staticmethod
    def _slabs_of_range(boundaries: List, xlo, xhi) -> List[int]:
        """Indices of every slab the closed x-range intersects.

        Slab ``i`` covers the closed interval [b_{i-1}, b_i] (unbounded at
        the ends); adjacent slabs share their boundary point, which is what
        makes boundary routing find the replica on either side.
        """
        out = []
        for i in range(len(boundaries) + 1):
            lo = boundaries[i - 1] if i > 0 else None
            hi = boundaries[i] if i < len(boundaries) else None
            if (lo is None or xhi >= lo) and (hi is None or xlo <= hi):
                out.append(i)
        return out

    def shards_for(self, x) -> List[int]:
        """Which shards answer a query at ``x`` (two iff x is a boundary)."""
        return self._slabs_of_range(self.boundaries, x, x)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: VerticalQuery) -> List[Segment]:
        return self.query_batch([q])[0]

    def query_batch(
        self, queries: Sequence[VerticalQuery], degrade: bool = True
    ) -> List[List[Segment]]:
        """Route, execute per shard, and merge back into input order.

        Replicated boundary-crossers are deduplicated by label during the
        merge (ascending shard order, first occurrence wins), so results
        match an unsharded database up to ordering within a query.

        When a supervised pool reports shards down (retries exhausted or
        circuit open) and ``degrade`` is true, the batch is still
        answered: queries routed to a dead shard come back as
        :class:`~repro.core.recovery.DegradedResult` entries holding
        what the live shards contributed, and the batch itself is a
        :class:`~repro.core.recovery.DegradedBatch` whose
        ``shard_coverage`` names exactly which routed shards served.
        A fault-free batch returns a plain list — bit-identical to the
        unsupervised result.  ``degrade=False`` raises
        :class:`~repro.serving.resilience.ShardDownError` instead.
        """
        queries = list(queries)
        if not queries:
            return []
        t0 = perf_counter()
        batches, routes = self._route(queries)
        executed, failures = self._execute_query_batches(batches)
        if failures and not degrade:
            raise ShardDownError(failures)
        out: List[List[Segment]] = []
        degraded = 0
        for pos, q in enumerate(queries):
            hit = routes[pos]
            down = [index for index, _ in hit if index in failures]
            if not down and len(hit) == 1:
                index, offset = hit[0]
                out.append(executed[index][offset])
                continue
            seen = set()
            merged: List[Segment] = []
            for index, offset in hit:
                if index in failures:
                    continue
                for s in executed[index][offset]:
                    if s.label not in seen:
                        seen.add(s.label)
                        merged.append(s)
            if down:
                reason = "; ".join(f"shard {index}: {failures[index][0]}"
                                   for index in down)
                out.append(DegradedResult(merged, reason=reason,
                                          source="shard-down"))
                degraded += 1
            else:
                out.append(merged)
        self.batch_latency.observe(perf_counter() - t0)
        if not failures:
            return out
        routed = sorted({index for hit in routes for index, _ in hit})
        coverage = {
            index: ("ok" if index not in failures
                    else f"down: {failures[index][0]}: {failures[index][1]}")
            for index in routed
        }
        self.degraded_batches += 1
        self.degraded_queries += degraded
        summary = (f"{len(failures)} of {len(routed)} routed shards down "
                   f"({degraded} of {len(queries)} queries degraded)")
        return DegradedBatch(out, coverage, summary)

    def explain_batch(
        self, queries: Sequence[VerticalQuery]
    ) -> List[ExplainReport]:
        """Per-shard cost anatomies of the routed batch (ascending shard
        index, shards that received no queries omitted).  Each report is
        exactly what the shard's own ``explain_batch`` produced; summing
        their ``io`` fields gives the whole batch's cost."""
        queries = list(queries)
        if not queries:
            return []
        batches, _routes = self._route(queries)
        reports, failures = self._execute(batches, explain=True)
        if failures:
            # Explain is a diagnostic: a partial anatomy would silently
            # under-report the batch's cost, so shard loss raises.
            raise ShardDownError(failures)
        out = []
        for index in sorted(reports):
            report = reports[index]
            report.description = f"shard {index}: {report.description}"
            out.append(report)
        return out

    def _route(
        self, queries: List[VerticalQuery]
    ) -> Tuple[Dict[int, List[VerticalQuery]], List[List[Tuple[int, int]]]]:
        """Split a batch into per-shard sub-batches.

        Returns the sub-batches plus, per input query, its ``(shard,
        offset-within-sub-batch)`` coordinates for the scatter-back.
        """
        batches: Dict[int, List[VerticalQuery]] = {}
        routes: List[List[Tuple[int, int]]] = []
        for q in queries:
            hit = []
            for index in self.shards_for(q.x):
                sub = batches.setdefault(index, [])
                hit.append((index, len(sub)))
                sub.append(q)
            routes.append(hit)
        return batches, routes

    # ------------------------------------------------------------------
    # execution back ends (synchronous vs worker pool)
    # ------------------------------------------------------------------
    def _execute_query_batches(
        self, batches: Dict[int, List[VerticalQuery]]
    ) -> Tuple[Dict[int, List[List[Segment]]], Dict[int, Tuple[str, str]]]:
        return self._execute(batches, explain=False)

    def _execute(self, batches: Dict[int, List[VerticalQuery]],
                 explain: bool) -> Tuple[Dict, Dict[int, Tuple[str, str]]]:
        """Run per-shard sub-batches on the active back end.

        Both back ends capture the same :class:`ShardBatchStats` delta
        per sub-batch and feed the same phase/latency accumulators, so
        every report this class renders is back-end-agnostic.  Returns
        the per-shard results plus ``{shard: (kind, reason)}`` for the
        shards a supervised pool could not serve (always empty in
        synchronous mode, where there is no process to lose).
        """
        out = {}
        failures: Dict[int, Tuple[str, str]] = {}
        if self._pool is None:
            for index, queries in batches.items():
                db = self._shards[index]
                runner = db.explain_batch if explain else db.query_batch
                t0 = perf_counter()
                with timed_span("query", category="engine", shard=index,
                                queries=len(queries)):
                    result, stats = capture_batch(db, lambda: runner(queries))
                elapsed = perf_counter() - t0
                self._shard_stats[index] = self._shard_stats[index] + stats
                self._note_task({"query": elapsed}, elapsed)
                if db.slow_log is not None and self.slow_log is not None:
                    self.slow_log.absorb(db.slow_log.drain())
                out[index] = result
            return out, failures
        gather = (self._pool.explain_batches if explain
                  else self._pool.query_batches)
        for index, task in gather(batches).items():
            if not task.ok:
                failures[index] = (task.failure,
                                   task.error or task.failure)
                continue
            self._shard_stats[index] = self._shard_stats[index] + task.stats
            self._note_task(task.phases, task.wall_s)
            self._result_bytes += task.result_bytes
            if self.slow_log is not None and task.slow_log:
                self.slow_log.absorb(task.slow_log)
            out[index] = task.payload
        return out, failures

    def _note_task(self, phases: Dict[str, float], wall_s: float) -> None:
        for name, seconds in phases.items():
            self._phase_seconds[name] = (
                self._phase_seconds.get(name, 0.0) + seconds
            )
        self._task_wall_s += wall_s
        self._tasks += 1

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def io_report(self) -> dict:
        """Per-shard and combined telemetry, JSON-ready.

        Each shard entry carries the full counter family the flat
        :meth:`~repro.core.api.SegmentDatabase.io_report` knows — raw
        I/O, buffer hits/misses, filtered-arithmetic counters, fault
        deltas, degradation state — accumulated through the *same*
        capture helper in both execution modes, so a pooled report
        equals the ``workers=0`` synchronous report field for field and
        the combined block equals the sum of the shard blocks.
        """
        per_shard = list(self._shard_stats)
        combined = ShardBatchStats()
        for stats in per_shard:
            combined = combined + stats
        return {
            "shards": [stats.to_report() for stats in per_shard],
            "combined": combined.to_report(),
        }

    def latency_report(self) -> dict:
        """Wall-clock anatomy of the serving work done so far.

        ``phases_s`` decomposes task time into the cross-process phases
        (pool mode: dispatch/deserialize/attach/query/serialize/collect;
        synchronous mode: query only); ``task_wall_s`` is the parent-
        observed wall-clock those phases must explain, and
        ``phase_coverage`` is their ratio — the E17 acceptance pins it
        within 10% of 1.  ``result_bytes`` sums the pickled result
        payload plus out-of-band buffer bytes the workers shipped back
        (0 in synchronous mode, where nothing crosses a process).
        ``batches`` summarizes the per-call latency histogram
        (p50/p95/p99).
        """
        phase_sum = sum(self._phase_seconds.values())
        return {
            "tasks": self._tasks,
            "phases_s": {name: round(seconds, 6)
                         for name, seconds in sorted(self._phase_seconds.items())},
            "phase_sum_s": round(phase_sum, 6),
            "task_wall_s": round(self._task_wall_s, 6),
            "phase_coverage": (round(phase_sum / self._task_wall_s, 4)
                               if self._task_wall_s else None),
            "result_bytes": self._result_bytes,
            "batches": self.batch_latency.summary(),
        }

    def health_report(self) -> dict:
        """Serving health: execution mode, degradation counters, and (in
        pool mode) worker liveness, respawn counts, and breaker states —
        the payload behind the daemon's ``health`` frame."""
        report = {
            "mode": "pool" if self._pool is not None else "sync",
            "shards": self.shard_count,
            "degraded_batches": self.degraded_batches,
            "degraded_queries": self.degraded_queries,
        }
        if self._pool is not None:
            report["pool"] = self._pool.health()
        return report

    def enable_slow_query_log(self, threshold_s: float,
                              capacity: int = 128) -> SlowQueryLog:
        """Start logging slow shard batches; returns the merged log.

        Synchronous mode enables a log on every shard database and
        drains them into the merged log after each batch.  In pool mode
        the worker-side logs are configured at :meth:`open` time (pass
        ``slow_query_s``); this call then only (re)creates the parent
        log that absorbs what workers ship back.
        """
        self.slow_log = SlowQueryLog(threshold_s, capacity)
        if self._shards is not None:
            for db in self._shards:
                db.enable_slow_query_log(threshold_s, capacity)
        return self.slow_log

    def __len__(self) -> int:
        return self.segment_count

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> dict:
        """Write one snapshot per shard plus a manifest into ``directory``.

        Returns the manifest dict (paths relative to the directory).
        Only a synchronously held database can save — in pool mode the
        page stores live in the workers.
        """
        if self._shards is None:
            raise ValueError("cannot save a pool-backed sharded database; "
                             "save before open(workers=...)")
        os.makedirs(directory, exist_ok=True)
        shard_files = []
        for index, db in enumerate(self._shards):
            name = f"shard-{index:03d}.snap"
            db.save(os.path.join(directory, name))
            shard_files.append(name)
        manifest = {
            "format_version": MANIFEST_VERSION,
            "engine": self.engine_name,
            "shards": self.shard_count,
            "boundaries": [_boundary_to_str(b) for b in self.boundaries],
            "segment_count": self.segment_count,
            "replicated": self.replicated,
            "shard_files": shard_files,
        }
        with open(os.path.join(directory, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest

    @classmethod
    def open(
        cls,
        directory: str,
        workers: int = 0,
        buffer_pages: Optional[int] = None,
        slow_query_s: Optional[float] = None,
        cache_pages: Optional[int] = None,
        supervisor: Optional[SupervisorPolicy] = _DEFAULT_SUPERVISOR,
        chaos: Optional[RpcChaosSchedule] = None,
    ) -> "ShardedSegmentDatabase":
        """Restore a sharded database saved by :meth:`save`.

        ``workers=0`` opens every shard in this process; ``workers>0``
        hands the snapshot paths to a
        :class:`~repro.serving.workers.ShardWorkerPool` and shards are
        attached (once each) inside the worker processes instead,
        zero-copy out of shared memory (``cache_pages`` bounds each
        worker's decoded-page LRU).
        ``slow_query_s`` arms a slow-query log at that threshold on
        every shard (worker-side in pool mode, entries shipped back with
        each batch) merged into ``self.slow_log``.  ``supervisor`` and
        ``chaos`` forward to the pool: supervision is on by default
        (worker death degrades instead of raising); pass
        ``supervisor=None`` for the legacy raise-through surface.
        """
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise SnapshotFormatError(manifest_path, "manifest not found")
        except json.JSONDecodeError as exc:
            raise SnapshotFormatError(manifest_path,
                                      f"manifest is not JSON: {exc}") from exc
        version = manifest.get("format_version")
        if version != MANIFEST_VERSION:
            raise SnapshotFormatError(
                manifest_path,
                f"unsupported manifest version {version!r} "
                f"(expected {MANIFEST_VERSION})",
            )
        boundaries = [_boundary_from_str(b) for b in manifest["boundaries"]]
        paths = [os.path.join(directory, name)
                 for name in manifest["shard_files"]]
        if workers > 0:
            pool = ShardWorkerPool(paths, workers, buffer_pages=buffer_pages,
                                   slow_query_s=slow_query_s,
                                   cache_pages=cache_pages,
                                   supervisor=supervisor,
                                   chaos=chaos)
            db = cls(manifest["engine"], boundaries, pool=pool,
                     segment_count=manifest["segment_count"],
                     replicated=manifest["replicated"])
        else:
            shards = [SegmentDatabase.open(path, buffer_pages=buffer_pages)
                      for path in paths]
            db = cls(manifest["engine"], boundaries, shards=shards,
                     segment_count=manifest["segment_count"],
                     replicated=manifest["replicated"])
        if slow_query_s is not None:
            db.enable_slow_query_log(slow_query_s)
        return db

    def close(self) -> None:
        """Shut the worker pool down (no-op in synchronous mode)."""
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "ShardedSegmentDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

"""The in-process workloads: ``lib-read`` and ``lib-update``.

Both drive :class:`repro.SegmentDatabase` from one thread in a closed
loop.  Work runs in *rounds* with the same composition; every answer is
checked against :class:`~perfbench.common.ColumnOracle` after its round,
outside the timed region.  Exact counts (simulated I/Os, space) come from
a fixed number of leading rounds, never from however many rounds the
time budget allowed.
"""

from __future__ import annotations

import gc
import math
import os
import random
from contextlib import contextmanager
from time import perf_counter
from typing import Optional

from repro import Segment, SegmentDatabase
from repro.workloads import grid_segments, ray_queries, stabbing_queries

from .common import (CELL, DATA_SEED, Calibrator, ColumnOracle, Result,
                     StealClock, Timings, labels_of, median, narrow_queries,
                     self_peak_rss_mb)
from .tracer import SpanRecorder

#: Public entry points wrapped in a traced round, as
#: ``(module, class or None, attribute, span name)``.  ``page_query_hits``
#: is imported by name into the engine modules, so it is wrapped there.
ENGINE_TARGETS = [
    ("repro.core.api", "SegmentDatabase", "query", "engine.query"),
    ("repro.core.api", "SegmentDatabase", "query_batch", "engine.query"),
    ("repro.core.api", "SegmentDatabase", "insert", "engine.insert"),
    ("repro.core.api", "SegmentDatabase", "delete", "engine.delete"),
    ("repro.iosim.pager", "Pager", "fetch", "pager.read"),
    ("repro.iosim.pager", "Pager", "write", "pager.write"),
    ("repro.iosim.buffer", "LRUBufferPool", "read", "buffer.read"),
    ("repro.iosim.disk", "BlockDevice", "read", "disk.read"),
    ("repro.iosim.disk", "BlockDevice", "write", "disk.write"),
    ("repro.core.solution1.index", None, "page_query_hits", "kernels.page"),
    ("repro.core.solution2.index", None, "page_query_hits", "kernels.page"),
    ("repro.geometry.kernels", None, "page_classify_summary", "kernels.page"),
    ("repro.geometry.kernels", None, "gkey_sign_table", "kernels.gkey"),
    ("repro.geometry.kernels", None, "intersect_hits_py", "kernels.fused"),
    ("repro.geometry.kernels", None, "classify_summary_py", "kernels.fused"),
    ("repro.geometry.kernels", None, "intersect_rows", "kernels.numpy"),
    ("repro.geometry.kernels", None, "classify_rows", "kernels.numpy"),
]


@contextmanager
def one_cpu():
    """Keep the single-threaded loop on one CPU: migrations between the
    two CPUs of a small VM cost more than the run-to-run noise budget."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def layer_metrics(result: Result, rec: SpanRecorder, ops: int,
                  queries: int, factor: float) -> None:
    """Per-op self times (scaled by ``factor``) and kernel tier counts
    from traced rounds."""
    ms = factor / ops
    result.put("engine.query_ms", rec.self_ms("engine.query") * factor
               / max(queries, 1), rec.count("engine.query"))
    result.put("pager.read_ms", rec.self_ms("pager.read") * ms,
               rec.count("pager.read"))
    result.put("pager.write_ms", rec.self_ms("pager.write") * ms,
               rec.count("pager.write"))
    result.put("kernels.fused_calls_per_op", rec.count("kernels.fused") / ops, ops)
    result.put("kernels.numpy_calls_per_op", rec.count("kernels.numpy") / ops, ops)
    result.put("kernels.gkey_calls_per_op", rec.count("kernels.gkey") / ops, ops)
    result.put("kernels.ms_per_op",
               rec.total_ms("kernels.page", "kernels.gkey") * ms,
               rec.count("kernels.page", "kernels.gkey"))


class SetupTimer:
    """Times set-ups from the start of ``bulk_load`` until the first query
    is answered.  The first builds the database the rounds use; the rest
    are spread across the measured rounds and discarded, so a slow minute
    of the machine cannot set ``setup_s`` alone.  Set-up times are scaled
    by the run's mean round factor: a probe pair around one 1-2 s build
    tracked its speed worse than the run-level factor does.
    """

    def __init__(self, reps: int, seconds: float, build, first_query):
        self.reps = reps
        self.every = seconds / reps
        self.build = build
        self.first_query = first_query
        self.setups, self.builds = [], []

    def run(self):
        gc.collect()
        t0 = perf_counter()
        db = self.build()
        t1 = perf_counter()
        db.query(self.first_query)
        t2 = perf_counter()
        self.builds.append(t1 - t0)
        self.setups.append(t2 - t0)
        return db

    def between_rounds(self, measured: float, cal: Calibrator) -> None:
        """Run the next spread-out set-up once its time has come."""
        if len(self.setups) < self.reps and measured >= self.every * len(self.setups):
            self.run()
            cal.mark()

    def report(self, result: Result, factor: float) -> None:
        while len(self.setups) < self.reps:  # runs shorter than the spread
            self.run()
        result.put("setup_s", median(self.setups) * factor, self.reps,
                   raw=median(self.setups))
        result.put("engine.build_s", median(self.builds) * factor, self.reps)


# ----------------------------------------------------------------------
# lib-read
# ----------------------------------------------------------------------
def lib_read(cfg: dict, seed: int, seconds: float, trace: bool,
             result: Result) -> Optional[SpanRecorder]:
    with one_cpu(), Calibrator(**cfg["calibration"]) as cal:
        return _lib_read(cfg, seed, seconds, trace, result, cal)


def _lib_read(cfg, seed, seconds, trace, result, cal):
    rng = random.Random(seed)
    segments = grid_segments(cfg["n"], seed=DATA_SEED)
    oracle = ColumnOracle(segments)
    per_kind = cfg["queries_per_round"] // 3
    xmax = max(s.xmax for s in segments)
    queries = (
        narrow_queries(oracle, [rng.randint(0, int(xmax)) for _ in range(per_kind)],
                       cfg["narrow_width"], rng)
        + stabbing_queries(segments, per_kind, rng=rng)
        + ray_queries(segments, per_kind, rng=rng)
    )
    rng.shuffle(queries)
    expected = [oracle.labels(q) for q in queries]
    n = len(queries)

    setup = SetupTimer(
        cfg["setup_reps"], seconds,
        lambda: SegmentDatabase.bulk_load(
            segments, engine=cfg["engine"], block_capacity=cfg["block"],
            buffer_pages=cfg["buffer_pages"]),
        queries[0])
    db = setup.run()
    result.put("space_blocks", db.space_in_blocks())

    steal = StealClock(os.sched_getaffinity(0))

    def run_round(rec):
        lat, answers = [], []
        start = perf_counter()
        stolen = steal.read()
        for i, q in enumerate(queries):
            if rec is not None:
                rec.request_id = i
            t0 = perf_counter()
            answers.append(db.query(q))
            lat.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        stolen = steal.read() - stolen
        result.attempted += n
        wrong = sum(labels_of(a) != e for a, e in zip(answers, expected))
        result.fail(wrong, f"{wrong} lib-read answers differ from the oracle")
        return lat, elapsed, stolen, answers

    run_round(None)  # warm-up: the buffer pool reaches its steady state
    pool = db.buffer_pool
    io0, hits0, misses0 = db.io_stats(), pool.hits, pool.misses
    rec = SpanRecorder() if trace else None
    timings = Timings()
    measured, rounds = 0.0, 0
    cal.mark()
    while measured < seconds or rounds < cfg["min_rounds"]:
        traced = trace and rounds % 2 == 1
        if traced:
            with rec.installed(ENGINE_TARGETS):
                lat, elapsed, stolen, answers = run_round(rec)
        else:
            lat, elapsed, stolen, answers = run_round(None)
        if rounds == 0:  # the counted round
            io = db.io_stats() - io0
            hits, misses = pool.hits - hits0, pool.misses - misses0
            results = sum(len(a) for a in answers)
        timings.add(n, elapsed, cal.factor(), traced, reads=lat, stolen=stolen)
        measured += elapsed
        rounds += 1
        setup.between_rounds(measured, cal)

    result.put("sim_ios_per_op", io.total / n, n)
    timings.report(result)
    setup.report(result, timings.speed_factor)
    result.put("peak_rss_mb", self_peak_rss_mb())
    if trace:
        ops = n * len(timings.traced_rates)
        layer_metrics(result, rec, ops, ops, timings.traced_factor)
        result.put("engine.results_per_query", results / n, n)
        result.put("io.reads_per_op", io.reads / n, n)
        result.put("io.writes_per_op", io.writes / n, n)
        result.put("buffer.hit_rate", hits / (hits + misses), hits + misses)
        result.put("buffer.misses_per_op", misses / n, n)
    return rec


# ----------------------------------------------------------------------
# lib-update
# ----------------------------------------------------------------------
class UpdateStream:
    """A seeded insert/delete/query sequence over a grid of cells.

    The grid has ``n + spare`` cells and every segment lies strictly
    inside its own cell, so any insert into an empty cell keeps the set
    non-crossing.  Ops repeat ``insert, query, delete, query``: the live
    set stays within one of ``n`` and reads match writes one for one.
    The oracle is updated as ops are generated, so each query's expected
    answer is the live set at the moment the query runs.
    """

    def __init__(self, n: int, spare: int, width: int, seed: int):
        self.width = width
        cells = n + spare
        every = grid_segments(cells, seed=DATA_SEED)
        self.cols = max(1, math.isqrt(cells))  # as grid_segments lays cells
        empty = set(random.Random(DATA_SEED).sample(range(cells), spare))
        self.rng = random.Random(seed)
        self.empty = sorted(empty)
        self.occupied = [i for i in range(cells) if i not in empty]
        self.live = {i: every[i] for i in self.occupied}
        self.initial = [self.live[i] for i in self.occupied]
        self.oracle = ColumnOracle(self.initial)
        self.xmax = self.cols * CELL
        self.serial = 0

    def _new_segment(self, cell: int) -> Segment:
        row, col = divmod(cell, self.cols)
        xb, yb = col * CELL, row * CELL
        rng = self.rng
        while True:
            x1, y1 = xb + rng.randint(1, CELL - 2), yb + rng.randint(1, CELL - 2)
            x2, y2 = xb + rng.randint(1, CELL - 2), yb + rng.randint(1, CELL - 2)
            if (x1, y1) != (x2, y2):
                break
        self.serial += 1
        return Segment.from_coords(x1, y1, x2, y2, label=("u", self.serial))

    @staticmethod
    def _take(cells: list, rng) -> int:
        i = rng.randrange(len(cells))
        cells[i], cells[-1] = cells[-1], cells[i]
        return cells.pop()

    def query(self):
        q = narrow_queries(self.oracle, [self.rng.randint(0, self.xmax)],
                           self.width, self.rng)[0]
        return ("query", q, self.oracle.labels(q))

    def round(self, size: int) -> list:
        ops = []
        for i in range(size):
            kind = i % 4
            if kind == 0:
                cell = self._take(self.empty, self.rng)
                seg = self._new_segment(cell)
                self.live[cell] = seg
                self.occupied.append(cell)
                self.oracle.insert(seg)
                ops.append(("insert", seg, None))
            elif kind == 2:
                cell = self._take(self.occupied, self.rng)
                seg = self.live.pop(cell)
                self.empty.append(cell)
                self.oracle.delete(seg)
                ops.append(("delete", seg, None))
            else:
                ops.append(self.query())
        return ops


def lib_update(cfg: dict, seed: int, seconds: float, trace: bool,
               result: Result) -> Optional[SpanRecorder]:
    with one_cpu(), Calibrator(**cfg["calibration"]) as cal:
        return _lib_update(cfg, seed, seconds, trace, result, cal)


def _lib_update(cfg, seed, seconds, trace, result, cal):
    stream = UpdateStream(cfg["n"], cfg["spare_cells"], cfg["narrow_width"], seed)
    first = stream.query()[1]
    setup = SetupTimer(
        cfg["setup_reps"], seconds,
        lambda: SegmentDatabase.bulk_load(
            stream.initial, engine=cfg["engine"], block_capacity=cfg["block"]),
        first)
    db = setup.run()

    steal = StealClock(os.sched_getaffinity(0))

    def run_round(ops, rec):
        lat, wrong = [], 0
        start = perf_counter()
        stolen = steal.read()
        for i, (kind, arg, expected) in enumerate(ops):
            if rec is not None:
                rec.request_id = i
            t0 = perf_counter()
            if kind == "query":
                out = db.query(arg)
            elif kind == "insert":
                out = db.insert(arg)
            else:
                out = db.delete(arg)
            lat.append(perf_counter() - t0)
            if kind == "query":
                wrong += labels_of(out) != expected
            elif kind == "delete":
                wrong += out is not True
        elapsed = perf_counter() - start
        stolen = steal.read() - stolen
        result.attempted += len(ops)
        result.fail(wrong, f"{wrong} lib-update operations went wrong")
        return lat, elapsed, stolen

    rec = SpanRecorder() if trace else None
    timings = Timings()
    io0 = db.io_stats()
    counted_ops = counted_queries = counted_hits = 0
    measured, rounds = 0.0, 0
    cal.mark()
    while measured < seconds or rounds < cfg["min_rounds"]:
        ops = stream.round(cfg["ops_per_round"])
        traced = trace and rounds % 2 == 1
        if traced:
            with rec.installed(ENGINE_TARGETS):
                lat, elapsed, stolen = run_round(ops, rec)
        else:
            lat, elapsed, stolen = run_round(ops, None)
        rounds += 1
        if rounds <= cfg["count_rounds"]:
            counted_ops += len(ops)
            for kind, _, expected in ops:
                if kind == "query":
                    counted_queries += 1
                    counted_hits += len(expected)
        if rounds == cfg["count_rounds"]:
            io = db.io_stats() - io0
            result.put("space_blocks", db.space_in_blocks())
        timings.add(len(ops), elapsed, cal.factor(), traced,
                    reads=[t for (k, _, _), t in zip(ops, lat) if k == "query"],
                    writes=[t for (k, _, _), t in zip(ops, lat) if k != "query"],
                    stolen=stolen)
        measured += elapsed
        setup.between_rounds(measured, cal)

    if labels_of(db.all_segments()) != stream.oracle.live_labels():
        result.fail(1, "lib-update: all_segments() differs from the live set")
    result.put("sim_ios_per_op", io.total / counted_ops, counted_ops)
    timings.report(result)
    setup.report(result, timings.speed_factor)
    result.put("peak_rss_mb", self_peak_rss_mb())
    if trace:
        ops = cfg["ops_per_round"] * len(timings.traced_rates)
        f = timings.traced_factor
        layer_metrics(result, rec, ops, ops // 2, f)
        for op in ("insert", "delete"):
            calls = max(rec.count(f"engine.{op}"), 1)
            result.put(f"engine.{op}_ms",
                       rec.self_ms(f"engine.{op}") * f / calls, calls)
        result.put("engine.results_per_query", counted_hits / counted_queries,
                   counted_queries)
        result.put("io.reads_per_op", io.reads / counted_ops, counted_ops)
        result.put("io.writes_per_op", io.writes / counted_ops, counted_ops)
    return rec

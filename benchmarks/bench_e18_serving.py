"""E18 — zero-copy shm serving vs the synchronous path.

E17 priced the multiprocess serving gap: the worker pool spent its time
not in the engine but around it.  This experiment measures the pool as
it now stands, with its one transport.  The same shard snapshots are
served two ways over an identical query stream:

* **sync** — ``workers=0``, the in-process oracle and the qps bar the
  pool has to clear;
* **shm** — the flat arena mapped into POSIX shared memory once, every
  worker attaching zero-copy in O(1) and decoding pages lazily out of
  the shared bytes.

Both must return bit-identical results, and the pool's six phases must
cover its task wall-clock (coverage in [0.9, 1.05]).  The recorded
**overhead** is the dispatch + attach + deserialize seconds the pool
charges on top of engine work, summed over tasks.  At full scale
(``N >= 20000``) on a machine with at least 2 cores the pooled path must
beat the synchronous qps (the ROADMAP's crossover criterion).
``E18_N`` / ``E18_QUERIES`` / ``E18_WORKERS`` / ``E18_BATCH`` shrink the
run for CI smoke, which skips that gate and still records every number
in ``BENCH_perf.json``.  The numbers and the report are written before
the crossover is asserted, so a failing run records what it measured.
"""

import os
import time

from harness import archive, table_section, write_perf_json
from repro.serving import ShardedSegmentDatabase
from repro.workloads import grid_segments, segment_queries

B = 32
N = int(os.environ.get("E18_N", "20000"))
QUERIES = int(os.environ.get("E18_QUERIES", "256"))
SHARDS = int(os.environ.get("E18_SHARDS", "2"))
WORKERS = int(os.environ.get("E18_WORKERS", "2"))
BATCH_SIZE = int(os.environ.get("E18_BATCH", "32"))
ENGINE = "solution2"

#: The pool's per-batch tax: everything that is not engine work or
#: shipping results back.  ``attach`` is the O(1) shm map;
#: dispatch/deserialize price the payload hop.
OVERHEAD_PHASES = ("dispatch", "attach", "deserialize")


def _labels(results):
    return [sorted(str(s.label) for s in r) for r in results]


def _serve(db, queries):
    t0 = time.perf_counter()
    results = []
    for start in range(0, len(queries), BATCH_SIZE):
        results.extend(db.query_batch(queries[start:start + BATCH_SIZE]))
    return time.perf_counter() - t0, results


def _run_mode(directory, queries, workers):
    t0 = time.perf_counter()
    with ShardedSegmentDatabase.open(directory, workers=workers) as served:
        open_s = time.perf_counter() - t0
        serve_s, results = _serve(served, queries)
        report = served.latency_report()
        shared = served._pool.shared_bytes if workers else 0
    phases = report["phases_s"]
    overhead_s = sum(phases.get(p, 0.0) for p in OVERHEAD_PHASES)
    return {
        "open_s": round(open_s, 4),
        "serve_s": round(serve_s, 4),
        "queries_per_s": round(len(queries) / serve_s, 1) if serve_s else 0.0,
        "tasks": report["tasks"],
        "phases_s": phases,
        "phase_coverage": report["phase_coverage"],
        "overhead_s": round(overhead_s, 4),
        "overhead_per_task_ms": round(1000 * overhead_s / report["tasks"], 3)
                                if report["tasks"] else 0.0,
        "batch_p50_ms": report["batches"]["p50_ms"],
        "batch_p99_ms": report["batches"]["p99_ms"],
        "shared_bytes": shared,
        "result_bytes": report["result_bytes"],
    }, results


def test_e18_zero_copy_serving(tmp_path):
    segments = grid_segments(N, seed=81)
    queries = segment_queries(segments, QUERIES, selectivity=0.02, seed=82)

    sharded = ShardedSegmentDatabase.bulk_load(
        segments, shards=SHARDS, engine=ENGINE, block_capacity=B)
    directory = str(tmp_path / "snap")
    sharded.save(directory)

    sync_row, oracle = _run_mode(directory, queries, 0)
    shm_row, results = _run_mode(directory, queries, WORKERS)
    modes = {"sync": sync_row, "shm": shm_row}
    assert _labels(results) == _labels(oracle), (
        "shm pool diverged from the synchronous oracle")
    coverage = shm_row["phase_coverage"]
    assert coverage is not None and 0.9 <= coverage <= 1.05, (
        f"shm: phases cover {coverage} of the task wall")
    for phase in OVERHEAD_PHASES:
        assert phase in shm_row["phases_s"], f"shm: missing phase {phase!r}"

    cores = os.cpu_count() or 1
    full_scale = N >= 20000
    gate_armed = full_scale and cores >= 2
    # The ROADMAP crossover: with real cores behind the workers the
    # pooled path must beat the synchronous one outright.  Judged here,
    # asserted only after the numbers are written, so a failing run
    # still leaves its own artifacts behind rather than stale ones.
    crossover = (modes["shm"]["queries_per_s"]
                 > modes["sync"]["queries_per_s"])

    payload = {
        "n": N,
        "block_capacity": B,
        "engine": ENGINE,
        "queries": len(queries),
        "batch_size": BATCH_SIZE,
        "shards": SHARDS,
        "workers": WORKERS,
        "cores": cores,
        "cpu_count": cores,
        "gates_armed": {
            # False = not full scale; a skip marker = the machine, not
            # the workload, kept the gate unarmed — so a reader of the
            # archived JSON can tell "too small to judge" from "judged
            # nothing because CI had one core".
            "qps_crossover": gate_armed if not (
                full_scale and cores < 2) else {"skipped": "1 core"},
        },
        "qps_crossover_passed": crossover,
        "modes": modes,
        "overhead_phases": list(OVERHEAD_PHASES),
    }
    path = write_perf_json("E18", payload)

    phase_names = ("dispatch", "deserialize", "attach", "query",
                   "serialize", "collect")
    phase_rows = [
        [round(shm_row["phases_s"].get(p, 0.0), 4) for p in phase_names]
        + [shm_row["overhead_s"], shm_row["overhead_per_task_ms"]]]
    qps_rows = [
        [name, row["open_s"], row["serve_s"], row["queries_per_s"],
         row["batch_p50_ms"], row["batch_p99_ms"], row["result_bytes"]]
        for name, row in modes.items()
    ]
    archive(
        "e18_zero_copy_serving",
        "E18 — Zero-copy shared-memory serving vs the synchronous path",
        [
            f"N={N}, B={B}, engine {ENGINE}, K={SHARDS} shards x "
            f"{WORKERS} workers, {len(queries)} segment queries "
            f"(2% selectivity) in batches of {BATCH_SIZE}, on {cores} "
            f"core(s).  Shared arenas: "
            f"{modes['shm']['shared_bytes']} bytes mapped once.",
            table_section(
                "Serving modes (identical results asserted):",
                ["mode", "open (s)", "serve (s)", "queries/s",
                 "batch p50 (ms)", "batch p99 (ms)", "result bytes"],
                qps_rows,
            ),
            table_section(
                "Pooled phase decomposition (seconds summed over tasks; "
                "overhead = dispatch + attach + deserialize):",
                [*phase_names, "overhead (s)", "overhead/task (ms)"],
                phase_rows,
            ),
            "Reading: attach is one O(1) shm map per worker and shard; "
            "the rest of the pool's time is engine work plus the "
            "per-batch payload hops.  On a 1-core box the engine time "
            "serializes, so a qps win can appear only with real cores "
            "behind the workers (the crossover gate arms at >= 2).  "
            "Crossover (pooled qps > sync qps): "
            + ("passed" if crossover else "FAILED")
            + ("" if gate_armed else " (gate not armed at this scale "
               "or core count)") + ".  "
            "Machine-readable copy: `" + os.path.basename(path) + "`.",
        ],
    )
    if gate_armed:
        assert crossover, (
            f"no crossover on {cores} cores: shm pool "
            f"{modes['shm']['queries_per_s']} q/s vs sync "
            f"{modes['sync']['queries_per_s']} q/s")

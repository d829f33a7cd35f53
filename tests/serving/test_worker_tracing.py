"""Cross-process trace propagation and the pooled phase decomposition.

The contract under test: a worker task inherits the parent tracer's
trace id through the pickled :class:`~repro.telemetry.SpanContext`,
records its own timed spans (deserialize / attach / query / serialize),
and ships them back so the parent tracer holds one multi-process
timeline whose phases sum to the parent-observed task wall-clock.
"""

import os
import pickle

import pytest

from repro import ShardedSegmentDatabase
from repro.serving import TASK_PHASES
from repro.telemetry import (
    to_chrome_trace,
    validate_chrome_trace,
    wall_tracing,
)
from repro.workloads import grid_segments, segment_queries


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(300, seed=51)
    queries = list(segment_queries(segments, 24, seed=52))
    directory = str(tmp_path_factory.mktemp("serving") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    return directory, queries


def test_worker_spans_share_parent_trace_id(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        with wall_tracing() as tracer:
            served.query_batch(queries)
        assert tracer.records, "no spans recorded"
        assert {r.trace_id for r in tracer.records} == {tracer.trace_id}
        worker_pids = {r.pid for r in tracer.records} - {os.getpid()}
        assert worker_pids, "no spans came back from the worker process"


def test_pooled_timeline_has_all_phases(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        with wall_tracing() as tracer:
            served.query_batch(queries)   # cold: includes attach
            served.query_batch(queries)   # warm: no attach
        names = {r.name for r in tracer.records}
        assert set(TASK_PHASES) <= names
        attaches = [r for r in tracer.records if r.name == "attach"]
        # 2 shards, 1 worker process: each shard cold-opens exactly once.
        assert len(attaches) == 2
        # dispatch/collect are parent-side; deserialize/query/serialize
        # worker-side.
        parent_pid = os.getpid()
        for r in tracer.records:
            if r.name in ("dispatch", "collect"):
                assert r.pid == parent_pid, r
            if r.name in ("deserialize", "query", "serialize", "attach"):
                assert r.pid != parent_pid, r


def test_phases_cover_task_wall_clock(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        for _ in range(3):
            served.query_batch(queries)
        report = served.latency_report()
    assert report["tasks"] == 6  # 3 batches x 2 shards
    assert set(report["phases_s"]) <= set(TASK_PHASES)
    # The decomposition identity: phases explain the parent-observed
    # wall within 10% (slack = untimed gaps inside the worker).
    assert report["phase_coverage"] is not None
    assert 0.9 <= report["phase_coverage"] <= 1.05, report


def test_sync_mode_records_spans_in_parent_process(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=0) as served:
        with wall_tracing() as tracer:
            served.query_batch(queries)
        assert {r.pid for r in tracer.records} == {os.getpid()}
        assert {r.name for r in tracer.records} == {"query"}
        report = served.latency_report()
    assert report["phase_coverage"] == 1.0  # sync: query IS the wall


def test_multiprocess_trace_exports_valid_chrome_json(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=2) as served:
        with wall_tracing() as tracer:
            served.query_batch(queries)
    doc = to_chrome_trace(tracer.records, parent_pid=os.getpid())
    assert validate_chrome_trace(doc) == []
    lanes = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M"}
    assert "parent" in lanes
    assert any(name.startswith("worker-") for name in lanes)


@pytest.mark.parametrize("workers", (0, 1))
def test_slow_query_log_crosses_the_process_boundary(snapshot, workers):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=workers,
                                     slow_query_s=0.0) as served:
        served.query_batch(queries)
        log = served.slow_log
        assert log is not None and len(log) > 0
        entry = log.entries()[0]
        assert entry["kind"] == "query_batch"
        assert entry["latency_s"] >= 0.0
        # The diagnosis ran where the query ran and shipped back as data.
        assert entry["explain"] is not None


def test_no_tracer_means_no_span_overhead(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        out = served.query_batch(queries)  # no wall_tracing installed
        assert len(out) == len(queries)
        # Phase accounting still works without a tracer.
        assert served.latency_report()["tasks"] == 2


def test_result_bytes_count_what_is_shipped(snapshot):
    directory, queries = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        served.query_batch(queries)
        shipped = served.latency_report()["result_bytes"]
        (task,) = served._pool.query_batches({0: queries[:6]}).values()
        # The worker's protocol-5 result payload, byte for byte.
        assert task.result_bytes == len(pickle.dumps(task.payload, protocol=5))
    assert shipped > 0
    with ShardedSegmentDatabase.open(directory, workers=0) as served:
        served.query_batch(queries)
        assert served.latency_report()["result_bytes"] == 0

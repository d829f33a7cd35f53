"""Fault-tolerant serving: supervision, breakers, degraded results, chaos.

Three layers under test, bottom up:

* the resilience primitives in isolation — policy backoff math, the
  circuit-breaker state machine (injected clock, no sleeping), and the
  replayability contract of :class:`RpcChaosSchedule`;
* the supervised :class:`ShardWorkerPool` against real SIGKILLed
  workers — respawn + retry to exact answers, bounded exhaustion into
  typed failure results, breaker shedding, and the pinned legacy
  surface (``supervisor=None`` still lets ``BrokenProcessPool`` fly);
* the full RPC stack under seeded chaos — daemon behind a fault-
  injecting proxy, supervised pool being killed underneath — held to
  the never-silently-wrong oracle: every answer is exact, a typed
  degraded subset with an *accurate* shard-coverage map, or a typed
  error.  Never a hang, never a lie.
"""

import threading
import time
from random import Random

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import DegradedBatch, DegradedResult, ShardedSegmentDatabase
from repro.serving import (
    WORKER_KILL_POINTS,
    ChaosProxy,
    CircuitBreaker,
    RpcChaosSchedule,
    ServeClient,
    ServeConnectionError,
    ServeDaemon,
    ServeRejected,
    ShardDownError,
    SupervisorPolicy,
    shm_available,
)
from repro.serving.resilience import chaos_kill_point
from repro.workloads import grid_segments, segment_queries

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="no multiprocessing.shared_memory")


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    segments = grid_segments(240, seed=71)
    queries = list(segment_queries(segments, 16, seed=72))
    directory = str(tmp_path_factory.mktemp("resilience") / "snap")
    ShardedSegmentDatabase.bulk_load(
        segments, shards=2, block_capacity=16).save(directory)
    with ShardedSegmentDatabase.open(directory, workers=0) as sync:
        expected = [sorted(str(s.label) for s in r)
                    for r in sync.query_batch(queries)]
    return directory, queries, expected


def _labels(results):
    return [sorted(str(s.label) for s in r) for r in results]


# ----------------------------------------------------------------------
# SupervisorPolicy
# ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisorPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_s=-0.1)
    with pytest.raises(ValueError):
        SupervisorPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        SupervisorPolicy(task_timeout_s=0)
    with pytest.raises(ValueError):
        SupervisorPolicy(breaker_threshold=0)


def test_policy_backoff_doubles_and_caps():
    policy = SupervisorPolicy(backoff_s=0.1, backoff_cap_s=0.35, jitter=0.0)
    rng = Random(0)
    delays = [policy.delay_s(k, rng) for k in (1, 2, 3, 4)]
    assert delays == [0.1, 0.2, 0.35, 0.35]


def test_policy_jitter_is_bounded_and_seeded():
    policy = SupervisorPolicy(backoff_s=0.1, jitter=0.5)
    a = [policy.delay_s(1, Random(3)) for _ in range(1)]
    b = [policy.delay_s(1, Random(3)) for _ in range(1)]
    assert a == b, "same rng state must give the same jittered delay"
    for _ in range(50):
        d = policy.delay_s(1, Random())
        assert 0.1 <= d <= 0.15


def test_policy_round_trips_through_dict():
    policy = SupervisorPolicy(max_retries=5, task_timeout_s=None, seed=9)
    assert SupervisorPolicy.from_dict(policy.to_dict()) == policy


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_threshold_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=clock)
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure("worker-died")
    assert breaker.state == "closed", "one failure below threshold"
    breaker.record_failure("worker-died")
    assert breaker.state == "open" and not breaker.allow()
    assert breaker.opens == 1
    clock.now += 4.9
    assert breaker.state == "open", "cooldown not over yet"
    clock.now += 0.2
    assert breaker.state == "half-open" and breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.last_error is None


def test_breaker_failed_probe_reopens_with_fresh_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
    breaker.record_failure("timeout")
    clock.now += 6
    assert breaker.state == "half-open"
    breaker.record_failure("timeout")       # probe failed
    assert breaker.state == "open" and breaker.opens == 2
    clock.now += 4.9
    assert breaker.state == "open", "re-open must restart the cooldown"


def test_breaker_success_resets_consecutive_count():
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=FakeClock())
    breaker.record_failure("worker-died")
    breaker.record_success()
    breaker.record_failure("worker-died")
    assert breaker.state == "closed", "non-consecutive failures don't open"


def test_breaker_validation_and_report():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown_s=-1)
    report = CircuitBreaker(threshold=3, cooldown_s=1.0).to_dict()
    assert report["state"] == "closed"
    assert report["threshold"] == 3
    assert report["opens"] == 0


# ----------------------------------------------------------------------
# RpcChaosSchedule
# ----------------------------------------------------------------------

def test_chaos_schedule_is_replayable():
    a = RpcChaosSchedule(seed=5, worker_kill_rate=0.5)
    b = RpcChaosSchedule(seed=5, worker_kill_rate=0.5)
    decisions_a = [a.next_worker_kill(shard=i % 2) for i in range(40)]
    decisions_b = [b.next_worker_kill(shard=i % 2) for i in range(40)]
    assert decisions_a == decisions_b
    assert any(decisions_a), "rate 0.5 over 40 draws must kill sometimes"
    assert all(d in WORKER_KILL_POINTS for d in decisions_a if d)
    assert a.history == b.history
    assert all(e["kind"] == "worker-kill" for e in a.history)


def test_chaos_kill_points_fire_once_at_the_named_submission():
    schedule = RpcChaosSchedule(seed=0, kill_points={"worker.mid-query": 3})
    decisions = [schedule.next_worker_kill(shard=0) for _ in range(6)]
    assert decisions == [None, None, "worker.mid-query", None, None, None]
    assert schedule.kills_injected == 1


def test_chaos_max_kills_caps_rate_kills():
    schedule = RpcChaosSchedule(seed=1, worker_kill_rate=1.0, max_kills=2)
    decisions = [schedule.next_worker_kill(shard=0) for _ in range(10)]
    assert sum(1 for d in decisions if d) == 2
    assert schedule.kills_injected == 2


def test_chaos_disarmed_suspends_injection():
    schedule = RpcChaosSchedule(seed=2, worker_kill_rate=1.0,
                                frame_corrupt_rate=1.0)
    with schedule.disarmed():
        assert schedule.next_worker_kill(shard=0) is None
        assert schedule.next_frame_fault() is None
    assert schedule.next_worker_kill(shard=0) is not None


def test_chaos_frame_fault_kinds():
    assert RpcChaosSchedule(seed=0, conn_reset_rate=1.0).next_frame_fault() \
        == "reset"
    assert RpcChaosSchedule(
        seed=0, frame_truncate_rate=1.0).next_frame_fault() == "truncate"
    assert RpcChaosSchedule(
        seed=0, frame_corrupt_rate=1.0).next_frame_fault() == "corrupt"
    assert RpcChaosSchedule(
        seed=0, frame_delay_rate=1.0,
        frame_delay_s=0.01).next_frame_fault() == "delay"
    assert RpcChaosSchedule(seed=0).next_frame_fault() is None


def test_chaos_schedule_round_trips_through_dict():
    schedule = RpcChaosSchedule(seed=11, worker_kill_rate=0.3,
                                kill_points={"worker.start": 2},
                                max_kills=4, frame_corrupt_rate=0.1)
    twin = RpcChaosSchedule.from_dict(schedule.to_dict())
    assert [schedule.next_worker_kill(0) for _ in range(20)] == \
           [twin.next_worker_kill(0) for _ in range(20)]


def test_chaos_kill_point_is_a_no_op_when_untagged():
    # Any SIGKILL here would take the test runner down with it.
    chaos_kill_point("worker.mid-query", None)
    chaos_kill_point("worker.mid-query", "worker.start")


# ----------------------------------------------------------------------
# Supervised worker pool vs real SIGKILLed workers
# ----------------------------------------------------------------------

def test_supervised_pool_recovers_exactly_from_a_mid_query_kill(snapshot):
    directory, queries, expected = snapshot
    policy = SupervisorPolicy(max_retries=2, backoff_s=0.01, seed=3)
    chaos = RpcChaosSchedule(seed=3, kill_points={"worker.mid-query": 1})
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=policy,
                                     chaos=chaos) as served:
        results = served.query_batch(queries)
        pool = served._pool
        assert pool.respawns == 1, "the kill must have forced a respawn"
        assert pool.retried_tasks > 0
        assert pool.failed_tasks == 0
    assert not isinstance(results, DegradedBatch)
    assert _labels(results) == expected, "recovery must be bit-exact"


def test_every_kill_point_recovers(snapshot):
    directory, queries, expected = snapshot
    for point in WORKER_KILL_POINTS:
        policy = SupervisorPolicy(max_retries=2, backoff_s=0.01)
        chaos = RpcChaosSchedule(seed=0, kill_points={point: 1})
        with ShardedSegmentDatabase.open(directory, workers=1,
                                         supervisor=policy,
                                         chaos=chaos) as served:
            results = served.query_batch(queries)
            assert served._pool.respawns >= 1, point
        assert _labels(results) == expected, point


def test_retry_exhaustion_degrades_instead_of_raising(snapshot):
    directory, queries, expected = snapshot
    policy = SupervisorPolicy(max_retries=1, backoff_s=0.01,
                              breaker_threshold=3)
    chaos = RpcChaosSchedule(seed=0, worker_kill_rate=1.0)
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=policy,
                                     chaos=chaos) as served:
        batch = served.query_batch(queries)
        assert isinstance(batch, DegradedBatch)
        assert not batch.complete
        assert served._pool.failed_tasks > 0
        assert served.degraded_batches == 1
        # Coverage names every routed shard, all down at kill rate 1.
        assert set(batch.shard_coverage) == {0, 1}
        for verdict in batch.shard_coverage.values():
            assert verdict.startswith("down: ")
        for result in batch:
            assert isinstance(result, DegradedResult)
            assert result.source == "shard-down"


def test_degraded_coverage_map_is_accurate_per_query(snapshot):
    """The rigorous oracle: take down exactly one shard and check every
    query against its own routing — queries routed only to the live
    shard must be exact plain lists, queries touching the dead shard
    must be DegradedResults that under-report, never invent.  The
    failure is injected at the pool boundary (a SIGKILL's blast radius
    covers the whole executor, which would make a one-shard outage
    timing-dependent)."""
    directory, queries, expected = snapshot
    from repro.serving import WorkerTaskResult
    from repro.serving.reporting import ShardBatchStats

    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        real = served._pool.query_batches

        def shard0_down(batches):
            out = real({i: qs for i, qs in batches.items() if i != 0})
            if 0 in batches:
                out[0] = WorkerTaskResult(
                    payload=None, stats=ShardBatchStats(),
                    failure="worker-died", error="injected", attempts=2)
            return out

        served._pool.query_batches = shard0_down
        batch = served.query_batch(queries)
        assert isinstance(batch, DegradedBatch)
        assert batch.shard_coverage[1] == "ok"
        assert batch.shard_coverage[0].startswith("down: worker-died")
        for q, result, want in zip(queries, batch, expected):
            routed = list(served.shards_for(q.x))
            answer = sorted(str(s.label) for s in result)
            if 0 in routed:
                assert isinstance(result, DegradedResult), q
                assert set(answer) <= set(want), (
                    f"{q}: degraded result invented segments")
            else:
                assert not isinstance(result, DegradedResult), q
                assert answer == want, f"{q}: untouched query went wrong"


def test_degrade_false_raises_typed_shard_down(snapshot):
    directory, queries, _expected = snapshot
    policy = SupervisorPolicy(max_retries=0, backoff_s=0.01)
    chaos = RpcChaosSchedule(seed=0, worker_kill_rate=1.0)
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=policy,
                                     chaos=chaos) as served:
        with pytest.raises(ShardDownError) as excinfo:
            served.query_batch(queries, degrade=False)
    assert excinfo.value.failures
    for kind, _reason in excinfo.value.failures.values():
        assert kind == "worker-died"


def test_explain_batch_refuses_partial_anatomy(snapshot):
    directory, queries, _expected = snapshot
    policy = SupervisorPolicy(max_retries=0, backoff_s=0.01)
    chaos = RpcChaosSchedule(seed=0, worker_kill_rate=1.0)
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=policy,
                                     chaos=chaos) as served:
        with pytest.raises(ShardDownError):
            served.explain_batch(queries)


def test_unsupervised_pool_keeps_the_legacy_failure_surface(snapshot):
    directory, queries, _expected = snapshot
    chaos = RpcChaosSchedule(seed=0, worker_kill_rate=1.0)
    with ShardedSegmentDatabase.open(directory, workers=1,
                                     supervisor=None,
                                     chaos=chaos) as served:
        with pytest.raises(BrokenProcessPool):
            served.query_batch(queries)


def test_fault_free_supervised_results_are_bit_identical(snapshot):
    directory, queries, _expected = snapshot
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=None) as raw:
        want = raw.query_batch(queries)
        want_io = raw.io_report()
    with ShardedSegmentDatabase.open(directory, workers=2) as supervised:
        got = supervised.query_batch(queries)
        got_io = supervised.io_report()
        assert supervised._pool.respawns == 0
        assert supervised._pool.retried_tasks == 0
    assert type(got) is list, "fault-free must not wrap the batch"
    assert _labels(got) == _labels(want)
    assert got_io["combined"]["reads"] == want_io["combined"]["reads"]


def test_circuit_breaker_sheds_and_half_open_probe_recovers(snapshot):
    directory, queries, expected = snapshot
    policy = SupervisorPolicy(max_retries=0, backoff_s=0.0,
                              breaker_threshold=1, breaker_cooldown_s=0.2)
    chaos = RpcChaosSchedule(seed=0, worker_kill_rate=1.0, max_kills=2)
    with ShardedSegmentDatabase.open(directory, workers=2,
                                     supervisor=policy,
                                     chaos=chaos) as served:
        pool = served._pool
        first = served.query_batch(queries)       # kills land, breakers open
        assert isinstance(first, DegradedBatch)
        health = pool.health()
        assert any(b["state"] in ("open", "half-open")
                   for b in health["breakers"].values())
        shed_before = pool.shed_tasks
        second = served.query_batch(queries)      # open: fail fast, no retry
        assert isinstance(second, DegradedBatch)
        assert pool.shed_tasks > shed_before, "open breaker must shed"
        time.sleep(0.25)                          # cooldown elapses
        third = served.query_batch(queries)       # half-open probe, no kills
        assert _labels(third) == expected, "probe must recover exactly"
        assert all(b["state"] == "closed"
                   for b in pool.health()["breakers"].values())
        assert served.health_report()["pool"]["shed_tasks"] == pool.shed_tasks


def test_pool_health_report_shape(snapshot):
    directory, queries, _expected = snapshot
    with ShardedSegmentDatabase.open(directory, workers=1) as served:
        served.query_batch(queries)
        health = served.health_report()
    assert health["mode"] == "pool"
    assert health["shards"] == 2
    pool = health["pool"]
    for key in ("workers", "alive_workers", "supervised",
                "respawns", "retried_tasks", "failed_tasks", "shed_tasks",
                "breakers"):
        assert key in pool, key
    assert pool["supervised"] is True
    assert pool["alive_workers"] == 1


# ----------------------------------------------------------------------
# RPC chaos: daemon behind a fault-injecting proxy, pool being killed
# ----------------------------------------------------------------------

def _daemon(db, **kwargs):
    daemon = ServeDaemon(db, **kwargs)
    thread = threading.Thread(
        target=daemon.run, kwargs={"install_signal_handlers": False},
        daemon=True)
    thread.start()
    assert daemon.ready.wait(timeout=10)
    return daemon, thread


def test_rpc_chaos_oracle_never_silently_wrong(snapshot):
    """The crash-point oracle at the RPC layer, over several seeds:
    workers SIGKILLed by schedule, response frames corrupted/truncated/
    reset by the proxy, client armed with timeouts and retries — and
    every answer that comes back is exact or a typed honest subset."""
    directory, queries, expected = snapshot
    for seed in range(3):
        policy = SupervisorPolicy(max_retries=3, backoff_s=0.01,
                                  breaker_cooldown_s=0.1, seed=seed)
        kills = RpcChaosSchedule(seed=seed, worker_kill_rate=0.3)
        frames = RpcChaosSchedule(seed=seed + 100, frame_corrupt_rate=0.2,
                                  frame_truncate_rate=0.1,
                                  conn_reset_rate=0.1)
        with ShardedSegmentDatabase.open(directory, workers=2,
                                         supervisor=policy,
                                         chaos=kills) as served:
            daemon, thread = _daemon(served)
            try:
                with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
                    with ServeClient(port=proxy.port, connect_timeout=5,
                                     request_timeout=30, retries=5,
                                     retry_backoff_s=0.01,
                                     seed=seed) as client:
                        for start in range(0, len(queries), 4):
                            want = expected[start:start + 4]
                            try:
                                got = client.query_batch(
                                    queries[start:start + 4])
                            except (ServeRejected,
                                    ServeConnectionError):
                                continue  # loud typed failure: acceptable
                            if getattr(got, "degraded", False):
                                assert any(
                                    str(v).startswith("down")
                                    for v in got.shard_coverage.values()
                                ), "degraded batch with an all-ok map"
                                for result, labels in zip(got, want):
                                    answer = sorted(str(s.label)
                                                    for s in result)
                                    assert set(answer) <= set(labels)
                            else:
                                assert _labels(got) == want, (
                                    f"seed {seed}: silent wrong answer; "
                                    f"kills={kills.history} "
                                    f"frames={frames.history}")
            finally:
                daemon.request_stop()
                thread.join(timeout=10)
        assert not thread.is_alive(), f"seed {seed}: daemon hung in drain"


def test_corrupted_frame_is_a_typed_error_without_retries(snapshot):
    directory, queries, _expected = snapshot
    with ShardedSegmentDatabase.open(directory, workers=0) as served:
        daemon, thread = _daemon(served)
        frames = RpcChaosSchedule(seed=0, frame_corrupt_rate=1.0)
        try:
            with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
                with ServeClient(port=proxy.port, retries=0) as client:
                    with pytest.raises(ServeConnectionError,
                                       match="undecodable"):
                        client.query_batch(queries[:2])
        finally:
            daemon.request_stop()
            thread.join(timeout=10)


def test_client_retries_ride_out_connection_resets(snapshot):
    directory, queries, expected = snapshot
    with ShardedSegmentDatabase.open(directory, workers=0) as served:
        daemon, thread = _daemon(served)
        frames = RpcChaosSchedule(seed=4, conn_reset_rate=0.5)
        try:
            with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
                with ServeClient(port=proxy.port, retries=6,
                                 retry_backoff_s=0.01) as client:
                    for start in range(0, len(queries), 4):
                        got = client.query_batch(queries[start:start + 4])
                        assert _labels(got) == expected[start:start + 4]
        finally:
            daemon.request_stop()
            thread.join(timeout=10)
    assert frames.frame_faults_injected > 0, "the reset schedule never fired"


@pytest.mark.parametrize("fault", ["conn_reset_rate", "frame_truncate_rate"])
def test_proxy_teardown_reaches_the_client_at_once(snapshot, fault):
    """Regression: the proxy closed the client socket while its request
    pump was still blocked in ``recv()`` on it, so no FIN went out and the
    client sat out its whole 30 s read timeout instead of seeing the
    connection drop."""
    directory, queries, _expected = snapshot
    with ShardedSegmentDatabase.open(directory, workers=0) as served:
        daemon, thread = _daemon(served)
        frames = RpcChaosSchedule(seed=0, **{fault: 1.0})
        try:
            with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
                with ServeClient(port=proxy.port, retries=0,
                                 request_timeout=30) as client:
                    t0 = time.perf_counter()
                    with pytest.raises(ServeConnectionError):
                        client.query_batch(queries[:4])
                    elapsed = time.perf_counter() - t0
            assert elapsed < 2.0, f"teardown took {elapsed:.1f}s to arrive"
        finally:
            daemon.request_stop()
            thread.join(timeout=10)


def test_chaos_proxy_delay_passes_frames_through_intact(snapshot):
    directory, queries, expected = snapshot
    with ShardedSegmentDatabase.open(directory, workers=0) as served:
        daemon, thread = _daemon(served)
        frames = RpcChaosSchedule(seed=0, frame_delay_rate=1.0,
                                  frame_delay_s=0.05)
        try:
            with ChaosProxy("127.0.0.1", daemon.port, frames) as proxy:
                with ServeClient(port=proxy.port, retries=0) as client:
                    t0 = time.perf_counter()
                    got = client.query_batch(queries[:4])
                    elapsed = time.perf_counter() - t0
            assert _labels(got) == expected[:4]
            assert elapsed >= 0.05, "the delay fault never applied"
        finally:
            daemon.request_stop()
            thread.join(timeout=10)

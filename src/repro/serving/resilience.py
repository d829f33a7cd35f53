"""Fault tolerance for the serving layer: supervision, breakers, chaos.

PR 4 gave the *storage* layer a seeded, replayable fault model
(:class:`~repro.iosim.FaultSchedule`, CRCs, the crash-point oracle).
This module gives the *serving* layer — worker processes, shared-memory
attach, the TCP daemon — the same treatment, built from four pieces:

:class:`SupervisorPolicy`
    How a :class:`~repro.serving.workers.ShardWorkerPool` survives a
    dead or hung worker: bounded retry rounds with exponential backoff
    plus seeded jitter, a per-task-round deadline so a hang is detected
    instead of waited out, and the circuit-breaker thresholds below.
    ``supervisor=None`` disables supervision entirely and pins the
    legacy failure surface (a raw ``BrokenProcessPool`` escaping).

:class:`CircuitBreaker`
    Per-shard failure accounting.  After ``threshold`` consecutive
    unrecovered failures the shard is *open*: batches fail fast with a
    typed degraded result instead of burning a retry storm against a
    corpse.  After ``cooldown_s`` the breaker goes *half-open* and lets
    one batch probe; success closes it again.

:class:`RpcChaosSchedule`
    The serving twin of :class:`~repro.iosim.FaultSchedule` (same
    :class:`~repro.iosim.faults.ReplayableSchedule` plumbing): seeded,
    deterministic decisions about worker SIGKILLs at named chaos points
    mid-batch and about RPC frame faults (delay, truncation, corruption,
    connection reset), every injection logged to ``history`` so a
    failing chaos run ships its reproduction recipe.

:class:`ChaosProxy`
    A frame-aware TCP proxy between a client and a
    :class:`~repro.serving.daemon.ServeDaemon` that applies the
    schedule's frame faults to the response stream.  The daemon under
    test is untouched — exactly the faults a flaky network injects.

The typed errors at the top are the contract the rest of the stack
keeps: a serving failure is *never* a raw traceback or a silent wrong
answer; it is a complete result, a
:class:`~repro.core.recovery.DegradedResult` with an accurate shard
coverage map, or one of these exceptions.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from ..iosim.faults import ReplayableSchedule

#: Named chaos points inside a worker task, in timeline order.  A kill
#: at each point exercises a different recovery obligation: before any
#: work (idempotent resubmit), after the shard attach (re-attach on a
#: fresh process), mid-query (partial engine work discarded), and after
#: the result was computed but before it was shipped (the retry must
#: not double-count anything).
WORKER_KILL_POINTS = (
    "worker.start",
    "worker.after-attach",
    "worker.mid-query",
    "worker.before-reply",
)

#: Frame fault kinds the chaos proxy can inject on a response frame.
FRAME_FAULTS = ("delay", "truncate", "corrupt", "reset")


class ShardDownError(RuntimeError):
    """One or more shards could not serve and degradation was refused.

    ``failures`` maps shard index to ``(kind, reason)`` where ``kind``
    is ``"worker-died"``, ``"timeout"``, or ``"circuit-open"``.
    """

    def __init__(self, failures: Dict[int, Tuple[str, str]]):
        self.failures = dict(failures)
        detail = "; ".join(
            f"shard {index}: {kind} ({reason})"
            for index, (kind, reason) in sorted(self.failures.items())
        )
        super().__init__(detail or "shard failure")


class ServeConnectionError(ConnectionError):
    """The daemon connection died mid-conversation (typed, not a traceback).

    Raised by :class:`~repro.serving.daemon.ServeClient` for connect
    timeouts, read timeouts, resets, and short/undecodable frames —
    every way a TCP peer can vanish.  ``reason`` says which.
    """

    def __init__(self, host: str, port: int, reason: str):
        self.host = host
        self.port = port
        self.reason = reason
        super().__init__(f"{host}:{port}: {reason}")


@dataclass
class SupervisorPolicy:
    """Retry/deadline/backoff knobs for a supervised worker pool.

    A failed task round (worker death, broken executor, or a task
    exceeding ``task_timeout_s``) is retried up to ``max_retries``
    times on a freshly spawned pool; retry *k* sleeps
    ``backoff_s * 2**(k-1)`` scaled by ``1 + jitter * U[0,1)`` from a
    PRNG seeded with ``seed`` (deterministic in tests, decorrelated in a
    fleet).  After ``breaker_threshold`` consecutive exhausted batches a
    shard's circuit opens for ``breaker_cooldown_s`` and fails fast.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5
    task_timeout_s: Optional[float] = 60.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive or None")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")

    def delay_s(self, retry: int, rng: Random) -> float:
        """Backoff before retry number ``retry`` (1-based), jittered."""
        base = min(self.backoff_s * (2 ** (retry - 1)), self.backoff_cap_s)
        return base * (1.0 + self.jitter * rng.random())

    def to_dict(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "jitter": self.jitter,
            "task_timeout_s": self.task_timeout_s,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SupervisorPolicy":
        return cls(**data)


class CircuitBreaker:
    """Consecutive-failure breaker for one shard.

    States: ``closed`` (healthy), ``open`` (failing fast until the
    cooldown elapses), ``half-open`` (cooldown over, one probe batch
    admitted; success closes, failure re-opens).  ``clock`` is
    injectable so tests need not sleep through cooldowns.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 1.0,
                 clock=time.monotonic):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self.last_error: Optional[str] = None
        self.opens = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May the next batch for this shard be attempted?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self.last_error = None

    def record_failure(self, reason: str) -> None:
        self.last_error = reason
        if self._opened_at is not None:
            # A failed half-open probe re-opens with a fresh cooldown.
            self._opened_at = self._clock()
            self.opens += 1
            return
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = self._clock()
            self.opens += 1

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self._failures,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "opens": self.opens,
            "last_error": self.last_error,
        }


class RpcChaosSchedule(ReplayableSchedule):
    """A seeded, replayable schedule of serving-layer faults.

    Parameters
    ----------
    seed:
        Seeds the PRNG; identical seeds replay identical faults.
    worker_kill_rate:
        Probability that a submitted worker task is tagged with a
        SIGKILL at a (seeded-uniform) named chaos point.
    kill_points:
        ``{point: k}`` — kill the worker at the named point on the k-th
        task submission (1-based, one-shot per name).  Point names come
        from :data:`WORKER_KILL_POINTS`.
    max_kills:
        Cap on rate-driven kills (``None`` = unlimited).  A capped
        schedule is guaranteed to let a bounded-retry pool eventually
        succeed, which is what the chaos oracle's "correct complete
        result" arm needs.
    frame_delay_rate / frame_delay_s:
        Probability that the proxy stalls a response frame, and for how
        long.
    frame_truncate_rate:
        Probability that a response frame is cut short and the
        connection closed (the client sees an incomplete frame).
    frame_corrupt_rate:
        Probability that response payload bytes are flipped (the
        client's restricted unpickler rejects the frame).
    conn_reset_rate:
        Probability that the connection is torn down instead of
        answering at all.

    Decisions are consumed in call order, so a retried task or a
    reconnected client gets a *fresh* decision — exactly how a real
    flaky fleet behaves, and still fully replayable from the seed.
    """

    def __init__(
        self,
        seed: int = 0,
        worker_kill_rate: float = 0.0,
        kill_points: Optional[Dict[str, int]] = None,
        max_kills: Optional[int] = None,
        frame_delay_rate: float = 0.0,
        frame_delay_s: float = 0.05,
        frame_truncate_rate: float = 0.0,
        frame_corrupt_rate: float = 0.0,
        conn_reset_rate: float = 0.0,
        enabled: bool = True,
    ):
        for name, rate in (
            ("worker_kill_rate", worker_kill_rate),
            ("frame_delay_rate", frame_delay_rate),
            ("frame_truncate_rate", frame_truncate_rate),
            ("frame_corrupt_rate", frame_corrupt_rate),
            ("conn_reset_rate", conn_reset_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for point in (kill_points or {}):
            if point not in WORKER_KILL_POINTS:
                raise ValueError(f"unknown kill point {point!r}; "
                                 f"pick from {WORKER_KILL_POINTS}")
        super().__init__(seed=seed, enabled=enabled)
        self.worker_kill_rate = worker_kill_rate
        self.kill_points: Dict[str, int] = dict(kill_points or {})
        self.max_kills = max_kills
        self.frame_delay_rate = frame_delay_rate
        self.frame_delay_s = frame_delay_s
        self.frame_truncate_rate = frame_truncate_rate
        self.frame_corrupt_rate = frame_corrupt_rate
        self.conn_reset_rate = conn_reset_rate
        self.kills_injected = 0
        self.frame_faults_injected = 0
        self._task_seq = 0

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def next_worker_kill(self, shard: int) -> Optional[str]:
        """Chaos point at which the worker serving this task dies, if any.

        Called by the pool parent once per task *submission* (retries
        included), so the decision stream is independent of worker
        scheduling and replays exactly.
        """
        if not self.enabled:
            return None
        self._task_seq += 1
        for point, at in list(self.kill_points.items()):
            if self._task_seq >= at:
                del self.kill_points[point]
                self.kills_injected += 1
                self._log("worker-kill", point=point, shard=shard,
                          task_seq=self._task_seq, via="kill_points")
                return point
        if (self.worker_kill_rate
                and (self.max_kills is None
                     or self.kills_injected < self.max_kills)
                and self._rng.random() < self.worker_kill_rate):
            point = WORKER_KILL_POINTS[
                self._rng.randrange(len(WORKER_KILL_POINTS))]
            self.kills_injected += 1
            self._log("worker-kill", point=point, shard=shard,
                      task_seq=self._task_seq, via="rate")
            return point
        return None

    def next_frame_fault(self) -> Optional[str]:
        """Fault kind for the next proxied response frame, if any."""
        if not self.enabled:
            return None
        if self.conn_reset_rate and self._rng.random() < self.conn_reset_rate:
            return self._frame_fault("reset")
        if (self.frame_truncate_rate
                and self._rng.random() < self.frame_truncate_rate):
            return self._frame_fault("truncate")
        if (self.frame_corrupt_rate
                and self._rng.random() < self.frame_corrupt_rate):
            return self._frame_fault("corrupt")
        if self.frame_delay_rate and self._rng.random() < self.frame_delay_rate:
            return self._frame_fault("delay")
        return None

    def _frame_fault(self, kind: str) -> str:
        self.frame_faults_injected += 1
        self._log(f"frame-{kind}")
        return kind

    # ------------------------------------------------------------------
    # reproduction
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "worker_kill_rate": self.worker_kill_rate,
            "kill_points": dict(self.kill_points),
            "max_kills": self.max_kills,
            "frame_delay_rate": self.frame_delay_rate,
            "frame_delay_s": self.frame_delay_s,
            "frame_truncate_rate": self.frame_truncate_rate,
            "frame_corrupt_rate": self.frame_corrupt_rate,
            "conn_reset_rate": self.conn_reset_rate,
            "enabled": self.enabled,
            "kills_injected": self.kills_injected,
            "frame_faults_injected": self.frame_faults_injected,
            "history": list(self.history),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RpcChaosSchedule":
        return cls(
            seed=data.get("seed", 0),
            worker_kill_rate=data.get("worker_kill_rate", 0.0),
            kill_points=data.get("kill_points"),
            max_kills=data.get("max_kills"),
            frame_delay_rate=data.get("frame_delay_rate", 0.0),
            frame_delay_s=data.get("frame_delay_s", 0.05),
            frame_truncate_rate=data.get("frame_truncate_rate", 0.0),
            frame_corrupt_rate=data.get("frame_corrupt_rate", 0.0),
            conn_reset_rate=data.get("conn_reset_rate", 0.0),
            enabled=data.get("enabled", True),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RpcChaosSchedule(seed={self.seed}, "
            f"kills={self.kills_injected}, "
            f"frame_faults={self.frame_faults_injected})"
        )


def chaos_kill_point(point: str, chaos_kill: Optional[str]) -> None:
    """Die here — hard, as a SIGKILLed production worker dies — if the
    task was tagged with this chaos point.  Called from worker code."""
    if chaos_kill == point:
        os.kill(os.getpid(), signal.SIGKILL)


_FRAME = struct.Struct(">I")


class ChaosProxy:
    """A TCP proxy that applies an :class:`RpcChaosSchedule` to frames.

    Sits between a :class:`~repro.serving.daemon.ServeClient` and a
    :class:`~repro.serving.daemon.ServeDaemon`.  Requests pass through
    verbatim; each *response* frame consults the schedule and is
    forwarded, delayed, truncated (then the connection closed), bitwise
    corrupted, or replaced by an abrupt connection teardown.  The client
    therefore sees exactly the failure surface a flaky network
    produces, while the daemon stays healthy — which is the point: the
    chaos oracle holds the *client's* retry/timeout machinery to the
    never-wrong-never-hung contract.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 schedule: RpcChaosSchedule, host: str = "127.0.0.1"):
        self.upstream = (upstream_host, upstream_port)
        self.schedule = schedule
        self._lock = threading.Lock()  # schedule decisions are serialized
        self._listener = socket.create_server((host, 0))
        self.host, self.port = self._listener.getsockname()[:2]
        self._closing = threading.Event()
        self._conns: List[socket.socket] = []
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._relay, args=(client,),
                             daemon=True).start()

    def _relay(self, client: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self.upstream, timeout=10)
        except OSError:
            client.close()
            return
        with self._lock:
            self._conns.extend((client, upstream))
        done = threading.Event()

        def pump_requests() -> None:
            try:
                while True:
                    chunk = client.recv(65536)
                    if not chunk:
                        break
                    upstream.sendall(chunk)
            except OSError:
                pass
            finally:
                done.set()
                _shutdown(upstream)

        threading.Thread(target=pump_requests, daemon=True).start()
        try:
            self._pump_responses(upstream, client)
        finally:
            done.set()
            _close_both(client, upstream)

    def _pump_responses(self, upstream: socket.socket,
                        client: socket.socket) -> None:
        while True:
            header = _recv_exact(upstream, _FRAME.size)
            if header is None:
                return
            (length,) = _FRAME.unpack(header)
            payload = _recv_exact(upstream, length)
            if payload is None:
                return
            with self._lock:
                fault = self.schedule.next_frame_fault()
            try:
                if fault == "reset":
                    return  # close both ends without answering
                if fault == "delay":
                    time.sleep(self.schedule.frame_delay_s)
                elif fault == "truncate":
                    client.sendall(header + payload[: max(1, length // 2)])
                    return  # short frame, then hang up
                elif fault == "corrupt":
                    corrupted = bytearray(payload)
                    for i in range(0, len(corrupted), 7):
                        corrupted[i] ^= 0xFF
                    client.sendall(header + bytes(corrupted))
                    continue
                client.sendall(header + payload)
            except OSError:
                return

    def close(self) -> None:
        self._closing.set()
        _close_both(self._listener)  # shutdown wakes the blocked accept()
        with self._lock:
            conns, self._conns = self._conns, []
        for sock in conns:
            _close_both(sock)
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _shutdown(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def _close_both(*socks: socket.socket) -> None:
    """Tear sockets down for real.  ``close()`` alone neither sends a FIN
    nor wakes a listener while another thread is blocked in ``recv()`` or
    ``accept()`` on the socket (the kernel keeps it open until that call
    returns), so the peer would wait out its whole read timeout;
    ``shutdown`` ends the connection at once and wakes the blocked
    call."""
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # not connected, or already shut down
            pass
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

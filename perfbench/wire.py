"""The ``wire-wide`` workload: a ``repro serve`` daemon over loopback TCP.

One client thread keeps one request in flight on each of its
connections (a closed loop) and times each request from send until its
response is decoded.  Every answer is compared with the in-process
answer of the same sharded index, which is itself checked against the
brute-force :class:`~perfbench.common.ColumnOracle`.  Daemon and pool
numbers come from the daemon's public ``stats`` and ``health`` frames.
"""

from __future__ import annotations

import json
import os
import pickle
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from random import Random
from time import perf_counter
from typing import List, Optional

from repro import SegmentDatabase
from repro.iosim import restricted_loads
from repro.serving import ShardedSegmentDatabase
from repro.workloads import dump, grid_segments, load, stabbing_queries

from .common import (DATA_SEED, ROOT, WORK_ROOT, Calibrator, ColumnOracle,
                     Result, StealClock, Timings, labels_of, median,
                     process_tree, tree_pss_mb)
from .libload import ENGINE_TARGETS, layer_metrics
from .tracer import SpanRecorder

_FRAME = struct.Struct(">I")
#: Longest wait for any single daemon answer or lifecycle step.
TIMEOUT_S = 60.0
#: How long the daemon's child processes may take to exit after it.
ORPHAN_GRACE_S = 10.0


def _frame(payload: dict) -> bytes:
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(body)) + body


def _shm_names() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("rpr-")}
    except OSError:
        return set()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Daemon:
    """One ``repro serve`` subprocess, from launch to a checked stop."""

    def __init__(self, seg_file: str, work: str, cfg: dict):
        self.snap_dir = tempfile.mkdtemp(prefix="snap-", dir=work)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        env["TMPDIR"] = work  # the pool's shm owner-lock files land here
        self.stderr = open(os.path.join(self.snap_dir, "stderr.log"), "wb")
        self.lines: List[str] = []
        self.ready = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", seg_file,
             "--engine", cfg["engine"], "--block", str(cfg["block"]),
             "--shards", str(cfg["shards"]), "--workers", str(cfg["workers"]),
             "--dir", self.snap_dir],
            stdout=subprocess.PIPE, stderr=self.stderr, env=env, cwd=ROOT,
            text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.workers: List[int] = []

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if '"ready"' in line:
                self.ready.set()
        self.ready.set()  # stdout closed: wake any waiter

    def port(self) -> int:
        if not self.ready.wait(TIMEOUT_S) or not self.lines:
            raise RuntimeError("daemon printed no ready banner")
        banner = json.loads(self.lines[0])
        if not banner.get("ready"):
            raise RuntimeError(f"unexpected banner {self.lines[0]!r}")
        return banner["port"]

    def note_workers(self) -> None:
        self.workers = process_tree(self.proc.pid)[1:]

    def stop(self, expected_requests: int, result: Result) -> None:
        """SIGTERM, then require a drained exit 0, the daemon's request
        count to equal the client's, and no leaked process or segment."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            code = self.proc.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for pid in process_tree(self.proc.pid):
                os.kill(pid, signal.SIGKILL)
            code = self.proc.wait()
        self._reader.join(TIMEOUT_S)
        self.stderr.close()
        report = {}
        try:
            report = json.loads(self.lines[-1]) if len(self.lines) > 1 else {}
        except ValueError:
            pass
        if code != 0 or not report.get("drained"):
            with open(self.stderr.name, "rb") as fh:
                tail = fh.read()[-400:].decode(errors="replace")
            result.fail(1, f"daemon exit {code}, drain report {report}, "
                           f"stderr ...{tail}")
        elif report.get("requests") != expected_requests:
            result.fail(1, f"daemon counted {report.get('requests')} requests, "
                           f"client sent {expected_requests}")
        # Children (pool workers, the stdlib's shared-memory resource
        # tracker) get a grace period to finish exiting after the daemon.
        deadline = perf_counter() + ORPHAN_GRACE_S
        orphans = [pid for pid in self.workers if _alive(pid)]
        while orphans and perf_counter() < deadline:
            time.sleep(0.05)
            orphans = [pid for pid in orphans if _alive(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        if orphans:
            result.fail(1, f"processes outlived the daemon by "
                           f"{ORPHAN_GRACE_S:g}s: {orphans}")


class Conn:
    """One TCP connection carrying at most one request at a time."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.request: Optional[int] = None
        self.sent = 0.0

    def send(self, frame: bytes, request: int) -> None:
        self.request = request
        self.sent = perf_counter()
        self.sock.sendall(frame)

    def take_frame(self) -> Optional[bytes]:
        if len(self.buf) < _FRAME.size:
            return None
        (length,) = _FRAME.unpack_from(self.buf)
        if len(self.buf) < _FRAME.size + length:
            return None
        body = bytes(self.buf[_FRAME.size:_FRAME.size + length])
        del self.buf[:_FRAME.size + length]
        return body

    def call(self, payload: dict) -> dict:
        """A blocking round trip, for frames outside the timed loop."""
        self.sock.sendall(_frame(payload))
        while True:
            body = self.take_frame()
            if body is not None:
                return restricted_loads(body)
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk

    def close(self) -> None:
        self.sock.close()


class Client:
    """Closed-loop driver of one round of requests over all connections."""

    def __init__(self, port: int, connections: int, frames: List[bytes],
                 expected: List[list]):
        self.conns = [Conn(port) for _ in range(connections)]
        self.frames = frames
        self.expected = expected
        self.sent = 0  # query requests sent to this daemon
        self.steal = StealClock(os.sched_getaffinity(0))
        self.sel = selectors.DefaultSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)

    def round(self, result: Result, order: List[int],
              spans: Optional[SpanRecorder] = None):
        """Send ``order`` (request indices); returns per-request latencies,
        response sizes, the round's wall time and the part of it stolen
        from the VM's CPUs.  Answers are checked after the last response
        arrives."""
        lat, sizes, answers = [], [], []
        todo = list(reversed(order))
        start = perf_counter()
        stolen = self.steal.read()
        for conn in self.conns:
            if todo:
                conn.send(self.frames[todo[-1]], todo.pop())
                self.sent += 1
        waiting = len(order)
        try:
            while waiting:
                events = self.sel.select(TIMEOUT_S)
                if not events:
                    raise ConnectionError("no response within the timeout")
                for key, _ in events:
                    conn = key.data
                    chunk = conn.sock.recv(1 << 20)
                    if not chunk:
                        raise ConnectionError("daemon closed the connection")
                    conn.buf += chunk
                    body = conn.take_frame()
                    if body is None:
                        continue
                    response = restricted_loads(body)
                    done = perf_counter()
                    lat.append(done - conn.sent)
                    sizes.append(len(body) + _FRAME.size)
                    answers.append((conn.request, response))
                    if spans is not None:
                        spans.add("wire.request", conn.sent, done, conn.request)
                    waiting -= 1
                    if todo:
                        conn.send(self.frames[todo[-1]], todo.pop())
                        self.sent += 1
        except (OSError, ValueError, pickle.UnpicklingError) as exc:
            # Every request of the round without an answer failed.
            answered = {request for request, _ in answers}
            lost = sum(len(self.expected[r]) for r in order
                       if r not in answered)
            result.attempted += lost
            result.fail(lost, f"connection error: {exc!r}")
            self.check(result, answers)
            raise ConnectionError(str(exc)) from exc
        elapsed = perf_counter() - start
        stolen = self.steal.read() - stolen
        self.check(result, answers)
        return lat, sizes, elapsed, stolen

    def check(self, result: Result, answers) -> None:
        for request, response in answers:
            result.attempted += len(self.expected[request])
            if not response.get("ok"):
                result.fail(len(self.expected[request]),
                            f"error frame {response.get('error_type')}")
            elif response.get("degraded"):
                result.fail(len(self.expected[request]), "degraded answer")
            else:
                got = [labels_of(a) for a in response["results"]]
                wrong = sum(g != e for g, e in
                            zip(got, self.expected[request]))
                wrong += abs(len(got) - len(self.expected[request]))
                result.fail(wrong, f"{wrong} wire answers differ")

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.close()


def _diff(after: dict, before: dict, name: str, key: str) -> float:
    return (after["metrics"][name][key]
            - before["metrics"].get(name, {}).get(key, 0))


def wire_wide(cfg: dict, seed: int, seconds: float, trace: bool,
              result: Result) -> Optional[SpanRecorder]:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="wire-", dir=WORK_ROOT)
    try:
        with Calibrator(**cfg["calibration"]) as cal:
            return _wire_wide(cfg, seed, seconds, trace, result, work, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _wire_wide(cfg, seed, seconds, trace, result, work, cal):
    seg_file = os.path.join(work, "segments.tsv")
    dump(grid_segments(cfg["n"], seed=DATA_SEED), seg_file)
    segments = load(seg_file)  # labels as the daemon will read them
    per_request = cfg["queries_per_request"]
    queries = stabbing_queries(segments, cfg["requests_per_round"] * per_request,
                               rng=Random(seed))
    requests = [queries[i:i + per_request]
                for i in range(0, len(queries), per_request)]
    frames = [_frame({"kind": "query", "queries": r}) for r in requests]

    # The in-process reference: the same shards, served synchronously.
    t0 = perf_counter()
    ref = ShardedSegmentDatabase.bulk_load(
        segments, shards=cfg["shards"], engine=cfg["engine"],
        block_capacity=cfg["block"])
    build_s = perf_counter() - t0
    ref_dir = os.path.join(work, "reference")
    t0 = perf_counter()
    manifest = ref.save(ref_dir)
    save_s = perf_counter() - t0
    snap_bytes = sum(os.path.getsize(os.path.join(ref_dir, f))
                     for f in os.listdir(ref_dir))
    space = sum(SegmentDatabase.open(os.path.join(ref_dir, f)).space_in_blocks()
                for f in manifest["shard_files"])
    io0 = ref.io_report()["combined"]
    expected = [[labels_of(a) for a in ref.query_batch(r)] for r in requests]
    io1 = ref.io_report()["combined"]
    oracle = ColumnOracle(segments)
    flat = [e for answer in expected for e in answer]
    off = sum(e != oracle.labels(q) for q, e in zip(queries, flat))
    result.fail(off, f"{off} in-process answers differ from brute force")
    result.put("space_blocks", space)
    result.put("sim_ios_per_op", (io1["total"] - io0["total"]) / len(queries),
               len(queries))

    shm_before = _shm_names()
    reps = cfg["setup_reps"]
    setups, first_batches, peak = [], [], 0.0
    timings, window = Timings(), StatsWindow()
    rec = SpanRecorder() if trace else None
    for rep in range(reps):
        t0 = perf_counter()
        daemon = Daemon(seg_file, work, cfg)
        client = None
        try:
            client = Client(daemon.port(), cfg["connections"], frames, expected)
            client.round(result, [0])
            setups.append(perf_counter() - t0)
            daemon.note_workers()
            stats = client.conns[0].call({"kind": "stats"})["stats"]
            first_batches.append(1e3 * stats["metrics"]["serve.batch_s"]["sum"])
            peak = max(peak, tree_pss_mb(daemon.proc.pid),
                       _load(cfg, seconds / reps, rec, result, client, daemon,
                             len(requests), cal, timings, window))
        finally:
            if client is not None:
                client.close()
            daemon.stop(client.sent if client is not None else 0, result)
        leaked = _shm_names() - shm_before
        if leaked:
            result.fail(1, f"shared-memory segments left: {sorted(leaked)}")
    timings.report(result)
    # Set-ups run outside the rounds; the run-level factor scales them.
    f = result.speed_factor
    result.put("setup_s", median(setups) * f, len(setups), raw=median(setups))
    result.put("peak_rss_mb", peak)
    if not trace:
        return None

    window.report(result, f)
    result.put("pool.first_batch_ms", median(first_batches) * f,
               len(first_batches))
    result.put("snapshot.save_s", save_s * f)
    result.put("snapshot.mb", snap_bytes / 2**20)
    result.put("engine.build_s", build_s * f)
    # Engine, pager and kernels run inside the workers, out of reach of
    # in-process wrappers: replay one round on the in-process reference.
    with rec.installed(ENGINE_TARGETS):
        for r in requests:
            ref.query_batch(r)
    layer_metrics(result, rec, len(queries), len(queries), f)
    result.put("engine.results_per_query",
               sum(len(e) for e in flat) / len(queries), len(queries))
    result.put("io.reads_per_op", (io1["reads"] - io0["reads"]) / len(queries),
               len(queries))
    result.put("io.writes_per_op",
               (io1["writes"] - io0["writes"]) / len(queries), len(queries))
    return rec


def _load(cfg, seconds, rec, result, client, daemon, n_requests, cal,
          timings, window) -> float:
    """Warm up one launch, run its share of the measured rounds into
    ``timings`` and, when tracing, its stats window into ``window``.

    Returns the peak PSS of the daemon's process tree.
    """
    order = list(range(n_requests))
    for _ in range(cfg["warmup_rounds"]):
        client.round(result, order)
    before = client.conns[0].call({"kind": "stats"})["stats"]
    peak = tree_pss_mb(daemon.proc.pid)
    queries = n_requests * cfg["queries_per_request"]
    measured, rounds = 0.0, 0
    cal.mark()
    while measured < seconds or rounds < cfg["min_rounds"]:
        traced = rec is not None and rounds % 2 == 1
        try:
            got, size, elapsed, stolen = client.round(
                result, order, rec if traced else None)
        except ConnectionError:
            break  # counted as failed; report what was measured
        timings.add(queries, elapsed, cal.factor(), traced, reads=got,
                    stolen=stolen)
        window.client(got, size)
        measured += elapsed
        rounds += 1
        peak = max(peak, tree_pss_mb(daemon.proc.pid))
    if rec is not None:
        after = client.conns[0].call({"kind": "stats"})["stats"]
        health = client.conns[0].call({"kind": "health"})["health"]
        window.add(before, after, health, result)
    return peak


PHASES = ("dispatch", "deserialize", "attach", "query", "serialize", "collect")
COUNTERS = (("serve.requests", "value"), ("serve.batches", "value"),
            ("serve.request_s", "count"), ("serve.request_s", "sum"),
            ("serve.batch_s", "count"), ("serve.batch_s", "sum"))


class StatsWindow:
    """The daemon's ``stats`` and ``health`` counters over the measured
    rounds, summed over every launch, beside the client's own view of
    the same requests."""

    def __init__(self):
        self.sums = {}
        self.lat_s, self.lat_n, self.resp_bytes = 0.0, 0, 0

    def _add(self, key, value) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def client(self, latencies, sizes) -> None:
        self.lat_s += sum(latencies)
        self.lat_n += len(latencies)
        self.resp_bytes += sum(sizes)

    def add(self, before: dict, after: dict, health: dict,
            result: Result) -> None:
        for name, key in COUNTERS:
            self._add((name, key), _diff(after, before, name, key))
        lat0, lat1 = before["latency"], after["latency"]
        for key in ("tasks", "phase_sum_s", "task_wall_s"):
            self._add(key, lat1[key] - lat0[key])
        for phase in PHASES:
            self._add(phase, lat1["phases_s"].get(phase, 0.0)
                      - lat0["phases_s"].get(phase, 0.0))
        for key in ("retried_tasks", "respawns", "failed_tasks"):
            self._add(key, health["db"]["pool"][key])
        coverage = ((lat1["phase_sum_s"] - lat0["phase_sum_s"])
                    / (lat1["task_wall_s"] - lat0["task_wall_s"]))
        if not 0.9 <= coverage <= 1.05:
            result.fail(1, f"pool phase coverage {coverage:.3f} "
                           "outside [0.9, 1.05]")

    def report(self, result: Result, f: float) -> None:
        """Per-layer metrics; times are scaled by the run's factor ``f``
        (the window spans every measured round)."""
        s = self.sums
        reqs = s["serve.requests", "value"]
        batches = s["serve.batches", "value"]
        req_n = s["serve.request_s", "count"]
        req_ms = 1e3 * f * s["serve.request_s", "sum"] / req_n
        batch_ms = (1e3 * f * s["serve.batch_s", "sum"]
                    / s["serve.batch_s", "count"])
        client_ms = 1e3 * f * self.lat_s / self.lat_n
        tasks = s["tasks"]
        result.put("daemon.queue_wait_ms", req_ms - batch_ms, int(req_n))
        result.put("daemon.batch_ms", batch_ms, int(batches))
        result.put("daemon.reqs_per_batch", reqs / batches, int(batches))
        result.put("wire.overhead_ms", client_ms - req_ms, self.lat_n)
        result.put("wire.resp_kb_per_req",
                   self.resp_bytes / self.lat_n / 1024.0, self.lat_n)
        for phase in PHASES:
            result.put(f"pool.{phase}_ms", 1e3 * f * s[phase] / tasks,
                       int(tasks))
        result.put("pool.phase_coverage", s["phase_sum_s"] / s["task_wall_s"],
                   int(tasks))
        result.put("pool.tasks_per_req", tasks / reqs, int(reqs))
        for key in ("retried_tasks", "respawns", "failed_tasks"):
            result.put(f"pool.{key}", s[key])

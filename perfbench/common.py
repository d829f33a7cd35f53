"""Helpers shared by the workloads: inputs, oracles, statistics, output."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence

from repro import VerticalQuery, vs_intersects

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Cell edge of ``repro.workloads.grid_segments``; every generated
#: segment lies strictly inside one cell of this width.
CELL = 100
#: Seed of the stored segment sets.  The data stay fixed so the exact
#: space count has no spread across runs; ``--seed`` draws the queries
#: and the update sequence.
DATA_SEED = 0


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def _cell(v) -> int:
    return math.floor(v / CELL)


class ColumnOracle:
    """Brute-force answers over the grid cells a query can reach.

    Exact (the library's own ``vs_intersects`` predicate, no index):
    every segment is filed under each cell its bounding box touches, and
    a query tests the segments filed in its column, limited to the rows
    its y-range reaches.  Supports insert and delete so it can follow an
    update stream.
    """

    def __init__(self, segments: Iterable = ()):
        self.cells: Dict[tuple, dict] = {}
        self.rows = range(0)
        for s in segments:
            self.insert(s)

    def _cells(self, s):
        for c in range(_cell(s.xmin), _cell(s.xmax) + 1):
            for r in range(_cell(s.ymin), _cell(s.ymax) + 1):
                yield c, r

    def insert(self, s) -> None:
        for cell in self._cells(s):
            self.cells.setdefault(cell, {})[s.label] = s
        lo, hi = _cell(s.ymin), _cell(s.ymax) + 1
        self.rows = (range(min(lo, self.rows.start), max(hi, self.rows.stop))
                     if self.rows else range(lo, hi))

    def delete(self, s) -> None:
        for cell in self._cells(s):
            del self.cells[cell][s.label]

    def segments_in(self, x, rows: range) -> dict:
        """``{label: segment}`` filed in the column of ``x`` within ``rows``."""
        c = _cell(x)
        out = {}
        for r in rows:
            out.update(self.cells.get((c, r), ()))
        return out

    def labels(self, q: VerticalQuery) -> frozenset:
        lo = self.rows.start if q.ylo is None else max(self.rows.start,
                                                       _cell(q.ylo))
        hi = self.rows.stop if q.yhi is None else min(self.rows.stop,
                                                      _cell(q.yhi) + 1)
        return frozenset(label for label, s
                         in self.segments_in(q.x, range(lo, hi)).items()
                         if vs_intersects(s, q))

    def live_labels(self) -> set:
        return {label for cell in self.cells.values() for label in cell}


def labels_of(answer) -> frozenset:
    return frozenset(s.label for s in answer)


def narrow_queries(oracle: ColumnOracle, xs: Sequence[int], width: int,
                   rng) -> List[VerticalQuery]:
    """Segment queries at the given x, each cut to cover up to ``width``
    consecutive stabbed segments of its column.  The window is drawn
    from a random band of ``3 * width`` rows; since every segment lies
    inside its own cell, the band's stabbed segments are consecutive in
    the column."""
    out = []
    rows = oracle.rows
    for x in xs:
        top = rng.randint(rows.start, max(rows.start, rows.stop - 3 * width))
        band = oracle.segments_in(x, range(top, top + 3 * width)).values()
        ys = sorted(s.y_at(x) for s in band
                    if s.spans_x(x) and not s.is_vertical)
        if not ys:
            out.append(VerticalQuery.segment(x, 0, 1))
            continue
        start = rng.randint(0, max(0, len(ys) - width))
        window = ys[start:start + width]
        out.append(VerticalQuery.segment(x, window[0], window[-1]))
    return out


# ----------------------------------------------------------------------
# CPU-speed calibration
# ----------------------------------------------------------------------
class Calibrator:
    """Scales times to a reference CPU speed (see ``calibrate.py``).

    :meth:`mark` probes the CPU; after some timed work, :meth:`factor`
    probes again and returns ``reference / mean(probe before, probe
    after)``.  A time measured while the machine ran slow is multiplied
    by a factor below one, so the scaled figure reads as if the work had
    run at the reference speed.
    """

    def __init__(self, ref_s: float, slices: int):
        self.ref_s = ref_s
        self.slices = slices
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last: Optional[float] = None
        self.factors: List[float] = []

    def probe(self) -> float:
        self.proc.stdin.write(f"{self.slices}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def mark(self) -> None:
        self.last = self.probe()

    def factor(self) -> float:
        now = self.probe()
        f = self.ref_s / ((self.last + now) / 2.0)
        self.last = now
        self.factors.append(f)
        return f

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(30)
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StealClock:
    """Seconds the hypervisor kept the given CPUs of this VM from running
    while they had work (the ``steal`` column of ``/proc/stat``).

    A round's stolen time is taken out of its elapsed time: it is the
    host's, not the program's.  Reads 0 where ``/proc/stat`` has no such
    column.
    """

    TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

    def __init__(self, cpus: Iterable[int]):
        self.names = {f"cpu{c}" for c in cpus}

    def read(self) -> float:
        ticks = 0
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    fields = line.split()
                    if fields and fields[0] in self.names and len(fields) > 8:
                        ticks += int(fields[8])
        except OSError:
            pass
        return ticks * self.TICK_S


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> List[int]:
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return out


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo.extend(_children(p))
    return tree


def tree_pss_mb(pid: int) -> float:
    """Proportional set size of a process tree.

    PSS splits every shared page between the processes mapping it, so
    summing PSS over the tree counts a shared-memory arena once however
    many workers map it.
    """
    total_kb = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
class Timings:
    """Per-round samples of one run.

    Rates are medians over rounds; latencies are percentiles over every
    operation of the untraced rounds.  Each round first loses the time
    the host stole from it (see :class:`StealClock`); the run's rate and
    latencies are then scaled by its mean :class:`Calibrator` factor.
    A probe of a few milliseconds beside each round tracks the machine's
    drift, but round by round its own noise exceeds the rounds'.  The
    CPU speed it sees flips between a fast and a slow level within
    seconds (the host's other load), so the mean over rounds estimates
    the run's average speed where the median would jump between levels.
    The values as measured, with neither correction, are kept beside.
    """

    def __init__(self):
        self.rates: List[float] = []
        self.raw_rates: List[float] = []
        self.traced_rates: List[float] = []
        self.traced_factors: List[float] = []
        self.factors: List[float] = []
        self.stolen: List[float] = []
        self.lat: Dict[str, List[float]] = {"read": [], "write": []}
        self.raw_lat: Dict[str, List[float]] = {"read": [], "write": []}

    def add(self, ops: int, elapsed: float, factor: float, traced: bool,
            reads: Sequence[float] = (), writes: Sequence[float] = (),
            stolen: float = 0.0) -> None:
        """One round of ``elapsed`` wall seconds, ``stolen`` of which the
        host took.  At most half a round counts as stolen (the counter
        ticks every 10 ms); the round's latencies shrink in proportion."""
        share = min(stolen / elapsed, 0.5)
        kept = elapsed * (1.0 - share)
        self.factors.append(factor)
        self.stolen.append(share)
        if traced:
            self.traced_rates.append(ops / kept)
            self.traced_factors.append(factor)
            return
        self.rates.append(ops / kept)
        self.raw_rates.append(ops / elapsed)
        for kind, samples in (("read", reads), ("write", writes)):
            self.raw_lat[kind].extend(samples)
            self.lat[kind].extend(t * (1.0 - share) for t in samples)

    @property
    def traced_factor(self) -> float:
        return statistics.fmean(self.traced_factors)

    @property
    def speed_factor(self) -> float:
        """The run-level scale: the mean factor over every round."""
        return statistics.fmean(self.factors)

    def _put_ms(self, result, name, kinds, p) -> None:
        lat = [t for k in kinds for t in self.lat[k]]
        raw = [t for k in kinds for t in self.raw_lat[k]]
        result.put(name, 1e3 * quantile(lat, p) * self.speed_factor, len(lat),
                   raw=1e3 * quantile(raw, p))

    def report(self, result: "Result") -> None:
        result.speed_factor = self.speed_factor
        result.stolen_share = sum(self.stolen) / len(self.stolen)
        result.put("ops_per_s", median(self.rates) / self.speed_factor,
                   len(self.rates), raw=median(self.raw_rates))
        self._put_ms(result, "read_p50_ms", ["read"], 50)
        self._put_ms(result, "read_p99_ms", ["read"], 99)
        self._put_ms(result, "op_p99_ms", ["read", "write"], 99)
        if self.lat["write"]:
            self._put_ms(result, "write_p50_ms", ["write"], 50)
            self._put_ms(result, "write_p99_ms", ["write"], 99)
        if self.traced_rates:
            # Traced and untraced rounds alternate, so they share the drift.
            result.put("trace.overhead_frac",
                       1.0 - median(self.traced_rates) / median(self.rates),
                       len(self.traced_rates))


class Result:
    """Metrics of one run, plus the attempted/failed operation tally."""

    def __init__(self):
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.raw: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.speed_factor: Optional[float] = None  # mean round scaling
        self.stolen_share: Optional[float] = None  # mean share of a round

    def put(self, name: str, value: float, samples: int = 1,
            raw: Optional[float] = None) -> None:
        """Record a metric; ``raw`` is its value before CPU-speed scaling."""
        self.values[name] = float(value)
        self.samples[name] = samples
        if raw is not None:
            self.raw[name] = float(raw)

    def fail(self, count: int, why: str) -> None:
        """Count ``count`` failed operations (``why`` is shown once)."""
        if count:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(why)

    def emit(self, names_units: List[tuple], stamp: dict,
             idle: Optional[set] = None) -> dict:
        """Print a readable table, then the JSON result as the last line.

        ``names_units`` lists ``(name, unit)`` of every metric this run
        must report; names in ``idle`` are layers this workload does not
        run, reported as 0.
        """
        idle = idle or set()
        metrics = {}
        print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
        for problem in self.problems:
            print(f"# FAIL {problem}")
        for name, unit in names_units:
            if name in self.values:
                value, samples = self.values[name], self.samples[name]
            elif name in idle:
                value, samples = 0.0, 0
            else:
                raise KeyError(f"workload did not measure {name}")
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if name in self.raw:
                note = f"  as measured {self.raw[name]:.6g}"
            elif name in idle and name not in self.values:
                note = "  (layer idle on this workload)"
            print(f"# {name:<28} {value:>14.6g} {unit:<8} n={samples}{note}")
        doc = {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        print(json.dumps(doc), flush=True)
        return doc

"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT, Result, Timings, labels_of, load_contract
from perfbench.run import run
from perfbench.wire import Client

from repro import SegmentDatabase, Segment

TINY = {
    "wire-wide": {
        "engine": "solution2", "n": 600, "block": 16, "shards": 2,
        "workers": 2, "connections": 2, "queries_per_request": 4,
        "requests_per_round": 6, "warmup_rounds": 1, "min_rounds": 2,
        "setup_reps": 2,
    },
    "lib-read": {
        "engine": "solution2", "n": 900, "block": 16, "buffer_pages": 8,
        "queries_per_round": 30, "narrow_width": 3, "min_rounds": 2,
        "setup_reps": 1,
    },
    "lib-update": {
        "engine": "solution1", "n": 400, "block": 16, "spare_cells": 40,
        "ops_per_round": 40, "narrow_width": 3, "count_rounds": 2,
        "min_rounds": 3, "setup_reps": 1,
    },
}

EXACT = ("sim_ios_per_op", "space_blocks")


def tiny(workload, trace=0, seed=3):
    return run(workload, seed, 0.05, trace, cfg=TINY[workload])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    doc = tiny(workload, trace)
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[-1]) == doc
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    declared = load_contract()["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[1:2] == [m["name"]] and m["unit"] in line
                   for line in out[:-1]), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", ["lib-read", "lib-update"])
def test_a_corrupted_answer_counts_as_failed(workload, monkeypatch):
    original = SegmentDatabase.query
    calls = []

    def corrupt_fifth(self, q):
        out = original(self, q)
        calls.append(q)
        if len(calls) == 5:  # past set-up, inside a checked round
            out = list(out) + [Segment.from_coords(0, 0, 1, 1, label="bogus")]
        return out

    monkeypatch.setattr(SegmentDatabase, "query", corrupt_fifth)
    doc = tiny(workload)
    assert doc["failed"] == 1 and not doc["correct"]
    assert doc["metrics"]["ok_frac"]["value"] == 1 - 1 / doc["attempted"]


def test_wire_check_counts_wrong_error_and_degraded_answers():
    a = Segment.from_coords(0, 0, 2, 2, label="a")
    b = Segment.from_coords(3, 0, 5, 2, label="b")
    client = Client.__new__(Client)
    client.expected = [[labels_of([a]), labels_of([b])]] * 4
    result = Result()
    client.check(result, [
        (0, {"ok": True, "results": [[a], [b]]}),
        (1, {"ok": True, "results": [[a], [a]]}),
        (2, {"ok": False, "error_type": "overloaded"}),
        (3, {"ok": True, "degraded": True, "results": [[a], [b]]}),
    ])
    assert result.attempted == 8
    assert result.failed == 1 + 2 + 2


def test_rounds_lose_stolen_time_and_scale_by_the_mean_factor():
    timings = Timings()
    timings.add(100, 1.0, 0.5, False, reads=[0.01] * 100, stolen=0.2)
    timings.add(100, 1.0, 1.5, False, reads=[0.01] * 100, stolen=0.9)
    result = Result()
    timings.report(result)
    # 0.2 s of the first round was stolen; the second is capped at half.
    rates = sorted(timings.rates)
    assert rates == [pytest.approx(125.0), pytest.approx(200.0)]
    assert result.values["ops_per_s"] == pytest.approx(162.5 / 1.0)
    assert result.raw["ops_per_s"] == pytest.approx(100.0)
    assert result.values["read_p50_ms"] == pytest.approx(5.0)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_exact_counts_repeat_for_a_seed(workload):
    first = tiny(workload, seed=5)["metrics"]
    second = tiny(workload, seed=5)["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lib-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

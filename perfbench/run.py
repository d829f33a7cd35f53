"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lib-read --seed 1 --seconds 10 --trace 0

Run from the repository root (the program is imported from ``src/``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Lines above it repeat each metric with its sample count.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fixed so set iteration order, and with it every count, repeats for a
#: given seed.
HASH_SEED = "0"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wire-wide", "lib-read", "lib-update"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool,
        cfg: dict = None) -> dict:
    """Run one workload in this process; prints and returns the result.

    ``cfg`` overrides the sizes from ``spec.json`` (the tests shrink
    them)."""
    import numpy

    from perfbench.common import WORK_ROOT, Result, load_contract, load_spec
    from perfbench.libload import lib_read, lib_update
    from perfbench.wire import wire_wide

    spec = load_spec()
    contract = load_contract()
    probe = spec["calibration"]
    cfg = dict(cfg if cfg is not None else spec["workloads"][workload],
               calibration={"ref_s": probe["ref_s"], "slices": probe["slices"]})
    result = Result()
    driver = {"wire-wide": wire_wide, "lib-read": lib_read,
              "lib-update": lib_update}[workload]
    rec = driver(cfg, seed, seconds, bool(trace), result)
    result.put("ok_frac", 1.0 - result.failed / max(result.attempted, 1),
               result.attempted)

    stamp = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "speed_factor": round(result.speed_factor, 4),
        "stolen_share": round(result.stolen_share, 4),
    }
    if trace:
        names = contract["per_layer"]
        idle = {name for name, layer in spec["layers"].items()
                if workload not in layer["on"]}
        os.makedirs(WORK_ROOT, exist_ok=True)
        path = os.path.join(WORK_ROOT, f"spans-{workload}-seed{seed}.json")
        rec.write(path)
        stamp["spans"] = os.path.relpath(path, ROOT)
    else:
        names, idle = contract["end_to_end"], set()
    return result.emit([(m["name"], m["unit"]) for m in names], stamp, idle)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro beside perfbench/; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

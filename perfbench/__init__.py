"""The repository benchmark: three workloads, one command.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  ``spec.json`` holds the sizes
of each workload and the map from each per-layer metric to the
end-to-end metric it should move.
"""

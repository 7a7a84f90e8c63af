"""Benchmark harness for hyperbisect: four seeded workloads, checked outputs,
end-to-end metrics from untraced runs and per-layer metrics from a traced run.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout.  See README.md in this directory.
"""

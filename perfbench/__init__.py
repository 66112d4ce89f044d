"""Benchmark for kkcrystals: four workloads, end-to-end metrics measured
untraced, per-layer metrics from a separate traced run.  Entry point:
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""

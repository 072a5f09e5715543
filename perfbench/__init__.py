"""Benchmark for messiaen: three workloads timed from outside, one traced run per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""

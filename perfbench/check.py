"""Untimed correctness pass: one round of every mix in this process, every output checked.

    PYTHONPATH=src python3 -m perfbench.check [--seeds 1 2 3]

The cli mix runs through ``cli.run(argv)`` here instead of a fresh
interpreter.  Prints each failed or wrong operation; exits 1 if any
operation other than the known cli faults failed or answered wrongly.
"""

from __future__ import annotations

import argparse
import sys

from .ops import attempt_in_process
from .worker import build


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    clean = True
    for seed in args.seeds:
        for workload in ("cli", "pitch-perm", "rhythm-catalog"):
            ops, _ = build(workload, seed)
            known = unexpected = 0
            for op in ops:
                _, failure, wrong = attempt_in_process(op)
                if failure is not None and op.known_fault:
                    known += 1
                elif failure is not None or wrong is not None:
                    unexpected += 1
                    print(f"seed {seed} {workload} {op.kind}: {failure or wrong}")
            clean &= unexpected == 0
            print(f"seed {seed} {workload}: {len(ops)} operations, {known} known faults, {unexpected} unexpected")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())

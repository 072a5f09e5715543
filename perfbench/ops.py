"""Operations, the closed loop that attempts them in whole rounds, and its tally."""

from __future__ import annotations

import sys
import time
import traceback

from .oracles import WrongOutput

# The 90th percentile needs ten samples beyond it.
MIN_OPS = 100


class Op:
    """One in-process operation: ``run`` is timed, ``check`` judges its result after.

    ``known_fault`` marks an operation kept although it fails on a known fault.
    """

    def __init__(self, kind: str, run, check, known_fault: bool = False):
        self.kind = kind
        self.run = run
        self.check = check
        self.known_fault = known_fault


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.wrong = 0

    def record(self, kind: str, latency: float, failure: str | None, wrong: str | None) -> None:
        self.latencies.append(latency)
        if failure is not None:
            if not self.failed:
                print(f"perfbench: {kind} failed: {failure}", file=sys.stderr)
            self.failed += 1
        elif wrong is not None:
            print(f"perfbench: {kind} gave a wrong answer: {wrong}", file=sys.stderr)
            self.wrong += 1


def run_rounds(ops, seconds: float, attempt, min_ops: int = MIN_OPS) -> Tally:
    """Attempt every op in turn, in whole rounds, until ``seconds`` have passed
    and at least ``min_ops`` operations were made.  ``attempt(op)`` returns
    (latency in s, failure or None, wrong answer or None)."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        for op in ops:
            tally.record(op.kind, *attempt(op))
        if time.perf_counter() - start >= seconds and len(tally.latencies) >= min_ops:
            return tally


def attempt_in_process(op: Op):
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:  # a fault of the program: counted, and the run goes on
        return time.perf_counter() - t0, traceback.format_exc(limit=-1).strip(), None
    latency = time.perf_counter() - t0
    try:
        op.check(result)
    except WrongOutput as exc:
        return latency, None, str(exc)
    return latency, None, None

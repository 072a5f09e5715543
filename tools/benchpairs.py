"""Alternating before/after runs of the benchmark, written as one BENCH record.

Runs each tree's own ``perfbench/run.py``, unchanged, in pairs: parent and
change, one after the other, with the tree that runs first switched from
one pair to the next.  Just before each run this script times a fixed
pure-Python loop, the run's calibration, so that two records made on
machines of different speed can be compared as ratios to it.

    python3 tools/benchpairs.py --parent ../parent --change . \\
        --workload rhythm-catalog --pairs 10 --seed 41 --out BENCH_14.json
    python3 tools/benchpairs.py ... --workload cli --pairs 5 --out BENCH_14.json
    python3 tools/benchpairs.py ... --workload rhythm-catalog --pairs 0 --trace --out BENCH_14.json

Each call adds its runs to the record (``--out``; created if missing) and
rewrites the record's summary from all the runs in it.  ``--trace`` adds
one ``--trace 1`` run per tree after the pairs.  Per workload and
end-to-end metric the summary holds each side's quartiles
(``statistics.quantiles``, inclusive), the parent's IQR, the ratio of the
medians (change over parent) and the number of pairs the change wins,
by the direction ``BENCHMARK.json`` gives the metric.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

TREES = ("parent", "change")
CALIBRATION_LOOPS = 3_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed just now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def describe(tree: Path) -> str | None:
    """The tree's commit, marked dirty when its files differ from it; None outside git."""
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=7"],
                          capture_output=True, text=True)
    if proc.returncode:
        return None
    return proc.stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"benchpairs: {workload} in the {tree.name} tree exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        paired = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0:
                paired.setdefault(r["pair"], {})[r["tree"]] = r
        pairs = [p for _, p in sorted(paired.items()) if len(p) == 2]
        if not pairs:
            continue
        out = {}
        for metric, direction in better.items():
            side = {t: [p[t]["result"]["metrics"][metric]["value"] for p in pairs] for t in TREES}
            q_parent, q_change = quartiles(side["parent"]), quartiles(side["change"])
            wins = sum((c > b) if direction == "higher" else (c < b) for b, c in zip(side["parent"], side["change"]))
            out[metric] = {
                "parent_q1_median_q3": [round(x, 3) for x in q_parent],
                "change_q1_median_q3": [round(x, 3) for x in q_change],
                "change_over_parent": round(q_change[1] / q_parent[1], 3),
                "parent_iqr": round(q_parent[2] - q_parent[0], 3),
                "change_wins": f"{wins}/{len(pairs)}",
            }
        out["failed_of_attempted"] = {
            t: f"{sum(p[t]['result']['failed'] for p in pairs)}/{sum(p[t]['result']['attempted'] for p in pairs)}"
            for t in TREES}
        out["all_correct"] = all(p[t]["result"]["correct"] for p in pairs for t in TREES)
        out["calibration_s_median"] = {
            t: round(statistics.median(p[t]["calibration_s"] for p in pairs), 4) for t in TREES}
        summary[workload] = out
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true", help="one --trace 1 run per tree after the pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": ("perfbench/run.py of each tree, unchanged, in alternating pairs (the tree that runs first "
                 "switches each pair); calibration_s is a fixed pure-Python loop timed just before each run; "
                 "quartiles by statistics.quantiles(method='inclusive'); written by tools/benchpairs.py"),
        "trees": {t: describe(path) for t, path in trees.items()},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": [],
    }
    runs = record["runs"]
    first_pair = 1 + max((r["pair"] for r in runs if r["workload"] == args.workload and r["trace"] == 0), default=0)
    schedule = []
    for pair in range(first_pair, first_pair + args.pairs):
        order = TREES if pair % 2 else TREES[::-1]
        schedule += [(tree, pair, 0, tree == order[0]) for tree in order]
    if args.trace:
        schedule += [(tree, None, 1, None) for tree in TREES]
    for tree, pair, trace, first in schedule:
        calibration = calibrate()
        result = run_once(trees[tree], args.workload, args.seed, args.seconds, trace)
        runs.append({"tree": tree, "workload": args.workload, "pair": pair, "seed": args.seed, "trace": trace,
                     "first": first, "calibration_s": round(calibration, 4), "result": result})
        print(f"{args.workload} {tree} pair {pair} trace {trace}: {json.dumps(result['metrics'])[:160]}",
              file=sys.stderr)
        record["summary"] = summarize(runs, better)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

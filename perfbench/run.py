"""Run one workload of the messiaen benchmark and print its metrics.

    python3 perfbench/run.py --workload {cli,pitch-perm,rhythm-catalog}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every interpreter it starts is a fresh ``python -S`` with
``src`` on ``PYTHONPATH``, one at a time.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import cli_mix  # noqa: E402
from perfbench.ops import run_rounds  # noqa: E402
from perfbench.oracles import WrongOutput  # noqa: E402

WORKLOADS = ("cli", "pitch-perm", "rhythm-catalog")
SPEC = ROOT / "BENCHMARK.json"

# What a fresh interpreter does before the workload's first operation.
SETUP = {
    "cli": "import messiaen.cli; messiaen.cli.build_parser()",
    "pitch-perm": "import messiaen",
    "rhythm-catalog": "import messiaen; messiaen.seed_talas(); messiaen.seed_quatuor(); messiaen.seed_modes()",
}
# Half the set-up starts are made before the timed loop and half after it,
# so that the median spans the run and not one moment of a machine whose
# speed drifts.
SETUP_STARTS = 16
IMPORTTIME_STARTS = 7
PROGRAM_MODULES = ("rhythm", "catalog", "cli")


def child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, with src on the path.

    Dropping PYTHONDONTWRITEBYTECODE lets the warm-up start write the
    bytecode cache that every timed start then reads.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def python(*args: str) -> list[str]:
    return [sys.executable, "-S", *args]


def start(cmd: list[str], env) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True)


def setup_starts(workload: str, env, n: int) -> list[float]:
    """Wall times of fresh interpreters that import messiaen and set up."""
    cmd = python("-c", SETUP[workload])
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = start(cmd, env)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr.decode()}")
    return times


def import_metrics(env) -> dict[str, float]:
    """Import cost of messiaen.cli from ``-X importtime``, medians over fresh starts.

    Modules the bare interpreter already imports at start are left out.
    """
    line = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")

    def selfs(code: str) -> dict[str, int]:
        err = start(python("-X", "importtime", "-c", code), env).stderr.decode()
        return {m[2]: int(m[1]) for m in map(line.match, err.splitlines()) if m}

    baseline = set(selfs("pass"))
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_STARTS):
        us = {name: t for name, t in selfs("import messiaen.cli").items() if name not in baseline}
        figures = {
            "import.total_ms": sum(us.values()),
            "import.stdlib_ms": sum(t for name, t in us.items() if not name.startswith("messiaen")),
            # A module that `import messiaen.cli` no longer loads costs nothing here.
            **{f"import.{m}_self_ms": us.get(f"messiaen.{m}", 0) for m in PROGRAM_MODULES},
        }
        for name, value in figures.items():
            samples.setdefault(name, []).append(value / 1e3)
    return {name: statistics.median(values) for name, values in samples.items()}


def attempt_cli(env):
    def attempt(op: cli_mix.CliOp):
        t0 = time.perf_counter()
        proc = start(python("-m", "messiaen.cli", *op.argv), env)
        latency = time.perf_counter() - t0
        if proc.returncode != op.rc:
            last = (proc.stderr.decode().strip().splitlines() or [""])[-1]
            return latency, f"exit {proc.returncode}, not {op.rc}: {last}", None
        try:
            op.check(proc.stdout.decode("utf-8"))
        except WrongOutput as exc:
            return latency, None, str(exc)
        return latency, None, None

    return attempt


def worker(workload: str, seed: int, seconds: float, trace: int, env) -> dict:
    cmd = python("-m", "perfbench.worker", workload, str(seed), str(seconds), str(trace))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    if proc.returncode:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def with_units(values: dict[str, float]) -> dict[str, dict]:
    """Each metric with the unit BENCHMARK.json gives it."""
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "messiaen" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'messiaen'}", file=sys.stderr)
        return 2

    env = child_env()
    warm = start(python("-c", SETUP[args.workload]), env)  # writes the bytecode cache
    if warm.returncode:
        print(f"perfbench: messiaen does not import:\n{warm.stderr.decode()}", file=sys.stderr)
        return 2

    if args.trace:
        result = worker(args.workload, args.seed, args.seconds, 1, env)
        metrics = {**result["metrics"], **import_metrics(env)}
        attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    else:
        setup_times = setup_starts(args.workload, env, SETUP_STARTS // 2)
        if args.workload == "cli":
            tally = run_rounds(cli_mix.build(args.seed, ROOT / "src" / "messiaen" / "data"),
                               args.seconds, attempt_cli(env))
            latencies, failed, wrong = tally.latencies, tally.failed, tally.wrong
        else:
            result = worker(args.workload, args.seed, args.seconds, 0, env)
            latencies, failed, wrong = result["latencies"], result["failed"], result["wrong"]
        setup_times += setup_starts(args.workload, env, SETUP_STARTS // 2)
        attempted = len(latencies)
        metrics = {
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
            "setup_s": statistics.median(setup_times),
            # ru_maxrss of reaped children is the peak of the largest one, in KiB.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": with_units(metrics)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The in-process side of the benchmark, started by ``run.py`` in a fresh ``python -S``.

    python -S -m perfbench.worker <workload> <seed> <seconds> <trace>

Untraced, it runs the ``pitch-perm`` or ``rhythm-catalog`` mix in whole
rounds for the given seconds and reports every operation's latency; it
imports only the modules that mix uses, so that the worker's peak memory
is the mix's own.  Traced, it runs the mix of every layer under
``trace.Tracer`` and reports the per-layer figures.  The last line of its
output is one JSON object.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from .ops import Op, attempt_in_process, run_rounds

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "messiaen" / "data"


class ExitCode(Exception):
    """The cli ended with another exit code than the one it must give."""


def cli_in_process(op) -> Op:
    """A cli operation run as ``cli.run(argv)`` in this process, output captured."""
    import contextlib
    import io

    from messiaen import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(op.argv)
        if rc != op.rc:
            raise ExitCode(f"exit {rc}, not {op.rc}")
        return out.getvalue()

    return Op(op.kind, run, op.check, op.known_fault)


def build(workload: str, seed: int) -> tuple[list[Op], int]:
    """One round of a workload's operations, and the catalog entries it round-trips."""
    if workload == "cli":
        from . import cli_mix

        return [cli_in_process(op) for op in cli_mix.build(seed, DATA_DIR)], 0
    if workload == "pitch-perm":
        from . import pitch_perm

        return pitch_perm.build(seed), 0
    from . import rhythm_catalog

    return rhythm_catalog.build(seed)


def layer_metrics(tracers: dict, rounds: int, entries: int) -> dict[str, float]:
    """The per-layer figures: cli from the cli mix, z12 and perm from pitch-perm,
    rhythm and catalog from rhythm-catalog.  Counts and ``_ms`` totals are per
    round of that mix; ``_us`` figures are per call or per unit of work."""
    c, p, r = tracers["cli"], tracers["pitch-perm"], tracers["rhythm-catalog"]
    handlers = [(k, s) for k, s in c.stats.items() if k[0] == "cli" and k[1].startswith("_cmd_")]
    handler_calls = sum(s.calls for _, s in handlers)
    classify_calls = p.calls("z12", "classify_mode")
    return {
        "cli.build_parser_us": c.us_per_call("cli", "build_parser"),
        "cli.parse_args_us": c.us_per_call("cli", "parse_args"),
        "cli.handler_self_us": sum(c.self_ms(*k) for k, _ in handlers) * 1e3 / handler_calls,
        "z12.busy_ms": p.busy_ms("z12") / rounds,
        "z12.calls": p.calls("z12") / rounds,
        "z12.classify_mode_us": p.us_per_call("z12", "classify_mode"),
        "z12.transposes_per_classify": p.edges[("z12", "classify_mode"), ("z12", "transpose")] / classify_calls,
        "z12.minimal_period_us": p.us_per_call("z12", "minimal_period"),
        "z12.parse_pcset_us": p.us_per_call("z12", "parse_pcset"),
        "z12.enumerate_limited_ms": p.us_per_call("z12", "enumerate_limited") / 1e3,
        "perm.busy_ms": p.busy_ms("perm") / rounds,
        "perm.orbit_rows": p.stats["perm", "orbit_table"].units / rounds,
        "perm.orbit_row_us": p.us_per_unit("perm", "orbit_table"),
        "perm.apply_calls": p.calls("perm", "Perm.apply") / rounds,
        "perm.cycles_us": p.us_per_call("perm", "Perm.cycles"),
        "perm.parse_perm_us": p.us_per_call("perm", "parse_perm"),
        "rhythm.busy_ms": r.busy_ms("rhythm") / rounds,
        "rhythm.prime_tests": r.calls("rhythm", "_is_prime") / rounds,
        "rhythm.is_prime_total_ms": r.total_ms("rhythm", "is_prime_total") / rounds,
        "rhythm.parse_us_per_duration": r.us_per_unit("rhythm", "parse_rhythm"),
        "rhythm.format_us_per_duration": r.us_per_unit("rhythm", "format_rhythm"),
        "rhythm.augment_us_per_duration": r.us_per_unit("rhythm", "augment"),
        "rhythm.total_us_per_duration": r.us_per_unit("rhythm", "total_duration"),
        "rhythm.detect_augmentation_chain_ms": r.total_ms("rhythm", "detect_augmentation_chain") / rounds,
        "rhythm.build_canon_ms": r.total_ms("rhythm", "build_canon") / rounds,
        "catalog.lines_read": r.stats["catalog", "load_catalog"].units / rounds,
        "catalog.load_us_per_line": r.us_per_unit("catalog", "load_catalog"),
        "catalog.serialize_us_per_line": r.us_per_unit("catalog", "serialize_catalog"),
        "catalog.analyze_self_ms": r.self_ms("catalog", "analyze_entry") / rounds,
        "catalog.analyses_per_entry": r.calls("catalog", "analyze_entry") / rounds / entries,
        "catalog.render_report_us": r.us_per_call("catalog", "render_report"),
        "catalog.reports_to_json_us": r.us_per_call("catalog", "reports_to_json"),
    }


def warm_up(ops: list[Op]) -> None:
    """One untimed, uncounted round, so that the allocator's heap has grown
    to its working size before the first timed operation."""
    for op in ops:
        attempt_in_process(op)


def timed(workload: str, seed: int, seconds: float) -> dict:
    ops, _ = build(workload, seed)
    gc.freeze()  # keep the benchmark's own inputs out of the collector's scans
    warm_up(ops)
    tally = run_rounds(ops, seconds, attempt_in_process)
    return {"latencies": tally.latencies, "failed": tally.failed, "wrong": tally.wrong}


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Whole passes over every mix, traced, until `seconds` have passed.

    In each pass the workload's own mix also runs once untraced, so that
    the tracing overhead compares the same operations with and without
    spans.
    """
    from messiaen import catalog, cli, perm, rhythm, z12

    from .trace import Tracer

    mixes = {name: build(name, seed) for name in ("cli", "pitch-perm", "rhythm-catalog")}
    gc.freeze()
    for ops, _ in mixes.values():
        warm_up(ops)
    tracers = {name: Tracer() for name in mixes}
    counts = {"attempted": 0, "failed": 0, "wrong": 0}

    def one_round(ops, tracer=None) -> float:
        if tracer is not None:
            tracer.install((z12, perm, rhythm, catalog, cli))
        try:
            tally = run_rounds(ops, 0, attempt_in_process, min_ops=0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        counts["attempted"] += len(tally.latencies)
        counts["failed"] += tally.failed
        counts["wrong"] += tally.wrong
        return sum(tally.latencies)

    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for name, (ops, _) in mixes.items():
            if name == workload:
                plain_s += one_round(ops)
                traced_s += one_round(ops, tracers[name])
            else:
                one_round(ops, tracers[name])
        passes += 1
    metrics = layer_metrics(tracers, passes, mixes["rhythm-catalog"][1])
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
    return {"metrics": metrics, **counts}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    result = traced(workload, seed, seconds) if trace else timed(workload, seed, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

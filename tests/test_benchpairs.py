"""The summary that ``tools/benchpairs.py`` writes, on hand-made runs.

No benchmark is started: each run is the record ``benchpairs`` keeps,
with only the fields ``summarize`` reads.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import benchpairs  # noqa: E402

BETTER = {"ops_per_s": "higher", "latency_p50_ms": "lower"}


def _run(tree, pair, ops, p50, workload="w", trace=0, failed=0, correct=True, calibration=0.5):
    metrics = {"ops_per_s": {"value": ops}, "latency_p50_ms": {"value": p50}}
    return {"tree": tree, "workload": workload, "pair": pair, "trace": trace, "calibration_s": calibration,
            "result": {"metrics": metrics, "failed": failed, "attempted": 10, "correct": correct}}


# Four pairs of workload "w", written out of order: pair 2 ties on both metrics, pair 3 is lost on both.
PAIRED = [
    _run("change", 3, 27, 9),
    _run("parent", 1, 10, 5, calibration=0.4),
    _run("parent", 3, 30, 7, calibration=0.6),
    _run("change", 1, 12, 4, failed=1),
    _run("parent", 2, 20, 6),
    _run("change", 2, 20, 6, correct=False),
    _run("parent", 4, 40, 8, calibration=0.7),
    _run("change", 4, 50, 7.5),
]
# Runs that take no part: a pair with one tree only, and a --trace run of each tree.
LEFT_OUT = [
    _run("change", 5, 1000, 0.1, failed=9),
    _run("parent", None, 1, 100, trace=1, failed=9, correct=False),
    _run("change", None, 1000, 0.1, trace=1, failed=9, correct=False),
]


def test_quartiles():
    assert benchpairs.quartiles([3.5]) == [3.5, 3.5, 3.5]
    assert benchpairs.quartiles([10, 20, 30, 40]) == [17.5, 25, 32.5]
    assert benchpairs.quartiles([40, 10, 30, 20]) == [17.5, 25, 32.5]


def test_summary_of_paired_runs():
    summary = benchpairs.summarize(PAIRED + LEFT_OUT, BETTER)
    assert list(summary) == ["w"]
    w = summary["w"]
    assert w["ops_per_s"] == {
        "parent_q1_median_q3": [17.5, 25, 32.5],
        "change_q1_median_q3": [18, 23.5, 32.75],
        "change_over_parent": 0.94,
        "parent_iqr": 15,
        "change_wins": "2/4",  # higher wins: pairs 1 and 4
    }
    assert w["latency_p50_ms"] == {
        "parent_q1_median_q3": [5.75, 6.5, 7.25],
        "change_q1_median_q3": [5.5, 6.75, 7.875],
        "change_over_parent": 1.038,
        "parent_iqr": 1.5,
        "change_wins": "2/4",  # lower wins: pairs 1 and 4
    }
    assert w["failed_of_attempted"] == {"parent": "0/40", "change": "1/40"}
    assert w["all_correct"] is False
    assert w["calibration_s_median"] == {"parent": 0.55, "change": 0.5}


@pytest.mark.parametrize("direction, wins", [("higher", "1/4"), ("lower", "2/4")])
def test_wins_follow_the_direction_and_a_tie_counts_for_neither(direction, wins):
    # latency 5 -> 4, 6 -> 6 (a tie), 7 -> 9, 8 -> 7.5
    summary = benchpairs.summarize(PAIRED, {"latency_p50_ms": direction})
    assert summary["w"]["latency_p50_ms"]["change_wins"] == wins


def test_one_pair_and_workloads_without_a_pair():
    runs = PAIRED + [_run("parent", 1, 8, 2, workload="one"), _run("change", 1, 10, 2, workload="one"),
                     _run("parent", 1, 8, 2, workload="alone"), _run("change", None, 8, 2, workload="alone", trace=1)]
    summary = benchpairs.summarize(runs, BETTER)
    assert list(summary) == ["w", "one"]
    one = summary["one"]
    assert one["ops_per_s"] == {"parent_q1_median_q3": [8, 8, 8], "change_q1_median_q3": [10, 10, 10],
                                "change_over_parent": 1.25, "parent_iqr": 0, "change_wins": "1/1"}
    assert one["latency_p50_ms"]["change_wins"] == "0/1"
    assert one["failed_of_attempted"] == {"parent": "0/10", "change": "0/10"}
    assert one["all_correct"] is True

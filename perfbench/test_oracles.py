"""Tests of the benchmark's own reference answers and input generators.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import cli_mix, oracles as o, pitch_perm, rhythm_catalog

F = Fraction


def test_rotation_periods_match_the_mode_table():
    assert [o.period(m) for m in o.MODE_MASKS] == list(o.TRANSPOSITION_COUNTS) == [2, 3, 4, 6, 6, 6, 6]
    assert o.period(o.mask([0])) == 12
    assert o.period(0) == o.period(o.FULL) == 1
    assert o.rotate(o.mask([0, 4, 7]), 5) == o.mask([5, 9, 0])


def test_limited_sets_number_76():
    masks = o.limited_masks()
    assert len(masks) == 2**6 + 2**4 - 2**2 == 76
    assert masks == sorted(masks) and masks[0] == 0 and masks[-1] == o.FULL
    assert all(o.period(m) < 12 for m in masks)


def test_classify_finds_every_transposition_of_every_mode():
    for number, (mode, count) in enumerate(zip(o.MODE_MASKS, o.TRANSPOSITION_COUNTS), start=1):
        for t in range(count):
            assert o.classify(o.rotate(mode, t)) == (number, t)
    assert o.classify(o.mask([0, 1, 6, 7])) is None and o.truncated(o.mask([0, 1, 6, 7]))
    assert not o.truncated(o.mask([0, 4, 7]))


def test_cycles_order_and_fan():
    mapping = [1, 2, 0, 4, 3, 5]
    assert o.cycles(mapping) == [[0, 1, 2], [3, 4], [5]]
    assert o.order(mapping) == 6
    assert o.fan_mapping(3) == [1, 0, 2]
    assert o.fan_mapping(4) == [1, 2, 0, 3]
    assert o.fan_mapping(4, "right") == [2, 1, 3, 0]
    assert o.fan_mapping(5, "right") == [2, 3, 1, 4, 0]


def test_check_orbit_accepts_the_orbit_and_rejects_others():
    rows = [(2, 1, 3), (1, 2, 3)]
    o.check_orbit([1, 0, 2], (1, 2, 3), rows)
    with pytest.raises(o.WrongOutput):
        o.check_orbit([1, 0, 2], (1, 2, 3), [(2, 1, 3)])
    with pytest.raises(o.WrongOutput):
        o.check_orbit([1, 0, 2], (1, 2, 3), [(1, 3, 2), (1, 2, 3)])
    with pytest.raises(o.WrongOutput):
        o.check_orbit([1, 0, 2], (1, 2, 3), rows + rows)


def test_orbit_rows_pass_check_orbit():
    mapping = o.fan_mapping(7)
    rows = o.orbit_rows(mapping, range(1, 8))
    assert rows[-1] == (1, 2, 3, 4, 5, 6, 7) and len(rows) == o.order(mapping)
    o.check_orbit(mapping, range(1, 8), rows)


def test_miller_rabin_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if o.is_prime(n)] == [n for n in range(3000) if trial(n)]
    assert o.is_prime(2**61 - 1)
    assert not o.is_prime(561)  # Carmichael number
    assert not o.is_prime(3_215_031_751)  # strong pseudoprime to bases 2, 3, 5 and 7


def test_totals_and_prefix_sums_are_exact():
    values = [F(1, 3), F(1, 6), F(5, 2), F(4)]
    assert o.total(values) == sum(values) == F(7)
    assert o.prefix_sums(values) == [F(0), F(1, 3), F(1, 2), F(3), F(7)]
    onsets, end = o.canon([F(2), F(1), F(2)], [(F(1), F(3, 2))])[0]
    assert onsets == [F(1), F(4), F(11, 2)] and end == F(17, 2)
    events = o.canon_events([F(2), F(1)], [(F(0), F(1)), (F(1), F(2))])
    assert events == [(F(0), 0, F(2)), (F(1), 1, F(4)), (F(2), 0, F(1)), (F(5), 1, F(2))]


def test_augmentation_chains_rebuild_their_rhythm():
    rhythm = [F(x) for x in (4, 4, 2, 2, 1, 1)]
    prefix, ratios = o.augmentation_chain(rhythm)
    assert prefix == [F(4), F(4)] and ratios == [F(1, 2), F(1, 4)]
    assert o.rebuild_chain(prefix, ratios) == rhythm
    assert o.augmentation_chain([F(x) for x in (1, 2, 1, 2)]) is None  # repetition, ratio 1


def test_analysis_and_predicates():
    report = o.analysis([F(x) for x in (1, 3, 2, 3, 3, 3, 2, 3, 1, 3)])
    assert o.predicate(report, "interleave") and not o.predicate(report, "nonretro")
    report = o.analysis([F(2), F(1), F(2)])
    assert report["total"] == "5" and report["prime_total"] is True and o.predicate(report, "nonretro")
    assert o.analysis([F(1, 2), F(1)])["prime_total"] is None


def test_rhythm_text_is_strict_ascii():
    assert o.parse_durations("1 3/2 @unit=double croche") == ([F(1), F(3, 2)], "double croche")
    for bad in ("١ ٢ ١", "1.5", "²"):
        with pytest.raises(o.WrongOutput):
            o.parse_durations(bad)
    assert o.rhythm_text([F(3, 2), F(2)], "croche") == "3/2 2 @unit=croche"


def test_random_permutations_have_the_requested_order():
    rng = random.Random(0)
    for order in pitch_perm.RANDOM_PERM_ORDERS:
        mapping = pitch_perm.random_perm(rng, order, 3000 // order + 20)
        assert sorted(mapping) == list(range(len(mapping)))
        assert o.order(mapping) == order


def test_catalog_chunks_have_their_make_up():
    rng = random.Random(0)
    for _ in range(20):
        reports = [o.analysis(r) for r in rhythm_catalog._chunk_rhythms(rng)]
        primes = [int(r["total"]) for r in reports if r["prime_total"]]
        assert any(rhythm_catalog.PRIME_TOTALS[0] <= p for p in primes)
        assert sum(o.predicate(r, "interleave") for r in reports) >= 2
        assert sum(o.predicate(r, "augchain") for r in reports) >= 2
        assert sum(r["prime_total"] is None for r in reports) >= 1


def test_cli_round_covers_every_verb_in_both_formats():
    ops = cli_mix.build(1, Path(__file__).resolve().parent.parent / "src" / "messiaen" / "data")
    assert len(ops) == 47
    verbs = {(op.argv[0], op.argv[1], op.argv[-1]) for op in ops if "--format" in op.argv}
    assert len(verbs) == 19 * 2
    assert [op.argv for op in ops[-3:]] == [argv for argv, _ in cli_mix.FAULTS]

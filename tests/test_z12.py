import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from messiaen import z12
from messiaen.errors import DegenerateSet, ParseError
from messiaen.z12 import (
    MODES,
    ModeId,
    classify_mode,
    detect_truncated,
    enumerate_limited,
    format_pcset,
    from_bitmask,
    is_degenerate,
    is_limited_transposition,
    minimal_period,
    note_names,
    parse_pcset,
    pcset,
    transpose,
)

WHOLE_TONE = pcset({0, 2, 4, 6, 8, 10})
OCTATONIC = pcset({0, 1, 3, 4, 6, 7, 9, 10})
DIATONIC = pcset({0, 2, 4, 5, 7, 9, 11})
FULL = pcset(range(12))


def brute_force_limited():
    """Independent oracle: filter all 4096 subsets for a fixing translation."""
    out = []
    for n in range(4096):
        s = frozenset(i for i in range(12) if n >> i & 1)
        if any(frozenset((x + t) % 12 for x in s) == s for t in range(1, 12)):
            out.append(s)
    return out


def _transpose_by_members(s, t):
    """transpose as first written, member by member: the reference."""
    return frozenset((x + t) % 12 for x in s)


def _period_by_search(s):
    """minimal_period as first written, trying every t in 1..12: the reference."""
    return next(t for t in range(1, 13) if _transpose_by_members(s, t) == s)


def _classify_by_search(s):
    """classify_mode as first written, scanning the 33 transpositions: the reference."""
    for number, mode in enumerate(MODES, start=1):
        for t in range(_period_by_search(mode)):
            if _transpose_by_members(mode, t) == s:
                return ModeId(number, t)
    return None


def test_z12_matches_the_frozenset_loops_on_every_set():
    for n in range(1, 4096):
        s = from_bitmask(n)
        assert minimal_period(s) == _period_by_search(s), n
        assert classify_mode(s) == _classify_by_search(s), n
        for t in range(-24, 25):
            assert transpose(s, t) == _transpose_by_members(s, t), (n, t)


def test_transpose_examples():
    assert transpose(WHOLE_TONE, 2) == WHOLE_TONE
    assert transpose(pcset({0}), 12) == pcset({0})
    assert transpose(OCTATONIC, 1) == pcset({1, 2, 4, 5, 7, 8, 10, 11})


def test_transpose_group_laws():
    rng = random.Random(7)
    for _ in range(200):
        s = frozenset(rng.sample(range(12), rng.randint(1, 12)))
        a, b = rng.randrange(-24, 24), rng.randrange(-24, 24)
        assert transpose(s, 0) == s
        assert transpose(transpose(s, a), b) == transpose(s, (a + b) % 12)
        assert len(transpose(s, a)) == len(s)


def test_minimal_period_examples():
    assert minimal_period(WHOLE_TONE) == 2
    assert minimal_period(OCTATONIC) == 3
    # brute force over all 12 translations of the diatonic set
    assert all(transpose(DIATONIC, t) != DIATONIC for t in range(1, 12))
    assert minimal_period(DIATONIC) == 12


def test_minimal_period_empty_set_rejected():
    with pytest.raises(DegenerateSet):
        minimal_period(frozenset())


def test_minimal_period_divides_12_exhaustive():
    for n in range(1, 4096):
        assert 12 % minimal_period(from_bitmask(n)) == 0


def test_minimal_period_invariant_under_transposition():
    rng = random.Random(11)
    for _ in range(300):
        s = frozenset(rng.sample(range(12), rng.randint(1, 12)))
        t = rng.randrange(12)
        assert minimal_period(transpose(s, t)) == minimal_period(s)


def test_is_limited_transposition():
    assert is_limited_transposition(pcset({0, 1, 2, 5, 6, 7, 8, 11}))
    assert not is_limited_transposition(pcset({0}))
    assert is_limited_transposition(FULL)
    assert minimal_period(FULL) == 1
    assert is_degenerate(FULL) and is_degenerate(frozenset())
    assert not is_degenerate(pcset({0}))


def test_mode_table_periods():
    assert [minimal_period(m) for m in MODES] == [2, 3, 4, 6, 6, 6, 6]


def test_mode_table_checksum():
    blob = "\n".join(f"{i}:{format_pcset(m)}" for i, m in enumerate(MODES, start=1))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == "94a2416c6ef00127e8cc15b82ba1f0aa7834934ac6f4d04f2f637e9bbf344799"


def test_classify_mode_examples():
    assert classify_mode(OCTATONIC) == ModeId(number=2, offset=0)
    assert classify_mode(transpose(OCTATONIC, 1)) == ModeId(number=2, offset=1)
    # diatonic never matches a catalogued mode at any offset (brute force)
    assert all(
        transpose(m, t) != DIATONIC for m in MODES for t in range(12)
    )
    assert classify_mode(DIATONIC) is None


def test_classify_recovers_every_transposition():
    for number, mode in enumerate(MODES, start=1):
        period = minimal_period(mode)
        for t in range(12):
            got = classify_mode(transpose(mode, t))
            assert got == ModeId(number, t % period)


def test_distinct_transposition_counts_match_periods():
    for mode in MODES:
        orbit = {transpose(mode, t) for t in range(12)}
        assert len(orbit) == minimal_period(mode)


def test_classify_smallest_mode_number_wins():
    # Sanity: no catalogued mode is a transposition of an earlier one, so
    # the tie-break is only observable through offset canonicalisation.
    for i, a in enumerate(MODES):
        for b in MODES[:i]:
            assert all(transpose(b, t) != a for t in range(12))
    mode = classify_mode(transpose(MODES[0], 7))
    assert mode == ModeId(1, 1)  # 7 mod period 2


def test_enumerate_limited_matches_oracle():
    got = enumerate_limited()
    oracle = brute_force_limited()
    assert got == oracle
    assert len(got) == 76
    assert WHOLE_TONE in got
    assert frozenset() in got and FULL in got
    assert pcset({0}) not in got and pcset({0, 1}) not in got


def test_enumerate_limited_sorted_by_bitmask():
    got = enumerate_limited()
    masks = [z12.bitmask(s) for s in got]
    assert masks == sorted(masks)


def test_detect_truncated():
    four_note = pcset({0, 1, 6, 7})
    assert minimal_period(four_note) == 6
    assert all(transpose(m, t) != four_note for m in MODES for t in range(12))
    assert detect_truncated(four_note) is True
    assert detect_truncated(OCTATONIC) is False
    assert detect_truncated(pcset({0, 1, 2})) is False


def test_detect_truncated_rejects_degenerate():
    with pytest.raises(DegenerateSet):
        detect_truncated(frozenset())
    with pytest.raises(DegenerateSet):
        detect_truncated(FULL)


def test_parse_pcset():
    assert parse_pcset("0 2 4 6 8 10") == WHOLE_TONE
    assert parse_pcset("C D E F# G# A#") == WHOLE_TONE
    assert parse_pcset("c db d") == pcset({0, 1, 2})
    assert parse_pcset("Bb A#") == pcset({10})
    assert parse_pcset("Cb B#") == pcset({11, 0})


def _note_by_branches(tok):
    """The per-accidental reading parse_pcset was first written with: the reference."""
    names = {"c": 0, "d": 2, "e": 4, "f": 5, "g": 7, "a": 9, "b": 11}
    if tok[0].lower() not in names or len(tok) > 2:
        return None
    v = names[tok[0].lower()]
    if len(tok) == 2:
        if tok[1] not in ("#", "b", "B"):
            return None
        v += 1 if tok[1] == "#" else -1
    return v % 12


def test_parse_pcset_reads_every_spelling():
    for letter in "ABCDEFGHIabcdefghi@":
        for accidental in ("", "#", "b", "B", "x", "s", "♯", "♭", "##", "bb", "b#"):
            tok = letter + accidental
            expected = _note_by_branches(tok)
            if expected is None:
                with pytest.raises(ParseError):
                    parse_pcset(tok)
            else:
                assert parse_pcset(tok) == {expected}, tok


@pytest.mark.parametrize("bad", ["", "12", "H", "C##", "0 1 x", "-1"])
def test_parse_pcset_rejects(bad):
    with pytest.raises(ParseError):
        parse_pcset(bad)


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        s = frozenset(rng.sample(range(12), rng.randint(1, 12)))
        assert parse_pcset(format_pcset(s)) == s


def test_pcset_validates_range():
    with pytest.raises(ValueError):
        pcset({0, 12})
    with pytest.raises(ValueError):
        pcset({-1})


@pytest.mark.parametrize("bad", ["²", "١", "0 ٣", "7" * 5000])
def test_parse_pcset_reads_ascii_digits_only(bad):
    with pytest.raises(ParseError):
        parse_pcset(bad)


@given(st.frozensets(st.integers(0, 11), min_size=1))
def test_parse_pcset_reads_back_both_renderings(s):
    assert parse_pcset(format_pcset(s)) == s
    assert parse_pcset(note_names(s)) == s

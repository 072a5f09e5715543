import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest
from conftest import int_limit
from hypothesis import example, given, settings
from hypothesis import strategies as st

from messiaen import rhythm as rhythm_module
from messiaen.catalog import analyze_rhythm

from messiaen.errors import (
    MAX_DIGITS,
    BadRatio,
    DomainError,
    NoCenter,
    NonIntegerTotal,
    NoVoices,
    ParseError,
    TooShort,
    UnitMismatch,
)
from messiaen.rhythm import (
    AugmentationChain,
    CanonSchedule,
    Rhythm,
    Voice,
    _shown,
    as_fraction,
    augment,
    augmentation_kind,
    build_canon,
    detect_augmentation_chain,
    eliminate_extremes,
    format_rhythm,
    format_values,
    interleave_profile,
    is_non_retrogradable,
    is_prime_total,
    parse_rhythm,
    retrograde,
    rhythm,
    scale_central,
    symmetric_amplification,
    total_duration,
)

AMPHIMACER = rhythm([2, 1, 2])


def random_rhythm(rng, max_len=12):
    return rhythm(
        [F(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(rng.randint(1, max_len))]
    )


def random_palindrome(rng):
    half = [F(rng.randint(1, 16), rng.randint(1, 8)) for _ in range(rng.randint(1, 6))]
    center = [F(rng.randint(1, 16))] if rng.random() < 0.5 else []
    return rhythm(half + center + half[::-1])


def test_rhythm_construction():
    r = rhythm([2, 1, "3/2"])
    assert r.durations == (F(2), F(1), F(3, 2))
    with pytest.raises(ValueError):
        Rhythm(())
    with pytest.raises(ValueError):
        rhythm([1, 0])
    with pytest.raises(TypeError):
        rhythm([1.5])


def test_retrograde_examples():
    assert retrograde(rhythm([2, 2, 1])).durations == (F(1), F(2), F(2))
    assert retrograde(AMPHIMACER).durations == AMPHIMACER.durations
    assert retrograde(rhythm([5])).durations == (F(5),)
    assert retrograde(rhythm([1], unit="noire")).unit == "noire"


def test_retrograde_involution():
    rng = random.Random(1)
    for _ in range(300):
        r = random_rhythm(rng)
        assert retrograde(retrograde(r)) == r


def test_is_non_retrogradable():
    assert is_non_retrogradable(rhythm([3, 5, 8, 5, 3]))
    assert not is_non_retrogradable(rhythm([1, 3, 2, 3, 3, 3, 2, 3, 1, 3]))
    assert is_non_retrogradable(rhythm([1]))
    rng = random.Random(2)
    for _ in range(300):
        r = random_rhythm(rng)
        assert is_non_retrogradable(r) == (r == retrograde(r))


def test_augment_examples():
    assert augment(rhythm([1, 1, 1]), 2).durations == (F(2), F(2), F(2))
    assert augment(AMPHIMACER, "3/2").durations == (F(3), F(3, 2), F(3))
    assert augment(AMPHIMACER, 1) == AMPHIMACER


def test_augment_kind_and_errors():
    assert augmentation_kind(F(2)) == "augmentation"
    assert augmentation_kind(F(1, 2)) == "diminution"
    assert augmentation_kind(F(1)) == "identity"
    with pytest.raises(BadRatio):
        augment(AMPHIMACER, 0)
    with pytest.raises(BadRatio):
        augment(AMPHIMACER, F(-1, 2))


def test_augment_composes():
    rng = random.Random(3)
    for _ in range(300):
        r = random_rhythm(rng)
        a = F(rng.randint(1, 9), rng.randint(1, 9))
        b = F(rng.randint(1, 9), rng.randint(1, 9))
        assert augment(augment(r, a), b) == augment(r, a * b)
        assert total_duration(augment(r, a)) == a * total_duration(r)


def test_symmetric_amplification_quoted_lines():
    line2 = symmetric_amplification(AMPHIMACER, rhythm([2, 2]))
    assert line2.durations == (F(2), F(2), F(2), F(1), F(2), F(2), F(2))
    line3 = symmetric_amplification(AMPHIMACER, rhythm([2, "3/2", 2]))
    assert line3.durations == (F(2), F(3, 2), F(2), F(2), F(1), F(2), F(2), F(3, 2), F(2))
    assert symmetric_amplification(rhythm([1]), rhythm([1])).durations == (F(1),) * 3


def test_symmetric_amplification_units():
    core = rhythm([2, 1, 2], unit="double croche")
    assert symmetric_amplification(core, rhythm([2, 2])).unit == "double croche"
    with pytest.raises(UnitMismatch):
        symmetric_amplification(core, rhythm([2], unit="triple croche"))


def test_amplification_then_elimination_round_trip():
    rng = random.Random(4)
    for _ in range(300):
        core = random_rhythm(rng, max_len=6)
        wing = random_rhythm(rng, max_len=4)
        amplified = symmetric_amplification(core, wing)
        assert eliminate_extremes(amplified, len(wing)) == core


def test_eliminate_extremes():
    assert eliminate_extremes(rhythm([2, 2, 2, 1, 2, 2, 2]), 2) == AMPHIMACER
    r = rhythm([3, 5, 8, 5, 3])
    assert eliminate_extremes(r, 0) is r
    assert eliminate_extremes(r, 2).durations == (F(8),)
    with pytest.raises(TooShort):
        eliminate_extremes(r, 3)
    with pytest.raises(TooShort):
        eliminate_extremes(rhythm([1, 2]), 1)
    with pytest.raises(DomainError):
        eliminate_extremes(r, -1)


def test_scale_central():
    # oracle: direct index arithmetic on position (n-1)/2
    assert scale_central(AMPHIMACER, 3).durations == (F(2), F(3), F(2))
    assert scale_central(AMPHIMACER, 1) == AMPHIMACER
    with pytest.raises(NoCenter):
        scale_central(rhythm([1, 1, 1, 1]), 2)
    with pytest.raises(BadRatio):
        scale_central(AMPHIMACER, 0)


def test_palindrome_preserving_transformations():
    rng = random.Random(5)
    for _ in range(300):
        core = random_palindrome(rng)
        wing = random_rhythm(rng, max_len=4)
        assert is_non_retrogradable(symmetric_amplification(core, wing))
        k = rng.randint(0, (len(core) - 1) // 2)
        assert is_non_retrogradable(eliminate_extremes(core, k))
        if len(core) % 2:
            q = F(rng.randint(1, 9), rng.randint(1, 9))
            assert is_non_retrogradable(scale_central(core, q))


def test_total_duration_and_primality():
    assert total_duration(rhythm([1, 1, 3, 2, 2, 1, 2, 2, 3, 1, 1])) == 19
    assert is_prime_total(rhythm([1, 1, 3, 2, 2, 1, 2, 2, 3, 1, 1]))
    assert total_duration(rhythm([2, 1, 1, 1, 3, 1, 1, 1, 2])) == 13
    assert is_prime_total(rhythm([2, 1, 1, 1, 3, 1, 1, 1, 2]))
    assert total_duration(AMPHIMACER) == 5 and is_prime_total(AMPHIMACER)
    assert not is_prime_total(rhythm([1, 1, 1, 1]))
    assert not is_prime_total(rhythm([1]))
    with pytest.raises(NonIntegerTotal):
        is_prime_total(rhythm([1, 1, 1, "3/2"]))


def test_total_duration_invariant_under_reordering():
    rng = random.Random(6)
    for _ in range(200):
        r = random_rhythm(rng)
        shuffled = list(r.durations)
        rng.shuffle(shuffled)
        assert total_duration(rhythm(shuffled)) == total_duration(r)
        assert total_duration(retrograde(r)) == total_duration(r)


def test_detect_augmentation_chain_examples():
    chain = detect_augmentation_chain(rhythm([1, 1, 1, 2, 2, 2]))
    assert chain == AugmentationChain(rhythm([1, 1, 1]), (F(2),))
    chain = detect_augmentation_chain(rhythm([4, 4, 2, 2, 1, 1]))
    assert chain == AugmentationChain(rhythm([4, 4]), (F(1, 2), F(1, 4)))
    assert detect_augmentation_chain(AMPHIMACER) is None


def test_detect_augmentation_chain_edge_cases():
    # bare repetition is not an augmentation
    assert detect_augmentation_chain(rhythm([2, 2, 2, 2])) is None
    assert detect_augmentation_chain(rhythm([5])) is None
    # block count is maximised: prefix [1] beats prefix [1, 2]
    chain = detect_augmentation_chain(rhythm([1, 2, 2, 4]))
    assert chain == AugmentationChain(rhythm([1]), (F(2), F(2), F(4)))
    # rebuild oracle: prefix scaled by each ratio reconstructs the input
    r = rhythm([3, "3/2", 1, "1/2", 2, 1])
    chain = detect_augmentation_chain(r)
    assert chain is not None
    rebuilt = list(chain.prefix.durations)
    for q in chain.ratios:
        rebuilt.extend(d * q for d in chain.prefix.durations)
    assert tuple(rebuilt) == r.durations


def test_detect_augmentation_chain_random_rebuild():
    rng = random.Random(7)
    for _ in range(200):
        prefix = random_rhythm(rng, max_len=4)
        ratios = []
        blocks = list(prefix.durations)
        for _ in range(rng.randint(1, 3)):
            q = F(rng.choice([2, 3, 1, 1, 1]), rng.choice([1, 2, 4]))
            if q == 1:
                q = F(2)
            ratios.append(q)
            blocks.extend(d * q for d in prefix.durations)
        chain = detect_augmentation_chain(rhythm(blocks))
        assert chain is not None
        rebuilt = list(chain.prefix.durations)
        for q in chain.ratios:
            rebuilt.extend(d * q for d in chain.prefix.durations)
        assert tuple(rebuilt) == tuple(blocks)


def test_interleave_profile_examples():
    p = interleave_profile(rhythm([1, 3, 2, 3, 3, 3, 2, 3, 1, 3]))
    assert p.odd.values == (F(1), F(2), F(3), F(2), F(1))
    assert p.odd.unimodal and not p.odd.constant
    assert p.even.values == (F(3),) * 5
    assert p.even.constant

    p = interleave_profile(rhythm([2, 2, 2, 2]))
    assert p.odd.constant and p.even.constant

    p = interleave_profile(rhythm([1, 5, 2, 5, 4, 5]))
    assert p.odd.values == (F(1), F(2), F(4))
    assert p.odd.increasing and not p.odd.unimodal
    assert p.even.constant


def test_interleave_profile_shapes():
    p = interleave_profile(rhythm([3, 1, 2, 1, 1, 1]))
    assert p.odd.decreasing and not p.odd.unimodal
    # peak at an extreme is not rising-then-falling
    p = interleave_profile(rhythm([5, 9, 1, 9, 4, 9]))
    assert p.odd.values == (F(5), F(1), F(4))
    assert not p.odd.unimodal
    with pytest.raises(TooShort):
        interleave_profile(rhythm([1]))


def test_build_canon_examples():
    sched = build_canon(AMPHIMACER, [(0, 1)])
    assert sched.voices[0].onsets == (F(0), F(2), F(3))
    assert sched.voices[0].end == 5

    sched = build_canon(AMPHIMACER, [(0, 1), (1, "3/2")])
    assert sched.voices[1].onsets == (F(1), F(4), F(11, 2))
    assert sched.voices[1].end == F(1) + F(3, 2) * 5

    sched = build_canon(rhythm([1]), [(0, 1), (0, 1)])
    assert sched.events == ((F(0), 0, F(1)), (F(0), 1, F(1)))


def test_build_canon_merged_events_sorted():
    rng = random.Random(8)
    for _ in range(100):
        subject = random_rhythm(rng, max_len=5)
        voices = [
            (F(rng.randint(0, 4)), F(rng.randint(1, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        sched = build_canon(subject, voices)
        assert list(sched.events) == sorted(sched.events)
        assert sum(len(v.onsets) for v in sched.voices) == len(sched.events)


def test_build_canon_errors():
    with pytest.raises(NoVoices):
        build_canon(AMPHIMACER, [])
    with pytest.raises(BadRatio):
        build_canon(AMPHIMACER, [(0, 0)])
    with pytest.raises(DomainError):
        build_canon(AMPHIMACER, [(-1, 1)])


def test_build_canon_refuses_canons_past_the_digit_bound(monkeypatch):
    wide = rhythm([F(1, 10**4299 + i) for i in range(10)])  # a common denominator of 43 000 digits
    with pytest.raises(DomainError, match="400 voices of 10 durations exceeds 5000000 digits"):
        build_canon(wide, [(0, 1)] * 400)
    # every voice is checked before the digits are counted
    with pytest.raises(BadRatio):
        build_canon(wide, [(0, 1)] * 399 + [(0, 0)])
    # integer onsets of 4290 digits: the end over the denominator is what is long
    with pytest.raises(DomainError, match="more than 500 digits"):
        build_canon(rhythm([1] * 2500), [(0, 10**4290)] * 4)
    monkeypatch.setattr(rhythm_module, "MAX_CANON_DIGITS", 60)  # 10 digits for each of 6 events
    assert len(build_canon(AMPHIMACER, [(0, 1), (F(1, 10**8), F(3, 7))]).events) == 6
    for voice in [(F(1, 10**11), 1), (0, F(1, 10**11)), (10**11, 1), (0, 10**11)]:
        with pytest.raises(DomainError, match="more than 10 digits"):
            build_canon(AMPHIMACER, [(0, 1), voice])


def test_build_canon_digit_bound_admits_a_denominator_of_exactly_its_bits(monkeypatch):
    monkeypatch.setattr(rhythm_module, "MAX_CANON_DIGITS", 30)  # one event of 30 digits: 100 bits
    refused = ("canon of 1 voices of 1 durations exceeds 30 digits: its onsets' common denominator,"
               " or its end over it, has more than 30 digits")
    for bits, p in ((100, 2**100 - 15), (101, 2**101 - 69)):  # the largest primes below 2**100 and 2**101
        assert p.bit_length() == bits
        for subject, voice in ((rhythm([F(1, p)]), (0, 1)), (rhythm([1]), (0, F(1, p)))):
            if bits == 100:
                assert build_canon(subject, [voice]).voices[0].end == subject.durations[0] * voice[1]
            else:
                with pytest.raises(DomainError) as error:
                    build_canon(subject, [voice])
                assert type(error.value) is DomainError and str(error.value) == refused


def test_build_canon_refuses_canons_past_the_event_bound(monkeypatch):
    monkeypatch.setattr("messiaen.rhythm.MAX_CANON_EVENTS", 6)
    assert len(build_canon(AMPHIMACER, [(0, 1), (1, 2)]).events) == 6  # 2 voices x 3 durations
    with pytest.raises(DomainError, match="3 voices of 3 durations exceeds 6 events"):
        build_canon(AMPHIMACER, [(0, 1), (1, 2), (2, 1)])
    # refused before any voice is read: the negative delays are not reached
    with pytest.raises(DomainError, match="exceeds 6 events"):
        build_canon(AMPHIMACER, [(-1, 1)] * 3)


def test_parse_rhythm():
    assert parse_rhythm("2 1 2") == AMPHIMACER
    r = parse_rhythm("1 1 1 3/2 @unit=double croche")
    assert r.durations == (F(1), F(1), F(1), F(3, 2))
    assert r.unit == "double croche"


@pytest.mark.parametrize("bad", ["", "1,5", "1.5", "a", "2 0 2", "1/0", "-2", "2 @unit="])
def test_parse_rhythm_rejects(bad):
    with pytest.raises(ParseError):
        parse_rhythm(bad)


def test_format_parse_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        r = random_rhythm(rng)
        assert parse_rhythm(format_rhythm(r)) == r
    labeled = rhythm(["3/2", 2], unit="triple croche")
    assert parse_rhythm(format_rhythm(labeled)) == labeled


# --- the writer's bound and the rhythm text round trip ----------------------


def test_format_values_bound_does_not_depend_on_the_interpreter_limit():
    widest = 10**MAX_DIGITS - 1
    for limit in (sys.get_int_max_str_digits(), 0):
        with int_limit(limit):
            assert format_values([F(1, widest), -widest, 2]).split(" ")[1] == "-" + "9" * MAX_DIGITS
            for value in (F(10**MAX_DIGITS), F(1, 10**MAX_DIGITS), F(widest + 2, widest)):
                with pytest.raises(DomainError, match=f"more than {MAX_DIGITS} digits"):
                    format_values([1, value])
    with int_limit(640):  # under a lower interpreter limit the refusal names that limit
        assert format_values([10**639]) == "1" + "0" * 639
        with pytest.raises(DomainError, match="more than 640 digits"):
            format_values([1, F(1, 10**1000)])


def test_error_messages_name_values_the_writer_refuses():
    huge = 10 ** (MAX_DIGITS + 1)
    with pytest.raises(ValueError, match="strictly positive, got a value where"):
        Rhythm((-huge,))
    with pytest.raises(BadRatio, match=f"more than {MAX_DIGITS} digits"):
        augment(rhythm([1]), -huge)
    with pytest.raises(BadRatio):
        scale_central(rhythm([1]), F(-1, huge))
    with pytest.raises(NonIntegerTotal):
        is_prime_total(rhythm([F(1, huge)]))
    with pytest.raises(BadRatio):
        build_canon(rhythm([1]), [(0, -huge)])


def test_format_rhythm_refuses_units_it_cannot_write():
    for unit in (" x", "x ", "\tx", "x\n", "\u2028x", " "):
        with pytest.raises(DomainError):
            format_rhythm(rhythm([1, 2], unit=unit))
    assert format_rhythm(rhythm([1, 2], unit=" x"), with_unit=False) == "1 2"


_part = st.integers(1, 10**6) | st.integers(10 ** (MAX_DIGITS - 1), 10 ** (MAX_DIGITS + 1))


def _too_wide(r):
    return any(max(d.numerator, d.denominator) >= 10**MAX_DIGITS for d in r.durations)


@settings(max_examples=200, deadline=None)
@given(st.builds(
    Rhythm,
    st.lists(st.builds(F, _part, _part), min_size=1, max_size=4).map(tuple),
    st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028a|@=é"), max_size=6),
))
def test_rhythm_text_reads_back_or_is_refused(r):
    try:
        text = format_rhythm(r)
    except DomainError:
        assert _too_wide(r) or r.unit != r.unit.strip()
        return
    assert not _too_wide(r)
    assert parse_rhythm(text) == r


# --- ASCII-only tokens and exact primality -------------------------------


@pytest.mark.parametrize("bad", ["١ ٢ ١", "²", "1/²", "7" * 5000, "1/" + "7" * 5000])
def test_parse_rhythm_reads_ascii_digits_only(bad):
    with pytest.raises(ParseError):
        parse_rhythm(bad)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    from messiaen.rhythm import _is_prime

    assert all(_is_prime(n) == _trial_division(n) for n in range(10**5))


@pytest.mark.parametrize(
    "n,prime",
    [
        (2**61 - 1, True),
        ((2**61 - 1) * 1_000_003, False),  # two primes, product just below the bound
        (3_215_031_751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (561, False),  # Carmichael numbers
        (41041, False),
        (825_265, False),
        (321_197_185, False),
        (5_394_826_801, False),
        (232_250_619_601, False),
        (9_746_347_772_161, False),
        (56_052_361, False),  # 211 * 421 * 631, a Carmichael number with no factor among the bases
        (118_901_521, False),  # 271 * 541 * 811, likewise
    ],
)
def test_is_prime_hard_cases(n, prime):
    from messiaen.rhythm import _is_prime

    assert _is_prime(n) is prime


def test_is_prime_refuses_to_guess_above_its_bound():
    from messiaen.rhythm import PRIME_BOUND, _is_prime

    # the bound itself is a strong pseudoprime to all 13 bases
    with pytest.raises(DomainError):
        _is_prime(PRIME_BOUND)
    # a small factor still decides exactly
    assert _is_prime(PRIME_BOUND + 1) is False


# --- the integer canon and sums against the Fraction code they replace -------


def _canon_by_fraction_sort(subject, voices):
    """build_canon as first written, Fraction prefix sums and a sort of Fraction triples: the reference."""
    if not voices:
        raise NoVoices("a canon needs at least one voice")
    if len(voices) * len(subject) > rhythm_module.MAX_CANON_EVENTS:
        raise DomainError(f"canon of {len(voices)} voices of {len(subject)} durations"
                          f" exceeds {rhythm_module.MAX_CANON_EVENTS} events")
    prefix = [F(0)]
    for d in subject.durations:
        prefix.append(prefix[-1] + d)
    built = []
    for delay_in, ratio_in in voices:
        delay = as_fraction(delay_in)
        ratio = as_fraction(ratio_in)
        if delay < 0:
            raise DomainError(f"voice delay must be nonnegative, got {_shown(delay)}")
        if ratio <= 0:
            raise BadRatio(f"voice ratio must be strictly positive, got {_shown(ratio)}")
        onsets = tuple(delay + ratio * p for p in prefix[:-1])
        built.append(Voice(delay, ratio, onsets, delay + ratio * prefix[-1]))
    events = sorted(
        (onset, v, voice.ratio * d)
        for v, voice in enumerate(built)
        for onset, d in zip(voice.onsets, subject.durations)
    )
    return CanonSchedule(subject, tuple(built), tuple(events))


def _total_by_fraction_sum(r):
    """total_duration as first written, a sum of Fractions: the reference."""
    return sum(r.durations, F(0))


_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
_SMALL = st.integers(1, 12)
_WIDE = st.integers(1, 10**MAX_DIGITS - 1)  # up to 4300 digits, the most any reader accepts


@st.composite
def _subjects(draw):
    kind = draw(st.sampled_from(("repeated", "coprime", "wide")))
    size = draw(st.integers(1, 4 if kind == "wide" else 40))
    if kind == "repeated":  # few distinct values: equal durations and coinciding onsets
        durations = draw(st.lists(st.builds(F, _SMALL, st.integers(1, 6)), min_size=size, max_size=size))
    elif kind == "coprime":  # pairwise coprime denominators
        primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=size, max_size=size, unique=True))
        durations = [F(draw(_SMALL), p) for p in primes]
    else:
        durations = draw(st.lists(st.builds(F, _SMALL | _WIDE, _SMALL | _WIDE), min_size=size, max_size=size))
    return Rhythm(durations), kind


@st.composite
def _voice_lists(draw, wide):
    part = (_SMALL | _WIDE) if wide else st.integers(1, 8)
    delays = st.just(F(0)) | st.builds(F, st.integers(0, 8), st.integers(1, 6)) | st.builds(F, part, part)
    ratios = st.just(F(1)) | st.builds(F, st.integers(1, 8), st.integers(1, 6)) | st.builds(F, part, part)
    pool = draw(st.lists(st.tuples(delays, ratios), min_size=1, max_size=6))
    voices = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))  # equal voices drawn again
    # As the command line passes them, as text, or as Fractions.
    return [draw(st.sampled_from(((d, q), (str(d), str(q))))) for d, q in voices]


@st.composite
def _canons(draw):
    subject, kind = draw(_subjects())
    return subject, draw(_voice_lists(kind == "wide"))


def _assert_same_canon(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.subject is want.subject
    assert got.events == want.events
    assert [v._asdict() for v in got.voices] == [v._asdict() for v in want.voices]
    assert type(got.voices) is tuple and type(got.events) is tuple
    for v in got.voices:
        assert type(v.onsets) is tuple
        assert all(type(x) is F for x in (v.delay, v.ratio, v.end, *v.onsets))
    for onset, voice, duration in got.events:
        assert type(onset) is F and type(voice) is int and type(duration) is F


@settings(max_examples=300, deadline=None)
@given(_canons())
@example((rhythm([1, "1/2", 1, 2]), [(0, 1), (0, 1), (1, "1/2"), ("1/2", 2)]))
@example((rhythm([2, 2]), [(0, 1), (1, "1/2")]))  # voices of different ratios meet at 2
@example((rhythm([1]), [(0, 1)] * 6))
@example((rhythm(["1/2", "1/3", "1/5", "1/7"]), [(0, 1), ("1/11", "2/13"), ("1/3", "1/2")]))
def test_build_canon_matches_the_fraction_sort(case):
    subject, voices = case
    _assert_same_canon(build_canon(subject, voices), _canon_by_fraction_sort(subject, voices))


_SIGNED = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(
    subject=_subjects().map(lambda s: s[0]),
    voices=st.lists(st.tuples(_SIGNED, _SIGNED), max_size=5),
    bound=st.sampled_from((rhythm_module.MAX_CANON_EVENTS, 12)),
)
def test_build_canon_refuses_as_the_fraction_sort_did(subject, voices, bound):
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rhythm_module, "MAX_CANON_EVENTS", bound)
        for schedule in (build_canon, _canon_by_fraction_sort):
            try:
                outcomes.append(schedule(subject, voices))
            except (NoVoices, DomainError, BadRatio) as exc:
                outcomes.append((type(exc), str(exc)))
    if isinstance(outcomes[1], CanonSchedule):
        _assert_same_canon(*outcomes)
    else:
        assert outcomes[0] == outcomes[1]


def _odd_of_bits(bits):
    """An odd number of exactly ``bits`` bits."""
    return 2 ** (bits - 1) + 1


_GATE = rhythm_module.DIRECT_ONSET_BITS


@pytest.mark.parametrize("bits", [_GATE - 1, _GATE, _GATE + 1])
@pytest.mark.parametrize("through", ["subject", "delay", "ratio"])
def test_build_canon_matches_the_fraction_sort_on_both_sides_of_the_width_gate(bits, through):
    q = _odd_of_bits(bits)
    subject, voice = {
        "subject": (rhythm([F(3, q), 2, F(q - 2, q), F(1, q), 1]), (5, 3)),
        "delay": (rhythm([3, 1, 2, 2, 1]), (F(7, q), 2)),
        "ratio": (rhythm([3, 1, 4, 2, 1]), (1, F(q + 2, q))),
    }[through]
    voices = [(0, 1), voice, (1, 2)]  # the onsets' common denominator is q
    den = rhythm_module._onset_keys(subject.durations, [tuple(map(as_fraction, v)) for v in voices], 10**4)[2]
    assert den.bit_length() == bits
    got = build_canon(subject, voices)
    _assert_same_canon(got, _canon_by_fraction_sort(subject, voices))
    for v, sung in enumerate(got.voices):
        assert all(a is b for a, b in zip((e[0] for e in got.events if e[1] == v), sung.onsets, strict=True))
        # A running sum starts from the delay object itself; an onset made from its integer is a new Fraction.
        assert (sung.onsets[0] is sung.delay) is (bits > _GATE)


# Up to 400 durations over denominators up to 1000: on both sides of LCM_SUM_DENOMINATORS distinct denominators.
_MANY_DENOMINATORS = st.lists(st.builds(F, _SMALL, st.integers(1, 1000)), min_size=1, max_size=400).map(Rhythm)


@settings(max_examples=300, deadline=None)
@given(_subjects().map(lambda s: s[0]) | _MANY_DENOMINATORS)
@example(rhythm([F(1, p) for p in _PRIMES]))
@example(rhythm([F(k, q) for q in range(1, 200) for k in (1, q + 1, 2 * q - 1)]))  # 199 denominators, not coprime
def test_total_duration_matches_the_fraction_sum(r):
    total = total_duration(r)
    assert total == _total_by_fraction_sum(r) and type(total) is F


# --- transforms build rhythms without checking them again -------------------


def _assert_built_as_checked(got, durations, unit):
    want = Rhythm(tuple(durations), unit)
    assert type(got) is Rhythm and type(got.durations) is tuple
    assert all(type(d) is F for d in got.durations)
    back = pickle.loads(pickle.dumps(got))
    with int_limit(0):  # a product of two 4300-digit parts has a longer repr
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
        assert back == want and repr(back) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    subject=_subjects().map(lambda s: s[0]),
    wing=_subjects().map(lambda s: s[0]),
    ratio=st.builds(F, _SMALL | _WIDE, _SMALL | _WIDE),
    unit=st.sampled_from(("", "double croche")),
    cut=st.integers(0, 20),
)
def test_transforms_and_parse_build_the_rhythm_the_checking_constructor_builds(subject, wing, ratio, unit, cut):
    r = Rhythm(subject.durations, unit)
    d, n = r.durations, len(r)
    _assert_built_as_checked(retrograde(r), d[::-1], unit)
    _assert_built_as_checked(augment(r, ratio), [x * ratio for x in d], unit)
    _assert_built_as_checked(symmetric_amplification(r, wing), wing.durations + d + wing.durations[::-1], unit)
    k = cut % ((n + 1) // 2)
    _assert_built_as_checked(eliminate_extremes(r, k), d[k:n - k], unit)
    if n % 2:
        _assert_built_as_checked(scale_central(r, ratio), d[:n // 2] + (d[n // 2] * ratio,) + d[n // 2 + 1:], unit)
    q = ratio if ratio != 1 else F(2)
    chained = Rhythm(d + tuple(x * q for x in d), unit)
    chain = detect_augmentation_chain(chained)
    _assert_built_as_checked(chain.prefix, d[:len(chain.prefix)], unit)
    _assert_built_as_checked(parse_rhythm(format_rhythm(r)), d, unit)


def test_the_checking_constructor_still_refuses():
    with pytest.raises(ValueError, match="^durations must be strictly positive, got 0$"):
        Rhythm((0,))
    with pytest.raises(ValueError, match="^durations must be strictly positive, got -1$"):
        Rhythm((-1,))
    with pytest.raises(ValueError, match="^a rhythm needs at least one duration$"):
        Rhythm(())
    with pytest.raises(TypeError):
        Rhythm((F(1), 1.5))


# --- reading and analysis on integers against the Fraction code they replace --


def _parse_by_fraction(text):
    """parse_rhythm as first written, one as_fraction per token: the reference."""
    body, marker, unit = text.partition("@unit=")
    unit = unit.strip()
    if marker and not unit:
        raise ParseError("empty unit label after @unit=")
    tokens = body.split()
    if not tokens:
        raise ParseError("empty rhythm text")
    durations = []
    for tok in tokens:
        value = as_fraction(tok)
        if value <= 0:
            raise ParseError(f"durations must be strictly positive: {tok!r}")
        durations.append(value)
    return Rhythm(tuple(durations), unit)


def _augment_by_fraction(r, ratio):
    """augment as first written, one Fraction product per duration: the reference."""
    q = as_fraction(ratio)
    if q <= 0:
        raise BadRatio(f"ratio must be strictly positive, got {_shown(q)}")
    return Rhythm(tuple(d * q for d in r.durations), r.unit)


def _chain_by_fraction(r):
    """detect_augmentation_chain as first written, Fraction ratios and products: the reference."""
    n = len(r)
    for length in range(1, n // 2 + 1):
        if n % length:
            continue
        prefix = r.durations[:length]
        ratios = []
        for start in range(length, n, length):
            block = r.durations[start:start + length]
            q = block[0] / prefix[0]
            if q == 1 or any(block[i] != prefix[i] * q for i in range(length)):
                break
            ratios.append(q)
        else:
            return AugmentationChain(Rhythm(prefix, r.unit), tuple(ratios))
    return None


def _shape_by_fraction(values):
    """_shape as first written, Fraction comparisons around the first maximum: the reference."""
    n = len(values)
    constant = all(v == values[0] for v in values)
    increasing = n >= 2 and all(a < b for a, b in zip(values, values[1:]))
    decreasing = n >= 2 and all(a > b for a, b in zip(values, values[1:]))
    unimodal = False
    if n >= 3:
        peak = max(range(n), key=lambda i: values[i])
        if 0 < peak < n - 1:
            up = all(a < b for a, b in zip(values[: peak + 1], values[1 : peak + 1]))
            down = all(a > b for a, b in zip(values[peak:], values[peak + 1 :]))
            unimodal = up and down
    return rhythm_module.SequenceShape(values, constant, increasing, decreasing, unimodal)


def _profile_by_fraction(r):
    if len(r) < 2:
        raise TooShort("interleave profile needs at least two durations")
    return rhythm_module.InterleaveProfile(_shape_by_fraction(r.durations[0::2]), _shape_by_fraction(r.durations[1::2]))


def _outcome(f, *args):
    try:
        return f(*args)
    except (ParseError, BadRatio, TooShort) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, Rhythm):
        _assert_built_as_checked(got, want.durations, want.unit)
    else:
        assert got == want


_VALUES = st.builds(F, _SMALL | _WIDE, _SMALL | _WIDE)  # parts of up to 4300 digits
_POOLS = st.lists(_VALUES, min_size=1, max_size=4)  # few distinct values, so each is repeated


@st.composite
def _spellings(draw, value):
    """One way of writing value: its own text, over a common factor, or with leading zeros."""
    k = draw(st.integers(2, 3))
    words = [str(value), f"{value.numerator}/{value.denominator}", f"0{value.numerator}/00{value.denominator}"]
    if max(value.numerator, value.denominator) * k < 10**MAX_DIGITS:  # still within the reader's digit bound
        words.append(f"{value.numerator * k}/{value.denominator * k}")
    return draw(st.sampled_from(words))


@st.composite
def _rhythm_texts(draw):
    values = draw(st.lists(st.sampled_from(draw(_POOLS)), min_size=1, max_size=30))
    words = [draw(_spellings(v)) for v in values]
    bad = st.sampled_from(("0", "00/7", "-1", "x", "1/0", "2/-3", "1.5", "١", "1/" + "7" * (MAX_DIGITS + 1)))
    for _ in range(draw(st.integers(0, 2))):  # a bad token, or a word again, anywhere
        words.insert(draw(st.integers(0, len(words))), draw(bad | st.sampled_from(words)))
    return " ".join(words) + draw(st.sampled_from(("", " @unit=double croche", " @unit= ")))


@st.composite
def _rhythms(draw):
    """Few distinct values, equal ones built apart or shared, as a chain, a chain with one entry changed, or any order."""
    pool = draw(_POOLS)
    kind = draw(st.sampled_from(("chain", "perturbed", "any")))
    if kind == "any":
        durations = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    else:
        prefix = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        ratios = draw(st.lists(_VALUES.filter(lambda q: q != 1) | st.sampled_from((F(2), F(1, 2), F(3, 2))),
                               min_size=1, max_size=4))
        durations = prefix + [d * q for q in ratios for d in prefix]
        if kind == "perturbed":
            i = draw(st.integers(0, len(durations) - 1))
            durations[i] = draw(st.sampled_from(pool) | st.just(durations[i] * 2) | st.just(durations[-1 - i]))
    # Equal values as distinct objects (a Fraction rebuilt from its parts) or as one object.
    durations = [draw(st.sampled_from((d, F(d.numerator, d.denominator)))) for d in durations]
    return Rhythm(durations, draw(st.sampled_from(("", "double croche"))))


@settings(max_examples=300, deadline=None)
@given(_rhythm_texts())
@example("1/2 2/4 01/2 1/2 3 6/2 03")
@example("1/2 2/4 x 01/2 0 x")
def test_parse_rhythm_matches_the_token_by_token_parse(text):
    _assert_same_outcome(_outcome(parse_rhythm, text), _outcome(_parse_by_fraction, text))


def test_parse_rhythm_names_the_first_bad_token():
    with pytest.raises(ParseError, match="^durations must be strictly positive: '0'$"):
        parse_rhythm("1 0 0")
    with pytest.raises(ParseError, match="^not a rational duration token: 'x'$"):
        parse_rhythm("2 x 0")


@settings(max_examples=300, deadline=None)
@given(_rhythms(), _VALUES | st.builds(F, st.integers(-3, 0), _SMALL))
def test_augment_matches_the_product_per_duration(r, ratio):
    _assert_same_outcome(_outcome(augment, r, ratio), _outcome(_augment_by_fraction, r, ratio))


@settings(max_examples=300, deadline=None)
@given(_rhythms())
@example(rhythm([4, 4, 2, 2, 1, 1]))
@example(rhythm([4, 4, 2, 2, 1, 2]))
@example(rhythm([2, 2, 2, 2]))
def test_chain_and_profile_match_the_fraction_analysis(r):
    got, want = detect_augmentation_chain(r), _chain_by_fraction(r)
    assert got == want
    if want is not None:
        _assert_built_as_checked(got.prefix, want.prefix.durations, want.prefix.unit)
        assert all(type(q) is F for q in got.ratios)
    assert _outcome(interleave_profile, r) == _outcome(_profile_by_fraction, r)


def test_shape_matches_the_fraction_shape_on_every_short_sequence():
    values = (F(1, 3), F(1, 2), F(2, 3), F(1), F(7, 4))
    count = 0
    for n in range(1, 7):
        for seq in product(values, repeat=n):
            assert rhythm_module._shape(seq) == _shape_by_fraction(seq), seq
            count += 1
    assert count == 19_530


# --- huge denominators: no work over the rhythm's common denominator ---------


def _one_over_primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return Rhythm([F(1, p) for p in range(n) if sieve[p]])


def _seconds(f, *args):
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


def test_analysis_and_augmentation_of_pairwise_coprime_denominators_stay_fast():
    r = _one_over_primes_below(10**5)  # 9592 durations; their common denominator has about 43 000 digits
    assert len(r) == 9592
    assert _seconds(total_duration, r) < 0.3
    assert _seconds(analyze_rhythm, r) < 5
    assert _seconds(augment, r, F(3, 2)) < 5


def test_canon_of_4300_digit_denominators_stays_fast():
    subject = Rhythm([F(1, 10**4299 + 2 * i + 1) for i in range(30)])
    assert _seconds(build_canon, subject, [(0, 1)]) < 3


def test_canon_refused_for_its_denominator_does_not_write_the_subject_over_it():
    r = _one_over_primes_below(10**5)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as refused:
            build_canon(r, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(refused.value) is DomainError
    assert str(refused.value) == (f"canon of 1 voices of 9592 durations exceeds {rhythm_module.MAX_CANON_DIGITS} digits:"
                                  " its onsets' common denominator, or its end over it, has more than 521 digits")
    assert peak < 30 * 2**20

"""Duration sequences over exact rationals and their transformations.

A rhythm is a nonempty ordered sequence of strictly positive
``fractions.Fraction`` durations, counted in an abstract base unit (a
sixteenth note, a thirty-second note, ...).  The unit is a free text
label carried along as metadata; arithmetic never touches it except to
refuse mixing two explicitly different units.

Everything here is exact: no duration or total is ever a float, and
equality tests (in particular the palindrome test behind
non-retrogradability) are exact rational comparisons.  Rhythms are read
and scaled once per distinct token or duration, and analysed by
comparing numerators and denominators as integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, repeat

from .errors import (
    MAX_DIGITS,
    BadRatio,
    DomainError,
    NoCenter,
    NonIntegerTotal,
    NoVoices,
    ParseError,
    TooShort,
    UnitMismatch,
    ascii_int,
    digit_bound,
)

# Deterministic Miller-Rabin: with the first 13 primes as bases the test
# is exact for every n below the bound (Sorenson & Webster 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
# Largest canon scheduled, in events (voices x durations): at the bound `rhythm canon` takes
# 1.3-1.7 s (human) and 2.1-2.6 s (machine format) in a fresh `python -S` on 2 x86-64 cores.
MAX_CANON_EVENTS = 250_000
# Largest canon scheduled, in digits: events x digits of the onsets' common denominator, or of the
# end written over it where longer. The costliest canon under both bounds, 500 voices of 500 durations
# k/M over an 18-digit M, takes 2.0-2.2 s and 204 MB (human), 2.6-3.1 s and 239 MB (machine format),
# measured likewise.
MAX_CANON_DIGITS = 5_000_000


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or ``n``/``n/d`` string to an exact Fraction.

    Floats are refused: they would smuggle rounding error into a library
    whose whole point is exact equality.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        num, den = ascii_int(num), ascii_int(den) if slash else 1
        if num is None or den is None:
            raise ParseError(f"not a rational duration token: {value!r}")
        if den == 0:
            raise ParseError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise TypeError(f"expected int, Fraction or 'n/d' string, got {type(value).__name__}")


class Rhythm:
    """Immutable nonempty sequence of positive rational durations."""

    __slots__ = __match_args__ = ("durations", "unit")

    def __new__(cls, durations: Iterable[int | str | Fraction], unit: str = ""):
        coerced = tuple(as_fraction(d) for d in durations)
        if not coerced:
            raise ValueError("a rhythm needs at least one duration")
        for d in coerced:
            if d <= 0:
                raise ValueError(f"durations must be strictly positive, got {_shown(d)}")
        return cls._trusted(coerced, unit)

    @classmethod
    def _trusted(cls, durations: tuple[Fraction, ...], unit: str) -> Rhythm:
        """A rhythm of durations already checked: a nonempty tuple of positive Fractions."""
        r = object.__new__(cls)
        object.__setattr__(r, "durations", durations)
        object.__setattr__(r, "unit", unit)
        return r

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.durations == other.durations and self.unit == other.unit

    def __hash__(self) -> int:
        return hash((self.durations, self.unit))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(durations={self.durations!r}, unit={self.unit!r})"

    def __reduce__(self):
        return type(self), (self.durations, self.unit)

    def __len__(self) -> int:
        return len(self.durations)

    def __iter__(self):
        return iter(self.durations)

    def __str__(self) -> str:
        return format_rhythm(self)


def rhythm(values: Iterable[int | str | Fraction], unit: str = "") -> Rhythm:
    """Convenience constructor accepting ints, Fractions or ``n/d`` strings.

    >>> rhythm([2, 1, 2]).durations
    (Fraction(2, 1), Fraction(1, 1), Fraction(2, 1))
    """
    return Rhythm(tuple(values), unit)


def _merge_units(a: Rhythm, b: Rhythm) -> str:
    """Common unit of two operands; an empty label is compatible with anything."""
    if a.unit and b.unit and a.unit != b.unit:
        raise UnitMismatch(f"units differ: {a.unit!r} vs {b.unit!r}")
    return a.unit or b.unit


def retrograde(r: Rhythm) -> Rhythm:
    """Read the durations from last to first.

    >>> retrograde(rhythm([2, 2, 1])).durations
    (Fraction(1, 1), Fraction(2, 1), Fraction(2, 1))
    """
    return Rhythm._trusted(r.durations[::-1], r.unit)


def is_non_retrogradable(r: Rhythm) -> bool:
    """True iff the sequence reads the same in both directions (exact equality)."""
    return r.durations == r.durations[::-1]


def augmentation_kind(ratio: Fraction) -> str:
    """'augmentation' for ratio > 1, 'diminution' for ratio < 1, 'identity' at 1."""
    if ratio > 1:
        return "augmentation"
    if ratio < 1:
        return "diminution"
    return "identity"


def augment(r: Rhythm, ratio: int | str | Fraction) -> Rhythm:
    """Multiply every duration by a constant positive ratio.

    A ratio above 1 is an augmentation, below 1 a diminution.
    """
    q = as_fraction(ratio)
    if q <= 0:
        raise BadRatio(f"ratio must be strictly positive, got {_shown(q)}")
    # Each distinct duration multiplied once, keyed by its parts: hashing a Fraction costs more than the product.
    keys = [(d.numerator, d.denominator) for d in r.durations]
    products = {key: d * q for key, d in dict(zip(keys, r.durations)).items()}
    return Rhythm._trusted(tuple(map(products.__getitem__, keys)), r.unit)


def symmetric_amplification(core: Rhythm, wing: Rhythm) -> Rhythm:
    """Wrap core with wing on the left and the wing's retrograde on the right.

    Preserves non-retrogradability of the core for any wing.

    >>> symmetric_amplification(rhythm([2, 1, 2]), rhythm([2, 2])).durations
    (Fraction(2, 1), Fraction(2, 1), Fraction(2, 1), Fraction(1, 1), Fraction(2, 1), Fraction(2, 1), Fraction(2, 1))
    """
    unit = _merge_units(core, wing)
    return Rhythm._trusted(wing.durations + core.durations + wing.durations[::-1], unit)


def eliminate_extremes(r: Rhythm, k: int) -> Rhythm:
    """Drop the first k and last k durations; inverse of amplification by a k-long wing."""
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if 2 * k >= len(r):
        raise TooShort(f"cannot strip {k} from each side of {len(r)} durations")
    if k == 0:
        return r
    return Rhythm._trusted(r.durations[k:-k], r.unit)


def scale_central(r: Rhythm, ratio: int | str | Fraction) -> Rhythm:
    """Multiply the middle duration of an odd-length rhythm by a positive ratio."""
    q = as_fraction(ratio)
    if q <= 0:
        raise BadRatio(f"ratio must be strictly positive, got {_shown(q)}")
    if len(r) % 2 == 0:
        raise NoCenter(f"no central value in an even-length rhythm ({len(r)} durations)")
    mid = len(r) // 2
    return Rhythm._trusted(r.durations[:mid] + (r.durations[mid] * q,) + r.durations[mid + 1:], r.unit)


def total_duration(r: Rhythm) -> Fraction:
    """Exact sum of the durations in base units, summed as integers over their least common denominator."""
    common = math.lcm(*{d.denominator for d in r.durations})
    return Fraction(sum(d.numerator * (common // d.denominator) for d in r.durations), common)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n >= PRIME_BOUND:
        raise DomainError(f"primality is decided exactly only below {PRIME_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_total(r: Rhythm) -> bool:
    """Primality of the total duration, which must be a whole number of units.

    Exact below ``PRIME_BOUND``; a larger total with no prime factor up
    to 41 is a DomainError rather than a guess.

    >>> is_prime_total(rhythm([2, 1, 2]))
    True
    """
    total = total_duration(r)
    if total.denominator != 1:
        raise NonIntegerTotal(f"total duration {_shown(total)} is not a whole number of units")
    return _is_prime(total.numerator)


AugmentationChain = namedtuple("AugmentationChain", "prefix ratios")
AugmentationChain.__doc__ = "A decomposition r = prefix ++ ratios[0]*prefix ++ ratios[1]*prefix ++ ..."


def detect_augmentation_chain(r: Rhythm) -> AugmentationChain | None:
    """Decompose r into a prefix followed by scaled copies of that prefix.

    Each later block must be the prefix multiplied by a single ratio, and
    that ratio must differ from 1 (a bare repetition of the prefix is not
    an augmentation).  Among valid decompositions the block count is
    maximised, i.e. the prefix is as short as possible.

    >>> chain = detect_augmentation_chain(rhythm([4, 4, 2, 2, 1, 1]))
    >>> chain.ratios
    (Fraction(1, 2), Fraction(1, 4))
    """
    durations, n = r.durations, len(r)
    first = durations[0]
    for length in range(1, n // 2 + 1):
        if n % length:
            continue
        ratios = []
        for start in range(length, n, length):
            # The block is the prefix times qn/qd iff each block duration x and prefix duration p at the same
            # place have x.numerator * p.denominator * qd == p.numerator * x.denominator * qn: integers only.
            head = durations[start]
            qn, qd = head.numerator * first.denominator, head.denominator * first.numerator
            if qn == qd or any(x.numerator * p.denominator * qd != p.numerator * x.denominator * qn
                               for x, p in zip(durations[start:start + length], durations)):
                break
            ratios.append(head / first)  # the ratio's Fraction, made only for a block that matches
        else:
            return AugmentationChain(Rhythm._trusted(durations[:length], r.unit), tuple(ratios))
    return None


SequenceShape = namedtuple("SequenceShape", "values constant increasing decreasing unimodal")
SequenceShape.__doc__ = "Shape flags for one extracted subsequence of durations."
InterleaveProfile = namedtuple("InterleaveProfile", "odd even")
InterleaveProfile.__doc__ = "Shapes of the odd-position and even-position subsequences (1-based)."


def _shape(values: tuple[Fraction, ...]) -> SequenceShape:
    # Each neighbouring pair a/b, c/d compared once as a * d against c * b: "<" a rise, ">" a fall, "=" a repeat.
    pairs = [(v.numerator, v.denominator) for v in values]
    steps = "".join("<" if x < y else ">" if x > y else "="
                    for x, y in ((a * d, c * b) for (a, b), (c, d) in zip(pairs, pairs[1:])))
    rises = len(steps) - len(steps.lstrip("<"))
    return SequenceShape(
        values,
        constant=not steps.strip("="),
        increasing=bool(steps) and rises == len(steps),
        decreasing=bool(steps) and not steps.strip(">"),
        unimodal=0 < rises < len(steps) and not steps[rises:].strip(">"),
    )


def interleave_profile(r: Rhythm) -> InterleaveProfile:
    """Split into 1-based odd and even positions and describe each subsequence.

    >>> p = interleave_profile(rhythm([1, 3, 2, 3, 3, 3, 2, 3, 1, 3]))
    >>> p.odd.unimodal, p.even.constant
    (True, True)
    """
    if len(r) < 2:
        raise TooShort("interleave profile needs at least two durations")
    return InterleaveProfile(
        odd=_shape(r.durations[0::2]),
        even=_shape(r.durations[1::2]),
    )


Voice = namedtuple("Voice", "delay ratio onsets end")
Voice.__doc__ = "One canon voice: entry delay plus augmentation ratio for the subject."
CanonSchedule = namedtuple("CanonSchedule", "subject voices events")
CanonSchedule.__doc__ = ("Onset schedule of a rhythmic canon: ``events`` merges every voice in time order as"
                         " (onset, voice index, scaled duration) triples, ties broken by voice index.")


def _onset_keys(durations: tuple[Fraction, ...], voices: list[tuple[Fraction, Fraction]], bits: int):
    """The subject as integers over its common denominator, and each voice's first onset and step rate as
    integers over the onsets' common denominator, lcm(delays' denominators, common x ratios' denominators);
    None once that denominator, checked as it grows, or a voice's end over it has more than ``bits`` bits.
    A subject denominator that is too wide is refused at the first voice, before the subject is written over it."""
    common = math.lcm(*{d.denominator for d in durations})
    room, ratios, delays = bits + 1 - common.bit_length(), 1, 1  # common x ratios has >= their bits - 1
    for delay, ratio in voices:
        ratios, delays = math.lcm(ratios, ratio.denominator), math.lcm(delays, delay.denominator)
        if ratios.bit_length() > room or delays.bit_length() > bits:
            return None
    units = [d.numerator * (common // d.denominator) for d in durations]
    den, total = math.lcm(delays, common * ratios), sum(units)
    heads = [(d.numerator * (den // d.denominator), q.numerator * (den // q.denominator // common)) for d, q in voices]
    return None if max(den, *(start + rate * total for start, rate in heads)).bit_length() > bits else (units, heads)


def build_canon(
    subject: Rhythm, voices: Sequence[tuple[int | str | Fraction, int | str | Fraction]]
) -> CanonSchedule:
    """Schedule the subject in several voices, each delayed and scaled.

    Voice onsets are delay + ratio * (prefix sum of subject durations);
    pitch content is out of scope, the canon lives in the durations only.
    More than ``MAX_CANON_EVENTS`` events in all is a DomainError, raised
    before any voice is read; so is, once every voice is checked and
    before any onset is summed, more than ``MAX_CANON_DIGITS`` digits:
    events times the digits of the onsets' common denominator, or of the
    canon's end written over it where that is longer. A subject whose
    own common denominator is too wide is refused at the first voice,
    before the subject is written over that denominator.

    >>> sched = build_canon(rhythm([2, 1, 2]), [(0, 1), (1, "3/2")])
    >>> sched.voices[1].onsets
    (Fraction(1, 1), Fraction(4, 1), Fraction(11, 2))
    """
    if not voices:
        raise NoVoices("a canon needs at least one voice")
    size = len(voices) * len(subject)
    if size > MAX_CANON_EVENTS:
        raise DomainError(f"canon of {len(voices)} voices of {len(subject)} durations"
                          f" exceeds {MAX_CANON_EVENTS} events")
    checked = []
    for delay_in, ratio_in in voices:
        delay, ratio = as_fraction(delay_in), as_fraction(ratio_in)
        if delay < 0:
            raise DomainError(f"voice delay must be nonnegative, got {_shown(delay)}")
        if ratio <= 0:
            raise BadRatio(f"voice ratio must be strictly positive, got {_shown(ratio)}")
        checked.append((delay, ratio))
    digits = MAX_CANON_DIGITS // size
    bits = -(-10 * digits // 3)  # 2 ** (10 * digits / 3) > 10 ** digits
    grid = _onset_keys(subject.durations, checked, bits)
    if grid is None:
        raise DomainError(f"canon of {len(voices)} voices of {len(subject)} durations exceeds {MAX_CANON_DIGITS}"
                          f" digits: its onsets' common denominator, or its end over it, has more than {digits} digits")
    units, heads = grid
    distinct = dict(zip(units, subject.durations))
    built, steps = [], []
    for delay, ratio in checked:
        # Each distinct duration scaled once; the onsets are running sums of those steps.
        scaled = {n: ratio * d for n, d in distinct.items()}
        steps.append(list(map(scaled.__getitem__, units)))
        times = tuple(accumulate(steps[-1], initial=delay))
        built.append(Voice(delay, ratio, times[:-1], times[-1]))
    # Onsets as integers over one denominator; a stable sort of them, voice after voice, is (onset, voice) order.
    keys = []
    for start, rate in heads:
        keys += accumulate(map(rate.__mul__, units[:-1]), initial=start)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys  # freed before the events are built
    events = tuple((built[v].onsets[i], v, steps[v][i]) for v, i in map(divmod, order, repeat(len(units))))
    return CanonSchedule(subject, tuple(built), events)


def parse_rhythm(text: str) -> Rhythm:
    """Parse whitespace-separated ``n`` or ``n/d`` tokens, optional ``@unit=<label>``.

    The parse is strict: no decimals and no locale-specific separators.

    >>> parse_rhythm("1 1 1 3/2 @unit=double croche").unit
    'double croche'
    """
    body, marker, unit = text.partition("@unit=")
    unit = unit.strip()
    if marker and not unit:
        raise ParseError("empty unit label after @unit=")
    tokens = body.split()
    if not tokens:
        raise ParseError("empty rhythm text")
    # Each distinct token read and checked once, at its first occurrence: the first bad token is named.
    values = dict.fromkeys(tokens)
    for tok in values:
        value = values[tok] = as_fraction(tok)
        if value <= 0:
            raise ParseError(f"durations must be strictly positive: {tok!r}")
    return Rhythm._trusted(tuple(map(values.__getitem__, tokens)), unit)


def format_values(values: Iterable[int | str | Fraction]) -> str:
    """The one writer of exact values: ``n`` or ``n/d`` separated by single
    spaces, each read back by :func:`as_fraction`.

    A value whose numerator or denominator has more than ``digit_bound()``
    digits, which no reader here accepts, is a DomainError.

    >>> format_values([Fraction(3, 2), 2])
    '3/2 2'
    """
    try:
        text = " ".join(words := list(map(str, values)))
        # Only a text longer than the bound can hold a part longer than it, and only in a word as long.
        if len(text) <= MAX_DIGITS or all(len(part) <= MAX_DIGITS for word in words if len(word) > MAX_DIGITS
                                          for part in word.lstrip("-").split("/")):
            return text
    except ValueError:  # past the interpreter's int-to-str limit, which may be lower
        pass
    raise DomainError(f"a numerator or denominator has more than {digit_bound()} digits")


def _shown(value: int | str | Fraction) -> str:
    try:  # a value in an error message, which must not raise in turn
        return format_values([value])
    except DomainError as exc:
        return f"a value where {exc}"


def format_rhythm(r: Rhythm, with_unit: bool = True) -> str:
    """Canonical text form, re-read by :func:`parse_rhythm`.

    A unit that starts or ends with white space would not read back
    (``parse_rhythm`` strips it): it is a DomainError.

    >>> format_rhythm(rhythm(["3/2", 2]))
    '3/2 2'
    """
    body = format_values(r.durations)
    if not (with_unit and r.unit):
        return body
    if r.unit != r.unit.strip():
        raise DomainError(f"unit {r.unit!r} starts or ends with white space")
    return f"{body} @unit={r.unit}"

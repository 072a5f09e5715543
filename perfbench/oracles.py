"""Reference answers computed apart from the program under test, and the
text the input generators write.

Nothing here imports ``messiaen``.  Pitch-class sets are 12-bit masks
rotated by hand, orbit orders are lcms of cycle lengths found here,
primality is a deterministic Miller-Rabin, totals are sums over a common
denominator, and the mode table is written out below rather than read
from the program.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

FULL = 0xFFF

# The seven modes of limited transposition at their first transposition,
# as pitch classes, and the number of distinct transpositions of each.
MODE_TABLE = (
    (0, 2, 4, 6, 8, 10),
    (0, 1, 3, 4, 6, 7, 9, 10),
    (0, 2, 3, 4, 6, 7, 8, 10, 11),
    (0, 1, 2, 5, 6, 7, 8, 11),
    (0, 1, 5, 6, 7, 11),
    (0, 2, 4, 5, 6, 8, 10, 11),
    (0, 1, 2, 3, 5, 6, 7, 8, 9, 11),
)
TRANSPOSITION_COUNTS = (2, 3, 4, 6, 6, 6, 6)

NOTE_LABELS = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")
_SPELLINGS = ("C", "C#", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")


class WrongOutput(Exception):
    """The program returned an answer that disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


# --- Z/12 -------------------------------------------------------------------


def mask(members) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def members(m: int) -> list[int]:
    return [i for i in range(12) if m >> i & 1]


def pcset_text(rng, m: int) -> str:
    """Input text for mask m: integers, or note names with sharps and flats in mixed case."""
    if rng.random() < 0.5:
        return " ".join(str(x) for x in members(m))
    return " ".join(rng.choice((str.lower, str.upper, str))(_SPELLINGS[x]) for x in members(m))


def rotate(m: int, t: int) -> int:
    """Translate every pitch class of mask m up by t semitones."""
    t %= 12
    return ((m << t) | (m >> (12 - t))) & FULL


def period(m: int) -> int:
    """Smallest t in 1..12 with rotate(m, t) == m, found by trying every t."""
    return next(t for t in range(1, 13) if rotate(m, t) == m)


MODE_MASKS = tuple(mask(mode) for mode in MODE_TABLE)


def classify(m: int):
    """(mode number, offset) of the first table mode that m transposes, or None."""
    for number, mode in enumerate(MODE_MASKS, start=1):
        for t in range(12):
            if rotate(mode, t) == m:
                return number, t
    return None


def truncated(m: int) -> bool:
    return period(m) < 12 and classify(m) is None


def limited_masks() -> list[int]:
    """Every mask fixed by a translation of 1..11 semitones, ascending."""
    return [m for m in range(4096) if any(rotate(m, t) == m for t in range(1, 12))]


# --- permutations -----------------------------------------------------------


def cycle_lengths(mapping) -> list[int]:
    seen = [False] * len(mapping)
    lengths = []
    for start in range(len(mapping)):
        n = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = mapping[j]
            n += 1
        if n:
            lengths.append(n)
    return lengths


def cycles(mapping) -> list[list[int]]:
    """Cycles of a 0-based mapping, each from its smallest point, sorted."""
    seen = [False] * len(mapping)
    out = []
    for start in range(len(mapping)):
        if not seen[start]:
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = mapping[j]
            out.append(cycle)
    return out


def order(mapping) -> int:
    return math.lcm(*cycle_lengths(mapping))


def fan_mapping(n: int, direction: str = "left") -> list[int]:
    """Positions sorted by distance from the centre, ties to the left (or right) side."""
    m = n // 2

    def key(i):
        dist = abs(i - m) if n % 2 else (m - 1 - i if i < m else i - m)
        on_right = i > m if n % 2 else i >= m
        return dist, on_right if direction == "left" else i < m

    return sorted(range(n), key=key)


def orbit_rows(mapping, base) -> list[tuple]:
    """Each reading of base through the mapping in turn, until base comes back."""
    base = tuple(base)
    rows, row = [], base
    while True:
        row = tuple(row[i] for i in mapping)
        rows.append(row)
        if row == base:
            return rows


def check_orbit(mapping, base, rows) -> None:
    """Each row is the previous one read through the mapping; only the last is the base."""
    base = tuple(base)
    prev = base
    for k, row in enumerate(rows, start=1):
        expect(row == tuple(prev[i] for i in mapping), "orbit row is not the previous row permuted")
        expect(row != base or k == len(rows), "orbit returns to its base early")
        prev = row
    expect(prev == base, "orbit does not return to its base")
    if len(set(base)) == len(base):
        expect(len(rows) == order(mapping), "orbit length is not the lcm of the cycle lengths")


# --- integers ---------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError("beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


# --- rhythms ----------------------------------------------------------------

_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?", re.ASCII)


def parse_durations(text: str) -> tuple[list[Fraction], str]:
    """Strict reading of the rhythm text format: ASCII n or n/d, optional @unit=."""
    body, _, unit = text.partition("@unit=")
    durations = []
    for tok in body.split():
        expect(_TOKEN.fullmatch(tok) is not None, f"bad duration token {tok!r}")
        num, _, den = tok.partition("/")
        durations.append(Fraction(int(num), int(den or 1)))
    return durations, unit.strip()


def fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def rhythm_text(durations, unit: str = "") -> str:
    body = " ".join(fraction_text(d) for d in durations)
    return f"{body} @unit={unit}" if unit else body


def total(durations) -> Fraction:
    """Exact sum over the least common denominator, in integers."""
    den = math.lcm(*(d.denominator for d in durations))
    return Fraction(sum(d.numerator * (den // d.denominator) for d in durations), den)


def prefix_sums(durations) -> list[Fraction]:
    den = math.lcm(*(d.denominator for d in durations))
    acc, out = 0, [Fraction(0)]
    for d in durations:
        acc += d.numerator * (den // d.denominator)
        out.append(Fraction(acc, den))
    return out


def palindrome(durations) -> bool:
    n = len(durations)
    return all(durations[i] == durations[n - 1 - i] for i in range(n // 2))


def augmentation_chain(durations):
    """(prefix, ratios) with the shortest prefix whose scaled copies make up the rest.

    Every ratio must differ from 1.  None when no such split exists.
    """
    n = len(durations)
    for length in range(1, n // 2 + 1):
        if n % length:
            continue
        prefix = durations[:length]
        ratios = []
        for start in range(length, n, length):
            q = durations[start] / prefix[0]
            if q == 1 or any(durations[start + i] * prefix[0] != prefix[i] * durations[start] for i in range(length)):
                break
            ratios.append(q)
        else:
            return list(prefix), ratios
    return None


def rebuild_chain(prefix, ratios) -> list[Fraction]:
    out = list(prefix)
    for q in ratios:
        out.extend(d * q for d in prefix)
    return out


def shape(values) -> dict:
    n = len(values)
    steps = list(zip(values, values[1:]))
    out = {
        "constant": len(set(values)) == 1,
        "increasing": n >= 2 and all(a < b for a, b in steps),
        "decreasing": n >= 2 and all(a > b for a, b in steps),
        "unimodal": False,
    }
    if n >= 3:
        peak = values.index(max(values))
        out["unimodal"] = (
            0 < peak < n - 1
            and all(a < b for a, b in steps[:peak])
            and all(a > b for a, b in steps[peak:])
        )
    return out


def analysis(durations) -> dict:
    """The analysis report of a rhythm, in the program's machine-format keys."""
    tot = total(durations)
    chain = augmentation_chain(durations)
    report = {
        "non_retrogradable": palindrome(durations),
        "total": fraction_text(tot),
        "prime_total": is_prime(tot.numerator) if tot.denominator == 1 else None,
        "augmentation_chain": None
        if chain is None
        else {
            "prefix": " ".join(fraction_text(d) for d in chain[0]),
            "ratios": [fraction_text(q) for q in chain[1]],
        },
        "interleave": None,
    }
    if len(durations) >= 2:
        report["interleave"] = {
            side: {"values": [fraction_text(v) for v in vals], **shape(vals)}
            for side, vals in (("odd", durations[0::2]), ("even", durations[1::2]))
        }
    return report


def predicate(report: dict, name: str) -> bool:
    """The catalog filter predicates, recomputed on an oracle report."""
    if name == "nonretro":
        return report["non_retrogradable"]
    if name == "prime":
        return report["prime_total"] is True
    if name == "augchain":
        return report["augmentation_chain"] is not None
    if name == "interleave":
        p = report["interleave"]
        return p is not None and (
            (p["even"]["constant"] and p["odd"]["unimodal"])
            or (p["odd"]["constant"] and p["even"]["unimodal"])
        )
    raise ValueError(name)


PREDICATE_NAMES = ("augchain", "interleave", "nonretro", "prime")


def canon(durations, voices):
    """Per voice (onsets, end) from prefix sums: delay + ratio * prefix."""
    sums = prefix_sums(durations)
    return [([delay + ratio * p for p in sums[:-1]], delay + ratio * sums[-1]) for delay, ratio in voices]


def canon_events(durations, voices) -> list[tuple]:
    """(onset, voice, duration x ratio) for every note of every voice, in (onset, voice) order."""
    events = []
    for v, ((onsets, _), (_, ratio)) in enumerate(zip(canon(durations, voices), voices)):
        events += [(t, v, d * ratio) for t, d in zip(onsets, durations)]
    return sorted(events)


# --- catalog files ----------------------------------------------------------


def read_catalog(text: str) -> list[tuple[int, str, str, str, str]]:
    """Rows (id, name, gloss, payload, note) of catalog text, comments skipped."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split("|")]
        expect(len(cells) in (4, 5), f"catalog line with {len(cells)} cells")
        rows.append((int(cells[0]), cells[1], cells[2], cells[3], cells[4] if len(cells) == 5 else ""))
    return rows

"""Pitch-class sets modulo 12 and modes of limited transposition.

A pitch-class set is a ``frozenset`` of integers in 0..11 (octave
equivalence assumed).  A set is a mode of limited transposition when some
translation by t semitones, 0 < t < 12, maps it onto itself, so it has
fewer than twelve distinct transpositions.  The seven catalogued modes
ship as the constant table ``MODES``.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import DegenerateSet, ParseError, ascii_int

PcSet = frozenset[int]

FULL_CHROMATIC: PcSet = frozenset(range(12))

# The seven catalogued modes at their first transposition.  Mode 1 is the
# whole-tone scale (two transpositions), mode 2 the octatonic scale
# (three), mode 3 has four, modes 4-7 have six each.
MODES: tuple[PcSet, ...] = (
    frozenset({0, 2, 4, 6, 8, 10}),
    frozenset({0, 1, 3, 4, 6, 7, 9, 10}),
    frozenset({0, 2, 3, 4, 6, 7, 8, 10, 11}),
    frozenset({0, 1, 2, 5, 6, 7, 8, 11}),
    frozenset({0, 1, 5, 6, 7, 11}),
    frozenset({0, 2, 4, 5, 6, 8, 10, 11}),
    frozenset({0, 1, 2, 3, 5, 6, 7, 8, 9, 11}),
)

# Every note-name spelling parse_pcset reads: a letter in either case,
# bare or with one '#', 'b' or 'B'.
_SPELLINGS = {
    letter + accidental: (pc + shift) % 12
    for name, pc in (("c", 0), ("d", 2), ("e", 4), ("f", 5), ("g", 7), ("a", 9), ("b", 11))
    for letter in (name, name.upper())
    for accidental, shift in (("", 0), ("#", 1), ("b", -1), ("B", -1))
}

# Note-name spellings for rendering, flats for the black keys.
_PITCH_LABELS = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")


class ModeId(NamedTuple):
    """A catalogued mode number (1..7) and 0-based transposition offset."""

    number: int
    offset: int

    @property
    def period(self) -> int:
        """Number of distinct transpositions of the identified mode."""
        return minimal_period(MODES[self.number - 1])


def pcset(members: Iterable[int]) -> PcSet:
    """Build a pitch-class set, validating that members lie in 0..11.

    >>> pcset([0, 4, 7]) == frozenset({0, 4, 7})
    True
    """
    s = frozenset(members)
    for x in s:
        if not isinstance(x, int) or not 0 <= x <= 11:
            raise ValueError(f"pitch class out of range 0..11: {x!r}")
    return s


def bitmask(s: PcSet) -> int:
    """12-bit characteristic value, bit i set iff pitch class i is a member."""
    n = 0
    for x in s:
        n |= 1 << x
    return n


def from_bitmask(n: int) -> PcSet:
    """Inverse of :func:`bitmask`.

    >>> from_bitmask(0b10101) == frozenset({0, 2, 4})
    True
    """
    if not 0 <= n < 4096:
        raise ValueError(f"bitmask out of range 0..4095: {n}")
    return frozenset(i for i in range(12) if n >> i & 1)


def transpose(s: PcSet, t: int) -> PcSet:
    """Translate every member by t semitones modulo 12."""
    return frozenset((x + t) % 12 for x in s)


def is_degenerate(s: PcSet) -> bool:
    """True for the empty set and the full chromatic, which every translation fixes."""
    return not s or s == FULL_CHROMATIC


def minimal_period(s: PcSet) -> int:
    """Smallest t in 1..12 with transpose(s, t) == s.

    Always divides 12 and equals the number of distinct transpositions
    of s.  The empty set is rejected.

    >>> minimal_period(MODES[0])
    2
    >>> minimal_period(frozenset({0}))
    12
    """
    if not s:
        raise DegenerateSet("minimal period of the empty set is undefined")
    for t in range(1, 13):
        if transpose(s, t) == s:
            return t
    raise AssertionError("unreachable: translation by 12 is the identity")


def is_limited_transposition(s: PcSet) -> bool:
    """True iff s has fewer than twelve distinct transpositions."""
    return minimal_period(s) < 12


def classify_mode(s: PcSet) -> Optional[ModeId]:
    """Identify s as a transposition of a catalogued mode, or None.

    Ties break toward the smallest mode number, then the smallest
    offset; the offset is canonical, 0 <= offset < minimal period.

    >>> classify_mode(frozenset({0, 1, 3, 4, 6, 7, 9, 10}))
    ModeId(number=2, offset=0)
    """
    if not s:
        raise DegenerateSet("cannot classify the empty set")
    for number, mode in enumerate(MODES, start=1):
        for t in range(minimal_period(mode)):
            if transpose(mode, t) == s:
                return ModeId(number, t)
    return None


def enumerate_limited() -> list[PcSet]:
    """Every subset of Z/12 fixed by some translation t in 1..11.

    Includes the degenerate subsets (empty set, full chromatic); ordered
    by ascending 12-bit characteristic value.
    """
    out = []
    for n in range(4096):
        s = from_bitmask(n)
        if any(transpose(s, t) == s for t in range(1, 12)):
            out.append(s)
    return out


def detect_truncated(s: PcSet) -> bool:
    """True iff s is limited-transposition but no transposition of a catalogued mode.

    >>> detect_truncated(frozenset({0, 1, 6, 7}))
    True
    """
    if is_degenerate(s):
        raise DegenerateSet("truncation test undefined for empty or full chromatic set")
    return is_limited_transposition(s) and classify_mode(s) is None


def parse_pcset(text: str) -> PcSet:
    """Parse whitespace-separated pitch classes: integers 0..11 or note names.

    Note names are letters A..G with an optional single ``#`` or ``b``,
    case-insensitive (``C``, ``c#``, ``Db``, ...).

    >>> parse_pcset("0 2 4") == parse_pcset("C D E")
    True
    """
    members = set()
    tokens = text.split()
    if not tokens:
        raise ParseError("empty pitch-class set text")
    for tok in tokens:
        v = ascii_int(tok)
        if v is None:
            v = _SPELLINGS.get(tok)
            if v is None:
                raise ParseError(f"not a pitch class or note name: {tok!r}")
        elif v > 11:
            raise ParseError(f"pitch class out of range 0..11: {tok}")
        members.add(v)
    return frozenset(members)


def format_pcset(s: PcSet) -> str:
    """Canonical text form: ascending integers, space-separated."""
    return " ".join(str(x) for x in sorted(s))


def note_names(s: PcSet) -> str:
    """Human rendering with note names, flats for black keys."""
    return " ".join(_PITCH_LABELS[x] for x in sorted(s))

"""Finite permutations, fan readings, and orbit tables over duration scales.

A ``Perm`` stores a reading order: applying p to a sequence produces
``out[i] = seq[p.mapping[i]]``.  Iterating that reading on a chromatic
scale of durations until the scale returns is the interversion process;
the full run is recorded as an :class:`OrbitTable`.

Indices are 0-based internally; every text interface (parsing and
formatting) speaks 1-based, matching conventional usage.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import itemgetter

import messiaen

from .errors import CapExceeded, DomainError, Empty, NotABijection, ParseError, SizeMismatch, ascii_int

DEFAULT_ORBIT_CAP = 1_000_000
# Largest orbit table built, in entries (rows x points), whatever the cap:
# the human table of every fan up to 1500 points fits (2 248 500 at 1500).
MAX_TABLE_ENTRIES = 2_500_000
# Largest fan built: its machine text is about 0.6 MB.
FAN_MAX = 100_000
CHROMATIC_UNIT = "triple croche"

# Interversion order used in the 32-duration chromatic scale movements of
# Chronochromie, as 1-based images: the first value of the reordered
# scale is the 3rd of the source scale, the second is the 28th, and so on.
_CHRONOCHROMIE_ONE_BASED = (
    3, 28, 5, 30, 7, 32, 26, 2, 25, 1, 8, 24, 9, 23, 16, 17,
    18, 22, 21, 19, 20, 4, 31, 6, 29, 10, 27, 11, 15, 14, 12, 13,
)


class Perm:
    """A bijection on {0..n-1} under the reading-order convention."""

    __slots__ = ("_map", "_read")

    def __init__(self, mapping: Iterable[int]):
        m = tuple(mapping)
        if sorted(m) != list(range(len(m))):
            raise NotABijection(f"not a bijection on 0..{len(m) - 1}: {m}")
        self._map = m
        # Every reading, in C; itemgetter(i) alone returns the item, not a 1-tuple.
        self._read = itemgetter(*m) if len(m) > 1 else tuple

    @property
    def mapping(self) -> tuple[int, ...]:
        return self._map

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self._map)

    def __repr__(self) -> str:
        return f"Perm({list(self._map)})"

    def apply(self, seq: Sequence) -> tuple:
        """Reorder seq by reading it in this permutation's order.

        >>> fan(3).apply((1, 2, 3))
        (2, 1, 3)
        """
        if len(seq) != len(self._map):
            raise SizeMismatch(f"sequence of length {len(seq)} under a {len(self._map)}-point permutation")
        return self._read(seq)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition covering every point, fixed points included.

        Each cycle starts at its smallest element; cycles are sorted by
        that element.
        """
        seen = [False] * len(self._map)
        out = []
        for start in range(len(self._map)):
            if seen[start]:
                continue
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = self._map[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        """Smallest k >= 1 with p^k the identity: lcm of the cycle lengths.

        >>> chronochromie().order()
        36
        """
        return math.lcm(*(len(c) for c in self.cycles()))

    def inverse(self) -> "Perm":
        """The inverse reading, for converting to the image convention."""
        inv = [0] * len(self._map)
        for i, j in enumerate(self._map):
            inv[j] = i
        return Perm(inv)

    def one_based(self) -> tuple[int, ...]:
        """1-based images, the text-format rendering of the mapping."""
        return tuple(i + 1 for i in self._map)


def identity(n: int) -> Perm:
    """The identity permutation on n points."""
    if n < 1:
        raise Empty(f"permutation size must be at least 1, got {n}")
    return Perm(range(n))


def fan(n: int, direction: str = "left") -> Perm:
    """Center-outward reading of n positions.

    Starting from the middle, take one position from either side in
    alternation out to the extremes.  With the default left-first
    direction, three objects read as (2, 1, 3) and four objects as
    (2, 3, 1, 4); direction="right" mirrors the alternation.  Sizes past
    ``FAN_MAX`` are a DomainError.

    >>> fan(4).apply((1, 2, 3, 4))
    (2, 3, 1, 4)
    """
    if n < 1:
        raise Empty(f"fan size must be at least 1, got {n}")
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    if n > FAN_MAX:
        raise DomainError(f"fan size must be at most {FAN_MAX}, got {n}")
    # Nearest the center first; of two equally near, the one on the starting side.
    side = 1 if direction == "left" else -1
    return Perm(sorted(range(n), key=lambda i: (abs(2 * i - n + 1), side * i)))


def chronochromie() -> Perm:
    """The 32-point interversion used on the chromatic scale of durations."""
    return Perm(i - 1 for i in _CHRONOCHROMIE_ONE_BASED)


def chromatic_durations(n: int) -> Rhythm:
    """The chromatic scale of durations 1, 2, ..., n in base units.

    >>> chromatic_durations(3).durations
    (Fraction(1, 1), Fraction(2, 1), Fraction(3, 1))
    """
    if n < 1:
        raise Empty(f"need at least one duration, got {n}")
    # Through the package: rhythm loads fractions, which no other perm function needs.
    return messiaen.rhythm.Rhythm(range(1, n + 1), CHROMATIC_UNIT)


class OrbitTable(namedtuple("OrbitTable", "base rows")):
    """Successive readings of a base sequence until the base recurs.

    rows[0] is the first reading and rows[-1] equals the base; with all
    base entries distinct, ``order`` equals the permutation's order.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.rows)


def orbit_table(p: Perm, base: Sequence, cap: int = DEFAULT_ORBIT_CAP) -> OrbitTable:
    """Iterate p on base until base recurs, recording every reading.

    The cap guards against hand-entered permutations whose orbit would be
    astronomically long, and ``MAX_TABLE_ENTRIES`` bounds rows x points;
    the orbit's length is known before any reading is made, so a refusal
    costs no rows.

    >>> orbit_table(fan(3), (1, 2, 3)).rows
    ((2, 1, 3), (1, 2, 3))
    """
    start = tuple(base)
    if len(start) != len(p):
        raise SizeMismatch(f"base of length {len(start)} under a {len(p)}-point permutation")
    # Along each cycle the base values rotate; the base recurs once every
    # cycle has turned a whole number of its values' minimal periods.
    length = math.lcm(*(_rotation_period([start[i] for i in c]) for c in p.cycles()))
    if length > max(cap, 1):
        raise CapExceeded(f"orbit did not close within {cap} iterations")
    if length * len(start) > MAX_TABLE_ENTRIES:
        raise CapExceeded(f"orbit table of {length} rows of {len(start)} points"
                          f" exceeds {MAX_TABLE_ENTRIES} entries")
    read = p._read
    rows = [read(start)]
    while len(rows) < length:
        rows.append(read(rows[-1]))
    return OrbitTable(start, tuple(rows))


def _rotation_period(values: list) -> int:
    """Smallest d >= 1 with values rotated by d equal to values."""
    n, d = len(values), 0
    # Only a d where values[0] recurs is tried; it recurs at n at the latest.
    ring = values + values[:1]
    while True:
        d = ring.index(values[0], d + 1)
        if n % d == 0 and values[d:] + values[:d] == values:
            return d


def permutation_count(n: int) -> int:
    """Number of permutations of n objects, exact at any size.

    >>> permutation_count(12)
    479001600
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    return math.factorial(n)


def parse_perm(text: str) -> Perm:
    """Parse whitespace-separated 1-based images, validating bijectivity.

    >>> parse_perm("2 1 3").mapping
    (1, 0, 2)
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty permutation text")
    images = []
    for tok in tokens:
        index = ascii_int(tok)
        if index is None:
            raise ParseError(f"not a 1-based index: {tok!r}")
        images.append(index - 1)
    try:
        return Perm(images)
    except NotABijection as exc:
        raise ParseError(f"not a permutation of 1..{len(images)}: {text.strip()!r}") from exc


def format_perm(p: Perm) -> str:
    """Canonical text form: 1-based images, space-separated."""
    return " ".join(str(i) for i in p.one_based())

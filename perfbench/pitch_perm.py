"""The ``pitch-perm`` workload: pitch-class queries, the subset enumeration and orbit tables.

One round is 71 operations.  Their costs fall in three groups, and the
counts are chosen so that the median and the 90th percentile each fall
well inside one group rather than on a step between two:

- 48 cheap ones (about 0.2-0.5 ms): 40 pitch-class queries and 8
  Chronochromie orbits; the median falls among the queries;
- 22 orbit tables of about 3e5 copied entries (about 20 ms): 10 fans
  and 12 random permutations; the 90th percentile falls among them;
- 1 ``enumerate_limited()`` (about 100 ms), whose time swings more from
  call to call than the others'; one per 71 keeps it near a sixth of the
  round.
"""

from __future__ import annotations

import random
from fractions import Fraction

from messiaen import perm as pm
from messiaen import z12

from . import oracles as o
from .oracles import expect
from .ops import Op

QUERIES = 40
CHRONOCHROMIE_ORBITS = 8
FANS = 10

# Orbit tables are sized by the entries they copy, order x points, so that
# every orbit operation costs about the same whatever the seed.
ORBIT_ENTRIES = (290_000, 310_000)
RANDOM_PERM_ORDERS = (60, 90, 120, 180, 252, 360)

def fan_sizes() -> list[int]:
    """Fan sizes whose orbit copies a number of entries inside ORBIT_ENTRIES."""
    lo, hi = ORBIT_ENTRIES
    return [n for n in range(2, 1500) if lo <= n * o.order(o.fan_mapping(n)) <= hi]


def random_perm(rng: random.Random, order: int, size: int) -> list[int]:
    """A random permutation of `size` points whose cycle lengths have lcm `order`."""
    lengths = [p ** e for p, e in _factor(order)]
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    while sum(lengths) < size:
        lengths.append(rng.choice([d for d in divisors if d <= size - sum(lengths)]))
    points = list(range(size))
    rng.shuffle(points)
    mapping = [0] * size
    i = 0
    for n in lengths:
        cycle = points[i:i + n]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            mapping[a] = b
        i += n
    return mapping


def _factor(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def _query(rng: random.Random, target: int) -> Op:
    text = o.pcset_text(rng, target)

    def run():
        s = z12.parse_pcset(text)
        return (s, z12.minimal_period(s), z12.classify_mode(s), z12.detect_truncated(s),
                z12.format_pcset(s), z12.note_names(s))

    mode = o.classify(target)
    expected = (o.members(target), o.period(target), mode, o.truncated(target))
    expected_period = None if mode is None else o.TRANSPOSITION_COUNTS[mode[0] - 1]
    text_out = " ".join(str(x) for x in o.members(target))
    names_out = " ".join(o.NOTE_LABELS[x] for x in o.members(target))

    def check(result):
        s, period, got_mode, truncated, formatted, names = result
        expect((sorted(s), period, got_mode, truncated) == expected, "pitch-class query differs")
        expect(got_mode is None or got_mode.period == expected_period, "mode transposition count differs")
        expect(formatted == text_out and names == names_out, "pitch-class formatting differs")

    return Op("query", run, check)


def _orbit_op(kind: str, make, base, expected: list[int] | None) -> Op:
    """An orbit table of the permutation `make()` returns, which must be `expected`.

    The reference table is made here, before anything is timed, and kept
    only as its row count and the hash of its rows, so that checking a
    table of 3e5 entries costs little and the worker's memory stays the
    program's.  With `expected` None (Chronochromie, whose table the
    benchmark does not restate) the program's mapping must be of order 36
    and its 36 rows are checked one by one.
    """
    if expected is not None:
        rows = o.orbit_rows(expected, base)
        expect(len(rows) == o.order(expected), "oracle orbit length")
        n_rows, digest = len(rows), hash(tuple(rows))
        del rows

    def run():
        p = make()
        return p, p.order(), p.cycles(), pm.orbit_table(p, base)

    def check(result):
        p, order, cycles, table = result
        mapping = list(p.mapping)
        if expected is None:
            expect(sorted(mapping) == list(range(len(base))) and o.order(mapping) == 36,
                   "Chronochromie is not of order 36")
            o.check_orbit(mapping, base, table.rows)
        else:
            expect(mapping == expected, "permutation differs")
            rows = table.rows
            expect(len(rows) == n_rows and all(type(r) is tuple for r in rows) and hash(tuple(rows)) == digest,
                   "orbit table differs")
        expect(order == o.order(mapping), "order is not the lcm of the cycle lengths")
        expect([list(c) for c in cycles] == o.cycles(mapping), "cycles differ")
        expect(table.order == len(table.rows), "table order")

    return Op(kind, run, check)


def _enumerate() -> Op:
    expected = o.limited_masks()
    expect(len(expected) == 2**6 + 2**4 - 2**2, "oracle enumeration")

    def check(sets):
        expect([o.mask(s) for s in sets] == expected, "enumerate_limited differs")

    return Op("enumerate", lambda: z12.enumerate_limited(), check)


def build(seed: int) -> list[Op]:
    rng = random.Random(f"pitch-perm/{seed}")
    limited = [m for m in o.limited_masks() if m not in (0, o.FULL)]
    truncated = [m for m in limited if o.truncated(m)]
    others = [m for m in range(1, o.FULL) if o.period(m) == 12]
    # Each mode equally often: classify_mode costs more the later the mode comes.
    targets = ([o.rotate(m, rng.randrange(12)) for m in o.MODE_MASKS * 2] + rng.sample(truncated, 12)
               + rng.sample(others, QUERIES - 26))
    ops = [_query(rng, m) for m in targets]

    chromatic = tuple(Fraction(i) for i in range(1, 33))
    ops += [_orbit_op("chronochromie", lambda: pm.chronochromie(), chromatic, None) for _ in range(CHRONOCHROMIE_ORBITS)]

    for n in rng.sample(fan_sizes(), FANS):
        ops.append(_orbit_op("fan", lambda n=n: pm.fan(n), tuple(range(1, n + 1)), o.fan_mapping(n)))
    for order in RANDOM_PERM_ORDERS * 2:
        mapping = random_perm(rng, order, sum(ORBIT_ENTRIES) // 2 // order)
        text = " ".join(str(i + 1) for i in mapping)
        expect(o.order(mapping) == order, "generated permutation order")
        ops.append(_orbit_op("random-perm", lambda text=text: pm.parse_perm(text),
                             tuple(range(1, len(mapping) + 1)), mapping))

    ops.append(_enumerate())
    rng.shuffle(ops)
    return ops

import itertools
import math
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from messiaen import perm as pm
from messiaen.errors import (
    CapExceeded,
    DomainError,
    Empty,
    NotABijection,
    ParseError,
    SizeMismatch,
)
from messiaen.perm import (
    DEFAULT_ORBIT_CAP,
    FAN_MAX,
    MAX_TABLE_ENTRIES,
    Perm,
    chromatic_durations,
    chronochromie,
    fan,
    format_perm,
    identity,
    orbit_table,
    parse_perm,
    permutation_count,
)

CHRONOCHROMIE_IMAGES = (
    3, 28, 5, 30, 7, 32, 26, 2, 25, 1, 8, 24, 9, 23, 16, 17,
    18, 22, 21, 19, 20, 4, 31, 6, 29, 10, 27, 11, 15, 14, 12, 13,
)


def order_by_iteration(p):
    """Independent oracle: apply until the identity arrangement returns."""
    start = tuple(range(len(p)))
    current = p.apply(start)
    k = 1
    while current != start:
        current = p.apply(current)
        k += 1
    return k


def test_perm_validates_bijection():
    Perm([2, 0, 1])
    with pytest.raises(NotABijection):
        Perm([0, 0, 1])
    with pytest.raises(NotABijection):
        Perm([1, 2, 3])


def test_apply():
    assert fan(3).apply((1, 2, 3)) == (2, 1, 3)
    assert identity(5).apply(("a", "b", "c", "d", "e")) == ("a", "b", "c", "d", "e")
    first = chronochromie().apply(tuple(range(1, 33)))
    assert first[:8] == (3, 28, 5, 30, 7, 32, 26, 2)
    with pytest.raises(SizeMismatch):
        fan(3).apply((1, 2))


def test_apply_preserves_multiset():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 12)
        mapping = list(range(n))
        rng.shuffle(mapping)
        seq = [rng.randint(0, 5) for _ in range(n)]
        assert sorted(Perm(mapping).apply(seq)) == sorted(seq)


def test_cycles_and_order():
    assert identity(4).order() == 1
    assert identity(4).cycles() == [(0,), (1,), (2,), (3,)]
    assert fan(3).order() == 2
    # the even-size rule (inner-left, inner-right, outward) makes the
    # two-object fan the identity
    assert fan(2).mapping == (0, 1)
    assert fan(2, direction="right").mapping == (1, 0)
    assert fan(4).order() == 3
    p = Perm([1, 2, 0, 4, 3])
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.order() == 6


def test_order_by_cycles_equals_iteration_exhaustive_small():
    for n in range(1, 7):
        for mapping in itertools.permutations(range(n)):
            p = Perm(mapping)
            assert p.order() == order_by_iteration(p)


def test_order_by_cycles_equals_iteration_random_large():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(9, 40)
        mapping = list(range(n))
        rng.shuffle(mapping)
        p = Perm(mapping)
        assert p.order() == order_by_iteration(p)


def test_fan_examples():
    assert fan(1).mapping == (0,)
    assert fan(3).mapping == (1, 0, 2)
    assert fan(4).apply((1, 2, 3, 4)) == (2, 3, 1, 4)
    table = orbit_table(fan(4), (1, 2, 3, 4))
    assert table.rows == ((2, 3, 1, 4), (3, 1, 2, 4), (1, 2, 3, 4))
    with pytest.raises(Empty):
        fan(0)


def test_fan_direction():
    assert fan(3, direction="right").apply((1, 2, 3)) == (2, 3, 1)
    assert fan(4, direction="right").apply((1, 2, 3, 4)) == (3, 2, 4, 1)
    with pytest.raises(ValueError):
        fan(3, direction="sideways")


def _fan_by_alternation(n, direction):
    """The alternating loop fan() was first written as: the reference."""
    m = n // 2
    positions = [m] if n % 2 else []
    left = list(range(m - 1, -1, -1))
    right = list(range(m + n % 2, n))
    sides = [left, right] if direction == "left" else [right, left]
    for i in range(max(len(left), len(right))):
        for side in sides:
            if i < len(side):
                positions.append(side[i])
    return positions


def test_fan_matches_the_alternating_loop():
    for n in range(1, 301):
        for direction in ("left", "right"):
            assert list(fan(n, direction).mapping) == _fan_by_alternation(n, direction), (n, direction)


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
def test_parse_perm_reads_back_format_perm(mapping):
    p = Perm(mapping)
    assert parse_perm(format_perm(p)) == p


def test_fan_order_closes_for_all_sizes():
    for n in range(1, 65):
        p = fan(n)
        k = p.order()
        seq = tuple(range(n))
        current = seq
        for _ in range(k):
            current = p.apply(current)
        assert current == seq


def test_chronochromie_constant():
    p = chronochromie()
    assert p.one_based() == CHRONOCHROMIE_IMAGES
    assert len(p) == 32
    assert p.order() == 36


def test_inverse():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 16)
        mapping = list(range(n))
        rng.shuffle(mapping)
        p = Perm(mapping)
        seq = tuple(range(n))
        assert p.inverse().apply(p.apply(seq)) == seq
        assert p.inverse().order() == p.order()


def test_chromatic_durations():
    r = chromatic_durations(3)
    assert r.durations == (F(1), F(2), F(3))
    assert r.unit == "triple croche"
    # closed-form sum oracle: n(n+1)/2
    assert sum(chromatic_durations(32).durations) == 32 * 33 // 2 == 528
    assert chromatic_durations(1).durations == (F(1),)
    with pytest.raises(Empty):
        chromatic_durations(0)


def test_orbit_table_contract():
    table = orbit_table(fan(3), (1, 2, 3))
    assert table.rows == ((2, 1, 3), (1, 2, 3))
    assert table.order == 2
    assert table.rows[0] == fan(3).apply(table.base)
    assert table.rows[-1] == table.base

    table = orbit_table(identity(4), ("x", "y", "z", "w"))
    assert table.rows == (("x", "y", "z", "w"),)
    assert table.order == 1


def test_orbit_table_chronochromie():
    base = chromatic_durations(32).durations
    table = orbit_table(chronochromie(), base)
    assert table.order == 36
    assert len(set(table.rows)) == 36
    assert table.rows[-1] == base
    for row in table.rows:
        assert sorted(row) == list(base)
        assert sum(row) == 528


def test_orbit_table_repeated_base_entries():
    # a constant base recurs before the permutation order is reached
    table = orbit_table(fan(3), (7, 7, 7))
    assert table.order == 1


def test_orbit_table_errors():
    with pytest.raises(SizeMismatch):
        orbit_table(fan(3), (1, 2))
    with pytest.raises(CapExceeded):
        orbit_table(chronochromie(), tuple(range(32)), cap=10)


def test_permutation_count():
    assert permutation_count(12) == 479001600
    assert permutation_count(0) == 1
    # iterative big-integer product oracle
    product = 1
    for i in range(1, 33):
        product *= i
    assert permutation_count(32) == product
    assert permutation_count(32) == 263130836933693530167218012160000000
    with pytest.raises(DomainError):
        permutation_count(-1)


def test_parse_and_format():
    p = parse_perm("2 1 3")
    assert p.mapping == (1, 0, 2)
    assert format_perm(p) == "2 1 3"
    assert parse_perm(format_perm(chronochromie())) == chronochromie()


@pytest.mark.parametrize("bad", ["", "1 1", "0 1 2", "2 4 1", "a b"])
def test_parse_perm_rejects(bad):
    with pytest.raises(ParseError):
        parse_perm(bad)


@pytest.mark.parametrize("bad", ["²", "2 ١", "1 " + "7" * 5000])
def test_parse_perm_reads_ascii_digits_only(bad):
    with pytest.raises(ParseError):
        parse_perm(bad)


def _orbit_by_iteration(p, base, cap):
    """The orbit table as the plain loop builds it, checking the cap after each row."""
    start, rows, current = tuple(base), [], tuple(base)
    while True:
        current = p.apply(current)
        rows.append(current)
        if current == start:
            return tuple(rows)
        if len(rows) >= cap:
            raise CapExceeded(f"orbit did not close within {cap} iterations")


def test_orbit_table_cap_matches_iteration():
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(1, 8)
        images = list(range(n))
        rng.shuffle(images)
        p, base = Perm(images), [rng.randint(1, 3) for _ in range(n)]
        for cap in range(-1, 18):
            try:
                expected = _orbit_by_iteration(p, base, cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded, match=str(exc)):
                    orbit_table(p, base, cap=cap)
            else:
                assert orbit_table(p, base, cap=cap).rows == expected


def test_orbit_table_refuses_before_building_rows():
    # cycles of lengths 2, 3, 5, ..., 19 on 77 points: order 9 699 690
    images, offset = [], 0
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        images += [offset + (i + 1) % length for i in range(length)]
        offset += length
    p = Perm(images)
    assert p.order() == 9_699_690
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        orbit_table(p, tuple(range(77)), cap=200_000)
    assert time.perf_counter() - start < 0.1


def test_fan_refuses_sizes_past_the_bound():
    assert len(fan(FAN_MAX)) == FAN_MAX
    for n in (FAN_MAX + 1, 10**30):
        with pytest.raises(DomainError, match="at most"):
            fan(n)


def test_orbit_table_refuses_tables_past_the_entry_bound(monkeypatch):
    assert all(fan(n).order() * n <= MAX_TABLE_ENTRIES for n in range(1, 1501))
    p = fan(3000)  # 1284 rows of 3000 points
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="entries"):
        orbit_table(p, tuple(range(3000)))
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(pm, "MAX_TABLE_ENTRIES", 6)
    assert orbit_table(fan(3), (1, 2, 3)).order == 2  # 2 x 3 = 6 entries
    with pytest.raises(CapExceeded, match="3 rows of 4 points exceeds 6 entries"):
        orbit_table(fan(4), (1, 2, 3, 4))


def _apply_by_generator(p, seq):
    """Perm.apply as first written, one Python step per entry: the reference."""
    if len(seq) != len(p):
        raise SizeMismatch(f"sequence of length {len(seq)} under a {len(p)}-point permutation")
    return tuple(seq[i] for i in p.mapping)


def _rotation_period_by_generator(values):
    """_rotation_period as first written, trying every d in 1..n: the reference."""
    n = len(values)
    return next(d for d in range(1, n + 1)
                if n % d == 0 and values[d % n] == values[0] and values[d:] + values[:d] == values)


def _orbit_rows_by_generator(p, base, cap):
    """orbit_table as first written, each row read by the generator: the reference."""
    start = tuple(base)
    if len(start) != len(p):
        raise SizeMismatch(f"base of length {len(start)} under a {len(p)}-point permutation")
    length = math.lcm(*(_rotation_period_by_generator([start[i] for i in c]) for c in p.cycles()))
    if length > max(cap, 1):
        raise CapExceeded(f"orbit did not close within {cap} iterations")
    if length * len(start) > pm.MAX_TABLE_ENTRIES:
        raise CapExceeded(f"orbit table of {length} rows of {len(start)} points"
                          f" exceeds {pm.MAX_TABLE_ENTRIES} entries")
    rows = [_apply_by_generator(p, start)]
    while len(rows) < length:
        rows.append(_apply_by_generator(p, rows[-1]))
    return tuple(rows)


def _outcome(fn, *args):
    """A result, or the type and message of the DomainError raised instead."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


VALUE_KINDS = {"int": lambda v: v, "Fraction": lambda v: F(2 * v + 1, 3), "str": lambda v: chr(0x3B1 + v)}


@st.composite
def orbit_cases(draw):
    """A permutation of 1-40 points and a base of distinct, repeated or equal values.

    The values are ints, Fractions or one-letter strs, held in a tuple, a
    list or (for strs) a str; now and then the base is one value short or
    long.
    """
    n = draw(st.integers(1, 40))
    mapping = draw(st.permutations(range(n)))
    size = n + draw(st.sampled_from((0, 0, 0, 0, 0, 0, -1, 1)))
    shape = draw(st.sampled_from(("distinct", "repeated", "equal")))
    if shape == "distinct":
        codes = list(range(size))
    elif shape == "repeated":
        codes = draw(st.lists(st.integers(0, max(1, n // 4)), min_size=size, max_size=size))
    else:
        codes = [0] * size
    kind = draw(st.sampled_from(sorted(VALUE_KINDS)))
    values = [VALUE_KINDS[kind](c) for c in codes]
    container = draw(st.sampled_from((tuple, list, "".join) if kind == "str" else (tuple, list)))
    return Perm(mapping), container(values)


@settings(max_examples=300, deadline=None)
@given(orbit_cases(), st.integers(-1, 80) | st.just(DEFAULT_ORBIT_CAP),
       st.integers(1, 400) | st.just(MAX_TABLE_ENTRIES))
def test_readings_match_the_generator(case, cap, bound):
    p, base = case
    assert _outcome(p.apply, base) == _outcome(_apply_by_generator, p, base)
    with mock.patch.object(pm, "MAX_TABLE_ENTRIES", bound):
        got = _outcome(orbit_table, p, base, cap)
        expected = _outcome(_orbit_rows_by_generator, p, base, cap)
    if isinstance(got, pm.OrbitTable):
        assert got.base == tuple(base)
        got = got.rows
    assert got == expected


def test_rotation_period_matches_the_generator():
    for kind in VALUE_KINDS.values():
        for n in range(1, 8):
            for codes in itertools.product(range(3), repeat=n):
                values = [kind(c) for c in codes]
                assert pm._rotation_period(values) == _rotation_period_by_generator(values), values

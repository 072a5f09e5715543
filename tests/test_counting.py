"""Counting facts from the paper, each checked against an independent formula.

The formulas use only integers and never call the function under test
to compute an expected value.
"""

import itertools
from collections import Counter

from messiaen.perm import fan
from messiaen.rhythm import is_non_retrogradable, rhythm
from messiaen.z12 import enumerate_limited, from_bitmask, minimal_period


def _mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def test_minimal_periods_of_all_subsets_follow_mobius_inversion():
    # A subset of Z/12 with period dividing d is a union of cosets of dZ/12:
    # 2^d of them, so exactly sum over e | d of mu(d/e) 2^e have period d.
    def period(s):
        return minimal_period(s) if s else 1  # the empty set at period 1

    divisors = [d for d in range(1, 13) if 12 % d == 0]
    expected = {d: sum(_mobius(d // e) * 2**e for e in divisors if d % e == 0) for d in divisors}
    assert expected == {1: 2, 2: 2, 3: 6, 4: 12, 6: 54, 12: 4020}
    assert Counter(period(from_bitmask(n)) for n in range(4096)) == expected
    # The limited-transposition sets are the classes below 12, 76 sets in all.
    assert Counter(map(period, enumerate_limited())) == {d: expected[d] for d in divisors if d < 12}


def _order_of_two_up_to_sign(m: int) -> int:
    """Least k >= 1 with 2^k = +1 or -1 modulo m (m odd, m >= 3)."""
    k, x = 1, 2 % m
    while x not in (1, m - 1):
        k, x = k + 1, 2 * x % m
    return k


def test_fan_orders_are_orders_of_two_modulo_2n_plus_or_minus_1():
    # The orders of the Queneau-Daniel spiral permutations (OEIS A054639):
    # the order of 2 in (Z/(2n - 1))^x / {+1, -1} for the left-first fan,
    # and modulo 2n + 1 for the right-first one.
    for n in range(2, 501):
        assert fan(n).order() == _order_of_two_up_to_sign(2 * n - 1), n
        assert fan(n, "right").order() == _order_of_two_up_to_sign(2 * n + 1), n


def _compositions(total: int):
    """Every ordered sequence of positive integers summing to total."""
    for cuts in itertools.product((False, True), repeat=total - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        yield parts + [run]


def test_non_retrogradable_compositions_number_two_to_half_n():
    # A palindrome is fixed by its first half and an optional middle part.
    for total in range(1, 15):
        count = sum(is_non_retrogradable(rhythm(parts)) for parts in _compositions(total))
        assert count == 2 ** (total // 2), total

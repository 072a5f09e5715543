"""One digit bound for every integer read or written, under any int-to-str limit.

``errors.digit_bound()`` is ``MAX_DIGITS``, or the interpreter's
int-to-str limit where that is lower.  Each test here sets the limit with
``sys.set_int_max_str_digits`` and restores it, so that every reader and
writer is seen under the lowest limit CPython allows (640), under limits
between it and the bound, and with no limit at all.
"""

import contextlib
import io
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from messiaen.cli import COUNT_MAX, _decimal, run
from messiaen.errors import MAX_DIGITS, DomainError, digit_bound
from messiaen.rhythm import format_values

LIMITS = (640, 1000, 0, 5000)


@contextlib.contextmanager
def int_limit(limit: int):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_digit_bound_is_the_lower_of_the_two_limits():
    for limit, bound in ((640, 640), (1000, 1000), (MAX_DIGITS, MAX_DIGITS), (5000, MAX_DIGITS), (0, MAX_DIGITS)):
        with int_limit(limit):
            assert digit_bound() == bound


def _readers(token: str, data_dir: str) -> list[list[str]]:
    return [
        ["rhythm", "retrograde", f"{token} 1"],
        ["rhythm", "analyze", f"1/{token}"],
        ["rhythm", "augment", "--ratio", token, "2 1 2"],
        ["rhythm", "amplify", "--wing", f"1 {token}", "2 1 2"],
        ["rhythm", "canon", "--voice", f"0:{token}", "1 2"],
        ["rhythm", "canon", "--voice", f"{token}:1", "1 2"],
        ["pcset", "classify", token],
        ["perm", "order", token],
        ["perm", "orbit", "--base", f"{token} 1", "2 1"],
        ["catalog", "list", "--data", data_dir],
    ]


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("digits", [641, 4300, 4301])
@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_every_reader_refuses_a_token_past_the_bound_with_exit_2(limit, digits, fmt, tmp_path):
    token = "9" * digits
    (tmp_path / "talas.cat").write_text(f"{token}|a|b|2 1 2\n", encoding="utf-8")
    with int_limit(limit):
        bound = digit_bound()
        for argv in _readers(token, str(tmp_path)):
            code, out, err = call(argv + ["--format", fmt])
            if digits > bound:
                assert (code, out) == (2, ""), argv
                assert err.count("\n") == 1 and f"integer of {digits} digits, more than {bound}" in err, argv
            else:
                assert code in (0, 2, 3), argv
                assert err.count("\n") == (code != 0), argv


@pytest.mark.parametrize("limit", LIMITS)
def test_integer_flags_past_the_bound_exit_2_or_3(limit):
    token = "9" * 4301
    with int_limit(limit):
        for argv in (["perm", "count", token], ["perm", "fan", token], ["rhythm", "eliminate", "--count", token, "1"]):
            code, out, _ = call(argv)
            assert code in (2, 3) and out == "", argv


@pytest.mark.parametrize("limit", LIMITS + (MAX_DIGITS,))
@pytest.mark.parametrize("digits", [641, 4300, 4301])
def test_every_integer_flag_refuses_a_token_past_the_bound_with_one_line_naming_it(limit, digits):
    with int_limit(limit):
        bound = digit_bound()
        for token in ("9" * digits, f"+{'9' * digits}", f" {'1_' * (digits - 1)}1 "):
            for argv in (["perm", "count", token], ["perm", "fan", token], ["rhythm", "eliminate", "--count", token, "1"],
                         ["perm", "orbit", "2 1", "--cap", token], ["catalog", "analyze", "--id", token]):
                code, out, err = call(argv)
                if digits > bound:
                    assert (code, out, err) == (2, "", f"erreur de lecture: integer of {digits} digits, more than {bound}\n")
                else:
                    assert code in (0, 2, 3) and err.count("\n") == (code != 0), argv


@pytest.mark.parametrize("size", [2000, COUNT_MAX])
def test_perm_count_prints_the_same_bytes_under_any_limit(size):
    expected = [call(["perm", "count", str(size), "--format", fmt]) for fmt in ("human", "machine")]
    assert all(code == 0 and err == "" for code, _, err in expected)
    for limit in LIMITS:
        with int_limit(limit):
            assert [call(["perm", "count", str(size), "--format", fmt]) for fmt in ("human", "machine")] == expected


@pytest.mark.parametrize("limit", LIMITS)
def test_results_past_a_lower_limit_exit_3(limit):
    wide = "9" * 600  # read under every limit; its square is past 640 digits
    with int_limit(limit):
        code, out, err = call(["rhythm", "augment", "--ratio", wide, wide])
        if digit_bound() < 1200:
            assert (code, out) == (3, "") and f"more than {digit_bound()} digits" in err
        else:
            assert code == 0 and err == ""


def _decimal_cases():
    powers = st.integers(0, 20_000).map(lambda k: 10**k)
    return st.one_of(
        st.builds(lambda bits, seed: random.Random(seed).getrandbits(bits), st.integers(0, 70_000), st.integers()),
        powers,
        powers.map(lambda n: n - 1),
        st.integers(0, 10**40),
    )


@settings(max_examples=60, deadline=None)
@given(_decimal_cases(), st.sampled_from(LIMITS))
def test_decimal_writes_str_of_n_under_any_limit(n, limit):
    with int_limit(limit):
        text = _decimal(n)
    with int_limit(0):
        assert text == str(n)


def _refused(values, bound: int) -> bool:
    """Whether some part has more than ``bound`` digits, measured with the limit lifted."""
    with int_limit(0):
        return any(len(str(abs(p))) > bound for v in values for p in (v.numerator, v.denominator))


# Digits of a numerator or denominator 10**k - 1 (a denominator of 0 digits is 1).
_parts = st.tuples(st.sampled_from([1, 640, 4299, 4300, 4301]), st.sampled_from([0, 1, 4300, 4301]), st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(_parts, min_size=1, max_size=4), st.sampled_from(LIMITS + (MAX_DIGITS,)))
def test_format_values_refuses_exactly_the_values_with_a_part_past_the_bound(shapes, limit):
    values = [F((-1) ** negative * (10**num - 1), 10**den - (den > 0)) for num, den, negative in shapes]
    with int_limit(limit):
        bound = digit_bound()
        if _refused(values, bound):
            with pytest.raises(DomainError, match=f"more than {bound} digits"):
                format_values(values)
            return
        text = format_values(values)
    with int_limit(0):
        assert text == " ".join(map(str, values))

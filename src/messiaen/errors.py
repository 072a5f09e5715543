"""Exception types shared by all modules, the integer-token reader behind them, and the yes/no word.

Two families matter to callers: `ParseError` (malformed input text, CLI
exit code 2) and `DomainError` (well-formed input outside an operation's
domain, CLI exit code 3).
"""

import sys

# Most digits of an integer read or written as text: the interpreter's default int-to-str limit.
MAX_DIGITS = 4300


class MessiaenError(Exception):
    """Base class for all library errors."""


class ParseError(MessiaenError):
    """Malformed input text (rhythms, pitch-class sets, permutations, catalogs)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def digit_bound() -> int:
    """Most digits of an integer read or written as text: ``MAX_DIGITS``, or the interpreter's lower limit."""
    return min(sys.get_int_max_str_digits() or MAX_DIGITS, MAX_DIGITS)


def ascii_int(token: str, line: int | None = None) -> int | None:
    """Value of a token of ASCII digits 0-9, or None for any other token.

    ``str.isdigit`` and ``int`` also accept other Unicode digits (``²``,
    ``١``); every text format here is ASCII-only.  A digit token longer
    than ``digit_bound()`` is a ParseError.
    """
    if not (token.isascii() and token.isdigit()):
        return None
    try:
        if len(token) <= MAX_DIGITS:
            return int(token)
    except ValueError:  # past a lower int-to-str limit set in the interpreter
        pass
    raise ParseError(f"integer of {len(token)} digits, more than {digit_bound()}", line)


def oui(flag: bool) -> str:
    """The French yes/no word of every human report."""
    return "oui" if flag else "non"


class DuplicateId(ParseError):
    """A catalog stream declares the same entry id twice."""


class DomainError(MessiaenError):
    """Valid input outside the domain of the requested operation."""


class DegenerateSet(DomainError):
    """Empty or otherwise degenerate pitch-class set where a proper one is required."""


class BadRatio(DomainError):
    """Augmentation or diminution ratio that is not strictly positive."""


class UnitMismatch(DomainError):
    """Binary rhythm operation across two different duration units."""


class TooShort(DomainError):
    """Rhythm has too few durations for the requested operation."""


class NoCenter(DomainError):
    """Central-value operation on an even-length rhythm."""


class NonIntegerTotal(DomainError):
    """Primality asked of a total duration that is not a whole number of units."""


class NoVoices(DomainError):
    """Canon construction without any voice."""


class SizeMismatch(DomainError):
    """Permutation applied to a sequence of the wrong length."""


class Empty(DomainError):
    """Size argument that must be at least one."""


class CapExceeded(DomainError):
    """Orbit iteration exceeded the configured hard cap."""


class NotABijection(DomainError):
    """Mapping that is not a bijection on 0..n-1."""


class BadPredicate(DomainError):
    """Unknown catalog filter predicate name."""

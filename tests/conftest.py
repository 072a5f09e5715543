"""Helpers shared by the test modules: the interpreter's int-to-str limit, set for a block, and a fresh interpreter."""

import contextlib
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {"PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}


@contextlib.contextmanager
def int_limit(limit: int):
    """``sys.set_int_max_str_digits(limit)`` for the block, the caller's limit restored after it."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def fresh_python(args: list[str], env: dict | None = None, **keywords) -> subprocess.CompletedProcess:
    """``python -S`` with args in a fresh interpreter that sees only ``src``, its output captured as bytes.

    env is added to ``ENV``; keywords go to ``subprocess.run`` (``stdout=`` or ``stderr=`` for a stream of the
    test's own)."""
    keywords = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 60, **keywords}
    return subprocess.run([sys.executable, "-S", *args], env={**ENV, **(env or {})}, **keywords)

"""The golden outcomes of the command line, compared group by group and held to the exit contract.

The corpus of ``tools/golden.py`` (about 27 000 argv) runs in process
once.  Each group of argv (its first two words) must give the count and
the SHA-256 digest that ``tests/golden.txt`` holds.  A change that alters
output on purpose writes that file again, with

    PYTHONPATH=src python3 tools/golden.py digest tests/golden.txt

and lists the argv that changed, from ``golden.py record`` and ``diff``
on both trees, in CHANGES.md.  argparse's wording changes between Python
minor versions: under another minor version than the file's, the test
compares the digests without argparse's text (exit codes, and stdout but
for ``--help``) and says so in a warning.
"""

import hashlib
import os
import sys
import warnings
from pathlib import Path

import pytest
from conftest import int_limit

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # for perfbench, which the corpus reads, so that golden.corpus() need not add it
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402

from messiaen.errors import MAX_DIGITS  # noqa: E402

GOLDEN = ROOT / "tests" / "golden.txt"
EMPTY = hashlib.sha256(b"").hexdigest()  # the recorded digest of an empty stdout


@pytest.fixture(scope="module")
def recorded():
    columns, path = os.environ.get("COLUMNS"), list(sys.path)
    with int_limit(MAX_DIGITS):  # the file holds the outcomes under the default limit
        outcomes = golden.outcomes()
    assert os.environ.get("COLUMNS") == columns and sys.path == path  # the recorder leaves the process as it was
    return outcomes


def test_the_recorder_sets_columns_only_while_it_runs(monkeypatch):
    monkeypatch.setattr(golden, "corpus", lambda: [["--help"]])
    monkeypatch.setenv("COLUMNS", "123")
    assert golden.outcomes()[0]["code"] == 0 and os.environ["COLUMNS"] == "123"
    monkeypatch.delenv("COLUMNS")  # set above, so that monkeypatch restores the caller's value at teardown
    assert golden.outcomes()[0]["code"] == 0 and "COLUMNS" not in os.environ


def test_every_group_of_the_golden_corpus_gives_its_recorded_digest(recorded):
    header, expected = golden.read_digest(GOLDEN)
    python = header.split()[-1]
    full = python == f"{sys.version_info.major}.{sys.version_info.minor}"
    if not full:
        warnings.warn(f"{GOLDEN.name} was written under Python {python}: counts, exit codes and stdout "
                      "compared; stderr and --help text not compared")
    fields = (0, 1) if full else (0, 2)  # the count, then the digest of every line or the one without argparse's text
    got = golden.digests(recorded)

    def seen(digests, group):
        return [digests[group][i] for i in fields] if group in digests else None

    differ = sorted(group for group in expected.keys() | got.keys() if seen(expected, group) != seen(got, group))
    assert not differ, (f"groups whose outcomes differ from {GOLDEN.name}: {', '.join(differ)}; "
                        "list their argv with tools/golden.py record and diff")


def _keeps_the_contract(code, stdout: str, err: str) -> bool:
    """Exit 0 with empty stderr, or exit 2 or 3 with empty stdout and one stderr line (more only for argparse)."""
    one_line = err.endswith("\n") and "\n" not in err[:-1]
    return err == "" if code == 0 else code in (2, 3) and stdout == EMPTY and (one_line or err.startswith("usage: "))


def test_every_argv_of_the_golden_corpus_keeps_the_exit_contract(recorded):
    broken = [o for o in recorded if not _keeps_the_contract(o["code"], o["stdout"], o["stderr"])]
    assert not broken, f"{len(broken)} argv break the exit contract, the first: {broken[0]}"

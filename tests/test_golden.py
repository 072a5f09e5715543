"""The golden outcomes of the command line, compared group by group.

The corpus of ``tools/golden.py`` (about 27 000 argv) runs in process,
and each group of argv (its first two words) must give the count and
the SHA-256 digest that ``tests/golden.txt`` holds.  A change that alters
output on purpose writes that file again, with

    PYTHONPATH=src python3 tools/golden.py digest tests/golden.txt

and lists the argv that changed, from ``golden.py record`` and ``diff``
on both trees, in CHANGES.md.  argparse's wording changes between Python
minor versions: under another minor version than the file's, the test
compares the digests without argparse's text (exit codes, and stdout but
for ``--help``) and says so in a warning.
"""

import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import golden  # noqa: E402

from messiaen.errors import MAX_DIGITS  # noqa: E402

GOLDEN = ROOT / "tests" / "golden.txt"


def test_every_group_of_the_golden_corpus_gives_its_recorded_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)  # the file holds the outcomes under the default limit
    try:
        recorded = golden.outcomes()
    finally:
        sys.set_int_max_str_digits(saved)
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

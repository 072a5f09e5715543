"""The command line in a fresh interpreter, where nothing is imported yet.

In-process tests run with every module already loaded, so they cannot
see a name that a handler uses without importing it.  Here each action
runs once under ``python -S -m messiaen.cli`` and must give what
``cli.run`` gives in process; a second fresh run of each action lists
the modules it loaded.
"""

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from messiaen import catalog, cli

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {"PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}

# One argv for each of the 19 actions.
ACTIONS = [
    ["rhythm", "analyze", "1 3 2 3 3 3 2 3 1 3"],
    ["rhythm", "retrograde", "1 2 @unit=u"],
    ["rhythm", "augment", "--ratio", "3/2", "2 1 2", "--format", "machine"],
    ["rhythm", "amplify", "--wing", "3 1", "2 1 2"],
    ["rhythm", "eliminate", "--count", "1", "3 2 1 2 3"],
    ["rhythm", "central", "--ratio", "2", "2 1 2"],
    ["rhythm", "canon", "--voice", "0:1", "--voice", "1:3/2", "2 1 2", "--format", "machine"],
    ["pcset", "classify", "0 4 8"],
    ["pcset", "period", "C D E F# G# Bb"],
    ["pcset", "enumerate", "--format", "machine"],
    ["pcset", "truncated", "0 1 6 7"],
    ["perm", "order", "--chronochromie"],
    ["perm", "cycles", "3 1 2", "--format", "machine"],
    ["perm", "fan", "5"],
    ["perm", "orbit", "2 3 1", "--cap", "3"],
    ["perm", "count", "30"],
    ["catalog", "list", "--which", "modes"],
    ["catalog", "analyze", "--id", "18", "--format", "machine"],
    ["catalog", "filter", "augchain"],
]

# Modules a call must not load: the class machinery and annotation
# support the package no longer uses.
NEVER = {"dataclasses", "inspect", "typing", "pathlib"}
# Calls that need neither exact rationals nor the rhythm and catalog modules, in both formats: every
# pcset action, and every perm action but `orbit --base`, whose base 1..n is a permutation's text.
RATIONAL_FREE = [argv + fmt for argv in (
    ["pcset", "classify", "0 4 8"],
    ["pcset", "period", "C D E F# G# Bb"],
    ["pcset", "enumerate"],
    ["pcset", "truncated", "0 1 6 7"],
    ["perm", "order", "--chronochromie"],
    ["perm", "cycles", "3 1 2"],
    ["perm", "count", "30"],
    ["perm", "fan", "5"],
    ["perm", "orbit", "2 3 1", "--cap", "3"],
    ["perm", "orbit", "--chronochromie"],
) for fmt in ([], ["--format", "machine"])]
RATIONALS = {"fractions", "messiaen.rhythm", "messiaen.catalog"}
# The messiaen modules an action loads: the package, cli and errors, and its verb's modules;
# `rhythm analyze` reports through catalog, which imports rhythm; of the catalogs, only the
# mode table loads z12.
VERB_MODULES = {
    "pcset": {"z12"},
    "perm": {"perm"},
    "rhythm": {"rhythm"},
    "catalog": {"catalog", "rhythm"},
}

# The modules are listed before the listing imports json, which loads re.
LIST_MODULES = (
    "import io, sys\n"
    "from messiaen import cli\n"
    "out, err, sys.stdout, sys.stderr = sys.stdout, sys.stderr, io.StringIO(), io.StringIO()\n"
    "cli.run(sys.argv[1:])\n"
    "loaded, sys.stdout, sys.stderr = sorted(sys.modules), out, err\n"
    "import json\n"
    "print(json.dumps(loaded))\n"
)
# What argparse and the first build of its parser load: a well-formed argv is read without them.
ARGPARSE = {"argparse", "shutil", "gettext", "locale"}


IDS = [" ".join(argv[:2]) for argv in ACTIONS]


def _fresh(args, env=ENV):
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, env=env, timeout=60)


@pytest.fixture(scope="module")
def fresh():
    """Both fresh runs of every action, and a listing run of each other rational-free call, three at a time.

    The listings are keyed by argv."""
    listed = ACTIONS + [argv for argv in RATIONAL_FREE if argv not in ACTIONS]
    jobs = [["-m", "messiaen.cli", *argv] for argv in ACTIONS] + [["-c", LIST_MODULES, *argv] for argv in listed]
    with ThreadPoolExecutor(max_workers=3) as pool:
        procs = list(pool.map(_fresh, jobs))
    n = len(ACTIONS)
    return dict(zip(IDS, procs[:n])), {tuple(argv): proc for argv, proc in zip(listed, procs[n:])}


def test_every_action_has_an_argv():
    assert len({tuple(argv[:2]) for argv in ACTIONS}) == len(ACTIONS) == 19


@pytest.mark.parametrize("argv", ACTIONS, ids=IDS)
def test_fresh_interpreter_matches_in_process(argv, fresh, capsys):
    proc = fresh[0][" ".join(argv[:2])]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")) == (
        code, captured.out, captured.err)


@pytest.mark.parametrize("argv", ACTIONS, ids=IDS)
def test_fresh_call_loads_only_what_its_action_uses(argv, fresh):
    proc = fresh[1][tuple(argv)]
    assert proc.returncode == 0, proc.stderr
    assert not set(json.loads(proc.stdout)) & NEVER


@pytest.mark.parametrize("argv", ACTIONS, ids=IDS)
def test_fresh_call_of_a_well_formed_argv_loads_no_argparse(argv, fresh):
    proc = fresh[1][tuple(argv)]
    assert proc.returncode == 0, proc.stderr
    assert not set(json.loads(proc.stdout)) & ARGPARSE


@pytest.mark.parametrize("argv", ACTIONS, ids=IDS)
def test_fresh_call_loads_exactly_its_verbs_modules(argv, fresh):
    proc = fresh[1][tuple(argv)]
    assert proc.returncode == 0, proc.stderr
    verb = "catalog" if argv[:2] == ["rhythm", "analyze"] else argv[0]
    modules = VERB_MODULES[verb] | ({"z12"} if argv[-2:] == ["--which", "modes"] else set())
    expected = {"messiaen", "messiaen.cli", "messiaen.errors", *(f"messiaen.{m}" for m in modules)}
    assert {m for m in json.loads(proc.stdout) if m.partition(".")[0] == "messiaen"} == expected


def test_fresh_human_pcset_classify_loads_no_regular_expressions(fresh):
    assert "re" not in json.loads(fresh[1][("pcset", "classify", "0 4 8")].stdout)


def test_every_pcset_and_perm_action_is_checked_for_rationals_as_listed():
    rational_free = {tuple(argv[:2]) for argv in RATIONAL_FREE}
    assert rational_free == {tuple(argv[:2]) for argv in ACTIONS if argv[0] in ("pcset", "perm")}
    assert all(argv in RATIONAL_FREE for argv in ACTIONS if tuple(argv[:2]) in rational_free)


@pytest.mark.parametrize("argv", RATIONAL_FREE, ids=[" ".join(argv) for argv in RATIONAL_FREE])
def test_fresh_call_loads_no_rationals(argv, fresh):
    proc = fresh[1][tuple(argv)]
    assert proc.returncode == 0, proc.stderr
    assert not set(json.loads(proc.stdout)) & RATIONALS


def test_filter_choices_are_the_catalog_predicates():
    assert list(cli.PREDICATES) == sorted(catalog.PREDICATES)


def test_a_fresh_call_under_the_lowest_int_to_str_limit(capsys):
    env = {**ENV, "PYTHONINTMAXSTRDIGITS": "640"}
    count = _fresh(["-m", "messiaen.cli", "perm", "count", "2000"], env)
    assert cli.run(["perm", "count", "2000"]) == 0
    assert (count.returncode, count.stdout.decode("utf-8"), count.stderr) == (0, capsys.readouterr().out, b"")
    refused = _fresh(["-m", "messiaen.cli", "pcset", "classify", "1" * 641], env)
    assert (refused.returncode, refused.stdout) == (2, b"")
    assert refused.stderr.decode("utf-8") == "erreur de lecture: integer of 641 digits, more than 640\n"

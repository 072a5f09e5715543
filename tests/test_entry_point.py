"""The command line in a fresh interpreter, where nothing is imported yet.

In-process tests run with every module already loaded, so they cannot
see a name that a handler uses without importing it.  Here each action
runs once under ``python -S -m messiaen.cli`` and must give what
``cli.call`` gives in process; a second fresh run of each action lists
the modules it loaded.
"""

import gc
import json
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import fresh_python

from messiaen import catalog, cli

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
    "import sys\n"
    "from messiaen import cli\n"
    "cli.call(sys.argv[1:])\n"
    "loaded = sorted(sys.modules)\n"
    "import json\n"
    "print(json.dumps(loaded))\n"
)
# What argparse and the first build of its parser load: a well-formed argv is read without them.
ARGPARSE = {"argparse", "shutil", "gettext", "locale"}


IDS = [" ".join(argv[:2]) for argv in ACTIONS]


@pytest.fixture(scope="module")
def fresh():
    """Both fresh runs of every action, and a listing run of each other rational-free call, three at a time.

    The listings are keyed by argv."""
    listed = ACTIONS + [argv for argv in RATIONAL_FREE if argv not in ACTIONS]
    jobs = [["-m", "messiaen.cli", *argv] for argv in ACTIONS] + [["-c", LIST_MODULES, *argv] for argv in listed]
    with ThreadPoolExecutor(max_workers=3) as pool:
        procs = list(pool.map(fresh_python, jobs))
    n = len(ACTIONS)
    return dict(zip(IDS, procs[:n])), {tuple(argv): proc for argv, proc in zip(listed, procs[n:])}


def test_every_action_has_an_argv():
    assert len({tuple(argv[:2]) for argv in ACTIONS}) == len(ACTIONS) == 19


@pytest.mark.parametrize("argv", ACTIONS, ids=IDS)
def test_fresh_interpreter_matches_in_process(argv, fresh):
    proc = fresh[0][" ".join(argv[:2])]
    assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")) == cli.call(argv)
    assert proc.returncode == 0


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


def test_a_fresh_call_under_the_lowest_int_to_str_limit():
    env = {"PYTHONINTMAXSTRDIGITS": "640"}
    count = fresh_python(["-m", "messiaen.cli", "perm", "count", "2000"], env)
    assert (count.returncode, count.stdout.decode("utf-8"), count.stderr.decode("utf-8")) == (
        0, cli.call(["perm", "count", "2000"])[1], "")
    refused = fresh_python(["-m", "messiaen.cli", "pcset", "classify", "1" * 641], env)
    assert (refused.returncode, refused.stdout) == (2, b"")
    assert refused.stderr.decode("utf-8") == "erreur de lecture: integer of 641 digits, more than 640\n"


def _closed_pipe() -> dict:
    """stdout of a pipe whose read end is closed before the child writes."""
    read, write = os.pipe()
    os.close(read)
    return {"stdout": write}


def _full(stream: str) -> dict:
    return {stream: os.open("/dev/full", os.O_WRONLY)}


def _closed_stdout() -> dict:
    return {"preexec_fn": lambda: os.close(1)}  # in the child only


# Output that a stream refuses, each in a fresh child: argv, environment, and how stdout or stderr is given.
REFUSED_OUTPUT = {
    "closed pipe": (["perm", "fan", "2000"], {}, _closed_pipe),
    "full stdout": (["perm", "fan", "5"], {}, lambda: _full("stdout")),
    "closed stdout": (["perm", "fan", "5"], {}, _closed_stdout),
    "ascii stdout": (["rhythm", "canon", "--voice", "0:1", "2 1 2"], {"PYTHONIOENCODING": "ascii"}, dict),
    "full stderr": (["rhythm", "retrograde", "0"], {}, lambda: _full("stderr")),
    "help to closed stdout": (["--help"], {}, _closed_stdout),
}


@pytest.mark.parametrize("argv, env, streams", REFUSED_OUTPUT.values(), ids=list(REFUSED_OUTPUT))
def test_output_a_stream_refuses_ends_in_exit_3_and_at_most_one_line(argv, env, streams):
    streams = streams()
    try:
        proc = fresh_python(["-m", "messiaen.cli", *argv], env, **streams)
    finally:
        for fd in streams.values():
            if isinstance(fd, int):
                os.close(fd)
    err = (proc.stderr or b"").decode("utf-8")
    assert proc.returncode == 3 and "Traceback" not in err
    assert err == "" or (err.startswith("erreur: ") and err.count("\n") == 1)


COUNT_COLLECTIONS = (
    "import gc, sys\n"
    "from messiaen import cli\n"
    "starts = []\n"
    "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info))\n"
    "try:\n"
    "    cli.main()\n"
    "except SystemExit as stop:\n"
    "    sys.stderr.write(f'{stop.code} {len(starts)}')\n"
)


def test_a_fresh_call_runs_no_cyclic_garbage_collection():
    # 500 voices of 500 durations 1, the event bound: each event a tuple the collector tracks
    argv = ["rhythm", "canon", *(f"--voice={i}:1" for i in range(500)), " ".join(["1"] * 500)]
    proc = fresh_python(["-c", COUNT_COLLECTIONS, *argv], stdout=subprocess.DEVNULL)
    assert proc.stderr == b"0 0"


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.run(["perm", "fan", "5"]) == 0 and gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()

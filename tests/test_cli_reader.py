"""The exact reader of the command line against argparse.

``cli.read_argv`` and ``cli.build_parser`` read the same spec.  For any
argv, the reader gives None or exactly the namespace that argparse gives:
checked on every argv of the golden corpus of ``tools/golden.py`` and on
argv drawn from the spec with options shuffled, written ``--name=value``,
abbreviated, repeated, torn from their values, and given values that
start with ``-`` or are empty.
"""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from messiaen import catalog, cli

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tools")]

import golden  # noqa: E402
from perfbench import cli_mix  # noqa: E402
from tests.test_entry_point import ACTIONS  # noqa: E402


def argparse_reads(argv: list[str]) -> dict:
    """``vars()`` of argparse's namespace for an argv it reads without an error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            raise AssertionError(f"argparse refuses {argv}: {err.getvalue()}") from None


def same_or_none(argv: list[str]) -> bool:
    args = cli.read_argv(argv)
    if args is not None:
        assert vars(args) == argparse_reads(argv), argv
    return args is not None


def test_the_reader_agrees_with_argparse_on_the_golden_corpus():
    read = sum(same_or_none(argv) for argv in golden.corpus())
    assert read > 15_000  # well-formed argv are most of the corpus


def test_the_reader_reads_every_argv_of_the_benchmark_and_of_each_action():
    data_dir = Path(cli.__file__).parent / "data"
    argvs = [op.argv for seed in (1, 2, 3) for op in cli_mix.build(seed, data_dir)] + ACTIONS
    assert all(same_or_none(argv) for argv in argvs)


def test_the_reader_leaves_to_argparse_what_it_cannot_be_sure_of():
    for argv in (
        [], ["pcset"], ["pcset", "--help"], ["pcset", "classify"], ["pcset", "classify", "-h"],
        ["pcset", "classify", "--", "0 4 8"], ["pcset", "classify", "0 4 8", "--form", "machine"],
        ["pcset", "classify", "0 4 8", "--format", "machine", "--format", "human"],
        ["pcset", "classify", "0 4 8", "--format", "json"], ["pcset", "classify", "0 4 8", "--format"],
        ["pcset", "classify", "0 4 8", "1"], ["rhythm", "augment", "2 1 2"],
        ["rhythm", "augment", "2 1 2", "--ratio", "-3/2"], ["rhythm", "augment", "2 1 2", "--ratio=-3/2"],
        ["perm", "order", "--chronochromie=yes"], ["perm", "fan", "-1"], ["perm", "fan", "x"],
        ["perm", "count", "9" * 4301], ["perm", "orbit", "2 1", "--cap", "١"], ["perm", "orbit", "--chrono"],
        ["catalog", "filter", "syncopated"], ["catalog", "list", "--which", "x"], ["PCSET", "classify", "0"],
    ):
        assert cli.read_argv(argv) is None, argv


def test_each_action_has_its_handler_and_each_catalog_its_loader():
    # run finds an action's handler by the name _cmd_<verb>_<action>, and the catalog
    # of a --which choice by the name catalog.seed_<which>; neither namespace holds it.
    actions = {f"_cmd_{verb}_{action}" for verb, (_, table) in cli.SPEC.items() for action in table}
    assert actions == {name for name in vars(cli) if name.startswith("_cmd_")}
    assert all(callable(getattr(cli, name)) for name in actions)
    choices = {choice for _, table in cli.SPEC.values() for _, arguments in table.values()
               for name, _, keywords in arguments if name == "--which" for choice in keywords["choices"]}
    assert choices == {"talas", "quatuor", "modes"}
    assert all(callable(getattr(catalog, f"seed_{choice}")) for choice in choices)
    for argv in ACTIONS:
        assert "func" not in vars(cli.read_argv(argv)) and "func" not in argparse_reads(argv)


def test_a_repeated_append_option_keeps_every_value_in_order():
    args = cli.read_argv(["rhythm", "canon", "--voice", "0:1", "1 2", "--voice=1:3/2", "--voice", ""])
    assert args.voice == ["0:1", "1:3/2", ""]
    assert cli.read_argv(["rhythm", "canon", "1 2"]).voice == []


VALUES = st.sampled_from(["", " ", "0", "3", "+5", "1_0", "١", "2 1 2", "0 4 8", "3/2", "0:1", "1:3/2", "a=b",
                          "-1", "-3/2", "-x", "--", "-", "--format", "human", "machine", "left", "right", "talas",
                          "modes", "prime", "augchain", "9" * 30, "9" * 4301])


@st.composite
def spec_argv(draw) -> list[str]:
    verb = draw(st.sampled_from(list(cli.SPEC)))
    action = draw(st.sampled_from(list(cli.SPEC[verb][1])))
    tokens = []
    for name, kind, keywords in cli.SPEC[verb][1][action][1]:
        value = st.sampled_from(keywords["choices"]) | VALUES if "choices" in keywords else VALUES
        for _ in range(draw(st.integers(0, 2 if kind == "append" or draw(st.booleans()) else 1))):
            if kind == "positional":
                tokens.append([draw(value)])
                continue
            written = name[:draw(st.integers(3, len(name)))] if draw(st.integers(0, 4)) == 0 else name
            if kind == "flag":
                tokens.append([written + "=x"] if draw(st.integers(0, 9)) == 0 else [written])
            elif draw(st.booleans()):
                tokens.append([f"{written}={draw(value)}"])
            else:
                tokens.append([written, draw(value)])
    tokens += draw(st.lists(st.sampled_from([["-h"], ["--help"], ["--"], ["--unknown"], ["extra"]]), max_size=1))
    order = draw(st.permutations(range(len(tokens))))
    argv = [verb, action] + [token for i in order for token in tokens[i]]
    if draw(st.integers(0, 9)) == 0:  # values torn from their options
        argv[2:] = draw(st.permutations(argv[2:]))
    return argv


@settings(max_examples=600, deadline=None)
@given(spec_argv())
def test_the_reader_agrees_with_argparse_on_argv_drawn_from_the_spec(argv):
    same_or_none(argv)

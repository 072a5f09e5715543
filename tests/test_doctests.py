"""The examples of the documentation, run as tests.

The ``>>>`` examples in the docstrings of each module, the README's
library tour, and the README's ``$ messiaen ...`` examples, whose shown
lines must match what ``cli.run`` prints, with ``...`` standing for
omitted lines or words.
"""

import doctest
import importlib
import itertools
import pkgutil
import shlex
from pathlib import Path

import pytest

import messiaen
from messiaen import cli

ROOT = Path(__file__).resolve().parent.parent

# The modules whose docstrings hold examples.
WITH_EXAMPLES = ("catalog", "perm", "rhythm", "z12")


def readme_examples() -> list[tuple[list[str], str, list[str]]]:
    """Each ``$ messiaen ...`` example of the README: its argv, the pipe after
    it ("" for none), and the lines shown under it, up to a blank line or a fence."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ messiaen "):
            command, _, pipe = line[len("$ messiaen "):].partition(" | ")
            shown = list(itertools.takewhile(lambda text: text and not text.startswith("```"), lines[i + 1:]))
            out.append((shlex.split(command), pipe, shown))
    return out


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("name", WITH_EXAMPLES)
def test_docstring_examples(name):
    failed, attempted = doctest.testmod(importlib.import_module(f"messiaen.{name}"))
    assert (failed, attempted > 0) == (0, True)


def test_every_module_with_examples_is_run():
    finder = doctest.DocTestFinder()
    modules = ["messiaen", *(f"messiaen.{m.name}" for m in pkgutil.iter_modules(messiaen.__path__))]
    with_examples = [name for name in modules
                     if any(test.examples for test in finder.find(importlib.import_module(name)))]
    assert sorted(with_examples) == [f"messiaen.{name}" for name in WITH_EXAMPLES]


def test_readme_library_tour():
    failed, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert (failed, attempted > 0) == (0, True)


def test_readme_has_command_examples():
    assert README_EXAMPLES and all(shown for _, _, shown in README_EXAMPLES)


@pytest.mark.parametrize("argv, pipe, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _, _ in README_EXAMPLES])
def test_readme_command_example_shows_what_the_command_prints(argv, pipe, shown, capsys):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if pipe:  # `tail -N`, the only pipe the README uses
        out = "".join(out.splitlines(keepends=True)[-int(pipe.removeprefix("tail -")):])
    want = "".join(f"{line}\n" for line in shown)
    assert doctest.OutputChecker().check_output(want, out, doctest.ELLIPSIS), f"expected\n{want}got\n{out}"

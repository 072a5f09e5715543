"""Seeded fuzzing of the command line: every argv ends in exit 0, 2 or 3.

About 2000 in-process ``run`` calls over the 19 verbs, their flags, and
tokens chosen to break parsers: Unicode digits, ``|``, zero
denominators, negative numbers and digit strings longer than the
interpreter converts.  Sizes are bounded so that every call ends quickly.
"""

import contextlib
import io
import random

from messiaen.cli import run

LONG = "7" * 5000

TOKENS = [
    "²", "١", "١ ٢ ١", "|", "a|b", "1/0", "0", "-1", "-3/2", "1/2", "3/2", "2 1 2",
    "3 5 8 5 3", "1 1 3/2 @unit=u", "@unit=", "x", "C", "C# Eb", "12", "0 1 3 4 6 7 9 10",
    "2 1 3", "3 1 2", "1 1", "", " ", LONG, "1/" + LONG, "2 " + LONG, "9" * 30, "0:1",
    "1:3/2", "-1:1", "1:0", ":",
]
SMALL_INTS = ["-1", "0", "1", "2", "3", "5", "12", "33", "²", "١", LONG, "9" * 30]

# Each action's positional kind and its flags with the values they are given.
ACTIONS = {
    ("rhythm", "analyze"): ("rhythm", {}),
    ("rhythm", "retrograde"): ("rhythm", {}),
    ("rhythm", "augment"): ("rhythm", {"--ratio": TOKENS}),
    ("rhythm", "amplify"): ("rhythm", {"--wing": TOKENS}),
    ("rhythm", "eliminate"): ("rhythm", {"--count": SMALL_INTS}),
    ("rhythm", "central"): ("rhythm", {"--ratio": TOKENS}),
    ("rhythm", "canon"): ("rhythm", {"--voice": TOKENS}),
    ("pcset", "classify"): ("token", {}),
    ("pcset", "period"): ("token", {}),
    ("pcset", "enumerate"): (None, {}),
    ("pcset", "truncated"): ("token", {}),
    ("perm", "order"): ("perm", {"--chronochromie": None}),
    ("perm", "cycles"): ("perm", {"--chronochromie": None}),
    ("perm", "fan"): ("size", {"--direction": ["left", "right", "up"]}),
    ("perm", "orbit"): ("perm", {"--chronochromie": None, "--base": TOKENS, "--cap": SMALL_INTS}),
    ("perm", "count"): ("count", {}),
    ("catalog", "list"): (None, {"--which": ["talas", "quatuor", "modes", "x"], "--data": ["/nonexistent", ""]}),
    ("catalog", "analyze"): (None, {"--which": ["talas", "quatuor", "modes"], "--id": SMALL_INTS + ["58"]}),
    ("catalog", "filter"): ("predicate", {"--which": ["talas", "quatuor"]}),
}
UNIVERSAL = {"--format": ["human", "machine", "json"], "--unit": ["u", "a|b", ""], "--help": None}


def _positional(rng: random.Random, kind):
    if kind in ("rhythm", "token"):
        return rng.choice(TOKENS)
    if kind == "perm":
        if rng.random() < 0.5:
            return rng.choice(TOKENS)
        images = list(range(1, rng.randint(1, 12) + 1))
        rng.shuffle(images)
        return " ".join(map(str, images))
    if kind == "size":
        return rng.choice(SMALL_INTS)
    if kind == "count":
        return rng.choice(SMALL_INTS + ["2000", "20001"])
    return rng.choice(["nonretro", "prime", "augchain", "interleave", "syncopated"])


# `pcset enumerate` reads no input and scans all 4096 subsets: drawn less often.
WEIGHTS = [0.2 if key == ("pcset", "enumerate") else 1 for key in ACTIONS]


def _argv(rng: random.Random) -> list[str]:
    (verb, action), (kind, flags) = rng.choices(list(ACTIONS.items()), WEIGHTS)[0]
    argv = [verb, action]
    if kind is not None and rng.random() < 0.9:
        argv.append(_positional(rng, kind))
    options = list(flags.items()) + list(UNIVERSAL.items()) * (rng.random() < 0.2)
    for flag, values in rng.sample(options, rng.randint(0, len(options))):
        if flag == "--help" and rng.random() < 0.8:
            continue
        argv += [flag] if values is None else [flag, rng.choice(values)]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["human", "machine"])]
    if rng.random() < 0.1:  # flags torn from their values
        tail = argv[2:]
        rng.shuffle(tail)
        argv[2:] = tail
    return argv


def test_every_argv_exits_0_2_or_3():
    rng = random.Random(2024)
    for _ in range(2000):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2, 3), argv
        if code:
            assert out.getvalue() == "" and err.getvalue(), argv

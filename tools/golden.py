"""Golden output of the command line, recorded and compared across two trees.

``record`` runs ``messiaen.cli.run`` in process on a fixed corpus of argv
and writes, per argv, the exit code, a SHA-256 digest of stdout and the
stderr text (an exception that escapes ``run`` is recorded by its type
and first line).  ``diff`` compares two recordings of the same corpus,
prints the argv that differ, grouped by verb and action, and counts the
argv of the second recording that ended in an exception or in an exit
code other than 0, 2 or 3; it returns 1 when any argv differs or fails.
``digest`` records the corpus in process and writes, per group of argv,
the count and two SHA-256 digests of the outcome lines: one over every
line, and one without argparse's text (stderr, and the stdout of argv
that ask for ``--help``), which changes between Python minor versions.
``tests/golden.txt`` is that file, and ``tests/test_golden.py`` records
the corpus again, compares it group by group, and holds every outcome to
the exit contract; a change that alters output on purpose writes the
file again::

    PYTHONPATH=src python3 tools/golden.py digest tests/golden.txt

The corpus:

- 2000 seeded random argv (``_argv``, drawn from ``ACTIONS`` below) for
  each of ``FUZZ_SEEDS``;
- one round of ``perfbench.cli_mix.build`` for each of seeds 1-5;
- ``README_ARGV``, the argv of the README's ``$ messiaen ...`` examples
  (held here, so that a README edit leaves the corpus), in both formats;
- every note spelling (letter, case, accidental) through ``pcset``;
- every nonempty pitch-class set through ``pcset classify`` and
  ``pcset period``, in both formats;
- ``perm fan 1`` to ``perm fan 40``, both directions and formats;
- fans at and past the size bound and the table-entry bound (past the
  size bound in machine format only: the human table of a fan of 10⁵
  points holds 10¹⁰ entries where no entry bound refuses it);
- ``perm orbit --base`` with repeated values and with equal values
  written differently (``1/2`` and ``2/4``), both formats;
- ``rhythm canon`` at the event bound, in both formats, and one voice
  past it, in machine format only; and 100 voices of the first 500
  primes as ``1/p``, past the digit bound, in both formats;
- a small ``rhythm canon`` full of ties (equal voices, and onsets of
  different voices that coincide), one whose delays and ratios have
  denominators coprime to each other and to the subject's, and one whose
  voices of different ratios meet on the same onsets, in both formats;
- edge cases of the integer flags, of ``--unit``, and of results past
  the 4300-digit bound;
- ``catalog`` actions on a catalog, written to a fixed directory under
  the system's temporary directory, whose first total is past the
  primality bound, and on one, in a second fixed directory, whose bytes
  are not UTF-8; ``catalog list --which modes`` on a third, whose
  ``modes.cat`` has a line of five cells and one of three;
- ``--help`` at the top, for every verb and for every action, and the
  bare call of the program and of every verb.

The package comes from ``PYTHONPATH``; the corpus from this checkout.  To
compare a change with its parent, record once with each tree's ``src``::

    PYTHONPATH=../parent/src python3 tools/golden.py record parent.jsonl
    PYTHONPATH=src python3 tools/golden.py record change.jsonl
    python3 tools/golden.py diff parent.jsonl change.jsonl

Under the lowest int-to-str limit the interpreter allows, 640 digits,
every argv must still end in exit 0, 2 or 3.  Record both trees under it
too; the failure count that ``diff`` prints is the change's::

    PYTHONINTMAXSTRDIGITS=640 PYTHONPATH=../parent/src python3 tools/golden.py record parent-640.jsonl
    PYTHONINTMAXSTRDIGITS=640 PYTHONPATH=src python3 tools/golden.py record change-640.jsonl
    python3 tools/golden.py diff parent-640.jsonl change-640.jsonl

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FUZZ_SEEDS = (2024, 1, 2, 3, 4)
CLI_MIX_SEEDS = (1, 2, 3, 4, 5)
EXAMPLES = 5  # differing argv shown per group
FORMATS = (["--format", "human"], ["--format", "machine"])

N = "9" * 4300
M = "9" * 4299 + "7"  # N - 2


README_ARGV = [["rhythm", "analyze", "3 5 8 5 3"], ["pcset", "classify", "0 1 3 4 6 7 9 10"],
               ["perm", "orbit", "--chronochromie"], ["rhythm", "canon", "--voice", "0:1", "--voice", "1:3/2", "2 1 2"],
               ["catalog", "filter", "augchain"]]

# The random argv: tokens chosen to break parsers (Unicode digits, `|`, zero denominators, negative
# numbers, digit strings longer than the interpreter converts), in sizes that end every call quickly.
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


def _note_argv() -> list[list[str]]:
    tokens = [letter + accidental
              for letter in "ABCDEFGHabcdefgh"
              for accidental in ("", "#", "b", "B", "##", "bb", "x", "s", "♯", "♭")]
    return [["pcset", "classify", token, *fmt] for token in tokens for fmt in FORMATS] + [
        ["pcset", "period", " ".join(tokens[i:i + 7])] for i in range(0, len(tokens), 7)
    ]


def _pcset_argv() -> list[list[str]]:
    sets = [" ".join(str(i) for i in range(12) if n >> i & 1) for n in range(1, 4096)]
    return [["pcset", action, text, *fmt] for text in sets for action in ("classify", "period") for fmt in FORMATS]


def _fan_argv() -> list[list[str]]:
    return [["perm", "fan", str(n), "--direction", side, *fmt]
            for n in range(1, 41) for side in ("left", "right") for fmt in FORMATS] + [
        ["perm", "fan", n, *fmt] for n in ("2304", "3000") for fmt in FORMATS] + [
        ["perm", "fan", n, "--format", "machine"] for n in ("100000", "100001", "9" * 30)]


def _orbit_base_argv() -> list[list[str]]:
    bases = ["1/2 2/4", "2/4 1/2 3 6/2", "3 6/2 9/3 1", "1 1 1 1", "1/2 2/4 1/2 2/4 1/3 2/6", "2 2 1 1 2 2"]
    cases = []
    for base in bases:
        n = len(base.split())
        shift = " ".join(str(i % n + 1) for i in range(1, n + 1))
        reverse = " ".join(str(n - i) for i in range(n))
        cases += [["perm", "orbit", "--base", base, shift], ["perm", "orbit", "--base", base, reverse],
                  ["perm", "orbit", "--base", base, shift, "--cap", "1"]]
    return [argv + fmt for argv in cases for fmt in FORMATS]


def _canon_argv() -> list[list[str]]:
    def canon(voices: int) -> list[str]:  # voices of 500 durations each
        return ["rhythm", "canon", *(f"--voice={i}:1" for i in range(voices)), " ".join(["1"] * 500)]

    ties = ["rhythm", "canon", "--voice", "0:1", "--voice", "0:1", "--voice", "1:1/2", "--voice", "1/2:2", "1 1/2 1 2"]
    # Delays and ratios over denominators coprime to each other and to the subject's 1, 2, 3 and 13.
    coprime = ["rhythm", "canon", "--voice", "0:1", "--voice", "1/3:2/7", "--voice", "2/9:5/11", "2 1/2 4/3 5/13 1 3/2 2/13"]
    # Voices of different ratios meet at 0, 2 and 4.
    meeting = ["rhythm", "canon", "--voice", "0:1", "--voice", "1:1/2", "--voice", "0:2", "2 2 1 1"]
    # 100 voices of the first 500 primes as 1/p: 50 000 events over a denominator of 1520 digits,
    # past the digit bound.
    primes = [p for p in range(2, 3572) if all(p % q for q in range(2, int(p**0.5) + 1))]
    wide = ["rhythm", "canon", *["--voice", "0:1"] * 100, " ".join(f"1/{p}" for p in primes)]
    # 500 x 500 events is the bound. Past it, machine format only: a tree without the bound schedules it.
    return [argv + fmt for argv in (canon(500), ties, coprime, meeting, wide) for fmt in FORMATS] + [
        canon(501) + ["--format", "machine"]]


def _edge_argv() -> list[list[str]]:
    ints = ["+5", "-1", "1_0", "0", "3", "١", "٣", "²", "٣٣", " 3", "3 ", "0x10", "1e3", "", "9" * 30]
    flags = [
        lambda v: ["rhythm", "eliminate", "--count", v, "1 2 3 4 5 6 7"],
        lambda v: ["catalog", "analyze", "--id", v],
        lambda v: ["perm", "orbit", "--cap", v, "2 1"],
        lambda v: ["perm", "fan", v],
        lambda v: ["perm", "count", v],
    ]
    units = [" x", "x ", "\tx", "x\n", "x\u00a0", "a b", "", " ", "a|b", "é", "\u2028x"]
    rhythms = [
        lambda u: ["rhythm", "retrograde", "--unit", u, "1 2"],
        lambda u: ["rhythm", "augment", "--ratio", "3/2", "--unit", u, "2 1 2"],
        lambda u: ["rhythm", "retrograde", f"1 2 @unit={u}"],
        lambda u: ["rhythm", "analyze", "--unit", u, "2 1 2"],
    ]
    big = [
        ["rhythm", "augment", "--ratio", N, N],
        ["rhythm", "analyze", f"{N} {N}"],
        ["rhythm", "analyze", f"1/{N} 1/{M}"],
        ["rhythm", "canon", "--voice", f"0:{N}", f"{N} 1"],
        ["rhythm", "retrograde", f"{N} 1/{N}"],
        ["rhythm", "central", "--ratio", f"1/{N}", f"1 1/{N} 1"],
        ["perm", "orbit", "--base", f"{N} 1", "2 1"],
    ]
    cases = [f(v) for f in flags for v in ints] + [f(u) for f in rhythms for u in units] + big
    return [argv + fmt for argv in cases for fmt in FORMATS]


def _catalog_argv() -> list[list[str]]:
    def data_dir(name: str, text: bytes, file: str = "talas.cat") -> str:
        data = Path(tempfile.gettempdir(), name)
        data.mkdir(exist_ok=True)
        (data / file).write_bytes(text)
        return str(data)

    # 3317044064679887385962003 is past the primality bound and has no factor up to 41.
    lines = ["1|a|b|3317044064679887385962003", "2|c|d|2 1 2", "3|e|f|1 1 3/2", "4|g|h|2 1 3 2 1"]
    data = data_dir("messiaen-golden-data", "".join(f"{line}\n" for line in lines).encode("utf-8"))
    undecodable = data_dir("messiaen-golden-undecodable-data", b"1|a|b|2 1 2\n\xff|x|y|1\n")
    # A mode line of five cells, then one of three: a mode line has four.
    modes = data_dir("messiaen-golden-modes-data", b"1|a|b|0 2 4 6 8 10\n2|c|d|0 6|note\n3|e|0 4 8\n", "modes.cat")
    actions = [["catalog", "filter", p] for p in ("nonretro", "prime", "augchain", "interleave")]
    actions += [["catalog", "analyze"], ["catalog", "analyze", "--id", "2"], ["catalog", "list"]]
    return [argv + ["--data", data] + fmt for argv in actions for fmt in FORMATS] + [
        argv + ["--data", undecodable] + fmt
        for argv in (["catalog", "list"], ["catalog", "analyze"], ["catalog", "filter", "prime"]) for fmt in FORMATS] + [
        ["catalog", "list", "--which", "modes", "--data", modes] + fmt for fmt in FORMATS]


def _help_argv(actions) -> list[list[str]]:
    verbs = list(dict.fromkeys(verb for verb, _ in actions))
    return [["--help"], []] + [[verb, *tail] for verb in verbs for tail in (["--help"], [])] + [
        [verb, action, "--help"] for verb, action in actions]


def corpus() -> list[list[str]]:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import cli_mix

    import messiaen

    argvs = []
    for seed in FUZZ_SEEDS:
        rng = random.Random(seed)
        argvs += [_argv(rng) for _ in range(2000)]
    data_dir = Path(messiaen.__file__).parent / "data"
    for seed in CLI_MIX_SEEDS:
        argvs += [op.argv for op in cli_mix.build(seed, data_dir)]
    return (argvs + [argv + fmt for argv in README_ARGV for fmt in FORMATS] + _note_argv() + _pcset_argv()
            + _fan_argv() + _orbit_base_argv() + _canon_argv() + _edge_argv() + _catalog_argv() + _help_argv(ACTIONS))


def _outcome(run, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:  # a traceback is an outcome to compare, not a crash of the recorder
            code = f"exception {type(exc).__name__}"
            err.write(str(exc).split("\n")[0][:200])
    digest = hashlib.sha256(out.getvalue().encode("utf-8", "surrogateescape")).hexdigest()
    return {"argv": argv, "code": code, "stdout": digest, "stderr": err.getvalue()}


def outcomes() -> list[dict]:
    """The outcome of every argv of the corpus, in order, with ``COLUMNS=80`` set only while they run."""
    from messiaen.cli import run

    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text at the terminal width
    try:
        return [_outcome(run, argv) for argv in corpus()]
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def _line(outcome: dict) -> str:
    return json.dumps(outcome, ensure_ascii=False) + "\n"


def record(path: str) -> None:
    recorded = outcomes()
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(map(_line, recorded))
    print(f"{len(recorded)} argv recorded in {path}")


def digests(recorded: list[dict]) -> dict[str, tuple[int, str, str]]:
    """Per group of argv (its first two words, as JSON), in corpus order: the
    count, the SHA-256 of the outcome lines, and that of the lines without
    stderr and without the stdout of argv that ask for ``--help``.  The
    temporary directory of the catalog argv is written ``$TMPDIR``."""
    tmp = tempfile.gettempdir()
    groups = {}
    for outcome in recorded:
        argv = outcome["argv"]
        quiet = {"argv": argv, "code": outcome["code"], "stdout": None if "--help" in argv else outcome["stdout"]}
        entry = groups.setdefault(json.dumps(argv[:2], ensure_ascii=False), [0, hashlib.sha256(), hashlib.sha256()])
        entry[0] += 1
        for sha, line in zip(entry[1:], (_line(outcome), _line(quiet))):
            sha.update(line.replace(tmp, "$TMPDIR").encode("utf-8", "surrogatepass"))
    return {group: (n, full.hexdigest(), plain.hexdigest()) for group, (n, full, plain) in groups.items()}


def write_digest(path: str) -> None:
    recorded = outcomes()
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Golden outcomes of the command line, written by `python3 tools/golden.py digest`.\n"
                "# Per group of argv: count, SHA-256 of the outcome lines, SHA-256 without argparse's text.\n")
        f.write(f"corpus {len(recorded)} COLUMNS=80 python {sys.version_info.major}.{sys.version_info.minor}\n")
        for group, (n, full, plain) in sorted(digests(recorded).items()):
            f.write(f"{n} {full} {plain} {group}\n")
    print(f"{len(recorded)} argv digested in {path}")


def read_digest(path) -> tuple[str, dict[str, tuple[int, str, str]]]:
    """The header and the groups of a digest file."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    groups = {}
    for line in lines[1:]:
        n, full, plain, group = line.split(" ", 3)
        groups[group] = (int(n), full, plain)
    return lines[0], groups


def _short(argv: list[str]) -> str:
    text = shlex.join(argv)
    return text if len(text) <= 160 else text[:150] + f"... ({len(text)} chars)"


def diff(before_path: str, after_path: str) -> int:
    def load(path):
        with open(path, encoding="utf-8") as f:
            return [json.loads(line) for line in f]

    before, after = load(before_path), load(after_path)
    if [b["argv"] for b in before] != [a["argv"] for a in after]:
        print("the two recordings are of different corpora")
        return 2
    groups = defaultdict(list)
    for b, a in zip(before, after):
        if b != a:
            part = "stdout" if b["code"] == a["code"] and b["stdout"] != a["stdout"] else "stderr"
            change = f"exit {b['code']} -> {a['code']}" if b["code"] != a["code"] else f"same exit, {part} differs"
            groups[" ".join(a["argv"][:2]), change].append((b, a))
    differing = sum(map(len, groups.values()))
    failed = sum(a["code"] not in (0, 2, 3) for a in after)
    print(f"{len(before)} argv compared, {len(before) - differing} identical, {differing} differ")
    print(f"{failed} argv of {after_path} end in an exception or an exit code other than 0, 2 or 3")
    for (action, change), pairs in sorted(groups.items()):
        print(f"\n{action}: {change} ({len(pairs)} argv)")
        for b, a in pairs[:EXAMPLES]:
            print(f"  {_short(a['argv'])}")
            if b["stderr"] != a["stderr"]:
                print(f"    stderr before: {b['stderr'][:120]!r}")
                print(f"    stderr after:  {a['stderr'][:120]!r}")
    return 1 if differing or failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run the corpus and write one JSON line per argv")
    rec.add_argument("out")
    cmp_ = commands.add_parser("diff", help="compare two recordings of the corpus")
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    dig = commands.add_parser("digest", help="run the corpus and write the digest of each group of argv")
    dig.add_argument("out")
    args = parser.parse_args()
    if args.command in ("record", "digest"):
        (record if args.command == "record" else write_digest)(args.out)
        return 0
    return diff(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())

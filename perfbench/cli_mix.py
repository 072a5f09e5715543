"""The ``cli`` workload: one argv list covering all 19 verbs in both formats.

Each operation is one argv with the exit code it must end with and a
check of its output against ``oracles``.  The machine format is re-parsed;
the human format is checked on the lines that carry the answer.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import oracles as o
from .oracles import expect

# `pcset enumerate` is the one verb whose computation outweighs interpreter
# start and imports.  Four calls per format put 8 of the 47 operations of a
# round in the tail, so the 90th percentile falls inside that cluster and
# not on the step between it and the rest.
ENUMERATE_CALLS_PER_FORMAT = 4

# Inputs that hit known faults.  They do not depend on the seed, so they
# fail in every run and make up the same share of every run.
FAULTS = (
    # 2000! has 5736 digits, past the interpreter's int-to-str limit.
    (["perm", "count", "2000"], 0),
    # '²' passes str.isdigit() but not int(); a parse error must exit 2.
    (["pcset", "period", "²"], 2),
    # Arabic-Indic digits are not rhythm text; a parse error must exit 2.
    (["rhythm", "analyze", "١ ٢ ١"], 2),
)


class CliOp:
    """One command line, the exit code it must give, and a check of its stdout.

    An operation whose exit code differs has failed; one that exits as it
    must but prints a wrong answer is incorrect.
    """

    def __init__(self, argv, rc, check, known_fault=False):
        self.argv = argv
        self.rc = rc
        self.check = check
        self.kind = " ".join(argv[:2])
        self.known_fault = known_fault


def _lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n")


def _line_value(out: str, label: str) -> str:
    for line in _lines(out):
        if line.startswith(label):
            return line[len(label):].strip()
    raise o.WrongOutput(f"no line starting with {label!r}")


def _oui(flag: bool) -> str:
    return "oui" if flag else "non"


def _rhythm_out(out: str, durations, unit="") -> None:
    got, got_unit = o.parse_durations(out.strip())
    expect(got == list(durations) and got_unit == unit, "rhythm result differs")


# --- seeded inputs ---------------------------------------------------------


def _small_rhythm(rng: random.Random, length: int, palindrome: bool = False) -> list[Fraction]:
    values = [Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 3))) for _ in range(length)]
    if palindrome:
        half = values[: (length + 1) // 2]
        values = half + half[: length // 2][::-1]
    return values


def _random_pcset(rng: random.Random) -> int:
    kind = rng.randrange(3)
    if kind == 0:
        return o.rotate(rng.choice(o.MODE_MASKS), rng.randrange(12))
    if kind == 1:
        truncated = [m for m in o.limited_masks() if m not in (0, o.FULL) and o.truncated(m)]
        return rng.choice(truncated)
    while True:
        m = rng.randrange(1, o.FULL)
        if o.period(m) == 12:
            return m


# --- per-verb operations ----------------------------------------------------


def _rhythm_ops(rng: random.Random, fmt: str) -> list[CliOp]:
    machine = fmt == "machine"
    flag = ["--format", fmt]
    readme = [Fraction(x) for x in (3, 5, 8, 5, 3)]
    subject = rng.choice((readme, _small_rhythm(rng, rng.choice((5, 7, 9)), palindrome=True)))
    text = o.rhythm_text(subject)
    ops = []

    def analyze(out):
        ref = o.analysis(subject)
        if machine:
            expect(json.loads(out) == ref, "rhythm analyze report differs")
        else:
            expect(_line_value(out, "non rétrogradable:") == _oui(ref["non_retrogradable"]), "palindrome flag")
            expect(_line_value(out, "durée totale:") == ref["total"], "total")
            prime = "— (total non entier)" if ref["prime_total"] is None else _oui(ref["prime_total"])
            expect(_line_value(out, "total premier:") == prime, "prime flag")

    ops.append(CliOp(["rhythm", "analyze", text, *flag], 0, analyze))

    unit = "double croche"
    retro_in = _small_rhythm(rng, rng.randint(3, 8))

    def retrograde(out):
        body = out if machine else _line_value(out, "rétrograde:")
        _rhythm_out(body, retro_in[::-1], unit)

    ops.append(CliOp(["rhythm", "retrograde", o.rhythm_text(retro_in), "--unit", unit, *flag], 0, retrograde))

    ratio = rng.choice((Fraction(3, 2), Fraction(2), Fraction(1, 2), Fraction(5, 4)))

    def augment(out):
        expected = [d * ratio for d in subject]
        if machine:
            _rhythm_out(out, expected)
        else:
            label = "augmentation" if ratio > 1 else "diminution"
            _rhythm_out(_line_value(out, f"{label} (rapport {o.fraction_text(ratio)}):"), expected)

    ops.append(CliOp(["rhythm", "augment", text, "--ratio", o.fraction_text(ratio), *flag], 0, augment))

    wing = _small_rhythm(rng, rng.randint(1, 3))

    def amplify(out):
        body = out if machine else _line_value(out, "amplification symétrique:")
        _rhythm_out(body, wing + subject + wing[::-1])

    ops.append(CliOp(["rhythm", "amplify", text, "--wing", o.rhythm_text(wing), *flag], 0, amplify))

    k = rng.randint(1, (len(subject) - 1) // 2)

    def eliminate(out):
        body = out if machine else _line_value(out, f"extrêmes éliminés (k={k}):")
        _rhythm_out(body, subject[k:-k])

    ops.append(CliOp(["rhythm", "eliminate", text, "--count", str(k), *flag], 0, eliminate))

    def central(out):
        expected = list(subject)
        expected[len(expected) // 2] *= ratio
        _rhythm_out(out if machine else _line_value(out, "valeur centrale modifiée:"), expected)

    ops.append(CliOp(["rhythm", "central", text, "--ratio", o.fraction_text(ratio), *flag], 0, central))

    voices = [(Fraction(0), Fraction(1)), (Fraction(rng.randint(1, 4)), ratio)]

    def canon(out):
        ref = o.canon(subject, voices)
        if machine:
            got = json.loads(out)
            expect(len(got["voices"]) == len(voices), "canon voice count")
            for voice, (onsets, end) in zip(got["voices"], ref):
                expect(voice["onsets"] == [o.fraction_text(t) for t in onsets], "canon onsets differ from prefix sums")
                expect(voice["end"] == o.fraction_text(end), "canon end")
            events = sorted(
                (t, v, voices[v][1] * d) for v, (onsets, _) in enumerate(ref) for t, d in zip(onsets, subject)
            )
            expect(got["events"] == [[o.fraction_text(t), v + 1, o.fraction_text(d)] for t, v, d in events], "canon events")
        else:
            for i, (onsets, end) in enumerate(ref, start=1):
                line = _line_value(out, f"voix {i}:")
                expect(f"attaques {' '.join(o.fraction_text(t) for t in onsets)}, fin {o.fraction_text(end)}" in line,
                       "canon onsets differ from prefix sums")

    voice_args = [a for d, q in voices for a in ("--voice", f"{o.fraction_text(d)}:{o.fraction_text(q)}")]
    ops.append(CliOp(["rhythm", "canon", text, *voice_args, *flag], 0, canon))
    return ops


def _pcset_ops(rng: random.Random, fmt: str) -> list[CliOp]:
    machine = fmt == "machine"
    flag = ["--format", fmt]
    ops = []
    target = _random_pcset(rng)
    text = o.pcset_text(rng, target)

    def classify(out):
        ref = o.classify(target)
        if machine:
            expected = None if ref is None else {
                "mode": ref[0], "offset": ref[1], "period": o.TRANSPOSITION_COUNTS[ref[0] - 1]}
            expect(json.loads(out) == expected, "classify differs")
        elif ref is None:
            suffix = " (mode tronqué)" if o.truncated(target) else ""
            expect(out.strip() == f"aucun mode catalogué{suffix}", "classify differs")
        else:
            count = o.TRANSPOSITION_COUNTS[ref[0] - 1]
            expect(out.strip() == f"Mode {ref[0]}, transposition {ref[1] + 1} (sur {count})", "classify differs")

    ops.append(CliOp(["pcset", "classify", text, *flag], 0, classify))

    def period(out):
        p = o.period(target)
        got = out.strip() if machine else _line_value(out, "période minimale:").split()[0]
        expect(got == str(p), "period differs")

    ops.append(CliOp(["pcset", "period", text, *flag], 0, period))

    def truncated(out):
        flag_ = o.truncated(target)
        got = out.strip() if machine else _line_value(out, "mode tronqué:")
        expect(got == (json.dumps(flag_) if machine else _oui(flag_)), "truncated differs")

    ops.append(CliOp(["pcset", "truncated", text, *flag], 0, truncated))

    def enumerate_(out):
        masks = o.limited_masks()
        if machine:
            got = [o.mask(int(x) for x in line.split()) for line in out.split("\n")[:-1]]
            expect(got == masks, "enumerate differs")
            return
        lines = _lines(out)
        expect(lines[0].startswith(f"{len(masks)} ensembles") and len(lines) == len(masks) + 1, "enumerate count")
        for line, m in zip(lines[1:], masks):
            pcs = " ".join(str(x) for x in o.members(m)) or "(ensemble vide)"
            tail = " — dégénéré" if m in (0, o.FULL) else ""
            expect(line == f"  {pcs} — période {o.period(m)}{tail}", "enumerate line differs")

    for _ in range(ENUMERATE_CALLS_PER_FORMAT):
        ops.append(CliOp(["pcset", "enumerate", *flag], 0, enumerate_))
    return ops


def _perm_ops(rng: random.Random, fmt: str) -> list[CliOp]:
    machine = fmt == "machine"
    flag = ["--format", fmt]
    ops = []
    mapping = list(range(rng.randint(4, 12)))
    rng.shuffle(mapping)
    text = " ".join(str(i + 1) for i in mapping)

    def order(out):
        got = out.strip() if machine else _line_value(out, "ordre =")
        expect(got == str(o.order(mapping)), "order differs")

    ops.append(CliOp(["perm", "order", text, *flag], 0, order))

    def cycles(out):
        ref = o.cycles(mapping)
        if machine:
            expect(json.loads(out) == {"cycles": [[i + 1 for i in c] for c in ref], "order": o.order(mapping)},
                   "cycles differ")
        else:
            rendered = "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in ref)
            expect(_line_value(out, "cycles:") == rendered, "cycles differ")

    ops.append(CliOp(["perm", "cycles", text, *flag], 0, cycles))

    n = rng.randint(3, 12)
    direction = rng.choice(("left", "right"))
    fan = o.fan_mapping(n, direction)

    def fan_(out):
        images = " ".join(str(i + 1) for i in fan)
        if machine:
            expect(out.strip() == images, "fan differs")
            return
        expect(_line_value(out, "permutation:") == images, "fan differs")
        rows = [tuple(int(x) for x in line.split(":")[1].split()) for line in _lines(out) if re.match(r"  \d+:", line)]
        o.check_orbit(fan, range(1, n + 1), rows)
        expect(_line_value(out, "ordre =").split()[0] == str(o.order(fan)), "fan order differs")

    ops.append(CliOp(["perm", "fan", str(n), "--direction", direction, *flag], 0, fan_))

    use_chrono = rng.random() < 0.5

    def orbit(out):
        lines = _lines(out)
        if not machine:
            order_line = lines.pop()
            lines = [line.split(":", 1)[1] for line in lines]
        rows = [tuple(o.parse_durations(line)[0]) for line in lines]
        # With --chronochromie the permutation is read off the first row,
        # which is the chromatic scale 1..32 read through it.
        orbit_map = [int(d) - 1 for d in rows[0]] if use_chrono else mapping
        expect(sorted(orbit_map) == list(range(len(orbit_map))), "first orbit row is not a permutation")
        o.check_orbit(orbit_map, [Fraction(i) for i in range(1, len(orbit_map) + 1)], rows)
        expect(not use_chrono or len(rows) == 36, "Chronochromie orbit is not of order 36")
        expect(machine or order_line == f"ordre = {len(rows)}", "orbit order line differs")

    ops.append(CliOp(["perm", "orbit", *(["--chronochromie"] if use_chrono else [text]), *flag], 0, orbit))

    size = rng.randint(10, 300)

    def count(out):
        got = out.strip() if machine else _line_value(out, f"{size}! =")
        expect(got == str(math.factorial(size)), "count differs")

    ops.append(CliOp(["perm", "count", str(size), *flag], 0, count))
    return ops


def _catalog_ops(rng: random.Random, fmt: str, data_dir: Path) -> list[CliOp]:
    machine = fmt == "machine"
    flag = ["--format", fmt]
    ops = []
    rows = {name: o.read_catalog((data_dir / f"{name}.cat").read_text(encoding="utf-8"))
            for name in ("talas", "quatuor", "modes")}

    listed = rng.choice(("talas", "quatuor", "modes"))

    def list_(out):
        ref = rows[listed]
        if not machine:
            expect(len(_lines(out)) == len(ref), "catalog list length")
            return
        got = o.read_catalog(out)
        expect([r[:3] + r[4:] for r in got] == [r[:3] + r[4:] for r in ref], "catalog list fields differ")
        for g, r in zip(got, ref):
            if listed == "modes":
                expect(set(g[3].split()) == set(r[3].split()), "mode members differ")
            else:
                expect(o.parse_durations(g[3]) == o.parse_durations(r[3]), "catalog durations differ")

    ops.append(CliOp(["catalog", "list", "--which", listed, *flag], 0, list_))

    which = rng.choice(("talas", "quatuor"))
    entries = rows[which]
    one = rng.choice([None, rng.choice(entries)[0]])
    chosen = [r for r in entries if one is None or r[0] == one]

    def analyze(out):
        refs = [{"id": r[0], **o.analysis(o.parse_durations(r[3])[0])} for r in chosen]
        if machine:
            expect(json.loads(out) == refs, "catalog analyze differs")
        else:
            ids = [int(line[4:]) for line in _lines(out) if line.startswith("id: ")]
            totals = [line.split(": ", 1)[1] for line in _lines(out) if line.startswith("durée totale: ")]
            expect(ids == [r["id"] for r in refs] and totals == [r["total"] for r in refs], "catalog analyze differs")

    ops.append(CliOp(["catalog", "analyze", "--which", which, *(["--id", str(one)] if one else []), *flag], 0, analyze))

    which = rng.choice(("talas", "quatuor"))
    pred = rng.choice(o.PREDICATE_NAMES)

    def filter_(out):
        ref = [r[0] for r in rows[which] if o.predicate(o.analysis(o.parse_durations(r[3])[0]), pred)]
        got = [r[0] for r in o.read_catalog(out)] if machine else [int(line.split(":")[0]) for line in _lines(out) if line]
        expect(got == ref, "catalog filter differs")

    ops.append(CliOp(["catalog", "filter", pred, "--which", which, *flag], 0, filter_))
    return ops


def _fault_op(argv, rc) -> CliOp:
    def check(out):
        if argv[1] == "count":
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                expected = f"2000! = {math.factorial(2000)}"
            finally:
                sys.set_int_max_str_digits(limit)
            expect(out.strip() == expected, "count differs")

    return CliOp(argv, rc, check, known_fault=True)


def build(seed: int, data_dir: Path) -> list[CliOp]:
    """One round of the cli mix for this seed: 47 operations."""
    rng = random.Random(f"cli/{seed}")
    ops = []
    for fmt in ("human", "machine"):
        ops += _rhythm_ops(rng, fmt) + _pcset_ops(rng, fmt) + _perm_ops(rng, fmt) + _catalog_ops(rng, fmt, data_dir)
    return ops + [_fault_op(argv, rc) for argv, rc in FAULTS]

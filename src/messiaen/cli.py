"""Command-line front end.

Human output is 1-based and French-labeled; ``--format machine`` emits
the canonical text form of the result (rhythm, pitch-class or
permutation text, re-readable by the corresponding parser) or JSON for
structured reports.  Exit codes: 0 success, 2 parse error, 3 domain
error.

Handlers reach modules through the package, which imports each one on
first use, so that one call loads only what its action needs.  The
command line is described once, in ``SPEC``: ``read_argv`` reads a
well-formed argv from it without argparse, and the argparse parser that
``build_parser`` builds from it reads every other argv and writes every
help, usage and error text.
"""

from __future__ import annotations

import sys

import messiaen

from .errors import DomainError, ParseError, digit_bound, oui

MACHINE = "machine"
# The names of catalog.PREDICATES, for the parser of `catalog filter`.
PREDICATES = ("augchain", "interleave", "nonretro", "prime")

# `perm count` prints n! in full up to this n (77 338 digits), so that
# the conversion to decimal text stays well under a second.
COUNT_MAX = 20_000


def _rhythm_arg(args):
    r = messiaen.rhythm.parse_rhythm(args.rhythm_text)
    return messiaen.rhythm.Rhythm._trusted(r.durations, args.unit) if args.unit and not r.unit else r


def _rhythm_result(r, machine: bool, label: str) -> str:
    return f"{messiaen.rhythm.format_rhythm(r)}\n" if machine else f"{label}: {messiaen.rhythm.format_rhythm(r)}\n"


def _json(value) -> str:
    import json

    return json.dumps(value, ensure_ascii=False) + "\n"


def _lines(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _int_flag(text: str) -> int:
    """``type=int`` of every flag: ``int`` of ASCII text, so ``+5``, ``-1`` and
    ``1_0`` read; a non-ASCII digit such as ``١`` is a ParseError (exit 2), and
    so is text of more than ``digit_bound()`` digits, under any int-to-str limit."""
    if not text.isascii():
        raise ParseError(f"not an ASCII integer: {text!r}")
    bound = digit_bound()
    if len(text) > bound and (digits := sum(map(str.isdigit, text))) > bound:
        raise ParseError(f"integer of {digits} digits, more than {bound}")
    return int(text)


def _decimal(n: int) -> str:
    """Decimal text of a nonnegative int of any size, converted in chunks of ``digit_bound()`` digits."""
    digits = digit_bound()
    high, low = divmod(n, 10**digits)
    return _decimal(high) + str(low).zfill(digits) if high else str(low)


# --- rhythm ----------------------------------------------------------------


def _cmd_rhythm_analyze(args, machine: bool) -> str:
    r = _rhythm_arg(args)
    report = messiaen.catalog.analyze_rhythm(r)
    if machine:
        return _json(messiaen.catalog.report_to_dict(report))
    return messiaen.catalog.render_report(report, rhythm=r) + "\n"


def _cmd_rhythm_retrograde(args, machine: bool) -> str:
    return _rhythm_result(messiaen.rhythm.retrograde(_rhythm_arg(args)), machine, "rétrograde")


def _cmd_rhythm_augment(args, machine: bool) -> str:
    ratio = messiaen.rhythm.as_fraction(args.ratio)
    out = messiaen.rhythm.augment(_rhythm_arg(args), ratio)
    kind = messiaen.rhythm.augmentation_kind(ratio)
    label = "identité" if kind == "identity" else kind
    return _rhythm_result(out, machine, f"{label} (rapport {messiaen.rhythm.format_values([ratio])})")


def _cmd_rhythm_amplify(args, machine: bool) -> str:
    core = _rhythm_arg(args)
    wing = messiaen.rhythm.parse_rhythm(args.wing)
    return _rhythm_result(messiaen.rhythm.symmetric_amplification(core, wing), machine, "amplification symétrique")


def _cmd_rhythm_eliminate(args, machine: bool) -> str:
    out = messiaen.rhythm.eliminate_extremes(_rhythm_arg(args), args.count)
    return _rhythm_result(out, machine, f"extrêmes éliminés (k={args.count})")


def _cmd_rhythm_central(args, machine: bool) -> str:
    out = messiaen.rhythm.scale_central(_rhythm_arg(args), messiaen.rhythm.as_fraction(args.ratio))
    return _rhythm_result(out, machine, "valeur centrale modifiée")


def _parse_voice(text: str) -> tuple[str, str]:
    delay, sep, ratio = text.partition(":")
    if not sep or not delay or not ratio:
        raise ParseError(f"voice must be DELAY:RATIO, got {text!r}")
    return delay, ratio


def _cmd_rhythm_canon(args, machine: bool) -> str:
    subject = _rhythm_arg(args)
    voices = [_parse_voice(v) for v in args.voice]
    sched = messiaen.rhythm.build_canon(subject, voices)
    heads = [messiaen.rhythm.format_values([v.delay, v.ratio, v.end]).split() for v in sched.voices]
    onsets = [messiaen.rhythm.format_values(v.onsets).split(" ") for v in sched.voices]
    # A voice's events come in the order of its onsets, so each event's time is its voice's next word.
    readers = [iter(words) for words in onsets]
    times = [next(readers[v]) for _, v, _ in sched.events]
    if machine:
        durations = messiaen.rhythm.format_values(d for _, _, d in sched.events).split()
        return _json({
            "subject": messiaen.rhythm.format_rhythm(subject),
            "voices": [{"delay": d, "ratio": q, "onsets": o, "end": e} for (d, q, e), o in zip(heads, onsets)],
            "events": [[t, i + 1, d] for t, (_, i, _), d in zip(times, sched.events, durations)],
        })
    lines = [f"voix {i}: départ {d}, rapport {q}, attaques {' '.join(o)}, fin {e}"
             for i, ((d, q, e), o) in enumerate(zip(heads, onsets), start=1)]
    merged = "  ".join(f"{t} (voix {i + 1})" for t, (_, i, _) in zip(times, sched.events))
    return _lines(lines + [f"événements: {merged}"])


# --- pcset -----------------------------------------------------------------


def _cmd_pcset_classify(args, machine: bool) -> str:
    s = messiaen.z12.parse_pcset(args.pcset_text)
    mode = messiaen.z12.classify_mode(s)
    if machine:
        return _json(None if mode is None else {"mode": mode.number, "offset": mode.offset, "period": mode.period})
    if mode is not None:
        return f"Mode {mode.number}, transposition {mode.offset + 1} (sur {mode.period})\n"
    if not messiaen.z12.is_degenerate(s) and messiaen.z12.detect_truncated(s):
        return "aucun mode catalogué (mode tronqué)\n"
    return "aucun mode catalogué\n"


def _cmd_pcset_period(args, machine: bool) -> str:
    s = messiaen.z12.parse_pcset(args.pcset_text)
    period = messiaen.z12.minimal_period(s)
    if machine:
        return f"{period}\n"
    line = f"période minimale: {period} — {period} transpositions distinctes"
    line += f" — transpositions limitées: {oui(period < 12)}"
    if messiaen.z12.is_degenerate(s):
        line += " — ensemble dégénéré"
    return line + "\n"


def _cmd_pcset_enumerate(args, machine: bool) -> str:
    sets = messiaen.z12.enumerate_limited()
    if machine:
        return _lines(messiaen.z12.format_pcset(s) for s in sets)
    lines = [f"{len(sets)} ensembles à transpositions limitées (dégénérés inclus)"]
    for s in sets:
        text = messiaen.z12.format_pcset(s) or "(ensemble vide)"
        extra = " — dégénéré" if messiaen.z12.is_degenerate(s) else ""
        lines.append(f"  {text} — période {messiaen.z12.minimal_period(s) if s else 1}{extra}")
    return _lines(lines)


def _cmd_pcset_truncated(args, machine: bool) -> str:
    truncated = messiaen.z12.detect_truncated(messiaen.z12.parse_pcset(args.pcset_text))
    return _json(truncated) if machine else f"mode tronqué: {oui(truncated)}\n"


# --- perm ------------------------------------------------------------------


def _perm_arg(args):
    if args.chronochromie and args.perm_text:
        raise ParseError("give either a permutation or --chronochromie, not both")
    if args.chronochromie:
        return messiaen.perm.chronochromie()
    if args.perm_text:
        return messiaen.perm.parse_perm(args.perm_text)
    raise ParseError("a permutation (1-based images) or --chronochromie is required")


def _cmd_perm_order(args, machine: bool) -> str:
    order = _perm_arg(args).order()
    return f"{order}\n" if machine else f"ordre = {order}\n"


def _cmd_perm_cycles(args, machine: bool) -> str:
    p = _perm_arg(args)
    cycles = p.cycles()
    if machine:
        return _json({"cycles": [[i + 1 for i in c] for c in cycles], "order": p.order()})
    rendered = "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles)
    return f"cycles: {rendered}\nordre = {p.order()}\n"


def _cmd_perm_fan(args, machine: bool) -> str:
    p = messiaen.perm.fan(args.size, direction=args.direction)
    if machine:
        return messiaen.perm.format_perm(p) + "\n"
    side = "gauche" if args.direction == "left" else "droite"
    base = messiaen.perm.format_perm(messiaen.perm.identity(args.size))
    table = messiaen.perm.orbit_table(p, base.split(" "))
    return _lines([
        f"éventail sur {args.size} objets (du centre vers les extrêmes, départ à {side})",
        f"permutation: {messiaen.perm.format_perm(p)}",
        f"suites itérées depuis {base}:",
        *(f"  {i}: {' '.join(row)}" for i, row in enumerate(table.rows, start=1)),
        f"ordre = {table.order} "
        f"(la liste compte {table.order + 1} suites quand on répète la suite initiale à la fin)",
    ])


def _cmd_perm_orbit(args, machine: bool) -> str:
    p = _perm_arg(args)
    # Distinct values have distinct words, so each row is a reading of the base's words.
    if args.base:
        words = messiaen.rhythm.format_values(messiaen.rhythm.parse_rhythm(args.base).durations).split(" ")
    else:  # the chromatic durations 1..n, written as the fan writes its base
        words = messiaen.perm.format_perm(messiaen.perm.identity(len(p))).split(" ")
    table = messiaen.perm.orbit_table(p, words, cap=messiaen.perm.DEFAULT_ORBIT_CAP if args.cap is None else args.cap)
    rows = [" ".join(row) for row in table.rows]
    if machine:
        return _lines(rows)
    return _lines([f"{i}: {row}" for i, row in enumerate(rows, start=1)] + [f"ordre = {table.order}"])


def _cmd_perm_count(args, machine: bool) -> str:
    if args.size > COUNT_MAX:
        raise DomainError(f"n! is printed for n up to {COUNT_MAX}, got {args.size}")
    count = _decimal(messiaen.perm.permutation_count(args.size))
    return f"{count}\n" if machine else f"{args.size}! = {count}\n"


# --- catalog ---------------------------------------------------------------


def _catalog_entries(args) -> list:
    return getattr(messiaen.catalog, f"seed_{args.which}")(args.data)


def _cmd_catalog_list(args, machine: bool) -> str:
    entries = _catalog_entries(args)
    if args.which == "modes":
        if machine:
            return messiaen.catalog.serialize_modes(entries)
        return _lines(f"{m.number}. {m.name} — {m.gloss} — {messiaen.z12.format_pcset(m.members)}" for m in entries)
    if machine:
        return messiaen.catalog.serialize_catalog(entries)
    lines = []
    for e in entries:
        label = f" — {e.name}" if e.name else ""
        gloss = f" ({e.gloss})" if e.gloss else ""
        lines.append(f"{e.id}{label}{gloss}: {messiaen.rhythm.format_rhythm(e.rhythm)}")
    return _lines(lines)


def _select_entries(args) -> list:
    entries = _catalog_entries(args)
    if args.id is not None:
        entries = [e for e in entries if e.id == args.id]
        if not entries:
            raise DomainError(f"no entry with id {args.id}")
    return entries


def _cmd_catalog_analyze(args, machine: bool) -> str:
    entries = _select_entries(args)
    reports = [messiaen.catalog.analyze_entry(e) for e in entries]
    if machine:
        return messiaen.catalog.reports_to_json(reports) + "\n"
    blocks = [messiaen.catalog.render_report(report, rhythm=entry.rhythm) for entry, report in zip(entries, reports)]
    return "\n\n".join(blocks) + "\n"


def _cmd_catalog_filter(args, machine: bool) -> str:
    entries = messiaen.catalog.filter_catalog(_catalog_entries(args), args.predicate)
    if machine:
        return messiaen.catalog.serialize_catalog(entries)
    return _lines(f"{e.id}: {messiaen.rhythm.format_rhythm(e.rhythm)}" for e in entries)


# --- the command line, once ------------------------------------------------


def _arg(name: str, kind: str = "option", **keywords) -> tuple:
    """One argument of the spec.  Its kind is "positional" (required, or with
    ``nargs="?"`` optional), "option" (``--name VALUE``), "flag" (``--name``, True
    when given) or "append" (``--name VALUE``, repeatable); its keywords are
    argparse's: choices, default, required, type, nargs, metavar and help."""
    return name, kind, keywords


FORMAT = _arg("--format", choices=("human", MACHINE), default="human", help="human (default) or machine-readable output")
RHYTHM_IN = (FORMAT, _arg("--unit", default="", help="unit label for rhythms given without @unit="),
             _arg("rhythm_text", "positional", metavar="RHYTHM", help="durations, e.g. '2 1 2' or '1 1 3/2'"))
PCSET_IN = (FORMAT, _arg("pcset_text", "positional", metavar="PCSET", help="e.g. '0 1 3 4' or 'C C# Eb E'"))
PERM_IN = (FORMAT, _arg("perm_text", "positional", nargs="?", metavar="PERM", help="1-based images, e.g. '2 1 3'"),
           _arg("--chronochromie", "flag", help="use the 32-duration interversion"))
SIZE = _arg("size", "positional", type=int, metavar="N")


# Each --which choice names its catalog's loader, catalog.seed_<which>.
def _catalog_in(*extra, which=("talas", "quatuor")) -> tuple:
    return (FORMAT, _arg("--which", choices=which, default="talas", help="catalog to use"),
            _arg("--data", metavar="DIR", help="directory overriding the shipped data files"), *extra)


# Each verb's help and actions; each action's help and arguments.  The handler of
# an action is the module's function ``_cmd_<verb>_<action>``.
SPEC = {
    "rhythm": ("duration-sequence operations", {
        "analyze": ("palindrome, total, primality, chains", RHYTHM_IN),
        "retrograde": ("read the durations backwards", RHYTHM_IN),
        "augment": ("multiply all durations by a ratio",
                    (*RHYTHM_IN, _arg("--ratio", required=True, help="positive rational, e.g. 2 or 3/2"))),
        "amplify": ("wing + core + retrograde of wing",
                    (*RHYTHM_IN, _arg("--wing", required=True, metavar="RHYTHM", help="wing durations"))),
        "eliminate": ("strip k durations from each end",
                      (*RHYTHM_IN, _arg("--count", type=int, required=True, metavar="K"))),
        "central": ("scale the middle duration", (*RHYTHM_IN, _arg("--ratio", required=True, help="positive rational"))),
        "canon": ("onset schedule for delayed/scaled voices",
                  (*RHYTHM_IN, _arg("--voice", "append", default=[], metavar="DELAY:RATIO",
                                    help="one voice, e.g. 0:1 or 1:3/2 (repeatable)"))),
    }),
    "pcset": ("pitch-class set operations", {
        "classify": ("identify a catalogued mode and transposition", PCSET_IN),
        "period": ("minimal translation period", PCSET_IN),
        "enumerate": ("all limited-transposition subsets", (FORMAT,)),
        "truncated": ("limited transposition but not a catalogued mode", PCSET_IN),
    }),
    "perm": ("permutation operations", {
        "order": ("smallest power returning the identity", PERM_IN),
        "cycles": ("disjoint cycle decomposition", PERM_IN),
        "fan": ("center-outward reading of n objects",
                (FORMAT, SIZE, _arg("--direction", choices=("left", "right"), default="left"))),
        "orbit": ("iterate on a duration scale until it returns", (
            *PERM_IN, _arg("--base", metavar="RHYTHM", help="base sequence (default: chromatic durations 1..n)"),
            _arg("--cap", type=int, help="iteration hard cap"))),
        "count": ("number of permutations of n objects", (FORMAT, SIZE)),
    }),
    "catalog": ("seed-data catalogs and reports", {
        "list": ("list entries", _catalog_in(which=("talas", "quatuor", "modes"))),
        "analyze": ("per-entry analysis reports", _catalog_in(_arg("--id", type=int, help="restrict to one entry id"))),
        "filter": ("entries whose report satisfies a predicate", _catalog_in(
            _arg("predicate", "positional", choices=PREDICATES, metavar="PREDICATE", help=", ".join(PREDICATES)))),
    }),
}
_parser = None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``SPEC``, built once per process.  It reads every
    argv that ``read_argv`` leaves, and writes every help, usage and error text."""
    global _parser
    if _parser is None:
        import argparse

        _parser = argparse.ArgumentParser(
            prog="messiaen",
            description="Non-retrogradable rhythms, modes of limited transposition, symmetric permutations.",
        )
        verbs = _parser.add_subparsers(dest="verb", required=True)
        for verb, (verb_help, actions) in SPEC.items():
            subs = verbs.add_parser(verb, help=verb_help).add_subparsers(dest="action", required=True)
            for action, (help_, arguments) in actions.items():
                sub = subs.add_parser(action, help=help_)
                sub.register("type", int, _int_flag)
                for name, kind, keywords in arguments:
                    sub.add_argument(name, action={"flag": "store_true", "append": "append"}.get(kind), **keywords)
    return _parser


class _Args:
    """The namespace that argparse gives, built without it."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def _value(keywords: dict, text: str):
    """An argument's value read from its text, or None where argparse could say otherwise."""
    choices = keywords.get("choices")
    if text.startswith("-") or (choices and text not in choices):
        return None
    if keywords.get("type") is not int:
        return text
    try:
        return _int_flag(text)
    except (ValueError, ParseError):
        return None


def read_argv(argv: list[str]) -> _Args | None:
    """The namespace of ``build_parser().parse_args(argv)``, read from ``SPEC``
    without argparse; None for any argv whose namespace it cannot be sure of.

    It reads the verb and the action first, then exact long option names, each
    as ``--name VALUE`` or ``--name=VALUE``; no ``-h``, no ``--``, no value or
    positional that starts with ``-``, no option but an append one given twice,
    every required argument present and every choice and integer valid.
    """
    if len(argv) < 2 or argv[1] not in SPEC.get(argv[0], ("", {}))[1]:
        return None
    verb, action, *tokens = argv
    values = {"verb": verb, "action": action}
    arguments, positionals, required, given = {}, [], set(), set()
    for name, kind, keywords in SPEC[verb][1][action][1]:
        arguments[name] = kind, keywords
        values[name.removeprefix("--")] = False if kind == "flag" else keywords.get("default")
        if keywords.get("required", kind == "positional" and keywords.get("nargs") != "?"):
            required.add(name)
        if kind == "positional":
            positionals.append(name)
    positionals, tokens = iter(positionals), iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            name, eq, text = token.partition("=")
        else:
            name, eq, text = next(positionals, None), "", token
        kind, keywords = arguments.get(name, (None, None))
        if kind is None or (name in given and kind != "append") or (kind == "flag" and eq):
            return None
        given.add(name)
        if kind in ("option", "append") and not eq:
            text = next(tokens, "-")  # "-": the option ends argv
        value = True if kind == "flag" else _value(keywords, text)
        if value is None:
            return None
        dest = name.removeprefix("--")
        values[dest] = values[dest] + [value] if kind == "append" else value
    return _Args(values) if required <= given else None


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code.

    ``read_argv`` reads a well-formed argv; argparse reads every other one.
    The handler is the module's function ``_cmd_<verb>_<action>`` at the
    time of the call, so that a wrapper put on it after import runs.

    The only writer of stdout: a handler returns its output text, and
    the text is printed only once the handler has succeeded.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = read_argv(argv) or build_parser().parse_args(argv)
        text = globals()[f"_cmd_{args.verb}_{args.action}"](args, args.format == MACHINE)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ParseError, OSError) as exc:
        print(f"erreur de lecture: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"erreur: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

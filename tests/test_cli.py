import json
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from messiaen import catalog as cat
from messiaen import cli as cli_module
from messiaen import perm as pm
from messiaen import z12
from messiaen.cli import COUNT_MAX, build_parser, call, run
from messiaen.errors import DomainError
from messiaen.rhythm import (
    augment,
    build_canon,
    eliminate_extremes,
    format_rhythm,
    format_values,
    parse_rhythm,
    retrograde,
    rhythm,
    scale_central,
    symmetric_amplification,
)


@pytest.fixture()
def cli():
    return lambda *argv: call(list(argv))


# --- exit code contract ------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["rhythm", "analyze", "2 1 2"],  # success
    ["rhythm", "analyze", "1.5"],  # parse error
    ["rhythm", "central", "--ratio", "2", "1 1"],  # domain error
    ["perm", "--help"],
    ["perm", "fan"],  # argparse usage error
])
def test_run_writes_what_call_returns(capsys, argv):
    code = run(argv)
    assert (code, *capsys.readouterr()) == call(argv)


def test_success_produces_no_stderr(cli):
    code, out, err = cli("rhythm", "analyze", "2 1 2")
    assert code == 0 and out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("frobnicate",),
        ("rhythm", "transmogrify", "1"),
        ("rhythm", "analyze", "1.5"),
        ("rhythm", "analyze", ""),
        ("pcset", "period", "12"),
        ("perm", "order", "1 1"),
        ("perm", "order"),
        ("perm", "order", "2 1", "--chronochromie"),
        ("catalog", "filter", "syncopated"),
        ("catalog", "list", "--data", "/nonexistent-dir"),
    ],
)
def test_parse_errors_exit_2(cli, argv):
    code, out, err = cli(*argv)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("rhythm", "central", "--ratio", "2", "1 1"),
        ("rhythm", "eliminate", "--count", "5", "1 2 3"),
        ("rhythm", "augment", "--ratio", "0", "1 2"),
        ("rhythm", "canon", "1 2 3"),
        ("pcset", "truncated", "0 1 2 3 4 5 6 7 8 9 10 11"),
        ("perm", "orbit", "--chronochromie", "--cap", "10"),
        ("perm", "count", "--", "-1"),
        ("catalog", "analyze", "--id", "999"),
    ],
)
def test_domain_errors_exit_3(cli, argv):
    code, out, err = cli(*argv)
    assert code == 3
    assert err != ""


# --- human output ------------------------------------------------------------


def test_classify_human(cli):
    code, out, _ = cli("pcset", "classify", "0 1 3 4 6 7 9 10")
    assert code == 0
    assert out.strip() == "Mode 2, transposition 1 (sur 3)"
    code, out, _ = cli("pcset", "classify", "1 2 4 5 7 8 10 11")
    assert out.strip() == "Mode 2, transposition 2 (sur 3)"
    code, out, _ = cli("pcset", "classify", "0 1 6 7")
    assert out.strip() == "aucun mode catalogué (mode tronqué)"


def test_analyze_human_uses_french_labels(cli):
    code, out, _ = cli("rhythm", "analyze", "3 5 8 5 3")
    assert "non rétrogradable: oui" in out
    assert "durée totale: 24" in out


def test_fan_report_documents_order_and_suite_count(cli):
    code, out, _ = cli("perm", "fan", "4")
    assert code == 0
    assert "ordre = 3" in out
    assert "4 suites" in out
    assert "  1: 2 3 1 4" in out
    assert "  2: 3 1 2 4" in out
    assert "  3: 1 2 3 4" in out


def test_orbit_human_prints_rows_then_order(cli):
    code, out, _ = cli("perm", "orbit", "--chronochromie")
    lines = out.strip().splitlines()
    assert len(lines) == 37
    assert lines[0].startswith("1: 3 28 5 30 7 32 26 2")
    assert lines[-1] == "ordre = 36"


def test_unit_flag_attaches_label(cli):
    code, out, _ = cli(
        "rhythm", "retrograde", "--unit", "double croche", "--format", "machine", "2 2 1"
    )
    assert out.strip() == "1 2 2 @unit=double croche"


# --- golden matrix: machine output re-parses to the library result ----------


RHYTHM_CASES = [
    (("rhythm", "retrograde", "2 2 1"), retrograde(rhythm([2, 2, 1]))),
    (("rhythm", "retrograde", "3 5 8 5 3"), retrograde(rhythm([3, 5, 8, 5, 3]))),
    (("rhythm", "augment", "--ratio", "2", "1 1 1"), augment(rhythm([1, 1, 1]), 2)),
    (("rhythm", "augment", "--ratio", "3/2", "2 1 2"), augment(rhythm([2, 1, 2]), "3/2")),
    (("rhythm", "augment", "--ratio", "1/2", "4 4 2"), augment(rhythm([4, 4, 2]), "1/2")),
    (
        ("rhythm", "amplify", "--wing", "2 2", "2 1 2"),
        symmetric_amplification(rhythm([2, 1, 2]), rhythm([2, 2])),
    ),
    (
        ("rhythm", "amplify", "--wing", "2 3/2 2", "2 1 2"),
        symmetric_amplification(rhythm([2, 1, 2]), rhythm([2, "3/2", 2])),
    ),
    (
        ("rhythm", "eliminate", "--count", "2", "2 2 2 1 2 2 2"),
        eliminate_extremes(rhythm([2, 2, 2, 1, 2, 2, 2]), 2),
    ),
    (
        ("rhythm", "eliminate", "--count", "2", "3 5 8 5 3"),
        eliminate_extremes(rhythm([3, 5, 8, 5, 3]), 2),
    ),
    (("rhythm", "central", "--ratio", "3", "2 1 2"), scale_central(rhythm([2, 1, 2]), 3)),
    (
        ("rhythm", "central", "--ratio", "1/2", "1 2 3 2 1"),
        scale_central(rhythm([1, 2, 3, 2, 1]), "1/2"),
    ),
]


@pytest.mark.parametrize("argv,expected", RHYTHM_CASES)
def test_machine_rhythm_round_trips(cli, argv, expected):
    code, out, err = cli(*argv, "--format", "machine")
    assert code == 0 and err == ""
    assert parse_rhythm(out.strip()) == expected


ANALYZE_CASES = ["2 1 2", "4 4 2 2 1 1", "1 1 1 3/2", "1 3 2 3 3 3 2 3 1 3"]


@pytest.mark.parametrize("text", ANALYZE_CASES)
def test_machine_analyze_matches_library(cli, text):
    code, out, _ = cli("rhythm", "analyze", text, "--format", "machine")
    assert code == 0
    assert json.loads(out) == cat.report_to_dict(cat.analyze_rhythm(parse_rhythm(text)))


def test_machine_canon_matches_library(cli):
    code, out, _ = cli(
        "rhythm", "canon", "--voice", "0:1", "--voice", "1:3/2", "2 1 2",
        "--format", "machine",
    )
    sched = build_canon(rhythm([2, 1, 2]), [(0, 1), (1, "3/2")])
    payload = json.loads(out)
    assert payload["voices"][1]["onsets"] == [str(t) for t in sched.voices[1].onsets]
    assert payload["events"] == [[str(t), i + 1, str(d)] for t, i, d in sched.events]


CLASSIFY_CASES = [
    ("0 1 3 4 6 7 9 10", {"mode": 2, "offset": 0, "period": 3}),
    ("1 2 4 5 7 8 10 11", {"mode": 2, "offset": 1, "period": 3}),
    ("0 2 4 5 7 9 11", None),
]


@pytest.mark.parametrize("text,expected", CLASSIFY_CASES)
def test_machine_classify(cli, text, expected):
    code, out, _ = cli("pcset", "classify", text, "--format", "machine")
    assert code == 0
    assert json.loads(out) == expected


@pytest.mark.parametrize(
    "text,period", [("0 2 4 6 8 10", 2), ("0 1 3 4 6 7 9 10", 3), ("0 4 7", 12)]
)
def test_machine_period(cli, text, period):
    code, out, _ = cli("pcset", "period", text, "--format", "machine")
    assert int(out) == period == z12.minimal_period(z12.parse_pcset(text))


@pytest.mark.parametrize("text,expected", [("0 1 6 7", True), ("0 1 3 4 6 7 9 10", False)])
def test_machine_truncated(cli, text, expected):
    code, out, _ = cli("pcset", "truncated", text, "--format", "machine")
    assert json.loads(out) is expected


def test_machine_enumerate_matches_library(cli):
    code, out, _ = cli("pcset", "enumerate", "--format", "machine")
    lines = out.splitlines()
    expected = z12.enumerate_limited()
    assert len(lines) == len(expected) == 76
    # the empty set renders as an empty line
    got = [frozenset() if not line else z12.parse_pcset(line) for line in lines]
    assert got == expected


def test_machine_perm_order_and_count(cli):
    code, out, _ = cli("perm", "order", "--chronochromie", "--format", "machine")
    assert int(out) == 36
    code, out, _ = cli("perm", "order", "2 1 3", "--format", "machine")
    assert int(out) == 2
    code, out, _ = cli("perm", "count", "12", "--format", "machine")
    assert int(out) == pm.permutation_count(12)


def test_machine_cycles_matches_library(cli):
    code, out, _ = cli("perm", "cycles", "2 3 1 5 4", "--format", "machine")
    p = pm.parse_perm("2 3 1 5 4")
    payload = json.loads(out)
    assert payload["order"] == p.order() == 6
    assert payload["cycles"] == [[i + 1 for i in c] for c in p.cycles()]


def test_machine_fan_round_trips(cli):
    code, out, _ = cli("perm", "fan", "4", "--format", "machine")
    assert pm.parse_perm(out.strip()) == pm.fan(4)
    code, out, _ = cli("perm", "fan", "7", "--direction", "right", "--format", "machine")
    assert pm.parse_perm(out.strip()) == pm.fan(7, direction="right")


def test_machine_orbit_rows_match_library(cli):
    code, out, _ = cli("perm", "orbit", "--chronochromie", "--format", "machine")
    rows = [tuple(parse_rhythm(line).durations) for line in out.splitlines()]
    table = pm.orbit_table(pm.chronochromie(), pm.chromatic_durations(32).durations)
    assert tuple(rows) == table.rows


def test_machine_orbit_custom_base(cli):
    code, out, _ = cli(
        "perm", "orbit", "2 1 3", "--base", "5 7 11", "--format", "machine"
    )
    rows = [tuple(parse_rhythm(line).durations) for line in out.splitlines()]
    table = pm.orbit_table(pm.parse_perm("2 1 3"), parse_rhythm("5 7 11").durations)
    assert tuple(rows) == table.rows


def _orbit_by_values(perm_text, base_text, cap, machine):
    """`perm orbit` as first written, the values' table written row by row
    through the one writer: the reference."""
    try:
        table = pm.orbit_table(pm.parse_perm(perm_text), parse_rhythm(base_text).durations, cap=cap)
    except DomainError as exc:
        return 3, "", f"erreur: {exc}\n"
    rows = [format_values(row) for row in table.rows]
    if not machine:
        rows = [f"{i}: {row}" for i, row in enumerate(rows, start=1)] + [f"ordre = {table.order}"]
    return 0, "".join(f"{row}\n" for row in rows), ""


@st.composite
def orbit_calls(draw):
    """A permutation of 1-40 points and a base of distinct, repeated or
    all-equal values, each written with a random common factor (1/2 as
    2/4, 3 as 6/2)."""
    n = draw(st.integers(1, 40))
    perm_text = " ".join(map(str, draw(st.permutations(range(1, n + 1)))))
    value = st.builds(Fraction, st.integers(1, 60), st.integers(1, 8))
    kind = draw(st.sampled_from(["distinct", "repeated", "equal"]))
    if kind == "distinct":
        values = draw(st.lists(value, min_size=n, max_size=n, unique=True))
    else:
        pool = draw(st.lists(value, min_size=1, max_size=1 if kind == "equal" else 3))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    words = []
    for v in values:
        m = draw(st.integers(1, 3))
        words.append(f"{v.numerator * m}/{v.denominator * m}" if m > 1 or v.denominator > 1 else str(v))
    return perm_text, " ".join(words)


@settings(max_examples=200, deadline=None)
@given(orbit_calls(), st.integers(-2, 2) | st.none(), st.integers(-1, 1) | st.none(), st.booleans())
def test_orbit_text_matches_the_values_written_row_by_row(orbit, cap_offset, entry_offset, machine):
    # cap and entry bound are set on both sides of the orbit's length, so that
    # both refusals are compared too
    perm_text, base_text = orbit
    length = pm.orbit_table(pm.parse_perm(perm_text), parse_rhythm(base_text).durations).order
    cap = pm.DEFAULT_ORBIT_CAP if cap_offset is None else length + cap_offset
    entries = pm.MAX_TABLE_ENTRIES if entry_offset is None else length * len(base_text.split()) + entry_offset
    argv = ["perm", "orbit", "--base", base_text, perm_text, f"--cap={cap}",
            "--format", "machine" if machine else "human"]
    with mock.patch.object(pm, "MAX_TABLE_ENTRIES", entries):
        assert call(argv) == _orbit_by_values(perm_text, base_text, cap, machine)


def test_machine_catalog_list_round_trips(cli):
    code, out, _ = cli("catalog", "list", "--format", "machine")
    assert cat.load_catalog(out.splitlines()) == cat.seed_talas()
    code, out, _ = cli("catalog", "list", "--which", "quatuor", "--format", "machine")
    assert cat.load_catalog(out.splitlines()) == cat.seed_quatuor()
    code, out, _ = cli("catalog", "list", "--which", "modes", "--format", "machine")
    assert cat.load_modes(out.splitlines()) == cat.seed_modes()


def test_machine_catalog_filter_round_trips(cli):
    code, out, _ = cli("catalog", "filter", "augchain", "--format", "machine")
    entries = cat.load_catalog(out.splitlines())
    assert [e.id for e in entries] == [73, 115]
    assert entries == cat.filter_catalog(cat.seed_talas(), "augchain")


def test_machine_catalog_analyze_matches_library(cli):
    code, out, _ = cli("catalog", "analyze", "--id", "58", "--format", "machine")
    (entry,) = [e for e in cat.seed_talas() if e.id == 58]
    assert json.loads(out) == [cat.report_to_dict(cat.analyze_entry(entry))]
    code, out, _ = cli("catalog", "analyze", "--which", "quatuor", "--format", "machine")
    reports = json.loads(out)
    assert [r["id"] for r in reports] == list(range(1, 9))
    assert all(r["non_retrogradable"] for r in reports)


def test_data_dir_override(cli, tmp_path):
    (tmp_path / "talas.cat").write_text("7|essai||2 1 2\n", encoding="utf-8")
    code, out, _ = cli("catalog", "list", "--data", str(tmp_path), "--format", "machine")
    assert code == 0
    entries = cat.load_catalog(out.splitlines())
    assert len(entries) == 1 and entries[0].id == 7 and entries[0].name == "essai"


def test_golden_matrix_size():
    # the machine-format matrix above covers at least 30 distinct invocations
    total = (
        len(RHYTHM_CASES)
        + len(ANALYZE_CASES)
        + 1  # canon
        + len(CLASSIFY_CASES)
        + 3  # period
        + 2  # truncated
        + 1  # enumerate
        + 3  # order x2, count
        + 1  # cycles
        + 2  # fan
        + 2  # orbit
        + 3  # catalog list
        + 1  # catalog filter
        + 2  # catalog analyze
    )
    assert total >= 30


# --- inputs that ended in a traceback, a hang or a wrong acceptance ----------


LONG = "7" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("pcset", "period", "²"),
        ("perm", "order", "²"),
        ("rhythm", "analyze", "١ ٢ ١"),
        ("rhythm", "analyze", LONG),
        ("pcset", "period", LONG),
        ("perm", "order", LONG),
        ("rhythm", "eliminate", "--count", "١", "1 2 3"),
        ("catalog", "analyze", "--id", "١"),
        ("perm", "orbit", "--cap", "١", "2 1"),
        ("perm", "fan", "٣"),
        ("perm", "count", "١"),
    ],
)
def test_non_ascii_or_overlong_integers_exit_2(cli, argv):
    code, out, err = cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("erreur de lecture: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("rhythm", "eliminate", "--count", "+1", "1 2 3", "--format", "machine"), (0, "2\n")),
        (("rhythm", "eliminate", "--count", "-1", "1 2 3"), (3, "")),
        (("perm", "count", "1_0"), (0, "10! = 3628800\n")),
    ],
)
def test_integer_flags_read_sign_and_underscores(cli, argv, expected):
    code, out, _ = cli(*argv)
    assert (code, out) == expected


N = "9" * 4300
M = "9" * 4299 + "7"  # N - 2


@pytest.mark.parametrize(
    "argv",
    [
        ("rhythm", "augment", "--ratio", N, N),
        ("rhythm", "analyze", f"{N} {N}"),
        ("rhythm", "analyze", f"1/{N} 1/{M}"),
        ("rhythm", "canon", "--voice", f"0:{N}", f"{N} 1"),
        ("rhythm", "canon", "--voice", f"0:{N}", f"{N} 1", "--format", "machine"),
    ],
)
def test_results_past_the_digit_bound_exit_3(cli, argv):
    code, out, err = cli(*argv)
    assert code == 3 and out == ""
    assert err.startswith("erreur: ") and err.count("\n") == 1


def test_units_with_edge_white_space_are_refused(cli):
    code, out, err = cli("rhythm", "retrograde", "--format", "machine", "--unit", " x", "1 2")
    assert code == 3 and out == "" and err.count("\n") == 1
    code, out, _ = cli("rhythm", "retrograde", "--format", "machine", "--unit", "x y", "1 2")
    assert code == 0 and parse_rhythm(out) == rhythm([2, 1], unit="x y")


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_perm_count_prints_every_digit(cli, fmt):
    code, out, err = cli("perm", "count", "2000", "--format", fmt)
    assert code == 0 and err == ""
    *label, digits = out.split()
    assert label == (["2000!", "="] if fmt == "human" else []) and out.endswith("\n")
    assert len(digits) == 5736
    # read back in two pieces, each under the interpreter's digit limit
    assert int(digits[:2000]) * 10**3736 + int(digits[2000:]) == math.factorial(2000)


def test_perm_count_refuses_above_its_bound(cli):
    code, out, err = cli("perm", "count", str(COUNT_MAX + 1))
    assert code == 3 and out == "" and err.startswith("erreur: ")
    code, out, _ = cli("perm", "count", str(COUNT_MAX), "--format", "machine")
    assert code == 0 and len(out) > 77_000


def test_analyze_of_a_large_prime_total_is_quick(cli):
    start = time.perf_counter()
    code, out, _ = cli("rhythm", "analyze", "2305843009213693951")
    assert time.perf_counter() - start < 1
    assert code == 0 and "total premier: oui" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("rhythm", "analyze", "2 1 2"),
        ("pcset", "enumerate"),
        ("perm", "fan", "4"),
        ("catalog", "analyze", "--id", "58"),
        ("catalog", "list", "--which", "modes"),
    ],
)
@pytest.mark.parametrize("machine", [False, True])
def test_handlers_return_their_output_and_print_nothing(capsys, argv, machine):
    args = build_parser().parse_args(list(argv))
    text = getattr(cli_module, f"_cmd_{args.verb}_{args.action}")(args, machine)
    assert capsys.readouterr() == ("", "")
    run([*argv, "--format", "machine" if machine else "human"])
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "argv",
    [
        ("perm", "fan", "9" * 30),
        ("perm", "fan", "9" * 30, "--format", "machine"),
        ("perm", "fan", "100001", "--format", "machine"),
        ("perm", "fan", "3000"),  # 1284 rows of 3000 points, past the table-entry bound
    ],
)
def test_fans_past_their_bounds_exit_3(cli, argv):
    start = time.perf_counter()
    code, out, err = cli(*argv)
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err.startswith("erreur: ") and err.count("\n") == 1


def test_canon_past_the_event_bound_exits_3_at_once(cli):
    voices = [f"--voice={i}:1" for i in range(501)]  # 501 voices x 500 durations, one voice past the bound
    start = time.perf_counter()
    code, out, err = cli("rhythm", "canon", *voices, " ".join(["1"] * 500))
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err == "erreur: canon of 501 voices of 500 durations exceeds 250000 events\n"


def test_canon_past_the_digit_bound_exits_3_at_once(cli):
    # 400 voices of ten durations 1/(10**4299 + i): 4000 events over a denominator of
    # 43 000 digits, in a 47 kB argv; scheduled in full, the call took 8.5-9.6 s and 158 MB.
    voices = ["--voice", "0:1"] * 400
    subject = " ".join(f"1/{10**4299 + i}" for i in range(10))
    start = time.perf_counter()
    code, out, err = cli("rhythm", "canon", *voices, subject)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == ("erreur: canon of 400 voices of 10 durations exceeds 5000000 digits: its onsets' common"
                   " denominator, or its end over it, has more than 1250 digits\n")


def _canon_writing_every_event(subject_text, voices, machine):
    """`rhythm canon` as first written, every event time written again
    through the one writer: the reference."""
    subject = parse_rhythm(subject_text)
    sched = build_canon(subject, [tuple(v.split(":")) for v in voices])
    heads = [format_values([v.delay, v.ratio, v.end]).split() for v in sched.voices]
    onsets = [format_values(v.onsets) for v in sched.voices]
    times = format_values(t for t, _, _ in sched.events).split()
    if machine:
        durations = format_values(d for _, _, d in sched.events).split()
        return json.dumps({
            "subject": format_rhythm(subject),
            "voices": [{"delay": d, "ratio": q, "onsets": o.split(), "end": e} for (d, q, e), o in zip(heads, onsets)],
            "events": [[t, i + 1, d] for t, (_, i, _), d in zip(times, sched.events, durations)],
        }, ensure_ascii=False) + "\n"
    lines = [f"voix {i}: départ {d}, rapport {q}, attaques {o}, fin {e}"
             for i, ((d, q, e), o) in enumerate(zip(heads, onsets), start=1)]
    merged = "  ".join(f"{t} (voix {i + 1})" for t, (_, i, _) in zip(times, sched.events))
    return "".join(f"{line}\n" for line in lines + [f"événements: {merged}"])


@st.composite
def canon_calls(draw):
    """A subject of 1-8 durations with repeats, and 1-6 voices with
    fractional delays and ratios; small values make onsets of different
    voices coincide, and voices are often drawn from a pool of one or two,
    so that equal voices occur."""
    small = st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 2]))
    subject = draw(st.lists(small, min_size=1, max_size=8))
    voice = st.builds("{}:{}".format, st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 2])),
                      st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 2, 3])))
    if draw(st.booleans()):
        voice = st.sampled_from(draw(st.lists(voice, min_size=1, max_size=2)))
    return format_values(subject), draw(st.lists(voice, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(canon_calls(), st.booleans())
def test_canon_text_matches_every_event_written_again(canon, machine):
    subject_text, voices = canon
    argv = ["rhythm", "canon", *(f"--voice={v}" for v in voices), subject_text,
            "--format", "machine" if machine else "human"]
    assert call(argv) == (0, _canon_writing_every_event(subject_text, voices, machine), "")


@pytest.mark.parametrize("action", [["list"], ["analyze"], ["filter", "prime"]])
@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_data_that_is_not_utf8_exits_2(cli, tmp_path, action, fmt):
    (tmp_path / "talas.cat").write_bytes(b"1|a|b|2 1 2\n\xff|x|y|1\n")
    code, out, err = cli("catalog", *action, "--data", str(tmp_path), "--format", fmt)
    assert code == 2 and out == ""
    assert err == f"erreur de lecture: {tmp_path / 'talas.cat'}: not UTF-8 text (byte 12: invalid start byte)\n"


@pytest.mark.parametrize("fmt", ["human", "machine"])
def test_mode_line_of_five_cells_exits_2(cli, tmp_path, fmt):
    (tmp_path / "modes.cat").write_text("1|a|b|0 2 4 6 8 10\n2|c|d|0 6|note\n", encoding="utf-8")
    code, out, err = cli("catalog", "list", "--which", "modes", "--data", str(tmp_path), "--format", fmt)
    assert (code, out, err) == (2, "", "erreur de lecture: line 2: expected 4 |-separated fields, got 5\n")


@pytest.mark.parametrize("predicate", ["nonretro", "augchain", "interleave", "prime"])
def test_filter_decides_primality_only_for_prime(cli, tmp_path, predicate):
    # 3317044064679887385962003 is past rhythm.PRIME_BOUND and has no factor up to 41
    text = "1|a|b|3317044064679887385962003\n2|c|d|2 1 2\n"
    (tmp_path / "talas.cat").write_text(text, encoding="utf-8")
    code, out, err = cli("catalog", "filter", predicate, "--data", str(tmp_path))
    if predicate == "prime":
        assert code == 3 and out == "" and "primality is decided exactly only below" in err
    else:
        assert code == 0 and err == ""
        assert out == {"nonretro": "1: 3317044064679887385962003\n2: 2 1 2\n",
                       "augchain": "", "interleave": ""}[predicate]

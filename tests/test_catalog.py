import io
import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from messiaen import catalog, z12
from messiaen import rhythm as rh
from messiaen.catalog import (
    AnalysisReport,
    PREDICATES,
    ModeEntry,
    TalaEntry,
    analyze_entry,
    analyze_rhythm,
    filter_catalog,
    load_catalog,
    load_modes,
    render_report,
    report_to_dict,
    reports_to_json,
    seed_modes,
    seed_quatuor,
    seed_talas,
    serialize_catalog,
    serialize_modes,
)
from messiaen.errors import BadPredicate, DomainError, DuplicateId, ParseError
from messiaen.rhythm import (
    Rhythm,
    detect_augmentation_chain,
    interleave_profile,
    is_non_retrogradable,
    is_prime_total,
    rhythm,
    total_duration,
)

SEED_TALA_DURATIONS = {
    18: ("1", "1", "1", "3/2"),
    26: ("2", "2", "1", "1", "2", "2"),
    27: ("1", "3", "2", "3", "3", "3", "2", "3", "1", "3"),
    58: ("2", "1", "2"),
    73: ("1", "1", "1", "2", "2", "2"),
    80: ("1", "1", "2", "2", "1", "1"),
    99: ("1", "1", "1", "1"),
    105: ("2", "2", "2", "3", "3", "3", "1"),
    111: ("2", "1", "1", "1", "1", "2"),
    115: ("4", "4", "2", "2", "1", "1"),
}

QUATUOR_DURATIONS = [
    (3, 5, 8, 5, 3),
    (4, 3, 7, 3, 4),
    (2, 2, 3, 5, 3, 2, 2),
    (1, 1, 3, 2, 2, 1, 2, 2, 3, 1, 1),
    (2, 1, 1, 1, 3, 1, 1, 1, 2),
    (2, 1, 1, 1, 3, 1, 1, 1, 2),
    (1, 1, 1, 1, 1, 3, 1, 1, 1, 1, 1),
    (3, 5, 8, 5, 3),
]


def test_load_catalog_basic():
    entries = load_catalog(
        io.StringIO(
            "# comment\n"
            "\n"
            "58|nom|glose|2 1 2\n"
            "73|||1 1 1 2 2 2|une note\n"
        )
    )
    assert entries == [
        TalaEntry(58, "nom", "glose", rhythm([2, 1, 2])),
        TalaEntry(73, "", "", rhythm([1, 1, 1, 2, 2, 2]), "une note"),
    ]


def test_load_catalog_parses_exact_rationals():
    (entry,) = load_catalog(["18|gajalîla|jeu de l'éléphant|1 1 1 3/2"])
    assert entry.rhythm.durations[-1] == F(3, 2)


def test_load_catalog_empty_stream():
    assert load_catalog([]) == []
    assert load_catalog(["# only a comment"]) == []


@pytest.mark.parametrize(
    "line",
    ["58|nom|2 1 2", "x|a|b|1", "0|a|b|1", "58|a|b|", "58|a|b|1.5", "58|a|b|c|d|e"],
)
def test_load_catalog_rejects_malformed(line):
    with pytest.raises(ParseError) as err:
        load_catalog(["# header", line])
    assert err.value.line == 2


@pytest.mark.parametrize("line, fields", [("1|a|b|0 6|note", 5), ("1|a|0 6", 3), ("1|a|b|0 6||", 6)])
def test_load_modes_reads_four_cells_only(line, fields):
    # A mode line has no source-note cell: a fifth cell is refused, not dropped.
    with pytest.raises(ParseError) as err:
        load_modes(["# header", line])
    assert str(err.value) == f"line 2: expected 4 |-separated fields, got {fields}"


def test_load_catalog_names_its_four_or_five_cells():
    with pytest.raises(ParseError, match=r"^line 1: expected 4 or 5 \|-separated fields, got 6$"):
        load_catalog(["58|a|b|1|c|d"])


def test_load_catalog_rejects_duplicate_id():
    with pytest.raises(DuplicateId):
        load_catalog(["5|a||1", "5|b||2"])


def test_serialize_round_trip_seed_files():
    for entries in (seed_talas(), seed_quatuor()):
        text = serialize_catalog(entries)
        assert load_catalog(text.splitlines()) == entries


def test_seed_files_are_canonical():
    # the shipped files equal their serialization once comments are dropped
    from messiaen.catalog import _read_seed

    for name, loader in (("talas.cat", seed_talas), ("quatuor.cat", seed_quatuor)):
        raw = [
            line.strip()
            for line in _read_seed(name)
            if line.strip() and not line.strip().startswith("#")
        ]
        assert serialize_catalog(loader()).splitlines() == raw


def test_seed_talas_content():
    entries = seed_talas()
    assert [e.id for e in entries] == sorted(SEED_TALA_DURATIONS)
    for e in entries:
        assert tuple(str(d) for d in e.rhythm.durations) == SEED_TALA_DURATIONS[e.id]
    by_id = {e.id: e for e in entries}
    assert by_id[18].name == "gajalîla" and by_id[18].gloss == "jeu de l'éléphant"
    assert by_id[99].name == "gaja" and by_id[99].gloss == "éléphant"
    assert by_id[105].name == "Candrakalâ" and by_id[105].gloss == "beauté de la lune"


@pytest.mark.parametrize("loader,name", [(seed_talas, "talas.cat"), (seed_quatuor, "quatuor.cat"),
                                         (seed_modes, "modes.cat")])
def test_seed_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, loader, name):
    (tmp_path / name).write_bytes(b"1|a|b|2 1 2\n\xff|x|y|1\n")
    with pytest.raises(ParseError, match=f"{name}: not UTF-8 text"):
        loader(str(tmp_path))

def test_seed_quatuor_content():
    entries = seed_quatuor()
    assert [tuple(int(d) for d in e.rhythm.durations) for e in entries] == QUATUOR_DURATIONS
    assert all(e.rhythm.unit == "double croche" for e in entries)
    assert all(is_non_retrogradable(e.rhythm) for e in entries)
    assert [total_duration(e.rhythm) for e in entries] == [24, 21, 19, 19, 13, 13, 13, 24]


def test_seed_modes_match_table():
    entries = seed_modes()
    assert [m.number for m in entries] == list(range(1, 8))
    assert [m.members for m in entries] == list(z12.MODES)
    text = serialize_modes(entries)
    assert load_modes(text.splitlines()) == entries


def test_analyze_entry_equals_direct_operations():
    for e in seed_talas() + seed_quatuor():
        report = analyze_entry(e)
        assert report.entry_id == e.id
        assert report.non_retrogradable == is_non_retrogradable(e.rhythm)
        assert report.total == total_duration(e.rhythm)
        assert report.augmentation_chain == detect_augmentation_chain(e.rhythm)
        if report.prime_total is not None:
            assert report.prime_total == is_prime_total(e.rhythm)
        else:
            assert report.total.denominator != 1
        if len(e.rhythm) >= 2:
            assert report.interleave == interleave_profile(e.rhythm)


def test_analyze_entry_examples():
    by_id = {e.id: e for e in seed_talas()}
    assert analyze_entry(by_id[26]).non_retrogradable is True
    report = analyze_entry(by_id[99])
    assert report.total == 4 and report.prime_total is False
    report = analyze_entry(by_id[105])
    assert report.total == 16 and report.non_retrogradable is False
    # non-integer total: primality stays absent
    assert analyze_entry(by_id[18]).prime_total is None


def test_analyze_single_duration_rhythm():
    report = analyze_rhythm(rhythm([5]))
    assert report.interleave is None
    assert report.non_retrogradable is True
    assert report.prime_total is True


def test_analyze_rhythm_sums_each_rhythm_once():
    rhythms = [e.rhythm for e in seed_talas() + seed_quatuor()] + [rhythm(d) for d in ([5], [1], ["1/3", "2/3"], ["1/2"])]
    expected = [AnalysisReport(None, is_non_retrogradable(r), total_duration(r),
                               is_prime_total(r) if total_duration(r).denominator == 1 else None,
                               detect_augmentation_chain(r), interleave_profile(r) if len(r) >= 2 else None)
                for r in rhythms]
    summed = []

    def counted(r):
        summed.append(r)
        return total_duration(r)

    with mock.patch.object(catalog, "total_duration", counted), mock.patch.object(rh, "total_duration", counted):
        assert [analyze_rhythm(r) for r in rhythms] == expected
        assert summed == rhythms
        past_the_bound = rhythm(["3317044064679887385962003"])
        with pytest.raises(DomainError) as by_analysis:
            analyze_rhythm(past_the_bound)
    with pytest.raises(DomainError) as by_total:
        is_prime_total(past_the_bound)
    assert str(by_analysis.value) == str(by_total.value)


def test_filter_catalog():
    talas = seed_talas()
    assert [e.id for e in filter_catalog(talas, "nonretro")] == [26, 58, 80, 99, 111]
    assert [e.id for e in filter_catalog(talas, "prime")] == [58]
    assert [e.id for e in filter_catalog(talas, "augchain")] == [73, 115]
    assert [e.id for e in filter_catalog(talas, "interleave")] == [27]
    with pytest.raises(BadPredicate):
        filter_catalog(talas, "syncopated")
    assert set(PREDICATES) == {"nonretro", "prime", "augchain", "interleave"}


def test_report_to_dict_stable_keys():
    by_id = {e.id: e for e in seed_talas()}
    d = report_to_dict(analyze_entry(by_id[115]))
    assert d["id"] == 115
    assert d["non_retrogradable"] is False
    assert d["total"] == "14"
    assert d["prime_total"] is False
    assert d["augmentation_chain"] == {"prefix": "4 4", "ratios": ["1/2", "1/4"]}
    assert d["interleave"]["even"]["values"] == ["4", "2", "1"]

    d = report_to_dict(analyze_entry(by_id[18]))
    assert d["total"] == "9/2" and d["prime_total"] is None

    parsed = json.loads(reports_to_json([analyze_entry(by_id[58])]))
    assert parsed[0]["id"] == 58 and parsed[0]["prime_total"] is True


def test_render_report_human_block():
    by_id = {e.id: e for e in seed_talas()}
    text = render_report(analyze_entry(by_id[58]), rhythm=by_id[58].rhythm)
    assert "id: 58" in text
    assert "durées: 2 1 2" in text
    assert "non rétrogradable: oui" in text
    assert "durée totale: 5" in text
    assert "total premier: oui" in text
    text = render_report(analyze_entry(by_id[73]), rhythm=by_id[73].rhythm)
    assert "chaîne d'augmentation: préfixe 1 1 1, rapports 2" in text
    text = render_report(analyze_entry(by_id[18]), rhythm=by_id[18].rhythm)
    assert "total premier: — (total non entier)" in text


# --- every entry reloads equal or is refused when written -------------------


def test_load_catalog_reads_ascii_ids_only():
    for line in ("²|a||1", "١|a||1", "7" * 5000 + "|a||1"):
        with pytest.raises(ParseError) as err:
            load_catalog(["# header", line])
        assert err.value.line == 2


@pytest.mark.parametrize(
    "entry",
    [
        TalaEntry(1, "a|b", "", rhythm([1])),
        TalaEntry(1, "a\nb", "", rhythm([1])),
        TalaEntry(1, "a\u2028b", "", rhythm([1])),
        TalaEntry(1, " a", "", rhythm([1])),
        TalaEntry(1, "", "glose ", rhythm([1])),
        TalaEntry(1, "", "", rhythm([1]), "a|b"),
        TalaEntry(1, "", "", rhythm([1], unit="a|b")),
        TalaEntry(1, "", "", rhythm([1], unit=" a")),
        TalaEntry(0, "", "", rhythm([1])),
    ],
)
def test_serialize_catalog_refuses_fields_that_do_not_reload(entry):
    with pytest.raises(DomainError):
        serialize_catalog([entry])


def test_serialize_refuses_duplicate_ids_and_empty_modes():
    with pytest.raises(DomainError):
        serialize_catalog([TalaEntry(1, "", "", rhythm([1]))] * 2)
    with pytest.raises(DomainError):
        serialize_modes([ModeEntry(1, "vide", "", frozenset())])


_text = st.text(st.sampled_from("ab |#@=\t\n\r\x0b\x1c\x85\u2028é"), max_size=6)
_entries = st.builds(
    TalaEntry,
    id=st.integers(-2, 10**6) | st.integers(10**4299, 10**4301),
    name=_text,
    gloss=_text,
    rhythm=st.builds(
        Rhythm,
        st.lists(
            st.fractions(min_value=F(1, 10**6), max_value=10**6)
            | st.builds(F, st.integers(1, 10**4301), st.integers(1, 10**4301)),
            min_size=1,
            max_size=5,
        ).map(tuple),
        _text,
    ),
    source_note=_text,
)


@settings(max_examples=300, deadline=None)
@given(_entries)
def test_every_entry_reloads_equal_or_is_refused(entry):
    try:
        text = serialize_catalog([entry])
    except DomainError:
        return
    assert load_catalog(text.splitlines()) == [entry]

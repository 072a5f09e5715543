"""Seed catalogs of quoted musical data and per-entry analysis reports.

Three catalogs ship with the package under ``data/``: the deçî-tâlas
quoted from Sharngadeva's 120-rhythm table (``talas.cat``), the eight
non-retrogradable measures cited from the Quatuor pour la fin du Temps
(``quatuor.cat``), and the seven modes of limited transposition
(``modes.cat``).

Catalog files are line-oriented UTF-8, one entry per line:

    id|name|gloss|durations[|source note]

with ``#`` comment lines and blank lines ignored.  The durations cell
uses the rhythm text format (so it may carry ``@unit=<label>``);
``modes.cat`` uses the pitch-class text format in that cell instead, and
its lines have no source-note cell.
Serialization refuses, with a DomainError, any entry that would not load
back equal (a field holding ``|`` or a line break, for one).
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction

import messiaen

from .errors import BadPredicate, DomainError, DuplicateId, ParseError, TooShort, ascii_int, oui
from .rhythm import (
    InterleaveProfile,
    Rhythm,
    SequenceShape,
    _is_prime,
    detect_augmentation_chain,
    format_rhythm,
    format_values,
    interleave_profile,
    is_non_retrogradable,
    parse_rhythm,
    total_duration,
)

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


TalaEntry = namedtuple("TalaEntry", "id name gloss rhythm source_note", defaults=("",))
TalaEntry.__doc__ = "One catalog record: a numbered rhythm with its name, gloss and source note."
ModeEntry = namedtuple("ModeEntry", "number name gloss members")
ModeEntry.__doc__ = "One catalogued mode: number, name, gloss, members (a z12 pitch-class set)."


def _load(source: Iterable[str], parse: Callable, cell: str, key: str, make: type) -> list:
    """The catalog line reader: ``parse`` reads the payload cell, named ``cell``
    in errors; the record class ``make`` takes the cells, from 4 up to one per field."""
    entries = []
    seen: set[int] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if not 4 <= len(fields) <= len(make._fields):
            expected = " or ".join(map(str, range(4, len(make._fields) + 1)))
            raise ParseError(f"expected {expected} |-separated fields, got {len(fields)}", lineno)
        ident = ascii_int(fields[0], lineno)
        if ident is None:
            raise ParseError(f"id must be a positive integer, got {fields[0]!r}", lineno)
        if ident < 1:
            raise ParseError(f"id must be positive, got {ident}", lineno)
        if ident in seen:
            raise DuplicateId(f"duplicate {key} {ident}", lineno)
        seen.add(ident)
        try:
            value = parse(fields[3])
        except ParseError as exc:
            raise ParseError(f"bad {cell}: {exc}", lineno) from exc
        entries.append(make(ident, fields[1], fields[2], value, *fields[4:]))
    return entries


def _fits(text: str) -> bool:
    """Whether text reads back unchanged from a cell of a catalog line."""
    return "|" not in text and text == text.strip() and len(text.splitlines()) < 2


def _dump(entries: Iterable[tuple], format_payload: Callable) -> str:
    """The catalog line writer, for records whose fields are id, name, gloss,
    payload and an optional note; one that would not load back equal is a DomainError."""
    lines = []
    seen: set[int] = set()
    for ident, name, gloss, payload, *note in entries:
        cells = [format_values([ident]), name, gloss, format_payload(payload), *filter(None, note)]
        if ident < 1 or ident in seen:
            raise DomainError(f"id {cells[0]} is not positive or not unique")
        seen.add(ident)
        if not cells[3] or not all(map(_fits, cells)):
            raise DomainError(
                f"entry {cells[0]} does not fit a catalog line: a field holds '|' or a line"
                " break, starts or ends with white space, or the payload is empty"
            )
        lines.append("|".join(cells) + "\n")
    return "".join(lines)


def load_catalog(source: Iterable[str]) -> list[TalaEntry]:
    """Parse rhythm catalog lines in file order, rejecting duplicate ids.

    ``source`` is any iterable of lines (an open text file works).
    """
    return _load(source, parse_rhythm, "durations", "id", TalaEntry)


def load_modes(source: Iterable[str]) -> list[ModeEntry]:
    """Parse mode catalog lines; the payload cell holds pitch classes."""
    return _load(source, messiaen.z12.parse_pcset, "pitch classes", "mode number", ModeEntry)


def serialize_catalog(entries: Iterable[TalaEntry]) -> str:
    """Canonical catalog text, one line per entry, loadable by :func:`load_catalog`."""
    return _dump(entries, format_rhythm)


def serialize_modes(entries: Iterable[ModeEntry]) -> str:
    """Canonical mode catalog text, loadable by :func:`load_modes`."""
    return _dump(entries, messiaen.z12.format_pcset)


def _read_seed(name: str, data_dir: str | None = None) -> list[str]:
    path = os.path.join(_DATA_DIR if data_dir is None else data_dir, name)
    with open(path, encoding="utf-8") as f:
        try:
            return f.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def seed_talas(data_dir: str | None = None) -> list[TalaEntry]:
    """The shipped deçî-tâla entries (or those from an override directory)."""
    return load_catalog(_read_seed("talas.cat", data_dir))


def seed_quatuor(data_dir: str | None = None) -> list[TalaEntry]:
    """The shipped Quatuor measures."""
    return load_catalog(_read_seed("quatuor.cat", data_dir))


def seed_modes(data_dir: str | None = None) -> list[ModeEntry]:
    """The shipped seven-mode table."""
    return load_modes(_read_seed("modes.cat", data_dir))


AnalysisReport = namedtuple("AnalysisReport", "entry_id non_retrogradable total prime_total"
                                               " augmentation_chain interleave")
AnalysisReport.__doc__ = """Analysis of one rhythm, every field produced by the rhythm operations;
``prime_total`` is None when the total is not a whole number of units, ``interleave`` for a single duration."""


def _prime_or_none(total: Fraction) -> bool | None:
    return _is_prime(total.numerator) if total.denominator == 1 else None


def _interleave_or_none(r: Rhythm) -> InterleaveProfile | None:
    try:
        return interleave_profile(r)
    except TooShort:
        return None


def analyze_rhythm(r: Rhythm, entry_id: int | None = None) -> AnalysisReport:
    """Run the full battery of rhythm analyses on one duration sequence, summing it once."""
    total = total_duration(r)
    return AnalysisReport(
        entry_id=entry_id,
        non_retrogradable=is_non_retrogradable(r),
        total=total,
        prime_total=_prime_or_none(total),
        augmentation_chain=detect_augmentation_chain(r),
        interleave=_interleave_or_none(r),
    )


def analyze_entry(e: TalaEntry) -> AnalysisReport:
    """Report for one catalog entry."""
    return analyze_rhythm(e.rhythm, entry_id=e.id)


def _pred_interleave(r: Rhythm) -> bool:
    # The interlocking pattern: one parity class constant, the other rising then falling.
    p = _interleave_or_none(r)
    if p is None:
        return False
    return (p.even.constant and p.odd.unimodal) or (p.odd.constant and p.even.unimodal)


# Each predicate computes only the property it tests, so that a filter
# never fails on an analysis it does not need (primality past rhythm.PRIME_BOUND).
PREDICATES = {
    "nonretro": is_non_retrogradable,
    "prime": lambda r: _prime_or_none(total_duration(r)) is True,
    "augchain": lambda r: detect_augmentation_chain(r) is not None,
    "interleave": _pred_interleave,
}


def filter_catalog(entries: Iterable[TalaEntry], predicate: str) -> list[TalaEntry]:
    """Stable-order subset of entries whose rhythm satisfies the predicate.

    >>> [e.id for e in filter_catalog(seed_talas(), "augchain")]
    [73, 115]
    """
    try:
        pred = PREDICATES[predicate]
    except KeyError:
        raise BadPredicate(
            f"unknown predicate {predicate!r}; choose from {', '.join(sorted(PREDICATES))}"
        ) from None
    return [e for e in entries if pred(e.rhythm)]


def _shape_dict(shape: SequenceShape) -> dict:
    return {**shape._asdict(), "values": format_values(shape.values).split(" ")}


def report_to_dict(report: AnalysisReport) -> dict:
    """Machine form of a report with stable English keys; rationals as n/d text."""
    chain, profile = report.augmentation_chain, report.interleave
    return {
        **({} if report.entry_id is None else {"id": report.entry_id}),
        "non_retrogradable": report.non_retrogradable,
        "total": format_values([report.total]),
        "prime_total": report.prime_total,
        "augmentation_chain": None if chain is None else {
            "prefix": format_rhythm(chain.prefix, with_unit=False),
            "ratios": format_values(chain.ratios).split(" "),
        },
        "interleave": None if profile is None else {k: _shape_dict(v) for k, v in profile._asdict().items()},
    }


def _shape_label(shape: SequenceShape) -> str:
    if shape.constant:
        return "constante"
    if shape.unimodal:
        return "croissante puis décroissante"
    if shape.increasing:
        return "croissante"
    if shape.decreasing:
        return "décroissante"
    return "irrégulière"


def render_report(report: AnalysisReport, rhythm: Rhythm) -> str:
    """Human-readable key/value block for the report on a rhythm (French labels)."""
    lines = []
    if report.entry_id is not None:
        lines.append(f"id: {report.entry_id}")
    lines.append(f"durées: {format_rhythm(rhythm)}")
    lines.append(f"non rétrogradable: {oui(report.non_retrogradable)}")
    lines.append(f"durée totale: {format_values([report.total])}")
    if report.prime_total is None:
        lines.append("total premier: — (total non entier)")
    else:
        lines.append(f"total premier: {oui(report.prime_total)}")
    chain = report.augmentation_chain
    if chain is None:
        lines.append("chaîne d'augmentation: aucune")
    else:
        lines.append(
            "chaîne d'augmentation: préfixe "
            f"{format_rhythm(chain.prefix, with_unit=False)}, rapports {format_values(chain.ratios)}"
        )
    if report.interleave is not None:
        odd, even = report.interleave.odd, report.interleave.even
        lines.append(f"rangs impairs: {format_values(odd.values)} ({_shape_label(odd)})")
        lines.append(f"rangs pairs: {format_values(even.values)} ({_shape_label(even)})")
    return "\n".join(lines)


def reports_to_json(reports: Iterable[AnalysisReport]) -> str:
    """JSON array of report dicts."""
    import json

    return json.dumps([report_to_dict(r) for r in reports], ensure_ascii=False, indent=2)

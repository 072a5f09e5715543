"""The public record types and the package namespace, pinned.

Every record keeps its repr, equality, hash, immutability, field access,
keyword construction, defaults and copy/pickle round trips, whatever
class machinery builds it.  The package's public names are read in a
fresh interpreter, where no test has imported a submodule yet.
"""

import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import messiaen
from messiaen.catalog import AnalysisReport, ModeEntry, TalaEntry
from messiaen.perm import OrbitTable
from messiaen.rhythm import (
    AugmentationChain,
    CanonSchedule,
    InterleaveProfile,
    Rhythm,
    SequenceShape,
    Voice,
)
from messiaen.z12 import ModeId

SRC = Path(__file__).resolve().parent.parent / "src"

R = Rhythm(durations=(F(2), F(1, 2), F(2)), unit="u")
SHAPE = SequenceShape(values=(F(2), F(2)), constant=True, increasing=False, decreasing=False, unimodal=False)
RISING = SequenceShape(values=(F(1, 2),), constant=True, increasing=True, decreasing=False, unimodal=False)
PROFILE = InterleaveProfile(odd=SHAPE, even=RISING)
CHAIN = AugmentationChain(prefix=Rhythm((F(1),)), ratios=(F(2), F(4)))
VOICE = Voice(delay=F(1), ratio=F(3, 2), onsets=(F(1), F(4)), end=F(11, 2))
CANON = CanonSchedule(subject=R, voices=(VOICE,), events=((F(1), 0, F(3)),))

# (record, its fields by name, its repr)
RECORDS = [
    (R, {"durations": (F(2), F(1, 2), F(2)), "unit": "u"},
     "Rhythm(durations=(Fraction(2, 1), Fraction(1, 2), Fraction(2, 1)), unit='u')"),
    (SHAPE, {"values": (F(2), F(2)), "constant": True, "increasing": False, "decreasing": False,
             "unimodal": False},
     "SequenceShape(values=(Fraction(2, 1), Fraction(2, 1)), constant=True, increasing=False,"
     " decreasing=False, unimodal=False)"),
    (PROFILE, {"odd": SHAPE, "even": RISING},
     "InterleaveProfile(odd=SequenceShape(values=(Fraction(2, 1), Fraction(2, 1)), constant=True,"
     " increasing=False, decreasing=False, unimodal=False), even=SequenceShape(values=(Fraction(1, 2),),"
     " constant=True, increasing=True, decreasing=False, unimodal=False))"),
    (CHAIN, {"prefix": Rhythm((F(1),)), "ratios": (F(2), F(4))},
     "AugmentationChain(prefix=Rhythm(durations=(Fraction(1, 1),), unit=''),"
     " ratios=(Fraction(2, 1), Fraction(4, 1)))"),
    (VOICE, {"delay": F(1), "ratio": F(3, 2), "onsets": (F(1), F(4)), "end": F(11, 2)},
     "Voice(delay=Fraction(1, 1), ratio=Fraction(3, 2), onsets=(Fraction(1, 1), Fraction(4, 1)),"
     " end=Fraction(11, 2))"),
    (CANON, {"subject": R, "voices": (VOICE,), "events": ((F(1), 0, F(3)),)},
     "CanonSchedule(subject=Rhythm(durations=(Fraction(2, 1), Fraction(1, 2), Fraction(2, 1)), unit='u'),"
     " voices=(Voice(delay=Fraction(1, 1), ratio=Fraction(3, 2), onsets=(Fraction(1, 1), Fraction(4, 1)),"
     " end=Fraction(11, 2)),), events=((Fraction(1, 1), 0, Fraction(3, 1)),))"),
    (ModeId(number=2, offset=1), {"number": 2, "offset": 1}, "ModeId(number=2, offset=1)"),
    (OrbitTable(base=(1, 2), rows=((2, 1), (1, 2))), {"base": (1, 2), "rows": ((2, 1), (1, 2))},
     "OrbitTable(base=(1, 2), rows=((2, 1), (1, 2)))"),
    (TalaEntry(id=7, name="n", gloss="g", rhythm=R, source_note="s"),
     {"id": 7, "name": "n", "gloss": "g", "rhythm": R, "source_note": "s"},
     "TalaEntry(id=7, name='n', gloss='g', rhythm=Rhythm(durations=(Fraction(2, 1), Fraction(1, 2),"
     " Fraction(2, 1)), unit='u'), source_note='s')"),
    (ModeEntry(number=1, name="m", gloss="g", members=frozenset({0, 6})),
     {"number": 1, "name": "m", "gloss": "g", "members": frozenset({0, 6})},
     "ModeEntry(number=1, name='m', gloss='g', members=frozenset({0, 6}))"),
    (AnalysisReport(entry_id=None, non_retrogradable=True, total=F(9, 2), prime_total=None,
                    augmentation_chain=CHAIN, interleave=PROFILE),
     {"entry_id": None, "non_retrogradable": True, "total": F(9, 2), "prime_total": None,
      "augmentation_chain": CHAIN, "interleave": PROFILE},
     "AnalysisReport(entry_id=None, non_retrogradable=True, total=Fraction(9, 2), prime_total=None,"
     " augmentation_chain=" + repr(CHAIN) + ", interleave=" + repr(PROFILE) + ")"),
]

PUBLIC_NAMES = [
    "AnalysisReport", "AugmentationChain", "BadPredicate", "BadRatio", "CanonSchedule", "CapExceeded",
    "DegenerateSet", "DomainError", "DuplicateId", "Empty", "InterleaveProfile", "MODES",
    "MessiaenError", "ModeEntry", "ModeId", "NoCenter", "NoVoices", "NonIntegerTotal",
    "NotABijection", "OrbitTable", "ParseError", "Perm", "Rhythm", "SizeMismatch", "TalaEntry",
    "TooShort", "UnitMismatch", "analyze_entry", "analyze_rhythm", "augment", "build_canon",
    "catalog", "chromatic_durations", "chronochromie", "classify_mode", "detect_augmentation_chain",
    "detect_truncated", "eliminate_extremes", "enumerate_limited", "errors", "fan", "filter_catalog",
    "identity", "interleave_profile", "is_limited_transposition", "is_non_retrogradable",
    "is_prime_total", "load_catalog", "load_modes", "minimal_period", "orbit_table", "parse_pcset",
    "parse_perm", "parse_rhythm", "pcset", "perm", "permutation_count", "retrograde", "rhythm",
    "scale_central", "seed_modes", "seed_quatuor", "seed_talas", "serialize_catalog",
    "symmetric_amplification", "total_duration", "transpose", "z12",
]

IDS = [type(record).__name__ for record, _, _ in RECORDS]


def _changed(record, fields):
    """A record of the same type that differs in its first field."""
    name = next(iter(fields))
    other = {"durations": (F(1),), "values": (), "odd": RISING, "prefix": R, "delay": F(0),
             "subject": Rhythm((F(3),)), "number": 3, "base": (2, 1), "id": 8, "entry_id": 1}[name]
    return type(record)(**{**fields, name: other})


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_repr_and_field_access(record, fields, text):
    assert repr(record) == text
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash(record, fields, text):
    twin = type(record)(**fields)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(fields.values()))
    other = _changed(record, fields)
    assert other != record and not other == record


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_records_are_immutable(record, fields, text):
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert repr(record) == text


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trips(record, fields, text):
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record) and repr(clone) == text


def test_canon_schedule_compares_its_events():
    # Events are derived from the voices, yet compared like every other field.
    without = CanonSchedule(CANON.subject, CANON.voices, ())
    assert without != CANON and not without == CANON
    assert CANON == (CANON.subject, CANON.voices, CANON.events)
    assert hash(CANON) == hash((CANON.subject, CANON.voices, CANON.events))


def test_positional_construction_and_defaults():
    assert Rhythm((F(1),)).unit == ""
    assert Rhythm([1, "3/2"], "u") == Rhythm(durations=(F(1), F(3, 2)), unit="u")
    assert TalaEntry(1, "n", "g", R).source_note == ""
    assert TalaEntry(1, "n", "g", R) == TalaEntry(id=1, name="n", gloss="g", rhythm=R, source_note="")
    assert OrbitTable((1, 2), ((2, 1), (1, 2))).order == 2
    assert ModeId(2, 0).period == 3
    with pytest.raises(AttributeError):
        del R.unit
    with pytest.raises(ValueError):
        Rhythm(())
    with pytest.raises(ValueError):
        Rhythm((F(0),))


def test_plain_records_are_tuples():
    # Every record but Rhythm is a named tuple: equal to the plain tuple of
    # its fields, iterable and ordered, as ModeId always was.
    shape = tuple(SHAPE)
    assert SHAPE == shape and list(SHAPE) == list(shape)
    assert ModeId(1, 0) < ModeId(1, 1) and TalaEntry(1, "", "", R) < TalaEntry(2, "", "", R)


def test_package_namespace():
    code = ("import json, messiaen; ns = {}; exec('from messiaen import *', ns);"
            "print(json.dumps([[n for n in dir(messiaen) if not n.startswith('_')],"
            " sorted(n for n in ns if not n.startswith('_')), messiaen.__version__]))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(SRC)}).stdout
    public, star, version = json.loads(out)
    assert public == PUBLIC_NAMES
    assert star == PUBLIC_NAMES
    assert version == messiaen.__version__ == "0.1.0"

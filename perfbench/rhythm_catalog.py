"""The ``rhythm-catalog`` workload: catalog round trips and long-rhythm transforms.

One round is 12 operations:

- 10 catalog round trips, each on its own chunk of 32 entries of a seeded
  synthetic catalog (about 40 ms each); the median falls among them;
- 2 long-rhythm pipelines on rhythms of 9999 durations (about 450 ms
  each), one built as an augmentation chain and one palindrome; they are
  a sixth of the operations, so the 90th percentile falls among them.

The round trips are about a third of a round's summed latency and the
long pipelines two thirds, so ``ops_per_s`` moves with both layers.

A chunk is four groups of eight rhythms, each group with the same make-up
and lengths: an odd palindrome of 9 whose total is a prime between 4e7
and 5e7, an even palindrome of 8, two augmentation chains of 9, two
interleave patterns of 10 (odd positions rising then falling, even
positions constant), an irregular rhythm of 9 and one of 8 or 9 with a
fractional total.  Whole totals other than the prime one are spread from
1e1 to 1e10 and carry a prime factor below 50, so the trial division in
the program spends about the same time on every chunk: about a quarter of
a round trip, most of it on the four primes, which each round trip tests
five times (once per analysis and once per filter).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from messiaen import catalog as cat
from messiaen import rhythm as rh

from . import oracles as o
from .oracles import expect
from .ops import Op

CHUNKS = 10
# A chunk is this many groups of the eight rhythms of `_chunk_rhythms`.
CHUNK_GROUPS = 4
LONG_LENGTH = 9999
PRIME_TOTALS = (4 * 10**7, 5 * 10**7)
UNIT = "double croche"

_NAMES = ("", "", "gajalîla", "candrakalâ", "rangapradîpaka", "mesure", "personnage")
_GLOSSES = ("", "", "jeu de l'éléphant", "beauté de la lune", "rythme non rétrogradable")
_NOTES = ("", "Traité t. 1", "Danse de la fureur", "synthétique; graine")
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_RATIOS = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2), Fraction(4), Fraction(5, 4))
# The long pipelines use fixed ratios and voices, so that their cost does
# not depend on the seed; the seed only draws the durations.
LONG_CHAIN_RATIOS = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(3, 2),
                     Fraction(4), Fraction(5, 4), Fraction(2), Fraction(1, 2))
LONG_RATIO = Fraction(3, 2)
LONG_CENTRAL = Fraction(5, 2)
LONG_VOICES = ((Fraction(0), Fraction(1)), (Fraction(3), Fraction(3, 2)))


def _magnitude(rng: random.Random) -> int:
    return int(10 ** rng.uniform(1, 10))


def _composite_near(rng: random.Random, n: int) -> int:
    p = rng.choice(_SMALL_PRIMES)
    return max(p * 2, n - n % p)


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    n = rng.randrange(lo, hi)
    while not o.is_prime(n):
        n += 1
    return n


def _ints(rng: random.Random, n: int, hi: int = 9) -> list[Fraction]:
    return [Fraction(rng.randint(1, hi)) for _ in range(n)]


def _odd_palindrome(rng, total: int) -> list[Fraction]:
    wing = _ints(rng, 4)
    return wing + [Fraction(total) - 2 * sum(wing)] + wing[::-1]


def _even_palindrome(rng, scale: int) -> list[Fraction]:
    wing = [d * scale for d in _ints(rng, 4)]
    return wing + wing[::-1]


def _chain(rng, scale: int) -> list[Fraction]:
    prefix = [d * scale for d in _ints(rng, 3)]
    ratios = [rng.choice(_RATIOS) for _ in range(2)]
    return o.rebuild_chain(prefix, ratios)


def _interleave(rng, total: int) -> list[Fraction]:
    """Odd positions rise, peak and fall; even positions hold one value."""
    rise = [Fraction(x) for x in sorted(rng.sample(range(1, 20), 3))]
    fall = [Fraction(x) for x in sorted(rng.sample(range(1, 20), 2), reverse=True)]
    constant = Fraction(rng.randint(1, 9))
    evens = 5
    rest = sum(rise + fall) + evens * constant
    odd = rise + [max(Fraction(total) - rest, Fraction(20))] + fall
    out = []
    for v in odd:
        out += [v, constant]
    return out[: len(odd) + evens]


def _irregular(rng, total: int) -> list[Fraction]:
    values = _ints(rng, 8)
    values.append(Fraction(max(1, total - int(sum(values)))))
    return values


def _fractional(rng) -> list[Fraction]:
    values = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4))) for _ in range(8)]
    if o.total(values).denominator == 1:
        values.append(Fraction(1, 3))
    return values


def _chunk_rhythms(rng: random.Random) -> list[list[Fraction]]:
    """One group of eight rhythms, one of each kind, in seeded order."""
    rhythms = [
        _odd_palindrome(rng, _prime_in(rng, *PRIME_TOTALS)),
        _even_palindrome(rng, _magnitude(rng) // 40 + 1),
        _chain(rng, _magnitude(rng) // 40 + 1),
        _chain(rng, rng.randint(1, 4)),
        _interleave(rng, _composite_near(rng, _magnitude(rng))),
        _interleave(rng, _composite_near(rng, _magnitude(rng))),
        _irregular(rng, _composite_near(rng, _magnitude(rng))),
        _fractional(rng),
    ]
    rng.shuffle(rhythms)
    return rhythms


def _round_trip(entries: list, refs: list[dict]) -> Op:
    def run():
        text = cat.serialize_catalog(entries)
        loaded = cat.load_catalog(text.splitlines())
        reports = [cat.analyze_entry(e) for e in loaded]
        kept = {p: cat.filter_catalog(loaded, p) for p in o.PREDICATE_NAMES}
        machine = cat.reports_to_json(reports)
        human = [cat.render_report(r, rhythm=e.rhythm) for e, r in zip(loaded, reports)]
        reloaded = cat.load_catalog(cat.serialize_catalog(loaded).splitlines())
        return text, loaded, kept, machine, human, reloaded

    expected_rows = [(e.id, e.name, e.gloss, (list(e.rhythm.durations), e.rhythm.unit), e.source_note)
                     for e in entries]
    expected_kept = {p: [r["id"] for r in refs if o.predicate(r, p)] for p in o.PREDICATE_NAMES}

    def check(result):
        text, loaded, kept, machine, human, reloaded = result
        rows = [(i, name, gloss, o.parse_durations(payload), note)
                for i, name, gloss, payload, note in o.read_catalog(text)]
        expect(rows == expected_rows, "serialized catalog differs")
        expect(loaded == entries and reloaded == entries, "catalog round trip changed the entries")
        expect(json.loads(machine) == refs, "analysis reports differ")
        expect({p: [e.id for e in kept[p]] for p in kept} == expected_kept, "filters differ from the predicates")
        expect(len(human) == len(refs), "report count differs")
        for block, ref in zip(human, refs):
            lines = block.split("\n")
            expect(lines[0] == f"id: {ref['id']}" and f"durée totale: {ref['total']}" in lines, "report text differs")

    return Op("catalog", run, check)


def _long_pipeline(kind: str, durations: list[Fraction], rng: random.Random) -> Op:
    """The long-rhythm transforms, with every reference answer made here,
    before anything is timed, so that a check is only comparisons."""
    text = o.rhythm_text(durations, UNIT)
    ratio, central, voices = LONG_RATIO, LONG_CENTRAL, LONG_VOICES
    wing_values = _ints(rng, 5)
    wing_text = o.rhythm_text(wing_values)
    expected_total = o.total(durations)
    augmented_text = o.rhythm_text([d * ratio for d in durations], UNIT)
    amplified = wing_values + durations + wing_values[::-1]
    middle = len(amplified) // 2
    scaled = amplified[:middle] + [amplified[middle] * central] + amplified[middle + 1:]
    canon_voices = o.canon(durations, voices)
    canon_events = o.canon_events(durations, voices)
    chain = o.augmentation_chain(durations)
    expect(chain is None or (o.rebuild_chain(*chain) == durations and Fraction(1) not in chain[1]),
           "oracle augmentation chain")

    def run():
        r = rh.parse_rhythm(text)
        augmented = rh.augment(r, ratio)
        amplified = rh.symmetric_amplification(r, rh.parse_rhythm(wing_text))
        core = rh.eliminate_extremes(amplified, len(wing_values))
        scaled = rh.scale_central(amplified, central)
        canon = rh.build_canon(r, voices)
        total = rh.total_duration(r)
        chain = rh.detect_augmentation_chain(r)
        return r, augmented, amplified, core, scaled, canon, total, chain, rh.format_rhythm(augmented)

    def check(result):
        r, _, got_amplified, core, got_scaled, canon, total, got_chain, got_augmented_text = result
        expect(list(r.durations) == durations and r.unit == UNIT, "parsed rhythm differs")
        expect(got_augmented_text == augmented_text, "augmented rhythm differs")
        expect(list(got_amplified.durations) == amplified, "amplification differs")
        expect(core == r, "eliminating the wings does not give the core back")
        expect(list(got_scaled.durations) == scaled, "central scaling differs")
        expect(total == expected_total, "total differs")
        expect([(list(v.onsets), v.end) for v in canon.voices] == canon_voices, "canon onsets differ from prefix sums")
        expect(list(canon.events) == canon_events, "canon events differ")
        if chain is None:
            expect(got_chain is None, "augmentation chain found where there is none")
        else:
            expect(got_chain is not None and list(got_chain.prefix.durations) == chain[0]
                   and list(got_chain.ratios) == chain[1], "augmentation chain differs")

    return Op(kind, run, check)


def _long_rhythms(rng: random.Random) -> tuple[list[Fraction], list[Fraction]]:
    """A 9999-duration augmentation chain (1111 x 9 blocks) and a palindrome."""
    prefix = [Fraction(rng.randint(1, 16), rng.choice((1, 1, 1, 2))) for _ in range(1111)]
    ratios = LONG_CHAIN_RATIOS
    half = [Fraction(rng.randint(1, 16), rng.choice((1, 1, 1, 2))) for _ in range(LONG_LENGTH // 2)]
    middle = [Fraction(rng.randint(1, 16))]
    return o.rebuild_chain(prefix, ratios), half + middle + half[::-1]


def build(seed: int) -> tuple[list[Op], int]:
    """One round of the mix and the number of catalog entries it round-trips."""
    rng = random.Random(f"rhythm-catalog/{seed}")
    ops = []
    ident = 0
    for _ in range(CHUNKS):
        entries, refs = [], []
        for durations in (r for _ in range(CHUNK_GROUPS) for r in _chunk_rhythms(rng)):
            ident += rng.randint(1, 3)
            unit = UNIT if rng.random() < 0.3 else ""
            rhythm = rh.Rhythm(tuple(durations), unit)
            entries.append(cat.TalaEntry(ident, rng.choice(_NAMES), rng.choice(_GLOSSES), rhythm, rng.choice(_NOTES)))
            refs.append({"id": ident, **o.analysis(durations)})
        ops.append(_round_trip(entries, refs))
    chain, palindrome = _long_rhythms(rng)
    half = CHUNKS // 2
    ops = ([_long_pipeline("long-chain", chain, rng)] + ops[:half]
           + [_long_pipeline("long-palindrome", palindrome, rng)] + ops[half:])
    return ops, CHUNKS * CHUNK_GROUPS * 8

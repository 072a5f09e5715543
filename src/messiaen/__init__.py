"""Messiaen's compositional arithmetic.

Non-retrogradable rhythms over exact rational durations, modes of
limited transposition on the integers modulo 12, and symmetric
permutations with their orbit tables, plus the catalog of quoted
deçî-tâlas and Quatuor measures.

A submodule is imported on first use of it or of one of its names
(PEP 562), so that ``import messiaen`` is cheap and a command loads
only what it runs.
"""

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  The rhythm()
# convenience constructor is not among them, so that messiaen.rhythm keeps
# naming the submodule.
_EXPORTS = {
    "errors": "BadPredicate BadRatio CapExceeded DegenerateSet DomainError DuplicateId Empty MessiaenError"
              " NoCenter NonIntegerTotal NotABijection NoVoices ParseError SizeMismatch TooShort UnitMismatch",
    "rhythm": "AugmentationChain CanonSchedule InterleaveProfile Rhythm augment build_canon"
              " detect_augmentation_chain eliminate_extremes interleave_profile is_non_retrogradable"
              " is_prime_total parse_rhythm retrograde scale_central symmetric_amplification total_duration",
    "z12": "MODES ModeId classify_mode detect_truncated enumerate_limited is_limited_transposition"
           " minimal_period parse_pcset pcset transpose",
    "perm": "OrbitTable Perm chromatic_durations chronochromie fan identity orbit_table parse_perm"
            " permutation_count",
    "catalog": "AnalysisReport ModeEntry TalaEntry analyze_entry analyze_rhythm filter_catalog load_catalog"
               " load_modes seed_modes seed_quatuor seed_talas serialize_catalog",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_ORIGIN, *_EXPORTS]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # the import binds the submodule here
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

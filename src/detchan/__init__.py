"""Deterministic transformations between finite sets of pure quantum states.

The package decides whether one set of pure states can be mapped onto
another by a completely positive, trace-preserving channel with unit
probability, builds an explicit Kraus-operator realization when it can,
and analyzes when superpositions survive the channel as pure states
(which forces the two sets to be unitarily related).

Public names and submodules are imported on first access (PEP 562), so a
process loads only the modules its calls use.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

#: The public names of each module that defines them.
_PUBLIC = {
    "coherence": (
        "DECOHERING", "UNITARY_RELATED", "CoherenceReport", "CoherenceRoundTrip",
        "coherence_probe", "coherence_roundtrip", "unitary_relation_test",
    ),
    "errors": (
        "DetchanError", "DimensionMismatchError", "FingerprintMismatchError",
        "IllConditionedError", "InvalidDimensionsError", "InvalidToleranceError",
        "NotFeasibleError", "NotFiniteError", "NotHermitianError", "NotIndependentError",
        "NotNormalizedError", "NotPSDError", "SchemaError", "SizeMismatchError",
        "SupportTooSmallError", "ZeroVectorError",
    ),
    "feasibility": (
        "FEASIBLE", "INFEASIBLE", "UNDETERMINED", "FeasibilityReport", "RatioMatrix",
        "distinguishability_audit", "feasibility_check",
    ),
    "numerics": ("DEFAULT_PURITY_TOL", "DEFAULT_RANK_TOL", "DEFAULT_TOL"),
    "states": (
        "StateSet", "fingerprint", "gram", "linear_independence", "random_state_set",
        "span_duals", "superpose",
    ),
    "synthesis": (
        "KrausSet", "apply_channel", "kraus_to_choi", "purity", "state_to_density",
        "synthesize", "validate_density", "verify_completeness",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importlib's module lock makes a concurrent first access wait for the
    # import, so every thread binds the same objects.
    import_module(f".{module}", __name__)
    # Bind the public names of every loaded module, not only this one, so the
    # namespace holds a name whenever its module is loaded: code that wraps a
    # public name where it is bound (a tracer, a test patch) finds it here.
    namespace = globals()
    for loaded, names in _PUBLIC.items():
        if f"{__name__}.{loaded}" in sys.modules:
            values = import_module(f".{loaded}", __name__)
            for public in names:
                namespace.setdefault(public, getattr(values, public))
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})

"""The public surface of the package, pinned name by name, and the
tolerance validation every public entry point shares."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detchan

PUBLIC_NAMES = [
    "CoherenceReport",
    "CoherenceRoundTrip",
    "DECOHERING",
    "DEFAULT_PURITY_TOL",
    "DEFAULT_RANK_TOL",
    "DEFAULT_TOL",
    "DetchanError",
    "DimensionMismatchError",
    "FEASIBLE",
    "FeasibilityReport",
    "FingerprintMismatchError",
    "INFEASIBLE",
    "IllConditionedError",
    "InvalidDimensionsError",
    "InvalidToleranceError",
    "KrausSet",
    "NotFeasibleError",
    "NotFiniteError",
    "NotHermitianError",
    "NotIndependentError",
    "NotNormalizedError",
    "NotPSDError",
    "RatioMatrix",
    "SchemaError",
    "SizeMismatchError",
    "StateSet",
    "SupportTooSmallError",
    "TransformRecord",
    "UNDETERMINED",
    "UNITARY_RELATED",
    "ZeroVectorError",
    "apply_channel",
    "build_ratio_matrix",
    "choi_output_trace",
    "coherence_probe",
    "coherence_roundtrip",
    "distinguishability_audit",
    "feasibility_check",
    "fingerprint",
    "gram",
    "hermitian_eig",
    "kraus_to_choi",
    "linear_independence",
    "psd_check",
    "psd_factor",
    "purity",
    "random_state_set",
    "span_duals",
    "state_to_density",
    "superpose",
    "synthesize",
    "transform_report",
    "unitary_relation_test",
    "validate_density",
    "verify_completeness",
]


#: Run in a fresh interpreter, where nothing but the package is imported yet:
#: names resolve on first access, from several threads at once too.
LAZY_PROBE = """
import importlib, sys, types
from concurrent.futures import ThreadPoolExecutor
import detchan
assert "detchan.coherence" not in sys.modules
assert isinstance(detchan.coherence, types.ModuleType)
try:
    detchan.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
with ThreadPoolExecutor(4) as pool:
    resolved = list(pool.map(lambda name: getattr(detchan, name), detchan.__all__))
for name, value in zip(detchan.__all__, resolved):
    module = importlib.import_module("detchan." + detchan._MODULE_OF[name])
    assert value is getattr(module, name) is getattr(detchan, name), name
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == module.__name__, name
namespace = {}
exec("from detchan import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(detchan.__all__)
assert "__all__" in dir(detchan) and set(detchan.__all__) <= set(dir(detchan))
"""


def test_public_names_are_pinned_and_resolve():
    assert sorted(detchan.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(detchan, name) is not None
    src = str(Path(detchan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", LAZY_PROBE], check=True, env=env)


# ------------------------------------------------------------ tolerances

_PAIR = (
    detchan.StateSet.from_vectors([[1, 0], [np.sqrt(0.5), np.sqrt(0.5)]]),
    detchan.StateSet.from_vectors([[1, 0], [0.9, np.sqrt(0.19)]]),
)
_KRAUS = detchan.synthesize(*_PAIR)
#: Each public entry point that takes a tolerance, called with one of them.
TOLERANCE_CALLS = {
    "feasibility_check": lambda t: detchan.feasibility_check(*_PAIR, tol=t),
    "build_ratio_matrix": lambda t: detchan.build_ratio_matrix(*_PAIR, tol=t),
    "distinguishability_audit": lambda t: detchan.distinguishability_audit(*_PAIR, tol=t),
    "synthesize.tol": lambda t: detchan.synthesize(*_PAIR, tol=t),
    "coherence_roundtrip.tol": lambda t: detchan.coherence_roundtrip(*_PAIR, [1, 1], tol=t),
    "coherence_roundtrip.purity_tol":
        lambda t: detchan.coherence_roundtrip(*_PAIR, [1, 1], purity_tol=t),
    "coherence_probe.tol": lambda t: detchan.coherence_probe(_KRAUS, _PAIR[0], [1, 1], tol=t),
    "coherence_probe.purity_tol":
        lambda t: detchan.coherence_probe(_KRAUS, _PAIR[0], [1, 1], purity_tol=t),
    "unitary_relation_test": lambda t: detchan.unitary_relation_test(*_PAIR, tol=t),
    "span_duals": lambda t: detchan.span_duals(_PAIR[0], tol=t),
    "linear_independence": lambda t: detchan.linear_independence(_PAIR[0], tol=t),
    "superpose": lambda t: detchan.superpose(_PAIR[0], [1, 1], tol=t),
    "hermitian_eig": lambda t: detchan.hermitian_eig(np.eye(2), tol=t),
    "psd_check": lambda t: detchan.psd_check(np.eye(2), tol=t),
    "psd_factor.tol": lambda t: detchan.psd_factor(np.eye(2), tol=t),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("call", sorted(TOLERANCE_CALLS))
def test_invalid_tolerances_raise(call, value):
    name = call.rpartition(".")[2] if "." in call else "tol"
    with pytest.raises(detchan.InvalidToleranceError, match=f"^{name} must be finite and >= 0"):
        TOLERANCE_CALLS[call](value)
    assert issubclass(detchan.InvalidToleranceError, detchan.DetchanError)


@pytest.mark.parametrize("call", sorted(TOLERANCE_CALLS))
def test_zero_tolerance_is_legal(call):
    try:
        TOLERANCE_CALLS[call](0.0)
    except detchan.NotFeasibleError as exc:
        # At tol = 0 the synthesis guard, 1e3 * tol, refuses any rounding, so
        # the check, which reads the built channel's residuals, says
        # Undetermined instead of promising a channel.
        assert call in ("synthesize.tol", "coherence_roundtrip.tol")
        assert exc.report.verdict == detchan.UNDETERMINED

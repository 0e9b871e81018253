"""Every integer argument of the public API fails the same way, naming itself.

A non-integer, bool included, raises TypeError "{name} must be an integer, got
{value!r}"; one past a bound raises ValueError "{name} must be at least {lo}, got {v}"
or "{name} must lie in [{lo}, {hi}], got {v}", as the private subclass on
which the command line exits 2. A weight (p00, or binary_entropy's p) given as
anything but a real number raises TypeError "{name} must be a real number, got
{value!r}": a str, bytes, bool, None, complex, list or 1-element array among
them; a numpy real scalar or 0-d array is a real number. Result records the library builds itself
(RunBatch, BifurcationPoint, ...) are not checked. A NaN in a state or law
fails its normalisation check.
"""

import math
import re

import numpy as np
import pytest

from dickelift import (
    ORACLE_MAX_QUBITS,
    ConditionalState,
    CorrelatedState,
    DickeSpec,
    OutcomeDistribution,
    SourceState,
    asymptotic_prob,
    bifurcation_diagram,
    binary_entropy,
    build_state,
    critical_threshold,
    dicke_state_amplitudes,
    distribution,
    failure_prob,
    folded_prob,
    ghz_single_qubit_entanglement,
    log_folded_prob,
    log_raw_outcome_prob,
    measure_fock,
    raw_outcome_prob,
    reduced_single_qubit,
    sample_runs,
    single_qubit_density,
    yield_report,
)
from dickelift.probabilities import _ArgumentError

EPR = SourceState(1 / math.sqrt(2), 1 / math.sqrt(2))
BATCH = sample_runs(5, 0.5, 10, 0)
BRANCH = measure_fock(build_state(EPR, 4))[2]
SECTOR = np.full(6, 1 / math.sqrt(6), dtype=complex)
MAX_SEED = 2**64 - 1

# id: (call with the checked integer in place, its name, lowest and highest
# valid values; None where the range is checked elsewhere or unbounded)
CASES = {
    "DickeSpec.n": (lambda v: DickeSpec(v, 1), "n", 2, 2**53),
    "DickeSpec.k": (lambda v: DickeSpec(7, v), "k", 1, 3),
    "log_raw_outcome_prob.n": (lambda v: log_raw_outcome_prob(v, 0, 0.5), "n", 1, 2**53),
    "log_raw_outcome_prob.k": (lambda v: log_raw_outcome_prob(5, v, 0.5), "k", 0, 5),
    "raw_outcome_prob.n": (lambda v: raw_outcome_prob(v, 0, 0.5), "n", 1, 2**53),
    "raw_outcome_prob.k": (lambda v: raw_outcome_prob(5, v, 0.5), "k", 0, 5),
    "failure_prob.n": (lambda v: failure_prob(v, 0.5), "n", 1, 2**53),
    "distribution.n": (lambda v: distribution(v, 0.5), "n", 2, 10**6),
    "OutcomeDistribution.n": (lambda v: OutcomeDistribution(v, np.full(4, 0.25)), "n",
                              None, None),
    "critical_threshold.k": (critical_threshold, "k", 1, 2**1000),
    "bifurcation_diagram.k": (lambda v: bifurcation_diagram(v, 6, 8), "k", 1, None),
    "bifurcation_diagram.n_min": (lambda v: bifurcation_diagram(3, v, 8), "n_min", 6, 2**53),
    "bifurcation_diagram.n_max": (lambda v: bifurcation_diagram(3, 8, v), "n_max", 8, 2**53),
    "asymptotic_prob.k": (asymptotic_prob, "k", 1, 2**1000),
    "ghz_single_qubit_entanglement.n": (ghz_single_qubit_entanglement, "n", 2, None),
    "sample_runs.n": (lambda v: sample_runs(v, 0.5, 10, 0), "n", 2, 10**6),
    "sample_runs.runs": (lambda v: sample_runs(5, 0.5, v, 0), "runs", 1, None),
    "sample_runs.seed": (lambda v: sample_runs(5, 0.5, 10, v), "seed", 0, MAX_SEED),
    "yield_report.n": (lambda v: yield_report(BATCH, v), "n", 1, 10**6),
    "CorrelatedState.n": (lambda v: CorrelatedState(v, np.full(4, 0.5)), "n", None, None),
    "ConditionalState.n": (lambda v: ConditionalState(v, 2, SECTOR, 1.0), "n", 1,
                           ORACLE_MAX_QUBITS),
    "ConditionalState.outcome_k": (lambda v: ConditionalState(4, v, SECTOR, 1.0), "outcome_k",
                                   0, 4),
    "build_state.n": (lambda v: build_state(EPR, v), "n", 2, ORACLE_MAX_QUBITS),
    "dicke_state_amplitudes.n": (lambda v: dicke_state_amplitudes(v, 1), "n", 1,
                                 ORACLE_MAX_QUBITS),
    "dicke_state_amplitudes.k": (lambda v: dicke_state_amplitudes(4, v), "k", 0, 4),
    "single_qubit_density.site": (lambda v: single_qubit_density(np.full(8, 8**-0.5), v),
                                  "site", 0, 2),
    "reduced_single_qubit.site": (lambda v: reduced_single_qubit(BRANCH, v), "site", 0, 3),
}


def _bounded(bound):
    """The cases that have bound 2 (lo) or 3 (hi), as parameters."""
    return [pytest.param(*case, id=key) for key, case in CASES.items() if case[bound] is not None]


@pytest.mark.parametrize("call, name, lo, hi, value", [
    pytest.param(*case, value, id=key + suffix)
    for key, case in CASES.items() for value, suffix in ((5.0, ""), (True, "-True"))])
def test_non_integer_names_argument(call, name, lo, hi, value):
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(TypeError, match=f"^{message}$"):
        call(value)


def _range_message(name, lo, hi, value):
    bound = f"be at least {lo}" if hi is None else f"lie in [{lo}, {hi}]"
    return "^" + re.escape(f"{name} must {bound}, got {value}") + "$"


@pytest.mark.parametrize("call, name, lo, hi", _bounded(2))
def test_below_lowest_names_argument_and_value(call, name, lo, hi):
    with pytest.raises(_ArgumentError, match=_range_message(name, lo, hi, lo - 1)):
        call(lo - 1)


@pytest.mark.parametrize("call, name, lo, hi", _bounded(3))
def test_above_highest_names_argument_and_value(call, name, lo, hi):
    with pytest.raises(_ArgumentError, match=_range_message(name, lo, hi, hi + 1)):
        call(hi + 1)


def test_bifurcation_k_past_its_range_names_k():
    # no n_min >= 2k lies under 2^53, so the error is about k, not about an empty n_min range
    for k, n in ((2**52 + 1, 2**53), (2**60, 2**61)):
        with pytest.raises(_ArgumentError, match=_range_message("k", 1, 2**52, k)):
            bifurcation_diagram(k, n, n)
    (point,) = bifurcation_diagram(2**52, 2**53, 2**53)
    assert (point.n, point.k) == (2**53, 2**52)


# id: (call with the checked weight in place, its name)
WEIGHTS = {
    "SourceState.from_p00": (SourceState.from_p00, "p00"),
    "log_raw_outcome_prob": (lambda v: log_raw_outcome_prob(5, 2, v), "p00"),
    "raw_outcome_prob": (lambda v: raw_outcome_prob(5, 2, v), "p00"),
    "log_folded_prob": (lambda v: log_folded_prob(DickeSpec(5, 2), v), "p00"),
    "folded_prob": (lambda v: folded_prob(DickeSpec(5, 2), v), "p00"),
    "failure_prob": (lambda v: failure_prob(5, v), "p00"),
    "distribution": (lambda v: distribution(5, v), "p00"),
    "sample_runs": (lambda v: sample_runs(5, v, 10, 0), "p00"),
    "binary_entropy": (binary_entropy, "p"),
}


@pytest.mark.parametrize("value", ["0.5", b"0.5", True, np.bool_(False), None, 0.5 + 0j, [0.5],
                                   np.array([0.5])],
                         ids=["str", "bytes", "bool", "numpy-bool", "None", "complex", "list",
                              "numpy-1-element"])
@pytest.mark.parametrize("call, name", [pytest.param(*case, id=key)
                                        for key, case in WEIGHTS.items()])
def test_non_number_weight_names_argument(call, name, value):
    message = "^" + re.escape(f"{name} must be a real number, got {value!r}") + "$"
    with pytest.raises(TypeError, match=message):
        call(value)


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.array(0.5)],
                         ids=["float32", "float64", "numpy-0-d"])
@pytest.mark.parametrize("call", [pytest.param(case[0], id=key) for key, case in WEIGHTS.items()])
def test_numpy_real_weight_is_accepted(call, value):
    result = call(value)
    if isinstance(result, float):
        assert result == call(0.5)


def test_empty_amplitudes_are_not_a_state():
    with pytest.raises(ValueError, match="power of two"):
        single_qubit_density(np.zeros(0, dtype=complex), 0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: OutcomeDistribution(2, np.array([math.nan, 0.5, 0.5])),
                 id="OutcomeDistribution"),
    pytest.param(lambda: SourceState(math.nan, 0.0), id="SourceState"),
    pytest.param(lambda: CorrelatedState(2, np.array([math.nan, 0, 0, 0], dtype=complex)),
                 id="CorrelatedState"),
    pytest.param(lambda: ConditionalState(2, 1, np.array([math.nan, 0], dtype=complex), 0.5),
                 id="ConditionalState"),
])
def test_nan_fails_normalisation(build):
    with pytest.raises(ValueError, match="nan"):
        build()

"""Relative error of public numeric results against 50-digit mpmath references.

Each test asserts the bound that the function's docstring states. Inputs are drawn
over the documented range: n log-uniform on [2, 2^53], k log-uniform on [1, n // 2],
and a threshold's k log-uniform on [1, 2^1000].
"""

import mpmath
from hypothesis import example, given, settings, strategies as st

from dickelift import (
    BipartiteMeasure,
    DickeSpec,
    SourceState,
    asymptotic_expansion,
    check_locc_bound,
    critical_threshold,
    tangle_decay_bound,
)


@st.composite
def _log_uniform(draw, lo, hi):
    """An integer in [lo, hi]: a uniform bit length, then a uniform value of that length."""
    bits = draw(st.integers(lo.bit_length(), hi.bit_length()))
    return draw(st.integers(max(lo, 1 << (bits - 1)), min(hi, (1 << bits) - 1)))


@st.composite
def _specs(draw):
    n = draw(_log_uniform(2, 2**53))
    return DickeSpec(n, draw(_log_uniform(1, n // 2)))


_EDGES = [DickeSpec(2, 1), DickeSpec(3, 1), DickeSpec(2**53, 1), DickeSpec(2**53, 2**52)]


def _within(value: float, exact, rel: float) -> bool:
    return abs(mpmath.mpf(value) - exact) <= rel * abs(exact)


def _qubit_measure(p, kind: BipartiteMeasure):
    """Exact entanglement of a pure state whose qubit reduction is diag(p, 1 - p)."""
    if kind is BipartiteMeasure.VON_NEUMANN_ENTROPY:
        return -(p * mpmath.log(p) + (1 - p) * mpmath.log1p(-p)) / mpmath.log(2)
    return 4 * p * (1 - p)


def _with_edges(test):
    for spec in _EDGES:
        test = example(spec)(test)
    return test


@_with_edges
@settings(max_examples=300, deadline=None)
@given(_specs())
def test_locc_sides_within_1e_15(spec):
    for kind in BipartiteMeasure:
        report = check_locc_bound(spec, kind)
        with mpmath.workdps(50):
            source_p00 = mpmath.mpf(SourceState.from_p00(report.p00_opt).p00)
            dicke_value = _qubit_measure(mpmath.mpf(spec.k) / spec.n, kind)
            assert _within(report.lhs, _qubit_measure(source_p00, kind), 1e-15)
            assert _within(report.dicke_value, dicke_value, 1e-15)
            assert _within(report.rhs, mpmath.mpf(report.p_opt) * dicke_value, 1e-15)


@_with_edges
@settings(max_examples=300, deadline=None)
@given(_specs())
def test_tangle_decay_bound_within_1e_13(spec):
    bound, _ = tangle_decay_bound(spec)
    with mpmath.workdps(50):
        n, k = mpmath.mpf(spec.n), mpmath.mpf(spec.k)
        limit = mpmath.exp(k * mpmath.log(k) - k - mpmath.loggamma(k + 1))
        assert _within(bound, 4 * k / (limit * (1 + k / (2 * n)) * n), 1e-13)


@_with_edges
@settings(max_examples=300, deadline=None)
@given(_specs())
def test_asymptotic_expansion_within_1e_13(spec):
    with mpmath.workdps(50):
        n, k = mpmath.mpf(spec.n), mpmath.mpf(spec.k)
        limit = mpmath.exp(k * mpmath.log(k) - k - mpmath.loggamma(k + 1))
        assert _within(asymptotic_expansion(spec), limit * (1 + k / (2 * n)), 1e-13)


@example(1)
@example(2**52)
@example(2**1000)
@settings(max_examples=300, deadline=None)
@given(_log_uniform(1, 2**1000))
def test_critical_threshold_eta_c_within_1e_15(k):
    with mpmath.workdps(50):
        two_k = 2 * mpmath.mpf(k)
        exact = two_k + mpmath.mpf(1) / 2 + mpmath.sqrt(two_k + mpmath.mpf(1) / 4)
        assert _within(critical_threshold(k).eta_c, exact, 1e-15)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dickelift import (
    DickeSpec,
    OutcomeDistribution,
    SourceState,
    distribution,
    failure_prob,
    folded_prob,
    log_folded_prob,
    log_raw_outcome_prob,
    raw_outcome_prob,
)
from dickelift.probabilities import (
    _LOG_CUT,
    _folded,
    _log_pair,
    _log_raw_all_k,
    _prob_cols,
    _raw_law,
    _window,
)
from dickelift.statevector import build_state, measure_fock


class TestSourceState:
    def test_from_p00(self):
        s = SourceState.from_p00(0.3)
        assert s.p00 == pytest.approx(0.3, abs=1e-15)
        assert abs(s.amp00) ** 2 + abs(s.amp11) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_complex_phases_allowed(self):
        s = SourceState(0.6 * np.exp(0.7j), 0.8 * np.exp(-1.2j))
        assert s.p00 == pytest.approx(0.36, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SourceState(0.6, 0.9)


class TestDickeSpec:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (10, 5), (7, 3)])
    def test_valid(self, n, k):
        spec = DickeSpec(n, k)
        assert (spec.n, spec.k) == (n, k)

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 0), (3, 2), (4, 3), (2, 2)])
    def test_rejects_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            DickeSpec(n, k)


class TestRawOutcomeProb:
    def test_three_pair_example(self):
        assert raw_outcome_prob(3, 1, 0.5) == pytest.approx(3 / 8, abs=1e-15)

    def test_all_horizontal(self):
        assert raw_outcome_prob(5, 0, 1.0) == 1.0

    def test_against_statevector_enumeration(self):
        # weight-2 slice of the 7-pair product state, squared and summed
        st7 = build_state(SourceState.from_p00(0.3), 7)
        expected = measure_fock(st7)[2].probability
        assert raw_outcome_prob(7, 2, 0.3) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n,k,p00", [(3, 4, 0.5), (3, -1, 0.5), (3, 1, 1.5), (3, 1, -0.1)])
    def test_domain_errors(self, n, k, p00):
        with pytest.raises(ValueError):
            raw_outcome_prob(n, k, p00)

    def test_boundary_zeros_are_exact(self):
        assert raw_outcome_prob(6, 2, 0.0) == 0.0
        assert raw_outcome_prob(6, 2, 1.0) == 0.0
        assert raw_outcome_prob(6, 6, 0.0) == 1.0

    @given(
        n=st.integers(1, 64),
        k_frac=st.floats(0.0, 1.0),
        p00=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_mirror_symmetry_bit_exact(self, n, k_frac, p00):
        k = round(k_frac * n)
        assert raw_outcome_prob(n, k, p00) == raw_outcome_prob(n, n - k, 1.0 - p00)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_pair_kernel_bit_identical(self, data):
        # the row form (library calls) and the column form (CLI tables) give the same doubles
        n = data.draw(st.one_of(st.integers(2, 10**6), st.integers(2, 2**53)), label="n")
        k = data.draw(st.one_of(st.integers(0, n), st.just(n // 2)), label="k")
        weights = [0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
                   k / n, 1.0 - k / n,
                   *data.draw(st.lists(st.floats(0.0, 1.0), max_size=8), label="weights")]
        rows = [(_folded(n, k, a), *map(math.exp, _log_pair(n, k, a))) for a in weights]
        assert len(rows) == len(weights)
        cols = _prob_cols(n, k, np.array(weights))
        assert [list(map(float.hex, row)) for row in zip(*cols)] == \
            [list(map(float.hex, row)) for row in rows]
        spec = DickeSpec(n, min(k, n - k)) if 0 < k < n else None
        for a, (folded, *pair) in zip(weights, rows):
            assert pair == [raw_outcome_prob(n, k, a), raw_outcome_prob(n, n - k, a)], a
            if spec is not None:  # folding k and n - k is one sum, in either order
                assert folded == folded_prob(spec, a), a

    @pytest.mark.parametrize("n,k", [(7, 2), (8, 4), (10, 3), (10**6, 3), (2**53, 2**52)])
    def test_column_kernel_on_a_sweep_grid(self, n, k):
        # dense enough that libm's and numpy's log, log1p or exp would part in some row
        weights = np.arange(10001) / 10000
        rows = [(_folded(n, k, a), *map(math.exp, _log_pair(n, k, a))) for a in weights.tolist()]
        assert [list(map(float.hex, row)) for row in zip(*_prob_cols(n, k, weights))] == \
            [list(map(float.hex, row)) for row in rows]

    @given(n=st.integers(2, 64), p00=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_completeness(self, n, p00):
        total = sum(raw_outcome_prob(n, k, p00) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def reference_log_raw(n, k, p00):
    """Log of raw outcome k, evaluated term by term: the reference for every scalar path.

    Below 1/2 through the mirrored pair (n-k, 1-p00), with the smaller of
    k, n-k at exactly 1/2, the lgamma log-binomial, and libm log and log1p.
    """
    if p00 < 0.5:
        k, p00 = n - k, 1.0 - p00
    if p00 == 0.5 and k > n - k:
        k = n - k
    if p00 == 1.0:
        return 0.0 if k == 0 else float("-inf")
    lo, hi = sorted((k, n - k))
    log_binom = math.lgamma(n + 1) - math.lgamma(lo + 1) - math.lgamma(hi + 1)
    return min(0.0, log_binom + (n - k) * math.log(p00) + k * math.log1p(-p00))


class TestScalarReference:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_public_scalars_bit_identical(self, data):
        n = data.draw(st.integers(1, 10**6), label="n")
        k = data.draw(st.integers(0, n), label="k")
        weights = [0.0, -0.0, 1.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
                   k / n, *data.draw(st.lists(st.floats(0.0, 1.0), max_size=8), label="weights")]
        canonical = min(k, n - k)
        for a in weights:
            la, lb = reference_log_raw(n, k, a), reference_log_raw(n, n - k, a)
            log_raw = log_raw_outcome_prob(n, k, a)
            assert type(log_raw) is float and log_raw == la, a
            assert raw_outcome_prob(n, k, a) == math.exp(la), a
            if canonical == 0:
                continue
            spec = DickeSpec(n, canonical)
            lc, ld = (la, lb) if canonical == k else (lb, la)
            log_folded = log_folded_prob(spec, a)
            assert type(log_folded) is float, a
            if 2 * canonical == n:
                assert folded_prob(spec, a) == math.exp(lc), a
                assert log_folded == lc, a
            else:
                assert folded_prob(spec, a) == math.exp(lc) + math.exp(ld), a
                assert log_folded == min(0.0, float(np.logaddexp(lc, ld))), a


class TestFoldedProb:
    def test_w_state_probability(self):
        assert folded_prob(DickeSpec(3, 1), 0.5) == pytest.approx(3 / 4, abs=1e-15)

    def test_even_midpoint_single_count(self):
        # n = 4, k = 2 is self-paired: 6 * (1/2)^4
        assert folded_prob(DickeSpec(4, 2), 0.5) == pytest.approx(6 / 16, abs=1e-15)

    def test_separable_source(self):
        assert folded_prob(DickeSpec(6, 1), 0.0) == 0.0

    def test_rejects_non_canonical_spec(self):
        with pytest.raises(ValueError):
            folded_prob(DickeSpec(5, 3), 0.5)

    @given(
        n=st.integers(2, 40),
        k_frac=st.floats(0.0, 1.0),
        p00=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_mirror_in_p00(self, n, k_frac, p00):
        k = max(1, round(k_frac * (n // 2)))
        spec = DickeSpec(n, k)
        assert folded_prob(spec, p00) == folded_prob(spec, 1.0 - p00)

    def test_large_n_stability(self):
        p = folded_prob(DickeSpec(10**6, 3), 3 / 10**6)
        assert math.isfinite(p) and 0.0 < p < 1.0

    def test_log_variant_matches(self):
        spec = DickeSpec(9, 2)
        assert math.exp(log_folded_prob(spec, 0.37)) == pytest.approx(
            folded_prob(spec, 0.37), rel=1e-14
        )

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_log_variant_self_paired_is_raw_log(self, a):
        assert log_folded_prob(DickeSpec(4, 2), a) == log_raw_outcome_prob(4, 2, a)

    def test_log_variant_retains_underflowed_values(self):
        spec = DickeSpec(5000, 3)
        lp = log_folded_prob(spec, 0.5)
        assert folded_prob(spec, 0.5) == 0.0  # below linear float range
        assert math.isfinite(lp) and lp < -3000.0


class TestFailureProb:
    def test_three_pair_example(self):
        assert failure_prob(3, 0.5) == pytest.approx(1 / 4, abs=1e-15)

    def test_certain_failure(self):
        assert failure_prob(10, 1.0) == 1.0

    def test_normalization_identity(self):
        n, p00 = 9, 0.2
        total = failure_prob(n, p00) + sum(
            folded_prob(DickeSpec(n, k), p00) for k in range(1, n // 2 + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDistribution:
    def test_three_pair_example(self):
        d = distribution(3, 0.5)
        assert_allclose(d.raw, [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=0, atol=1e-15)
        assert d.failure == pytest.approx(1 / 4, abs=1e-15)

    def test_degenerate_source(self):
        d = distribution(2, 1.0)
        assert_allclose(d.raw, [1, 0, 0], rtol=0, atol=0)

    def test_matches_statevector(self):
        d = distribution(6, 0.37)
        probs = [b.probability for b in measure_fock(build_state(SourceState.from_p00(0.37), 6))]
        assert_allclose(d.raw, probs, rtol=0, atol=1e-12)

    def test_folded_view_consistency(self):
        d = distribution(7, 0.3)
        for k in range(1, 4):
            assert d.folded[k] == d.raw[k] + d.raw[7 - k]
        assert d.folded[0] == d.raw[0] + d.raw[7]

    def test_even_midpoint_not_double_counted(self):
        d = distribution(8, 0.41)
        assert d.folded[4] == d.raw[4]
        assert d.folded.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            distribution(1, 0.5)

    def test_rejects_empty_law(self):
        # with n = 0 the failure entry raw[0] + raw[n] would count one outcome twice
        with pytest.raises(ValueError, match="n >= 1"):
            OutcomeDistribution(0, np.array([1.0]))

    def test_normalisation_error_names_input(self):
        # the log-binomial kernel's rounding fails the 1e-12 check at this size
        with pytest.raises(ValueError) as info:
            distribution(5000, 0.3)
        message = str(info.value)
        assert message.startswith("distribution(n=5000, p00=0.3): raw probabilities sum to 1.0")
        assert "np.float64" not in message

    @pytest.mark.parametrize("p00", [0.0, 0.137, 0.5, math.nextafter(0.5, 0.0), 0.77, 1.0])
    def test_logs_equal_scalar_logs(self, p00):
        n = 301
        expected = [log_raw_outcome_prob(n, k, p00) for k in range(n + 1)]
        np.testing.assert_array_equal(_log_raw_all_k(n, p00, 0, n), expected)

    @pytest.mark.parametrize("p00", [0.5, math.nextafter(0.5, 0.0)])
    def test_mirror_symmetry_bit_exact_at_half(self, p00):
        # 1 - nextafter(1/2, 0) rounds to 1/2, so both weights are evaluated there
        for n in range(2, 400):
            raw = distribution(n, p00).raw
            np.testing.assert_array_equal(raw, raw[::-1], err_msg=f"n = {n}")

    @given(n=st.integers(2, 300), p00=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry_bit_exact(self, n, p00):
        # both laws take exp of the same logs, each in one contiguous pass
        mirrored = distribution(n, 1.0 - p00).raw[::-1]
        np.testing.assert_array_equal(distribution(n, p00).raw, mirrored)

    def test_matches_scalar_engine(self):
        n, p00 = 23, 0.137
        d = distribution(n, p00)
        per_k = [raw_outcome_prob(n, k, p00) for k in range(n + 1)]
        assert_allclose(d.raw, per_k, rtol=1e-13, atol=1e-300)


def _full_logs(n, p00):
    """The log law at every k from an O(n) table of log factorials: the evaluation without a window."""
    mirror = p00 < 0.5
    p = 1.0 - p00 if mirror else p00
    if p == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n if mirror else 0] = 0.0
        return out
    k = np.arange(n + 1)
    lo = np.minimum(k, n - k)
    j = lo if p == 0.5 else (n - k if mirror else k)
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    log_binom = log_fact[n] - log_fact[lo] - log_fact[n - lo]
    out = log_binom + (n - j) * math.log(p) + j * math.log1p(-p)
    np.minimum(out, 0.0, out=out)
    return out


# 3e-6 is the k = 3 optimal weight at n = 10^6
EDGE_P00 = [0.0, 1e-12, 3e-6, 0.01, 0.3, 0.5, math.nextafter(0.5, 0.0), 0.7, 0.99, 1 - 1e-12, 1.0]

# weights log-uniform in [1e-16, 1/2], or their complements: the skewed laws, on which the
# window's bound is widest against the law
SKEWED_P00 = st.builds(lambda log_p, mirror: 1.0 - math.exp(log_p) if mirror else math.exp(log_p),
                       st.floats(math.log(1e-16), math.log(0.5)), st.booleans())


def _assert_same_bits(n, p00):
    expected = np.exp(_full_logs(n, p00))
    actual = _raw_law(n, p00)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), (n, p00)


class TestWindow:
    """The law evaluated on its window equals numpy's exp over the whole law, bit for bit."""

    @given(n=st.integers(2, 10**5), p00=st.one_of(st.floats(0.0, 1.0), SKEWED_P00))
    @settings(max_examples=100, deadline=None)
    def test_equals_full_evaluation(self, n, p00):
        _assert_same_bits(n, p00)

    @pytest.mark.parametrize("p00", EDGE_P00)
    @pytest.mark.parametrize("n", [898, 5000, 10**5, 10**6])
    def test_equals_full_evaluation_at_large_n(self, n, p00):
        _assert_same_bits(n, p00)

    @pytest.mark.parametrize("n, p00", [(700, 0.3), (1000, 0.3), (1500, 0.3), (2000, 0.7),
                                        (5000, 0.3), (20000, 0.3), (3000, 0.001), (10**6, 0.3),
                                        (10**6, 0.5), (10**6, 1e-12), (10**6, 3e-6)])
    def test_window_holds_every_nonzero_entry(self, n, p00):
        a, b = _window(n, p00)
        logs = _full_logs(n, p00)
        assert (logs[:a] < _LOG_CUT).all() and (logs[b + 1 :] < _LOG_CUT).all()
        # the bound costs at most 1,000 outcomes beyond the exact window
        inside = np.flatnonzero(logs >= _LOG_CUT)
        assert (b - a) - (inside[-1] - inside[0]) <= 1000

    def test_large_law_costs_its_window(self):
        # the O(n) lgamma table and index arrays peaked at 53.5 MB; raw alone is 8 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                distribution(10**6, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert str(info.value).startswith(
            "distribution(n=1000000, p00=0.3): raw probabilities sum to")


class TestPhaseIndependence:
    def test_complex_phases_do_not_change_outcomes(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p00 = rng.uniform(0.05, 0.95)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            src = SourceState(math.sqrt(p00) * phases[0], math.sqrt(1 - p00) * phases[1])
            probs = [b.probability for b in measure_fock(build_state(src, 5))]
            assert_allclose(probs, distribution(5, p00).raw, rtol=0, atol=1e-12)


def test_log_raw_matches_linear():
    lp = log_raw_outcome_prob(12, 4, 0.3)
    assert math.exp(lp) == pytest.approx(raw_outcome_prob(12, 4, 0.3), rel=1e-15)

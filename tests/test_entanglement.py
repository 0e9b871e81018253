import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from numpy.testing import assert_allclose

from dickelift import (
    BipartiteMeasure,
    DickeSpec,
    SourceState,
    asymptotic_prob,
    binary_entropy,
    check_locc_bound,
    critical_threshold,
    dicke_single_qubit_entanglement,
    ghz_single_qubit_entanglement,
    optimize_source,
    source_entanglement,
    tangle_decay_bound,
    two_tangle_of_density,
    von_neumann_entropy,
)
from dickelift.statevector import build_state, measure_fock, reduced_single_qubit, single_qubit_density

ENTROPY = BipartiteMeasure.VON_NEUMANN_ENTROPY
TANGLE = BipartiteMeasure.TWO_TANGLE


def _entropy_reference(p: float) -> float:
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        return float(-(p * mpmath.log(p) + (1 - p) * mpmath.log1p(-p)) / mpmath.log(2))


_NORMAL_P = st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True)


class TestBinaryEntropy:
    @pytest.mark.parametrize("p", [sys.float_info.min, 1e-300, 1e-14, 1e-10, 1e-6, 0.3, 0.5,
                                   1 - 1e-6, 1 - 1e-10, 1 - 1e-14, math.nextafter(1.0, 0.0)])
    def test_relative_error_at_points(self, p):
        assert binary_entropy(p) == pytest.approx(_entropy_reference(p), rel=1e-15, abs=0)

    @given(_NORMAL_P, st.booleans())
    def test_relative_error(self, p, complement):
        p = 1.0 - p if complement else p
        assume(p < 1.0)
        assert binary_entropy(p) == pytest.approx(_entropy_reference(p), rel=1e-15, abs=0)

    @given(_NORMAL_P)
    def test_symmetric_where_complement_exact(self, p):
        if 1.0 - (1.0 - p) == p:
            assert binary_entropy(p) == binary_entropy(1.0 - p)

    def test_endpoints(self):
        assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0


class TestSourceEntanglement:
    def test_maximally_entangled_is_one_ebit(self):
        assert source_entanglement(SourceState.from_p00(0.5), ENTROPY) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_product_state_has_no_tangle(self):
        assert source_entanglement(SourceState.from_p00(0.0), TANGLE) == 0.0
        assert source_entanglement(SourceState.from_p00(1.0), ENTROPY) == 0.0

    def test_tangle_against_pair_statevector(self):
        # one pair amp00|00> + amp11|11> as an explicit two-qubit vector
        a, b = math.sqrt(0.3), math.sqrt(0.7)
        amps = np.array([a, 0.0, 0.0, b], dtype=complex)
        rho = single_qubit_density(amps, 0)
        oracle = two_tangle_of_density(rho)
        value = source_entanglement(SourceState.from_p00(0.3), TANGLE)
        assert value == pytest.approx(0.84, abs=1e-12)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_entropy_against_pair_statevector(self):
        amps = np.array([math.sqrt(0.2), 0.0, 0.0, math.sqrt(0.8)], dtype=complex)
        oracle = von_neumann_entropy(single_qubit_density(amps, 1))
        assert source_entanglement(SourceState.from_p00(0.2), ENTROPY) == pytest.approx(
            oracle, abs=1e-12
        )


class TestDickeSingleQubit:
    def test_bell_pair(self):
        assert dicke_single_qubit_entanglement(DickeSpec(2, 1), ENTROPY) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_w_state_tangle(self):
        value = dicke_single_qubit_entanglement(DickeSpec(3, 1), TANGLE)
        assert value == pytest.approx(8 / 9, abs=1e-15)
        rho = np.diag([2 / 3, 1 / 3])
        assert value == pytest.approx(4 * np.linalg.det(rho), abs=1e-15)

    def test_vanishes_at_large_n(self):
        for kind in (ENTROPY, TANGLE):
            assert dicke_single_qubit_entanglement(DickeSpec(10**6, 2), kind) < 1e-4

    @pytest.mark.parametrize("n", range(2, 13))
    def test_reduction_matches_statevector(self, n):
        src = SourceState.from_p00(0.62)
        branches = measure_fock(build_state(src, n))
        for k in range(1, n // 2 + 1):
            rho = reduced_single_qubit(branches[k], 0)
            assert_allclose(rho, np.diag([1 - k / n, k / n]), rtol=0, atol=1e-12)
            for kind, value in (
                (ENTROPY, von_neumann_entropy(rho)),
                (TANGLE, two_tangle_of_density(rho)),
            ):
                assert dicke_single_qubit_entanglement(DickeSpec(n, k), kind) == pytest.approx(
                    value, abs=1e-12
                )

    def test_monotone_decay_in_n(self):
        for k, kind in ((1, ENTROPY), (1, TANGLE), (3, ENTROPY), (3, TANGLE)):
            values = [
                dicke_single_qubit_entanglement(DickeSpec(n, k), kind)
                for n in range(2 * k + 1, 60)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestGhz:
    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_always_one_ebit(self, n):
        assert ghz_single_qubit_entanglement(n) == 1.0

    def test_statevector_check_n3(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 2**-0.5
        assert von_neumann_entropy(single_qubit_density(amps, 0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_single_qubit(self):
        with pytest.raises(ValueError):
            ghz_single_qubit_entanglement(1)


class TestLoccBound:
    def test_holds_just_above_threshold(self):
        report = check_locc_bound(DickeSpec(5, 1), TANGLE)
        assert report.holds and report.lhs > report.rhs

    def test_margin_is_roughly_inverse_probability(self):
        report = check_locc_bound(DickeSpec(20, 1), TANGLE)
        assert report.holds
        ratio = report.lhs / report.rhs
        assert 0.9 < ratio * report.p_opt < 1.2

    def test_large_n_ratio_tends_to_e(self):
        report = check_locc_bound(DickeSpec(10**6, 1), TANGLE)
        assert report.holds
        assert report.lhs / report.rhs == pytest.approx(math.e, rel=1e-3)

    @pytest.mark.parametrize("kind", [ENTROPY, TANGLE])
    def test_lhs_is_the_source_as_built(self, kind):
        # about half of the optimizer's weights x do not survive from_p00: p00 != x
        rebuilt = 0
        for k in (1, 2, 3, 5):
            for n in range(2 * k, 2 * k + 60):
                report = check_locc_bound(DickeSpec(n, k), kind)
                source = SourceState.from_p00(report.p00_opt)
                rebuilt += source.p00 != report.p00_opt
                assert report.lhs == source_entanglement(source, kind)
        assert rebuilt > 0

    @pytest.mark.parametrize("kind", [ENTROPY, TANGLE])
    def test_holds_on_a_spread_of_specs(self, kind):
        for n, k in ((7, 2), (12, 4), (14, 5), (50, 1), (200, 3)):
            report = check_locc_bound(DickeSpec(n, k), kind)
            assert report.holds


class TestTangleDecayBound:
    def test_n100_k1(self):
        bound, actual = tangle_decay_bound(DickeSpec(100, 1))
        assert actual == pytest.approx(0.0396, abs=1e-10)
        assert bound == pytest.approx(0.1081, abs=2e-4)
        assert actual < bound

    def test_n10000_k3(self):
        bound, actual = tangle_decay_bound(DickeSpec(10_000, 3))
        assert actual < bound

    def test_scaled_tangle_limits_to_4k(self):
        for k in (1, 3):
            values = [
                n * dicke_single_qubit_entanglement(DickeSpec(n, k), TANGLE)
                for n in (100, 1000, 10_000, 100_000)
            ]
            assert all(4 * k * (1 - k / 100) - 1e-12 <= v <= 4 * k + 1e-12 for v in values)
            assert values[-1] == pytest.approx(4 * k, rel=1e-4)

    def test_decay_rate_window(self):
        for n in range(8, 200, 7):
            tau = dicke_single_qubit_entanglement(DickeSpec(n, 2), TANGLE)
            assert 4 * 2 * (1 - 2 / n) - 1e-12 <= n * tau <= 4 * 2 + 1e-12


def test_bounds_hold_in_every_regime():
    # derived for the supercritical regime, both bounds still hold below it, down to n = 2k
    regimes = set()
    for k in range(1, 8):
        for n in range(2 * k, 2 * k + 40):
            spec = DickeSpec(n, k)
            for kind in (ENTROPY, TANGLE):
                report = check_locc_bound(spec, kind)
                assert report.holds, (n, k, kind)
            bound, actual = tangle_decay_bound(spec)
            assert actual < bound, (n, k)
            regimes.add(optimize_source(spec).regime)
    assert len(regimes) == 3


def test_threshold_guard_matches_regime():
    from dickelift import Regime

    for k in (1, 2, 3):
        thr = critical_threshold(k)
        n = thr.n_c + 1
        assert optimize_source(DickeSpec(n, k)).regime is Regime.SUPERCRITICAL
        report = check_locc_bound(DickeSpec(n, k), TANGLE)
        assert report.holds

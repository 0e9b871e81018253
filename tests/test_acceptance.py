"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dickelift import (
    BipartiteMeasure,
    DickeSpec,
    Regime,
    SourceState,
    asymptotic_expansion,
    asymptotic_prob,
    build_state,
    critical_threshold,
    dicke_fidelity,
    dicke_single_qubit_entanglement,
    distribution,
    folded_prob,
    ghz_single_qubit_entanglement,
    measure_fock,
    optimize_source,
    reduced_single_qubit,
    sample_runs,
    check_locc_bound,
    tangle_decay_bound,
)
from dickelift.optimize import _lower_root

ENTROPY = BipartiteMeasure.VON_NEUMANN_ENTROPY
TANGLE = BipartiteMeasure.TWO_TANGLE


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS")


def supercritical_start(k):
    thr = critical_threshold(k)
    return thr.n_c + 1 if thr.eta_is_integer else thr.n_c


def test_criterion_1_worked_example():
    with criterion(1, "three-pair worked example"):
        distribution(3, 0.5)  # warm the caches before timing
        elapsed = math.inf
        for _ in range(5):
            start = time.perf_counter()
            dist = distribution(3, 0.5)
            w_prob = folded_prob(DickeSpec(3, 1), 0.5)
            elapsed = min(elapsed, time.perf_counter() - start)
        assert_allclose(dist.raw, [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=0, atol=1e-15)
        assert abs(w_prob - 0.75) <= 1e-15
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_ideality():
    with criterion(2, "heralded states are ideal for random complex sources"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(1000):
            p00 = rng.uniform(1e-6, 1 - 1e-6)
            th0, th1 = rng.uniform(0.0, 2 * np.pi, 2)
            source = SourceState(
                math.sqrt(p00) * np.exp(1j * th0),
                math.sqrt(1 - p00) * np.exp(1j * th1),
            )
            for n in range(2, 11):
                branches = measure_fock(build_state(source, n))
                for k in range(1, n):
                    assert abs(dicke_fidelity(branches[k]) - 1.0) <= 1e-12, (n, k, p00)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "closed form matches brute-force statevector"):
        start = time.perf_counter()
        for n in range(2, 13):
            for p00 in np.linspace(0.0, 1.0, 21):
                probs = [
                    b.probability
                    for b in measure_fock(build_state(SourceState.from_p00(float(p00)), n))
                ]
                assert_allclose(
                    distribution(n, float(p00)).raw, probs, rtol=0, atol=1e-12
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_4_critical_thresholds():
    with criterion(4, "bifurcation thresholds and first split"):
        thr1, thr2, thr3 = critical_threshold(1), critical_threshold(2), critical_threshold(3)
        assert thr1.eta_c == pytest.approx(4.0, abs=1e-12) and thr1.n_c == 4
        assert thr2.eta_c == pytest.approx(6.5616, abs=1e-4) and thr2.n_c == 7
        assert thr3.eta_c == pytest.approx(9.0, abs=1e-12) and thr3.n_c == 9

        for k, first_split in ((1, 5), (2, 7), (3, 10)):
            for n in range(2 * k, first_split):
                assert len(optimize_source(DickeSpec(n, k)).branches) == 1, (n, k)
            assert len(optimize_source(DickeSpec(first_split, k)).branches) == 2

        h = 5e-5  # flat maximum at integer-threshold n = n_c
        for n, k in ((4, 1), (9, 3)):
            spec = DickeSpec(n, k)
            d2 = (
                folded_prob(spec, 0.5 + h)
                - 2 * folded_prob(spec, 0.5)
                + folded_prob(spec, 0.5 - h)
            ) / h**2
            assert abs(d2) < 1e-6, (n, k, d2)


def test_criterion_5_asymptotic_probability():
    with criterion(5, "optimal probability reaches k^k e^-k / k!"):
        for k in (1, 2, 3, 4):
            point = optimize_source(DickeSpec(10**5, k))
            limit = asymptotic_prob(k)
            assert abs(point.p_opt - limit) / limit < 1e-4, k
            if k == 1:
                assert abs(point.p_opt - 0.3679) < 1e-4


def test_criterion_6_expansion_quality():
    # Away from the exponentially small mirror term the k = 3 optimum is
    # C(n,3) (3/n)^3 (1 - 3/n)^(n-3).  Over limit * (1 + 3/(2n)) its series
    # in 1/n is 1 + 25/(8n^2) + 21/(8n^3) + ..., the general second-order
    # coefficient being (9k^2 - 2k)/24.  So n^2 * remainder lies in
    # (25/8, 25/8 + 4/n): the 1/n^3 term makes it exceed 25/8, and
    # n * (n^2 r - 25/8), 3.62 at n = 16, tends to 21/8 < 4.
    with criterion(6, "first-order expansion leaves a 25/(8n^2) remainder, k=3, n=16..200"):
        for n in range(16, 201):
            spec = DickeSpec(n, 3)
            p_opt = optimize_source(spec).p_opt
            curve = asymptotic_expansion(spec)
            scaled = n * n * (p_opt / curve - 1)
            assert 25 / 8 < scaled < 25 / 8 + 4 / n, (
                f"n={n}: optimum {p_opt:.12f} vs curve {curve:.12f}; "
                f"n^2 (p_opt/curve - 1) = {scaled:.6f}, expected in "
                f"(25/8, 25/8 + 4/n) = (3.125, {25 / 8 + 4 / n:.6f}) from "
                f"the series 1 + 25/(8n^2) + 21/(8n^3) + ..."
            )


def test_criterion_7_optimal_source_limit():
    with criterion(7, "optimal weight approaches 1/n"):
        grid = [5, 6, 8, 12, 16, 24, 48, 100, 300, 1000, 10_000]
        scaled = [n * optimize_source(DickeSpec(n, 1)).p00_opt for n in grid]
        for n, value in zip(grid, scaled):
            if n >= 100:
                assert 0.9 <= value <= 1.1, (n, value)
        deviations = [abs(v - 1.0) for v in scaled]
        assert all(
            b <= a + 1e-6 for a, b in zip(deviations, deviations[1:])
        ), deviations
        assert deviations[-1] < 1e-3


def test_criterion_8_epr_collapse_vs_optimal_persistence():
    with criterion(8, "maximally entangled source collapses, optimal persists"):
        for n in list(range(30, 121, 10)) + [500]:
            assert folded_prob(DickeSpec(n, 3), 0.5) < 1e-3, n
        for n in list(range(16, 201)) + [1000, 10_000]:
            assert optimize_source(DickeSpec(n, 3)).p_opt > 0.22, n


def test_criterion_9_entanglement_decay():
    with criterion(9, "Dicke qubit 2-tangle decay and bound"):
        source = SourceState.from_p00(0.58)
        for n in range(2, 13):
            branches = measure_fock(build_state(source, n))
            for k in range(1, n // 2 + 1):
                tau = dicke_single_qubit_entanglement(DickeSpec(n, k), TANGLE)
                rho = reduced_single_qubit(branches[k], 0)
                assert abs(tau - 4 * float(np.linalg.det(rho).real)) <= 1e-12, (n, k)
                assert abs(tau - 4 * (k / n) * (1 - k / n)) <= 1e-12, (n, k)

        for k in range(1, 6):
            for n in range(supercritical_start(k), 10_001):
                bound, actual = tangle_decay_bound(DickeSpec(n, k))
                assert actual < bound, (n, k)
            n = 10_000
            tau = dicke_single_qubit_entanglement(DickeSpec(n, k), TANGLE)
            assert abs(n * tau - 4 * k) / (4 * k) < 0.01, k

        for n in (2, 5, 17, 1000):
            assert ghz_single_qubit_entanglement(n) == 1.0


def test_criterion_10_locc_inequality():
    with criterion(10, "source entanglement bounds heralded entanglement"):
        for k in range(1, 6):
            for n in range(supercritical_start(k), 1001):
                for kind in (ENTROPY, TANGLE):
                    report = check_locc_bound(DickeSpec(n, k), kind)
                    assert report.holds, (n, k, kind)


def test_criterion_11_monte_carlo():
    with criterion(11, "seeded Monte Carlo reproduces the outcome law"):
        runs = 10**6
        start = time.perf_counter()
        records = sample_runs(3, 0.5, runs, seed=1)
        elapsed = time.perf_counter() - start
        counts = np.bincount([r.raw_outcome_k for r in records], minlength=4)
        for k, p in enumerate((1 / 8, 3 / 8, 3 / 8, 1 / 8)):
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(counts[k] / runs - p) < 5 * sigma, k
        assert sample_runs(3, 0.5, runs, seed=1) == records
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_12_critical_exponent():
    # Just above eta_c the lower optimum leaves 1/2 as a square root, the
    # order parameter of a second-order transition: with x = 1/2 - u, the
    # cubic expansion of g in u gives u^2 = A^2 delta + O(delta^2), where
    # delta = n - eta_c and A^2 = 3 sqrt(8k + 1) / (4 eta_c (eta_c - 1)).
    # The relative correction is -c delta with c in (0.19, 0.63) for
    # k = 1..6, inside the tolerance delta. Below delta ~ 1e-6 the rounding
    # of g near its double root dominates, so the sweep stops at 1e-5.
    with criterion(12, "optimal weight leaves 1/2 as sqrt(n - eta_c), k=1..6"):
        for k in range(1, 7):
            eta_c = critical_threshold(k).eta_c
            amplitude = math.sqrt(3 * math.sqrt(8 * k + 1) / (4 * eta_c * (eta_c - 1)))
            for delta in (1e-2, 1e-3, 1e-4, 1e-5):
                u = 0.5 - _lower_root(eta_c + delta, k)
                ratio = u / (amplitude * math.sqrt(delta))
                assert abs(ratio - 1) <= delta, (
                    f"k={k}, delta={delta:g}: 1/2 - x_opt = {u!r}, expected "
                    f"{amplitude:.6f} sqrt(delta) within relative {delta:g}; ratio {ratio!r}"
                )

import math
import random

import mpmath
import numpy as np
import pytest

from dickelift import (
    DickeSpec,
    Regime,
    asymptotic_expansion,
    asymptotic_prob,
    asymptotic_source,
    bifurcation_diagram,
    critical_threshold,
    folded_prob,
    optimize_source,
)
from dickelift.optimize import _MIN_LANES, _lower_root, _lower_roots


def grid_success_prob(n, k, weights):
    """Independent linear-domain evaluation of the folded success probability."""
    weights = np.asarray(weights, dtype=float)
    comp = 1.0 - weights
    value = math.comb(n, k) * (weights ** (n - k) * comp**k + weights**k * comp ** (n - k))
    if 2 * k == n:
        value /= 2.0
    return value


def mp_lower_root(n, k):
    """Root of g(x) = (n-2k) logit(x) - log(nx-k) + log(n-k-nx) on (k/n, 1/2), at 50 digits."""
    with mpmath.workdps(50):
        n, k = mpmath.mpf(n), mpmath.mpf(k)
        lo, hi = k / n, mpmath.mpf(0.5)
        for _ in range(170):  # bracket width 2^-171, far below any tolerance used here
            mid = (lo + hi) / 2
            if n * mid <= k or (
                (n - 2 * k) * (mpmath.log(mid) - mpmath.log(1 - mid))
                - mpmath.log(n * mid - k) + mpmath.log(n - k - n * mid) > 0
            ):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def fd_first(spec, a, h=1e-6):
    return (folded_prob(spec, a + h) - folded_prob(spec, a - h)) / (2 * h)


def fd_second(spec, a, h=5e-5):
    return (folded_prob(spec, a + h) - 2 * folded_prob(spec, a) + folded_prob(spec, a - h)) / h**2


class TestCriticalThreshold:
    def test_k1(self):
        thr = critical_threshold(1)
        assert thr.eta_c == pytest.approx(4.0, abs=1e-12)
        assert thr.n_c == 4 and thr.eta_is_integer

    def test_k2(self):
        thr = critical_threshold(2)
        assert thr.eta_c == pytest.approx(6.561552812808830, abs=1e-12)
        assert thr.n_c == 7 and not thr.eta_is_integer

    def test_k3(self):
        thr = critical_threshold(3)
        assert thr.eta_c == pytest.approx(9.0, abs=1e-12)
        assert thr.n_c == 9 and thr.eta_is_integer

    @pytest.mark.parametrize("k", range(1, 201))
    def test_invariants(self, k):
        thr = critical_threshold(k)
        assert thr.n_c == math.ceil(thr.eta_c)
        assert thr.eta_c > 2 * k
        # integer thresholds occur exactly at triangular k
        assert thr.eta_is_integer == (k in {j * (j + 1) // 2 for j in range(1, 20)})
        # the optimizer's integer regime test splits at the same n
        for n in range(2 * k, thr.n_c + 2):
            if n < thr.n_c:
                expected = Regime.SUBCRITICAL
            elif n == thr.n_c and thr.eta_is_integer:
                expected = Regime.CRITICAL
            else:
                expected = Regime.SUPERCRITICAL
            assert optimize_source(DickeSpec(n, k)).regime is expected, (n, k)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            critical_threshold(0)

    def test_n_c_is_first_integer_regime_crossing(self):
        # exact in integers where the float eta_c rounds: at 86771322821 its ceiling is one low
        rng = random.Random(17)
        fixed = [1, 2, 3, 10**6, 86771322821, 10**18 - 1, 10**18, 10**30 - 7]
        for k in fixed + [rng.randrange(1, 10**30) for _ in range(20000)]:
            n_c = critical_threshold(k).n_c
            assert (n_c - 2 * k) ** 2 >= n_c > (n_c - 1 - 2 * k) ** 2 + 1, k


class TestOptimizeSource:
    def test_three_pairs_subcritical(self):
        point = optimize_source(DickeSpec(3, 1))
        assert point.regime is Regime.SUBCRITICAL
        assert point.branches == ((0.5, pytest.approx(0.75, abs=1e-12)),)

    def test_four_pairs_critical_plateau(self):
        point = optimize_source(DickeSpec(4, 1))
        assert point.regime is Regime.CRITICAL
        assert point.p00_opt == 0.5
        spec = DickeSpec(4, 1)
        assert abs(fd_second(spec, 0.5)) < 1e-6
        h = 1e-3  # third derivative: vanishes by mirror symmetry
        d3 = (
            folded_prob(spec, 0.5 + 2 * h)
            - 2 * folded_prob(spec, 0.5 + h)
            + 2 * folded_prob(spec, 0.5 - h)
            - folded_prob(spec, 0.5 - 2 * h)
        ) / (2 * h**3)
        assert abs(d3) < 1e-6

    def test_supercritical_against_dense_grid(self):
        point = optimize_source(DickeSpec(12, 1))
        assert point.regime is Regime.SUPERCRITICAL
        weights = np.linspace(1e-9, 0.5, 1_000_001)
        values = grid_success_prob(12, 1, weights)
        top = values.argmax()
        assert abs(point.p00_opt - weights[top]) < 1e-5
        assert point.p_opt >= values[top] - 1e-12
        assert point.p_opt == pytest.approx(values[top], rel=1e-9)

    @pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
    def test_weight_against_mpmath_root(self, n):
        for k in range(1, 9):
            x = optimize_source(DickeSpec(n, k)).p00_opt
            root = mp_lower_root(n, k)
            assert abs((x - root) / root) < 1e-13, (n, k, x, root)

    def test_mirror_branches(self):
        point = optimize_source(DickeSpec(9, 2))
        assert len(point.branches) == 2
        (a_low, p_low), (a_high, p_high) = point.branches
        assert a_low < 0.5 < a_high
        assert a_low + a_high == pytest.approx(1.0, abs=1e-12)
        assert p_low == pytest.approx(p_high, abs=1e-12)

    def test_mirror_branch_probability_bit_exact(self):
        grid = [(n, k) for k in (1, 2, 3) for n in range(2 * k, 3001)]
        rng = np.random.default_rng(9)
        grid += [(n, k) for k in range(1, 9) for n in rng.integers(3001, 10**6, 25).tolist()]
        for n, k in grid:
            spec = DickeSpec(n, k)
            point = optimize_source(spec)
            if point.regime is Regime.SUPERCRITICAL:
                (a_low, p_low), (a_high, p_high) = point.branches
                assert a_high == 1.0 - a_low
                assert p_high == p_low == folded_prob(spec, a_high), (n, k)

    @pytest.mark.parametrize(
        "n,k",
        [(5, 1), (8, 1), (12, 1), (20, 1), (40, 1), (7, 2), (9, 2), (15, 2), (10, 3), (25, 3)],
    )
    def test_stationarity_at_optimum(self, n, k):
        point = optimize_source(DickeSpec(n, k))
        a_opt = point.p00_opt
        assert abs(fd_first(DickeSpec(n, k), a_opt)) < 1e-8
        assert fd_second(DickeSpec(n, k), a_opt, h=1e-5) < 0.0

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (6, 2), (9, 3)])
    def test_flat_or_peaked_at_half(self, n, k):
        point = optimize_source(DickeSpec(n, k))
        assert point.p00_opt == 0.5
        assert fd_second(DickeSpec(n, k), 0.5) <= 1e-6


class TestPitchforkStructure:
    @pytest.mark.parametrize("n,k", [(5, 1), (7, 2), (10, 3), (30, 1)])
    def test_half_is_strictly_suboptimal_above_threshold(self, n, k):
        point = optimize_source(DickeSpec(n, k))
        assert point.regime is Regime.SUPERCRITICAL
        assert folded_prob(DickeSpec(n, k), 0.5) < point.p_opt

    @pytest.mark.parametrize("n,k", [(3, 1), (6, 2), (8, 3)])
    def test_half_is_unique_maximum_below_threshold(self, n, k):
        weights = np.linspace(0.0, 1.0, 10_001)  # resolution 1e-4
        values = grid_success_prob(n, k, weights)
        assert values.argmax() == 5000

    @pytest.mark.parametrize("n,k", [(5, 1), (7, 2), (10, 3)])
    def test_supercritical_unimodal_on_half_interval(self, n, k):
        weights = np.linspace(1e-4, 0.5 - 1e-4, 5001)
        values = grid_success_prob(n, k, weights)
        rising = np.flatnonzero(np.diff(values) > 0)
        falling = np.flatnonzero(np.diff(values) < 0)
        assert rising.max() < falling.min()  # single interior peak

    @pytest.mark.parametrize("k,first_split", [(1, 5), (2, 7), (3, 10), (4, 12)])
    def test_first_two_maxima_n(self, k, first_split):
        thr = critical_threshold(k)
        expected = thr.n_c + 1 if thr.eta_is_integer else thr.n_c
        assert expected == first_split
        for n in range(2 * k, first_split):
            assert len(optimize_source(DickeSpec(n, k)).branches) == 1
        assert len(optimize_source(DickeSpec(first_split, k)).branches) == 2


class TestBifurcationDiagram:
    def test_single_branch_before_threshold(self):
        points = bifurcation_diagram(1, 3, 4)
        assert [p.regime for p in points] == [Regime.SUBCRITICAL, Regime.CRITICAL]
        assert all(p.branches[0][0] == 0.5 for p in points)

    def test_critical_k3(self):
        (point,) = bifurcation_diagram(3, 9, 9)
        assert point.regime is Regime.CRITICAL
        assert point.branches == ((0.5, pytest.approx(folded_prob(DickeSpec(9, 3), 0.5))),)

    def test_lower_branch_tends_to_k_over_n(self):
        (point,) = bifurcation_diagram(1, 100, 100)
        assert abs(point.p00_opt - 1 / 100) < 0.1 * (1 / 100)

    def test_lower_branch_monotone_decreasing(self):
        points = bifurcation_diagram(1, 5, 30)
        lower = [p.p00_opt for p in points]
        assert all(a > b for a, b in zip(lower, lower[1:]))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            bifurcation_diagram(2, 3, 10)
        with pytest.raises(ValueError):
            bifurcation_diagram(1, 5, 4)


def first_supercritical(k):
    """The least n with (n - 2k)^2 > n: every n from it on is supercritical."""
    thr = critical_threshold(k)
    return thr.n_c + thr.eta_is_integer


def v0(n, k):
    """g's smooth part at k/n, (n - 2k) log(k/(n - k)) + log(n - 2k): the closed form's switch."""
    return (n - 2 * k) * math.log(k / (n - k)) + math.log(n - 2 * k)


def past_v0(k, level):
    """The least n past v0's peak with v0(n, k) < level; v0 falls from n = 2k + isqrt(k) + 1 on."""
    lo, hi = 2 * k + math.isqrt(k) + 1, 2 * k + 2
    while v0(hi, k) >= level:
        hi = 2 * hi - 2 * k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if v0(mid, k) < level else (mid, hi)
    return hi


def outcome(call):
    """call()'s value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


class TestBatchedBisection:
    """The batch returns the scalar bisection's doubles, and grids its points."""

    @staticmethod
    def assert_batch_is_scalar(ns, ks):
        assert all((n - 2 * k) ** 2 > n for n, k in zip(ns, ks))
        batch = _lower_roots(np.array(ns), np.array(ks)).tolist()
        mismatches = [(n, k, x, y) for n, k, x, y in
                      zip(ns, ks, batch, map(_lower_root, ns, ks)) if x != y]
        assert not mismatches, f"{len(mismatches)} of {len(ns)} lanes: {mismatches[:5]}"

    def test_every_supercritical_n_to_20000(self):
        grid = [(n, k) for k in (1, 3, 10) for n in range(first_supercritical(k), 20001)]
        self.assert_batch_is_scalar(*zip(*grid))

    def test_random_n_to_2_53(self):
        rng = random.Random(31)
        grid = []
        while len(grid) < 3000:
            n = rng.randrange(5, 2**53 + 1)
            k = rng.randrange(1, n // 2 + 1)
            if (n - 2 * k) ** 2 > n:
                grid.append((n, k))
        self.assert_batch_is_scalar(*zip(*grid))

    def test_near_critical(self):
        # where g is flat near its double root at 1/2 and numpy's logs flip its sign: with
        # the rounding band set to 0, 17 of these 11998 lanes returned another double
        rng = random.Random(32)
        grid = []
        for _ in range(3000):
            k = int(math.exp(rng.uniform(math.log(1e3), math.log(2**50))))
            grid += [(n, k) for n in (critical_threshold(k).n_c + j for j in (0, 1, 2, 5))
                     if (n - 2 * k) ** 2 > n]
        self.assert_batch_is_scalar(*zip(*grid))

    def test_closed_form_switch(self):
        # lanes on both sides of v0 = -40, where the roots switch from the bisection to the
        # closed form; the two first part at v0 = -35.3, and a switch at -30 fails this
        rng = random.Random(33)
        grid = []
        for _ in range(1500):
            k = int(math.exp(rng.uniform(0.0, math.log(2**50))))
            lo = past_v0(k, -32.0)
            ns = range(lo, past_v0(k, -48.0))
            grid += [(n, k) for n in (ns if len(ns) <= 40 else rng.sample(ns, 40))]
        assert len(grid) > 40000
        self.assert_batch_is_scalar(*zip(*grid))

    @pytest.mark.parametrize("k,n_min,n_max", [
        (1, 2, 60), (3, 6, 200), (10, 25, 140), (5, 400, 2000),
        # near n_c, where optimize_source's maximum check can fail (ROADMAP item 17): at the
        # first n of the first grid, and at several n of the last two
        (1000404, 2002223, 2002322), (1000404, 2002224, 2002323),
        (123456789012, 246914074929, 246914075008), (987654321, 1975353094, 1975353173),
    ])
    def test_grid_is_per_n(self, k, n_min, n_max):
        assert n_max - max(n_min, first_supercritical(k)) + 1 >= _MIN_LANES  # the batch path
        per_n = outcome(lambda: [optimize_source(DickeSpec(n, k))
                                 for n in range(n_min, n_max + 1)])
        assert outcome(lambda: bifurcation_diagram(k, n_min, n_max)) == per_n


class TestAsymptotics:
    def test_limit_values(self):
        assert abs(asymptotic_prob(1) - 0.368) < 5e-4
        assert abs(asymptotic_prob(3) - 0.224) < 5e-4
        assert asymptotic_prob(2) == pytest.approx(2 * math.exp(-2), rel=1e-14)

    def test_limit_relative_error_against_mpmath(self):
        # the docstring's bound; k log k - k - lgamma(k + 1) was 6.8e-10 off at k = 10^6
        ks = [*range(1, 200), 12345, 2**31 - 1, *(10**j for j in range(3, 13))]
        with mpmath.workdps(50):
            for k in ks:
                mk = mpmath.mpf(k)
                exact = mpmath.exp(mk * mpmath.log(mk) - mk - mpmath.loggamma(mk + 1))
                assert abs(asymptotic_prob(k) - exact) / exact < 1e-13, k

    def test_limit_matches_large_n_optimum(self):
        point = optimize_source(DickeSpec(10**6, 8))
        assert asymptotic_prob(8) == pytest.approx(point.p_opt, rel=1e-4)

    def test_expansion_at_n20_k3(self):
        value = asymptotic_expansion(DickeSpec(20, 3))
        assert value == pytest.approx(asymptotic_prob(3) * (1 + 3 / 40), rel=1e-14)
        assert value == pytest.approx(0.2408, abs=5e-4)

    def test_expansion_limit(self):
        assert asymptotic_expansion(DickeSpec(10**9, 1)) == pytest.approx(
            asymptotic_prob(1), abs=1e-9
        )

    def test_expansion_against_grid_optimum_n50_k1(self):
        weights = np.linspace(1e-9, 0.5, 1_000_001)
        exact = grid_success_prob(50, 1, weights).max()
        assert abs(asymptotic_expansion(DickeSpec(50, 1)) - exact) / exact < 1e-3

    def test_source_weight(self):
        assert asymptotic_source(DickeSpec(10, 1)).p00 == pytest.approx(0.1, abs=1e-15)
        assert asymptotic_source(DickeSpec(8, 4)).p00 == pytest.approx(0.5, abs=1e-15)

    def test_source_near_optimal_n200_k3(self):
        spec = DickeSpec(200, 3)
        p_at_asymptotic = folded_prob(spec, asymptotic_source(spec).p00)
        p_best = optimize_source(spec).p_opt
        assert (p_best - p_at_asymptotic) / p_best < 0.002


class TestConvergence:
    def test_n_times_weight_monotone_k1(self):
        grid = [5, 6, 8, 12, 16, 24, 48, 100]
        deviations = [
            abs(n * optimize_source(DickeSpec(n, 1)).p00_opt - 1.0) for n in grid
        ]
        # strictly decreasing while visible, never increasing beyond solver noise
        assert all(b <= a + 1e-6 for a, b in zip(deviations, deviations[1:]))
        assert deviations[0] > 0.01  # visible right after the split
        assert deviations[-1] < 0.05

    def test_five_percent_by_100k(self):
        for k in (1, 2):
            n = 100 * k
            point = optimize_source(DickeSpec(n, k))
            assert abs(n * point.p00_opt - k) / k < 0.05

    def test_epr_collapse_vs_optimal_persistence(self):
        # the maximally entangled source decays exponentially, the optimal
        # source settles at a finite probability
        log_epr = [math.log(folded_prob(DickeSpec(n, 3), 0.5)) for n in (20, 30, 40, 50)]
        drops = [a - b for a, b in zip(log_epr, log_epr[1:])]
        assert all(d > 4.0 for d in drops)
        point = optimize_source(DickeSpec(1000, 3))
        assert point.p_opt == pytest.approx(asymptotic_prob(3), rel=0.01)
        assert point.p_opt > asymptotic_prob(3)


def test_invalid_domains():
    with pytest.raises(ValueError):
        asymptotic_prob(0)

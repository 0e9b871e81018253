"""Optimal source weight for each Dicke class and its critical behaviour.

The success probability P of class (n, k), as a function of the source
weight x = p00, keeps a single maximum at 1/2 for small n and splits into
two mirror maxima once n crosses eta_c(k) = 2k + 1/2 + sqrt(2k + 1/4).
On (k/n, 1/2), dP/dx has the sign of
g(x) = (n - 2k) logit(x) - log(nx - k) + log(n - k - nx), and g'(1/2) that
of the integer (n - 2k)^2 - n, whose larger root in n is eta_c. So the
regime is the sign of that integer, and the lower maximum is the root of g,
bisected to full double precision. The large-n limits are the optimal
weight k/n and the probability k^k e^-k / k!.

optimize_source bisects one n in pure Python. bifurcation_diagram bisects the
supercritical n of its grid, every n above eta_c, as one numpy batch once there
are _MIN_LANES of them: the same mids, stop and g, with numpy's logs, and with
libm's in each lane whose |g| lies within a rounding band (_lower_roots), so
every root is the scalar loop's double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .probabilities import (
    _MAX_N,
    DickeSpec,
    SourceState,
    _ArgumentError,
    _as_int,
    _folded,
)

__all__ = [
    "Regime",
    "CriticalThreshold",
    "BifurcationPoint",
    "critical_threshold",
    "optimize_source",
    "bifurcation_diagram",
    "asymptotic_prob",
    "asymptotic_expansion",
    "asymptotic_source",
]


_MAX_K = 2**1000  # keeps every float of k in critical_threshold and asymptotic_prob finite
# _lower_roots re-decides a lane through the scalar _g where |g| <= _BAND * M (its docstring)
_BAND = 16 * 2.0**-52
# bifurcation_diagram bisects its supercritical n as one batch from this many on: the batch
# costs about 1 ms plus 1-3 us a lane, the scalar loop 35-45 us a root, and they broke even
# at 24-32 lanes for k = 1, 3, 5 (numpy 2.4, AVX-512, on a 2-vCPU x86 VM)
_MIN_LANES = 32


class Regime(str, Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CriticalThreshold:
    """Bifurcation threshold for k excitations.

    eta_c = 2k + 1/2 + sqrt(2k + 1/4) and n_c is its ceiling. eta_c is an
    integer exactly when 8k + 1 is a perfect square (k = 1, 3, 6, 10, ...),
    which eta_is_integer records without floating-point comparisons.
    """

    k: int
    eta_c: float
    n_c: int
    eta_is_integer: bool


def critical_threshold(k) -> CriticalThreshold:
    """Threshold above which the optimal weight leaves 1/2, eta_c to 1e-15 relative; k <= 2^1000."""
    k = _as_int(k, "k", 1, _MAX_K)
    root = math.isqrt(8 * k + 1)
    exact = root * root == 8 * k + 1
    eta_c = 2 * k + 0.5 + math.sqrt(2 * k + 0.25)
    # ceil(2k + (1 + sqrt(8k + 1))/2) in integers: the float eta_c loses it from k ~ 1e11
    n_c = 2 * k + (root + (1 if exact else 3)) // 2
    return CriticalThreshold(k=k, eta_c=eta_c, n_c=n_c, eta_is_integer=exact)


@dataclass(frozen=True)
class BifurcationPoint:
    """Optimal source weight(s) for one (n, k).

    branches holds (p00_opt, p_opt) pairs: a single entry at 1/2 in the
    sub- and critical regimes, the mirror pair (lower weight first) in the
    supercritical regime.
    """

    n: int
    k: int
    regime: Regime
    branches: tuple[tuple[float, float], ...]

    @property
    def p00_opt(self) -> float:
        """Lower-branch optimal weight."""
        return self.branches[0][0]

    @property
    def p_opt(self) -> float:
        return self.branches[0][1]


def _classify(n: int, k: int) -> Regime:
    evidence = (n - 2 * k) ** 2 - n
    if evidence < 0:
        return Regime.SUBCRITICAL
    if evidence == 0:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


def _g(n, k, x, log=math.log, log1p=math.log1p):
    """g(x), which has the sign of dP/dx on (k/n, 1/2): the predicate of both bisections.

    Numbers or float arrays alike: every operation but the logs is one IEEE rounding
    of exact operands (n is at most 2^53), so numpy's log and log1p are the only
    difference between an array lane and the scalar call.
    """
    return (n - 2 * k) * (log(x) - log1p(-x)) - log(n * x - k) + log(n - k - n * x)


def _lower_root(n: int, k: int) -> float:
    """Bisect g on [k/n, 1/2] until the bracket holds two adjacent doubles.

    g > 0 means below the root; g <= 0, the trivial zero at 1/2 included,
    means above it. dP/dx > 0 wherever nx <= k, where g is undefined.
    """
    lo, hi = k / n, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if n * mid <= k or _g(n, k, mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _lower_roots(n, k):
    """_lower_root over arrays of n and k (broadcast), bit for bit, all lanes at once.

    Each step takes the scalar loop's mid, stop and predicate in every live lane.
    numpy's log and log1p may differ from libm's in the last bit, so g is screened
    with numpy and re-decided through the scalar _g wherever |g| <= _BAND M, with
    M = s (log(n/k) + 0.7) + 2 log n + 38 and s = n - 2k. Why M: with x in
    [k/n, 1/2], |log x| <= log(n/k) and |log1p(-x)| <= log 2 < 0.7; n - k - nx lies
    in [s/2, n) and s >= 2; and nx - k, once above 0, lies in [2^-52, n), as
    fl(nx) > k >= 1 is at least k + ulp(k). So the four logs add at most M in
    magnitude. numpy holds its float64 log and log1p to 1 ulp in its own accuracy
    tests; allowing it 4 and libm 1, two evaluations of a log differ by at most
    5 eps |log|, and each of the four roundings after them adds at most eps M. The
    two g then differ by under 9 eps M, and outside the band their signs agree.
    """
    import numpy as np

    n, k = (a.ravel() for a in np.broadcast_arrays(np.asarray(n, float), np.asarray(k, float)))
    roots = np.empty(n.shape)
    lane = np.arange(n.size)
    lo, hi = k / n, np.full(n.shape, 0.5)
    band = _BAND * ((n - 2 * k) * (np.log(n / k) + 0.7) + 2 * np.log(n) + 38.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while lane.size:
            mid = 0.5 * (lo + hi)
            done = (mid == lo) | (mid == hi)
            if done.any():
                roots[lane[done]] = lo[done]
                live = ~done
                lane, n, k, lo, hi, mid, band = (
                    a[live] for a in (lane, n, k, lo, hi, mid, band))
            g = _g(n, k, mid, np.log, np.log1p)
            # where nx <= k, g is NaN (the log of nx - k < 0) or +inf (of 0): "up", as in
            # the scalar loop, and never near
            up = ~(g <= 0.0)
            near = np.flatnonzero(np.abs(g) <= band)
            if near.size:
                up[near] = [_g(*lane_args) > 0.0 for lane_args in
                            zip(n[near].tolist(), k[near].tolist(), mid[near].tolist())]
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    return roots


def _optimum(n: int, k: int, lower_root) -> BifurcationPoint:
    """optimize_source of a valid (n, k), its lower weight from lower_root(n, k) if needed."""
    regime = _classify(n, k)
    p_half = _folded(n, k, 0.5)
    if regime is not Regime.SUPERCRITICAL:
        return BifurcationPoint(n=n, k=k, regime=regime, branches=((0.5, p_half),))
    x = lower_root(n, k)
    p_low = _folded(n, k, x)
    if not (k / n <= x < 0.5 and p_low > p_half):
        raise RuntimeError(
            f"lower branch p00 = {x!r} for n={n}, k={k} is not a maximum "
            f"in [k/n, 1/2) above P(1/2)"
        )
    # P(1 - x) is P(x) bit for bit: _log_pair evaluates x < 1/2 at 1 - x
    return BifurcationPoint(n=n, k=k, regime=regime, branches=((x, p_low), (1.0 - x, p_low)))


def optimize_source(spec: DickeSpec) -> BifurcationPoint:
    """Maximize the class-(n, k) success probability over the source weight.

    Sub- and critical regimes report the single maximum at 1/2. In the
    supercritical regime the lower branch x is the root of g on (k/n, 1/2)
    and the mirror branch is 1 - x; an x outside [k/n, 1/2) or not above
    P(1/2) raises RuntimeError.
    """
    return _optimum(spec.n, spec.k, _lower_root)


def bifurcation_diagram(k, n_min, n_max) -> list[BifurcationPoint]:
    """Optimal-weight branches for every n in [n_min, n_max]; n_max is at most 2^53.

    k is at most 2^52, so that some n >= 2k lies in range; below 1 the error reads "k must
    be at least 1", as for the other unbounded arguments. Each point is optimize_source's.
    """
    k = _as_int(k, "k", 1)
    if k > _MAX_N // 2:
        raise _ArgumentError(f"k must lie in [1, {_MAX_N // 2}], got {k}")
    n_min = _as_int(n_min, "n_min", 2 * k, _MAX_N)
    n_max = _as_int(n_max, "n_max", n_min, _MAX_N)
    lower_root = _lower_root
    # the supercritical n, (n - 2k)^2 > n, are every n > eta_c
    thr = critical_threshold(k)
    first = max(n_min, thr.n_c + thr.eta_is_integer)
    if n_max - first + 1 >= _MIN_LANES:
        import numpy as np

        roots = _lower_roots(np.arange(first, n_max + 1), k).tolist()

        def lower_root(n, k):
            return roots[n - first]

    return [_optimum(n, k, lower_root) for n in range(n_min, n_max + 1)]


def asymptotic_prob(k) -> float:
    """Limiting optimal success probability k^k e^-k / k!, to 1e-13 relative; k <= 2^1000."""
    k = _as_int(k, "k", 1, _MAX_K)
    if k < 16:
        return math.exp(k * math.log(k) - k - math.lgamma(k + 1))
    # past 15, k log k - k - lgamma(k + 1) cancels: sum the Stirling series of k! to k^-7
    inv2 = (1.0 / k) ** 2
    s = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / k
    return math.exp(-s) / math.sqrt(2 * math.pi * k)


def asymptotic_expansion(spec: DickeSpec) -> float:
    """First-order large-n success probability, limit times (1 + k/(2n)), to 1e-13 relative.

    The exact optimum divided by this expansion is
    1 + (9k^2 - 2k)/(24 n^2) + O(n^-3), from the series of
    C(n,k) (k/n)^k (1 - k/n)^(n-k) in 1/n; for k = 3 it is
    1 + 25/(8n^2) + 21/(8n^3) + ...
    """
    return asymptotic_prob(spec.k) * (1.0 + spec.k / (2.0 * spec.n))


def asymptotic_source(spec: DickeSpec) -> SourceState:
    """Lower-branch large-n optimal source, weight k/n (mirror: swap amplitudes)."""
    return SourceState.from_p00(spec.k / spec.n)

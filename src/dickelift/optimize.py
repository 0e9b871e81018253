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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .probabilities import DickeSpec, SourceState, _as_int, folded_prob

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
    """Threshold above which the optimal source weight leaves 1/2."""
    k = _as_int(k, "k")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    root = math.isqrt(8 * k + 1)
    exact = root * root == 8 * k + 1
    eta_c = 2 * k + 0.5 + math.sqrt(2 * k + 0.25)
    if exact:
        n_c = 2 * k + (1 + root) // 2
    else:
        n_c = math.ceil(eta_c)
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


def _classify(spec: DickeSpec) -> Regime:
    evidence = (spec.n - 2 * spec.k) ** 2 - spec.n
    if evidence < 0:
        return Regime.SUBCRITICAL
    if evidence == 0:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


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
        if n * mid <= k or (
            (n - 2 * k) * (math.log(mid) - math.log1p(-mid))
            - math.log(n * mid - k) + math.log(n - k - n * mid) > 0.0
        ):
            lo = mid
        else:
            hi = mid


def optimize_source(spec: DickeSpec) -> BifurcationPoint:
    """Maximize the class-(n, k) success probability over the source weight.

    Sub- and critical regimes report the single maximum at 1/2. In the
    supercritical regime the lower branch x is the root of g on (k/n, 1/2)
    and the mirror branch is 1 - x; an x outside [k/n, 1/2) or not above
    P(1/2) raises RuntimeError.
    """
    regime = _classify(spec)
    if regime is not Regime.SUPERCRITICAL:
        return BifurcationPoint(n=spec.n, k=spec.k, regime=regime,
                                branches=((0.5, folded_prob(spec, 0.5)),))
    x = _lower_root(spec.n, spec.k)
    p_low = folded_prob(spec, x)
    if not (spec.k / spec.n <= x < 0.5 and p_low > folded_prob(spec, 0.5)):
        raise RuntimeError(
            f"lower branch p00 = {x!r} for n={spec.n}, k={spec.k} is not a maximum "
            f"in [k/n, 1/2) above P(1/2)"
        )
    # P(1 - x) is P(x) bit for bit: folded_prob evaluates x < 1/2 at 1 - x
    branches = ((x, p_low), (1.0 - x, p_low))
    return BifurcationPoint(n=spec.n, k=spec.k, regime=regime, branches=branches)


def bifurcation_diagram(k, n_min, n_max) -> list[BifurcationPoint]:
    """Optimal-weight branches for every n in [n_min, n_max]."""
    k = _as_int(k, "k")
    n_min = _as_int(n_min, "n_min")
    n_max = _as_int(n_max, "n_max")
    if n_min < 2 * k:
        raise ValueError(f"n_min must be at least 2k = {2 * k}, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"empty range: n_max = {n_max} < n_min = {n_min}")
    return [optimize_source(DickeSpec(n, k)) for n in range(n_min, n_max + 1)]


def asymptotic_prob(k) -> float:
    """Limiting success probability k^k e^-k / k! of the optimal source, to 1e-13 relative."""
    k = _as_int(k, "k")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k < 16:
        return math.exp(k * math.log(k) - k - math.lgamma(k + 1))
    # past 15, k log k - k - lgamma(k + 1) cancels: sum the Stirling series of k! to k^-7
    inv2 = (1.0 / k) ** 2
    s = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / k
    return math.exp(-s) / math.sqrt(2 * math.pi * k)


def asymptotic_expansion(spec: DickeSpec) -> float:
    """First-order large-n success probability: limit times (1 + k/(2n)).

    The exact optimum divided by this expansion is
    1 + (9k^2 - 2k)/(24 n^2) + O(n^-3), from the series of
    C(n,k) (k/n)^k (1 - k/n)^(n-k) in 1/n; for k = 3 it is
    1 + 25/(8n^2) + 21/(8n^3) + ...
    """
    return asymptotic_prob(spec.k) * (1.0 + spec.k / (2.0 * spec.n))


def asymptotic_source(spec: DickeSpec) -> SourceState:
    """Lower-branch large-n optimal source, weight k/n (mirror: swap amplitudes)."""
    return SourceState.from_p00(spec.k / spec.n)

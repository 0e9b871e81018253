"""Independent references the correctness gates compare against.

Nothing here calls dickelift: the optimal weight is the root of the
stationarity equation solved in mpmath at 50 digits, the herald law is
evaluated exactly in mpmath, and the regime is an exact integer test.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

mpmath.mp.dps = 50


def regime(n: int, k: int) -> str:
    """Regime label from the sign of the exact integer (n - 2k)^2 - n."""
    d = (n - 2 * k) ** 2 - n
    return "subcritical" if d < 0 else "critical" if d == 0 else "supercritical"


def _stationarity(n: int, k: int, v):
    # P'(x) is proportional to x^(n-2k)(n-k-nx) + (1-x)^(n-2k)(k-nx). With
    # x = (k + e^v)/n its zero on (k/n, 1/2) is the root in v of this log
    # form, positive below the root and negative above it. For large n the
    # root lies near v = (n-2k) log(k/(n-k)), far below double range.
    m, u = n - 2 * k, mpmath.exp(v)
    return m * (mpmath.log(k + u) - mpmath.log(n - k - u)) - v + mpmath.log(m - u)


def optimal_weight(n: int, k: int) -> float:
    """Lower-branch optimal source weight; 1/2 outside the supercritical regime."""
    if regime(n, k) != "supercritical":
        return 0.5
    m = n - 2 * k
    lo = m * mpmath.log(mpmath.mpf(k) / (n - k)) - 50
    top = mpmath.log(mpmath.mpf(m) / 2)  # v at x = 1/2
    hi = next(top + mpmath.log(1 - mpmath.mpf(2) ** -j) for j in range(1, 200)
              if _stationarity(n, k, top + mpmath.log(1 - mpmath.mpf(2) ** -j)) < 0)
    while hi - lo > mpmath.mpf(10) ** -20:
        mid = (lo + hi) / 2
        if _stationarity(n, k, mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((k + mpmath.exp((lo + hi) / 2)) / n)


def raw_prob(n: int, k: int, p00: float):
    """binom(n, k) p00^(n-k) (1-p00)^k at 50 digits, p00 taken exactly."""
    p = mpmath.mpf(p00)
    return mpmath.binomial(n, k) * p ** (n - k) * (1 - p) ** k


def folded_prob(n: int, k: int, p00: float) -> float:
    total = raw_prob(n, k, p00)
    if 2 * k != n:
        total += raw_prob(n, n - k, p00)
    return float(total)


def dicke_tangle(n: int, k: int) -> float:
    """Exact 4 (k/n)(1 - k/n), rounded once."""
    return float(Fraction(4 * k * (n - k), n * n))


def rel_err(value: float, n: int, k: int, p00: float) -> float | None:
    """Relative error of a herald probability; None where the truth underflows."""
    truth = raw_prob(n, k, p00)
    if truth < mpmath.mpf("1e-300"):
        return None
    return float(abs(mpmath.mpf(value) - truth) / truth)


def sampled_outcomes(law, runs: int, seed: int):
    """Herald outcomes by the construction the sampling module documents.

    Inverse CDF over the n + 1 outcomes, with the uniform variate of run i
    at position i of the Philox stream keyed by seed. Digests of these
    outcomes pin the seed -> outcome mapping bit for bit.
    """
    import numpy as np

    cdf = np.cumsum(law)
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.Philox(key=seed)).random(runs)
    return np.searchsorted(cdf, u, side="right")

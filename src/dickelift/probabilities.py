"""Closed-form outcome probabilities for lifting pair sources into Dicke states.

The protocol consumes n identical two-qubit sources amp00|00> + amp11|11>.
One qubit of each pair is measured collectively; the heralded excitation
count k leaves the remote register in the n-qubit Dicke state with k
excitations, and the classes k and n-k are merged by a conditional global
bit flip. Every probability depends on the source only through
p00 = |amp00|^2, and all arithmetic runs in the natural-log domain so that
n of order 10^6 neither overflows nor underflows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SourceState",
    "DickeSpec",
    "LogProb",
    "OutcomeDistribution",
    "log_raw_outcome_prob",
    "raw_outcome_prob",
    "log_folded_prob",
    "folded_prob",
    "failure_prob",
    "distribution",
]

_NORM_TOL = 1e-12


def _as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int, at least lo and at most hi where given; each error names the input."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")
    return value


def _check_p00(p00: float) -> float:
    p00 = float(p00)
    if not 0.0 <= p00 <= 1.0:
        raise ValueError(f"p00 must lie in [0, 1], got {p00!r}")
    return p00


@dataclass(frozen=True)
class SourceState:
    """Pure two-qubit pair source amp00|00> + amp11|11>.

    Amplitudes may carry arbitrary complex phases; all heralding
    probabilities depend only on p00 = |amp00|^2.
    """

    amp00: complex
    amp11: complex

    def __post_init__(self):
        norm = abs(self.amp00) ** 2 + abs(self.amp11) ** 2
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"source amplitudes are not normalized: |.|^2 sums to {norm!r}")

    @property
    def p00(self) -> float:
        """Weight of the |00> component, clipped to [0, 1] against roundoff."""
        return min(max(abs(self.amp00) ** 2, 0.0), 1.0)

    @classmethod
    def from_p00(cls, p00: float) -> "SourceState":
        """Real, non-negative source with the given |00> weight."""
        p00 = _check_p00(p00)
        return cls(math.sqrt(p00), math.sqrt(1.0 - p00))


@dataclass(frozen=True)
class DickeSpec:
    """Target Dicke class: n qubits, k excitations in the canonical range.

    After the conditional bit flip only 1 <= k <= n//2 survive as distinct
    entangled classes; k = 0 is separable and is not a valid target.
    """

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n", 2))
        object.__setattr__(self, "k", _as_int(self.k, "k", 1, self.n // 2))


@dataclass(frozen=True)
class LogProb:
    """A probability stored as its natural logarithm.

    value = -inf is the exact-zero sentinel; finite values satisfy
    exp(value) <= 1.
    """

    value: float

    def __post_init__(self):
        if math.isnan(self.value) or self.value > 0.0:
            raise ValueError(f"not a log-probability: {self.value!r}")

    @property
    def linear(self) -> float:
        return math.exp(self.value)


def _log_pairs(n: int, k: int, weights) -> list[tuple[float, float]]:
    """(log raw k, log raw n-k) at each weight a: the one evaluation of the herald law.

    Unvalidated: assumes 0 <= k <= n and 0 <= a <= 1. Outcome j is evaluated
    as min(0, log C(n, j) + (n-j) log p + j log1p(-p)) at a p >= 1/2: through
    the mirrored pair (n-j, 1-a) below 1/2, and with the smaller of j, n-j at
    exactly 1/2 (which 1 - a can round to), so the k <-> n-k, a <-> 1-a
    symmetry holds bit for bit. log C(n, k), the same double for k and n-k,
    is taken once per call; each weight takes one log and one log1p.
    """
    lo, hi = (k, n - k) if k <= n - k else (n - k, k)
    log_binom = math.lgamma(n + 1) - math.lgamma(lo + 1) - math.lgamma(hi + 1)
    pairs = []
    for a in weights:
        ka, kb, p = (k, n - k, a) if a >= 0.5 else (n - k, k, 1.0 - a)
        if p == 0.5:
            ka = kb = lo
        elif p == 1.0:  # only outcome 0 can occur, and log1p(-1) is undefined
            pairs.append((0.0 if ka == 0 else -math.inf, 0.0 if kb == 0 else -math.inf))
            continue
        log_p, log_q = math.log(p), math.log1p(-p)
        pairs.append((min(0.0, log_binom + (n - ka) * log_p + ka * log_q),
                      min(0.0, log_binom + (n - kb) * log_p + kb * log_q)))
    return pairs


def _prob_rows(n: int, k: int, weights) -> list[tuple[float, float, float]]:
    """(folded, raw k, raw n-k) per weight, unvalidated; a self-paired k = n/2 folds alone."""
    rows = []
    for la, lb in _log_pairs(n, k, weights):
        ra, rb = math.exp(la), math.exp(lb)
        rows.append((ra if 2 * k == n else ra + rb, ra, rb))
    return rows


def _log_raw(n, k, p00) -> float:
    n = _as_int(n, "n", 1)
    k = _as_int(k, "k", 0, n)
    return _log_pairs(n, k, [_check_p00(p00)])[0][0]


def log_raw_outcome_prob(n, k, p00) -> LogProb:
    """Natural log of the probability that the herald reads k excitations.

    Equals log of binom(n, k) * p00^(n-k) * (1-p00)^k. Arguments with
    p00 < 1/2 are evaluated through the mirrored pair (n-k, 1-p00), which
    makes the k <-> n-k, p00 <-> 1-p00 symmetry hold bit-for-bit.
    """
    return LogProb(_log_raw(n, k, p00))


def raw_outcome_prob(n, k, p00) -> float:
    """Probability that the herald reads k excitations out of n pairs."""
    return math.exp(_log_raw(n, k, p00))


def log_folded_prob(spec: DickeSpec, p00) -> LogProb:
    """Natural log of the success probability for the canonical class spec.k."""
    ((la, lb),) = _log_pairs(spec.n, spec.k, [_check_p00(p00)])
    if 2 * spec.k == spec.n:
        return LogProb(la)
    return LogProb(min(0.0, float(np.logaddexp(la, lb))))


def folded_prob(spec: DickeSpec, p00) -> float:
    """Probability of heralding the Dicke class spec.k after the bit-flip merge.

    Sums the raw outcomes k and n-k; for even n and k = n/2 the single
    self-paired outcome is returned unchanged.
    """
    return _prob_rows(spec.n, spec.k, [_check_p00(p00)])[0][0]


def failure_prob(n, p00) -> float:
    """Probability of the two separable outcomes, p00^n + (1-p00)^n."""
    n = _as_int(n, "n", 1)
    p00 = _check_p00(p00)
    return p00**n + (1.0 - p00) ** n


def _log_raw_all_k(n: int, p00: float) -> np.ndarray:
    """Log outcome probabilities for every k = 0..n, the same doubles as _log_pairs gives.

    As there, outcome k is evaluated at j = n - k with p = 1 - p00 below 1/2, and at
    j = min(k, n - k) at exactly 1/2, in one contiguous pass, so that the exp of the
    mirrored law is the reversed exp bit for bit. numpy's exp differs from libm's in
    the last bit for a few percent of entries.
    """
    mirror = p00 < 0.5
    p = 1.0 - p00 if mirror else p00
    if p == 1.0:  # only one outcome can occur, and log1p(-1) is undefined
        out = np.full(n + 1, float("-inf"))
        out[n if mirror else 0] = 0.0
        return out
    k = np.arange(n + 1)
    lo = np.minimum(k, n - k)
    j = lo if p == 0.5 else (n - k if mirror else k)
    # log j! for j = 0..n, from the lgamma the scalar path uses
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    log_binom = log_fact[n] - log_fact[lo] - log_fact[n - lo]
    out = log_binom + (n - j) * math.log(p) + j * math.log1p(-p)
    np.minimum(out, 0.0, out=out)
    return out


def _fold(raw: np.ndarray) -> np.ndarray:
    """folded[j] = raw[j] + raw[n-j] for j = 0..n//2, raw[n/2] alone at the midpoint of even n."""
    n = len(raw) - 1
    half = n // 2
    folded = raw[: half + 1] + raw[::-1][: half + 1]
    if n % 2 == 0:
        folded[half] = raw[half]
    return folded


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Herald-outcome law for n pairs at a given source weight.

    raw[k] is the probability of seeing k excitations, k = 0..n.
    folded[j] for j = 1..n//2 is the merged probability raw[j] + raw[n-j]
    (raw[n/2] alone at the midpoint of even n); folded[0] is the failure
    entry raw[0] + raw[n].
    """

    n: int
    raw: np.ndarray

    def __post_init__(self):
        if _as_int(self.n, "n") < 1 or self.raw.shape != (self.n + 1,):
            raise ValueError("raw must have n + 1 entries, n >= 1")
        if np.any(self.raw < 0.0) or np.any(self.raw > 1.0):
            raise ValueError("raw entries must lie in [0, 1]")
        total = float(self.raw.sum())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"raw probabilities sum to {total!r}, not 1")

    @property
    def folded(self) -> np.ndarray:
        """The folded law, built from raw on each access."""
        return _fold(self.raw)

    @property
    def failure(self) -> float:
        return float(self.raw[0] + self.raw[-1])


def distribution(n, p00) -> OutcomeDistribution:
    """Full raw outcome distribution for n pairs; its folded view is derived."""
    n = _as_int(n, "n", 2)
    p00 = _check_p00(p00)
    raw = np.exp(_log_raw_all_k(n, p00))
    try:
        return OutcomeDistribution(n=n, raw=raw)
    except ValueError as exc:
        raise ValueError(f"distribution(n={n}, p00={p00!r}): {exc}") from None

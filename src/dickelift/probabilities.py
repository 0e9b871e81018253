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
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SourceState",
    "DickeSpec",
    "OutcomeDistribution",
    "log_raw_outcome_prob",
    "raw_outcome_prob",
    "log_folded_prob",
    "folded_prob",
    "failure_prob",
    "distribution",
]

_NORM_TOL = 1e-12
_MAX_N = 2**53  # optimize_source fails for some n from about 2^54, lgamma from 2.6e305
# The README's range for the full law. At the cap on a 2-vCPU x86 VM, `simulate` takes 0.21 s
# and 33 MB peak RSS until `distribution` rejects its law (a cold `prob`: 0.19 s, 29 MB);
# past that limit, 5 s and 350 (CSV) to 480 MB (JSON).
_MAX_LAW_N = 10**6
_LOG_CUT = -746.0  # np.exp returns exactly 0.0 below about -745.13


class _ArgumentError(ValueError):
    """An argument outside its documented range; the command line exits 2 on it."""


def _as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as a non-bool int, at least lo and at most hi where given; each error names it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= value <= hi:
        raise _ArgumentError(f"{name} must lie in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise _ArgumentError(f"{name} must be at least {lo}, got {value}")
    return value


def _check_p00(p00: float, name: str = "p00") -> float:
    """p00 as a float in [0, 1]; a real number is a non-bool numbers.Real or a 0-d array of one."""
    value = p00
    if not isinstance(value, float):
        if isinstance(value, np.ndarray) and value.ndim == 0:
            value = value[()]
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {p00!r}")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise _ArgumentError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def _check_norm(total: float, what: str) -> None:
    """Raise ValueError "{what} {total!r}, not 1" unless |total - 1| <= _NORM_TOL; NaN fails."""
    if not abs(total - 1.0) <= _NORM_TOL:
        raise ValueError(f"{what} {total!r}, not 1")


@dataclass(frozen=True)
class SourceState:
    """Pure two-qubit pair source amp00|00> + amp11|11>.

    Amplitudes may carry arbitrary complex phases; all heralding
    probabilities depend only on p00 = |amp00|^2.
    """

    amp00: complex
    amp11: complex

    def __post_init__(self):
        _check_norm(abs(self.amp00) ** 2 + abs(self.amp11) ** 2,
                    "source amplitudes are not normalized: |.|^2 sums to")

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
    entangled classes; k = 0 is separable and is not a valid target. n is
    at most 2^53, the range on which the optimizer finds every maximum.
    """

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n", 2, _MAX_N))
        object.__setattr__(self, "k", _as_int(self.k, "k", 1, self.n // 2))


def _log_binom(n: int, k: int) -> tuple[int, float]:
    """(lo, log C(n, k)) with lo = min(k, n - k), so that k and n - k give the same double."""
    lo = min(k, n - k)
    return lo, math.lgamma(n + 1) - math.lgamma(lo + 1) - math.lgamma(n - lo + 1)


def _log_pair(n: int, k: int, a: float) -> tuple[float, float]:
    """(log raw k, log raw n-k) at weight a: the one scalar evaluation of the herald law.

    Unvalidated: assumes 0 <= k <= n and 0 <= a <= 1. Outcome j is evaluated
    as min(0, log C(n, j) + (n-j) log p + j log1p(-p)) at a p >= 1/2: through
    the mirrored pair (n-j, 1-a) below 1/2, and with the smaller of j, n-j at
    exactly 1/2 (which 1 - a can round to), so the k <-> n-k, a <-> 1-a
    symmetry holds bit for bit. log C(n, k) is the same double for k and n-k.
    """
    lo, log_binom = _log_binom(n, k)
    ka, kb, p = (k, n - k, a) if a >= 0.5 else (n - k, k, 1.0 - a)
    if p == 0.5:
        ka = kb = lo
    elif p == 1.0:  # only outcome 0 can occur, and log1p(-1) is undefined
        return 0.0 if ka == 0 else -math.inf, 0.0 if kb == 0 else -math.inf
    log_p, log_q = math.log(p), math.log1p(-p)
    return (min(0.0, log_binom + (n - ka) * log_p + ka * log_q),
            min(0.0, log_binom + (n - kb) * log_p + kb * log_q))


def _folded(n: int, k: int, a: float) -> float:
    """Folded probability of class k at weight a, unvalidated; a self-paired k = n/2 folds alone."""
    la, lb = _log_pair(n, k, a)
    return math.exp(la) if 2 * k == n else math.exp(la) + math.exp(lb)


def _prob_cols(n: int, k: int, weights: np.ndarray) -> tuple[list, list, list]:
    """(folded, raw k, raw n-k) as three columns over an array of weights, unvalidated.

    Parity contract: entry i of the columns is (_folded(n, k, a), *map(math.exp,
    _log_pair(n, k, a))) at a = weights[i], bit for bit. The operations of _log_pair run in
    the same order, each over a whole column: numpy does the mirror, the masks at 1/2 and 1
    and the multiply-adds (one IEEE rounding each, like Python's), and libm's log, log1p and
    exp are each mapped once over a .tolist() column, since numpy's differ from them in the
    last bit. A call on one weight takes about 24 us, against 1.6 us for _folded, so the
    library's scalar calls keep _log_pair and the command line's tables take this form.
    """
    lo, log_binom = _log_binom(n, k)
    mirror = weights < 0.5
    p = np.where(mirror, 1.0 - weights, weights)
    half, one = p == 0.5, p == 1.0
    ka = np.where(half, lo, np.where(mirror, n - k, k))
    kb = np.where(half, lo, n - ka)
    p = np.where(one, 0.5, p).tolist()  # log1p(-1) is undefined; those entries are set below
    log_p = np.fromiter(map(math.log, p), float, len(p))
    log_q = np.fromiter(map(math.log1p, map(operator.neg, p)), float, len(p))

    def raw(j: np.ndarray) -> list[float]:
        log = log_binom + (n - j) * log_p + j * log_q
        log = np.where(one, np.where(j == 0, 0.0, -math.inf), np.where(log < 0.0, log, 0.0))
        return list(map(math.exp, log.tolist()))

    ra, rb = raw(ka), raw(kb)
    return (ra if 2 * k == n else list(map(operator.add, ra, rb))), ra, rb


def log_raw_outcome_prob(n, k, p00) -> float:
    """Natural log of the probability that the herald reads k excitations.

    Equals log of binom(n, k) * p00^(n-k) * (1-p00)^k, at most 0; -inf stands for
    zero. Arguments with p00 < 1/2 are evaluated through the mirrored pair (n-k, 1-p00),
    which makes the k <-> n-k, p00 <-> 1-p00 symmetry hold bit-for-bit.
    """
    n = _as_int(n, "n", 1, _MAX_N)
    k = _as_int(k, "k", 0, n)
    return _log_pair(n, k, _check_p00(p00))[0]


def raw_outcome_prob(n, k, p00) -> float:
    """Probability that the herald reads k excitations out of n pairs."""
    return math.exp(log_raw_outcome_prob(n, k, p00))


def log_folded_prob(spec: DickeSpec, p00) -> float:
    """Natural log of folded_prob(spec, p00): at most 0, and -inf for zero."""
    la, lb = _log_pair(spec.n, spec.k, _check_p00(p00))
    if 2 * spec.k == spec.n:
        return la
    return min(0.0, float(np.logaddexp(la, lb)))


def folded_prob(spec: DickeSpec, p00) -> float:
    """Probability of heralding the Dicke class spec.k after the bit-flip merge.

    Sums the raw outcomes k and n-k; for even n and k = n/2 the single
    self-paired outcome is returned unchanged.
    """
    return _folded(spec.n, spec.k, _check_p00(p00))


def failure_prob(n, p00) -> float:
    """Probability of the two separable outcomes, p00^n + (1-p00)^n.

    0.0 where both powers underflow, as at n = 10^6, p00 = 0.3.
    """
    n = _as_int(n, "n", 1, _MAX_N)
    p00 = _check_p00(p00)
    return p00**n + (1.0 - p00) ** n


def _log_raw_all_k(n: int, p00: float, a: int, b: int) -> np.ndarray:
    """Log outcome probabilities for k = a..b, the same doubles as _log_pair gives.

    As there, outcome k is evaluated at j = n - k with p = 1 - p00 below 1/2, and at
    j = min(k, n - k) at exactly 1/2, in one contiguous pass, so that the exp of the
    mirrored law is the reversed exp bit for bit. distribution asks only for its window
    (_window), outside which every log is below the -746 cut and numpy's exp of it is
    exactly 0.0; numpy's exp differs from libm's in the last bit for a few percent of
    entries. log C(n, k) depends on k only through lo = min(k, n - k), so lgamma is
    taken once at each lo + 1 and n - lo + 1 that k = a..b needs: no O(n) table.
    """
    mirror = p00 < 0.5
    p = 1.0 - p00 if mirror else p00
    k = np.arange(a, b + 1)
    if p == 1.0:  # only one outcome can occur, and log1p(-1) is undefined
        return np.where(k == (n if mirror else 0), 0.0, -math.inf)
    n_k = n - k
    lo = np.minimum(k, n_k)
    j, n_j = (lo, n - lo) if p == 0.5 else (n_k, k) if mirror else (k, n_k)
    lo_min, lo_max = min(a, n - b), min(b, n - a, n // 2)  # lo over a..b is one run
    size = lo_max - lo_min + 1
    log_fact_lo = np.fromiter(map(math.lgamma, range(lo_min + 1, lo_max + 2)), float, size)
    log_fact_hi = np.fromiter(map(math.lgamma, range(n - lo_min + 1, n - lo_max, -1)), float, size)
    log_binom = (math.lgamma(n + 1) - log_fact_lo - log_fact_hi)[lo - lo_min if lo_min else lo]
    out = log_binom + n_j * math.log(p) + j * math.log1p(-p)
    np.minimum(out, 0.0, out=out)
    return out


def _window(n: int, p00: float) -> tuple[int, int]:
    """Outcomes a..b around the mean, outside which every log raw is below _LOG_CUT.

    The herald count is a sum of n independent 0/1 outcomes with mean m = n (1 - p00) and
    variance v = n p00 (1 - p00). A raw outcome is at most the tail beyond it, and
    Bernstein's inequality bounds the tail at distance t from m by exp(-t^2 / (2 (v + t/3))),
    which is exp(-c) at t = h = c/3 + sqrt(c^2/9 + 2 c v). With c = 1 - _LOG_CUT = 747,
    every outcome outside m -+ h has a true log below -747; the one unit of margin covers
    the rounding of the weight and of the evaluated logs, so np.exp gives exactly 0.0 there.
    """
    c = 1.0 - _LOG_CUT
    mean = n * (1.0 - p00)
    h = c / 3 + math.sqrt(c * c / 9 + 2 * c * mean * p00)
    return max(0, math.floor(mean - h)), min(n, math.ceil(mean + h))


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
        if self.raw.min() < 0.0 or self.raw.max() > 1.0:
            raise ValueError("raw entries must lie in [0, 1]")
        _check_norm(float(self.raw.sum()), "raw probabilities sum to")

    @property
    def folded(self) -> np.ndarray:
        """The folded law, built from raw on each access."""
        return _fold(self.raw)

    @property
    def failure(self) -> float:
        return float(self.raw[0] + self.raw[-1])


def _raw_law(n: int, p00: float) -> np.ndarray:
    """The raw law, unvalidated: numpy's exp over the window in one contiguous pass, 0.0 outside."""
    a, b = _window(n, p00)
    logs = _log_raw_all_k(n, p00, a, b)
    if b - a == n:
        return np.exp(logs)
    raw = np.zeros(n + 1)
    raw[a : b + 1] = np.exp(logs)
    return raw


def distribution(n, p00) -> OutcomeDistribution:
    """Full raw outcome distribution for n pairs; its folded view is derived.

    Only a window of outcomes around the mean is evaluated. Its ends are bounded in
    closed form, not searched, so that every outcome outside has a log raw below -746,
    where numpy's exp returns exactly 0.0 (below about -745.13); raw holds the same
    doubles as numpy's exp over the whole law. The cost is proportional to the window:
    35,929 of the 10^6 + 1 outcomes at n = 10^6, p00 = 0.3. n is at most 10^6.
    """
    n = _as_int(n, "n", 2, _MAX_LAW_N)
    p00 = _check_p00(p00)
    try:
        return OutcomeDistribution(n=n, raw=_raw_law(n, p00))
    except ValueError as exc:
        raise ValueError(f"distribution(n={n}, p00={p00!r}): {exc}") from None

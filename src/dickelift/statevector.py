"""Exact statevector simulation of the lifting protocol for small n.

This is the ground truth the closed-form engine is checked against, so it
deliberately avoids binomial and power formulas: the global state is built
by repeated tensor products, one site at a time as two strided multiplies
that equal np.kron's products bit for bit, and the bitstrings of each
Hamming weight are enumerated by bit counting, once per n, into one shared
read-only table (4 bytes per bitstring) that gives every sector and its
size. Every squared norm is one pairwise sum, `_norm2`.

The measured register is perfectly correlated with the remote one, so a
single array of 2^n amplitudes indexed by the remote bitstring represents
the full pre-measurement state. A heralded branch keeps only its weight-k
sector: the amplitudes of the weight-k bitstrings in increasing order,
so the n + 1 branches together hold 2^n amplitudes. Index bit
conventions: site 0 is the most significant bit of the integer index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .probabilities import SourceState, _as_int

__all__ = [
    "ORACLE_MAX_QUBITS",
    "CorrelatedState",
    "ConditionalState",
    "build_state",
    "measure_fock",
    "dicke_state_amplitudes",
    "dicke_fidelity",
    "locc_fold",
    "single_qubit_density",
    "reduced_single_qubit",
]

# 2^20 complex amplitudes (16 MB); larger n is served by the closed form.
ORACLE_MAX_QUBITS = 20

_NORM_TOL = 1e-12


@functools.cache
def _supports(n: int) -> tuple[np.ndarray, ...]:
    """Weight-k n-bit strings in increasing order for k = 0..n, read-only int32.

    Callers check n <= ORACLE_MAX_QUBITS first, so the cache stays below 8 MiB.
    """
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    supports = tuple(np.flatnonzero(weights == k).astype(np.int32) for k in range(n + 1))
    for support in supports:
        support.flags.writeable = False
    return supports


def _norm2(x: np.ndarray) -> float:
    """Squared 2-norm as numpy's pairwise sum of |x|^2.

    Bit for bit np.sum(np.abs(x) ** 2), with one temporary instead of two.
    No BLAS reduction: its summation order depends on the thread count.
    """
    w = np.abs(x)
    w *= w
    return float(w.sum())


@dataclass(frozen=True, eq=False)
class CorrelatedState:
    """Pre-measurement state of n pairs, indexed by the remote bitstring."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = _as_int(self.n, "n")
        if not 1 <= n <= ORACLE_MAX_QUBITS or self.amps.shape != (1 << n,):
            raise ValueError(f"amps must have 2^n entries, n in [1, {ORACLE_MAX_QUBITS}]")
        norm = _norm2(self.amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm^2 is {norm!r}, not 1")


@dataclass(frozen=True, eq=False)
class ConditionalState:
    """Remote n-qubit state conditioned on herald outcome k.

    `sector` holds the renormalized amplitudes on `support`, all others being
    zero; probability is the weight of the branch. A branch of probability
    zero carries an all-zero sector.
    """

    n: int
    outcome_k: int
    sector: np.ndarray
    probability: float

    def __post_init__(self):
        n = _as_int(self.n, "n", 1, ORACLE_MAX_QUBITS)
        k = _as_int(self.outcome_k, "outcome_k", 0, n)
        if not 0.0 <= self.probability <= 1.0 + _NORM_TOL:
            raise ValueError(f"probability {self.probability!r} outside [0, 1]")
        if self.sector.shape != (len(_supports(n)[k]),):
            raise ValueError(f"sector must be 1-D with {len(_supports(n)[k])} entries, "
                             f"one per {n}-bit string of weight {k}")
        if self.probability > 0.0:
            norm = _norm2(self.sector)
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValueError(f"conditional state norm^2 is {norm!r}, not 1")

    @property
    def support(self) -> np.ndarray:
        """The weight-outcome_k bitstrings in increasing order, shared and read-only."""
        return _supports(self.n)[self.outcome_k]

    @property
    def amps(self) -> np.ndarray:
        """Dense 2^n amplitude array, built on each access."""
        dense = np.zeros(1 << self.n, dtype=complex)
        dense[self.support] = self.sector
        return dense


def build_state(source: SourceState, n) -> CorrelatedState:
    """Tensor n identical pair sources into the correlated global state.

    The amplitude of bitstring j is the product over sites of amp00 or
    amp11; the product construction keeps this path independent of any
    closed-form coefficient formula. Each site is appended by writing the
    products with amp00 and amp11 into the even and odd entries of a fresh
    buffer twice the length: the products of np.kron(amps, pair), in its
    left-fold order, bit for bit. The state is normalised in place.
    """
    n = _as_int(n, "n", 2, ORACLE_MAX_QUBITS)
    pair = np.array([source.amp00, source.amp11], dtype=complex)
    amp00, amp11 = pair
    amps = pair
    for _ in range(n - 1):
        grown = np.empty(2 * amps.size, dtype=complex)
        np.multiply(amps, amp00, out=grown[0::2])
        np.multiply(amps, amp11, out=grown[1::2])
        amps = grown
    amps /= math.sqrt(_norm2(amps))
    return CorrelatedState(n=n, amps=amps)


def measure_fock(state: CorrelatedState) -> list[ConditionalState]:
    """Resolve the herald outcome: project onto each Hamming-weight sector.

    Returns n + 1 conditional states; entry k has probability equal to the
    squared norm of the weight-k slice, and the probabilities sum to 1.
    """
    branches = []
    for k, support in enumerate(_supports(state.n)):
        sector = state.amps.take(support)
        prob = _norm2(sector)
        if prob > 0.0:
            sector /= math.sqrt(prob)
        branches.append(ConditionalState(n=state.n, outcome_k=k, sector=sector, probability=prob))
    return branches


def dicke_state_amplitudes(n: int, k: int) -> np.ndarray:
    """Reference Dicke state: uniform amplitude on every weight-k bitstring."""
    n = _as_int(n, "n", 1, ORACLE_MAX_QUBITS)
    k = _as_int(k, "k", 0, n)
    support = _supports(n)[k]
    amps = np.zeros(1 << n, dtype=complex)
    amps[support] = 1.0 / math.sqrt(support.size)
    return amps


def dicke_fidelity(cond: ConditionalState) -> float:
    """Overlap squared between a conditional state and the ideal Dicke state.

    The Dicke state is uniform on the support, so the overlap is the sum
    of the sector over the square root of its enumerated size; numpy's
    pairwise sum keeps the rounding at O(log C(n, k)) eps.
    """
    if cond.outcome_k in (0, cond.n):
        raise ValueError("outcome 0 or n is a separable branch, not a Dicke state")
    overlap = cond.sector.sum() / math.sqrt(cond.sector.size)
    return float(abs(overlap) ** 2)


def locc_fold(cond: ConditionalState) -> ConditionalState:
    """Apply the global bit flip: amplitude at j moves to its complement.

    Weight n-k support becomes weight k; Dicke fidelity is preserved.
    """
    # the complement of index j is (2^n - 1) - j, which reverses the order
    return ConditionalState(
        n=cond.n,
        outcome_k=cond.n - cond.outcome_k,
        sector=cond.sector[::-1].copy(),
        probability=cond.probability,
    )


def single_qubit_density(amps: np.ndarray, site: int) -> np.ndarray:
    """Partial trace of a pure n-qubit state down to one site's 2x2 matrix."""
    if amps.size == 0 or amps.size & (amps.size - 1):
        raise ValueError("amplitude array length must be a power of two")
    n = amps.size.bit_length() - 1
    site = _as_int(site, "site", 0, n - 1)
    psi = amps.reshape((2,) * n)
    others = tuple(ax for ax in range(n) if ax != site)
    return np.tensordot(psi, psi.conj(), axes=(others, others))


def reduced_single_qubit(cond: ConditionalState, site) -> np.ndarray:
    """Reduced density matrix of one qubit of a conditional state.

    Every support bitstring has the same weight, so flipping the site's bit
    leaves the support and the 0-1 coherence vanishes: the matrix is
    diagonal, the sector's squared norm where the site bit is 0 and where
    it is 1. It is summed over the sector without building 2^n amplitudes.
    """
    site = _as_int(site, "site", 0, cond.n - 1)
    weights = np.abs(cond.sector) ** 2
    ones = ((cond.support >> (cond.n - 1 - site)) & 1) == 1
    return np.diag([weights[~ones].sum(), weights[ones].sum()]).astype(complex)

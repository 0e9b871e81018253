"""Bipartite entanglement of the pair source and of single Dicke qubits.

All states here are globally pure, so both supported measures reduce to
functions of one 2x2 reduced density matrix: the base-2 von Neumann
entropy (ebits) and the 2-tangle, i.e. concurrence squared, which for a
pure global state equals 4 det(rho) of the single-qubit reduction.

A monotonicity argument bounds the entanglement a heralded Dicke qubit
can hold against the rest of its register: it cannot exceed the source
entanglement divided by the success probability, which forces the
qubit-vs-rest entanglement of large Dicke states to vanish while the
GHZ value stays pinned at 1 ebit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .optimize import asymptotic_expansion, optimize_source
from .probabilities import DickeSpec, SourceState, _as_int, _check_p00

__all__ = [
    "BipartiteMeasure",
    "binary_entropy",
    "von_neumann_entropy",
    "two_tangle_of_density",
    "source_entanglement",
    "dicke_single_qubit_entanglement",
    "ghz_single_qubit_entanglement",
    "LoccBoundReport",
    "check_locc_bound",
    "tangle_decay_bound",
]


class BipartiteMeasure(Enum):
    VON_NEUMANN_ENTROPY = "entropy"
    TWO_TANGLE = "tangle"


def binary_entropy(p: float) -> float:
    """H2(p) in bits, with the 0 log 0 = 0 limit at the endpoints.

    Evaluated at min(p, 1 - p), where 1 - p is exact for p > 1/2, with
    log1p for the log of the complement: the relative error is at most
    1e-15 for normal p, and H2(p) == H2(1 - p) whenever 1 - (1 - p) == p.
    Subnormal p (or 1 - p) loses precision with its significand.
    """
    p = _check_p00(p, "p")
    if p > 0.5:
        p = 1.0 - p
    if p == 0.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log1p(-p) / math.log(2.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy of a density matrix (ebits for a qubit reduction)."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 0.0]
    return float(-np.sum(evals * np.log2(evals)))


def two_tangle_of_density(rho: np.ndarray) -> float:
    """2-tangle of a qubit reduction of a pure state: 4 det(rho)."""
    return float(4.0 * np.linalg.det(rho).real)


def _qubit_measure(p: float, kind: BipartiteMeasure) -> float:
    # entanglement of a pure state whose qubit reduction is diag(p, 1-p)
    if kind is BipartiteMeasure.VON_NEUMANN_ENTROPY:
        return binary_entropy(p)
    if kind is BipartiteMeasure.TWO_TANGLE:
        return 4.0 * p * (1.0 - p)
    raise TypeError(f"unknown measure {kind!r}")


def source_entanglement(source: SourceState, kind: BipartiteMeasure) -> float:
    """Entanglement of one pair: H2(p00) in ebits, or the 2-tangle 4 p00 (1-p00)."""
    return _qubit_measure(source.p00, kind)


def dicke_single_qubit_entanglement(spec: DickeSpec, kind: BipartiteMeasure) -> float:
    """One Dicke qubit against the rest: measure of the reduction diag(1-k/n, k/n)."""
    return _qubit_measure(spec.k / spec.n, kind)


def ghz_single_qubit_entanglement(n) -> float:
    """One GHZ qubit against the rest: exactly 1 ebit for every n."""
    _as_int(n, "n", 2)
    return 1.0


@dataclass(frozen=True)
class LoccBoundReport:
    """Evaluation of the source-vs-heralded entanglement inequality.

    lhs is the entanglement of the source built at p00_opt, rhs the success
    probability times the single-Dicke-qubit entanglement; a monotone measure
    must satisfy lhs > rhs. Each side is within 1e-15 relative of its exact
    value at the report's own doubles.
    """

    n: int
    k: int
    kind: BipartiteMeasure
    p00_opt: float
    p_opt: float
    lhs: float
    dicke_value: float
    rhs: float
    holds: bool


def check_locc_bound(spec: DickeSpec, kind: BipartiteMeasure) -> LoccBoundReport:
    """Verify source entanglement > success probability x Dicke-qubit entanglement.

    Evaluated for the source built at the optimizer's lower-branch weight. The
    bound is derived for the supercritical regime; outside it the report is
    still computed, at the weight 1/2.
    """
    point = optimize_source(spec)
    lhs = source_entanglement(SourceState.from_p00(point.p00_opt), kind)
    dicke_value = dicke_single_qubit_entanglement(spec, kind)
    rhs = point.p_opt * dicke_value
    return LoccBoundReport(n=spec.n, k=spec.k, kind=kind, p00_opt=point.p00_opt,
                           p_opt=point.p_opt, lhs=lhs, dicke_value=dicke_value, rhs=rhs,
                           holds=lhs > rhs)


def tangle_decay_bound(spec: DickeSpec) -> tuple[float, float]:
    """(bound, actual) for the qubit-vs-rest 2-tangle of a Dicke state.

    bound = 4k / (P n), P the first-order success probability, to 1e-13
    relative as asymptotic_prob; actual is the exact 4 (k/n)(1 - k/n). The
    bound is derived for the supercritical regime, where actual stays below
    it, decaying as 1/n; outside it both values are still reported.
    """
    return (4.0 * spec.k / (asymptotic_expansion(spec) * spec.n),
            dicke_single_qubit_entanglement(spec, BipartiteMeasure.TWO_TANGLE))

"""Seeded Monte Carlo runs of the heralded protocol and yield accounting.

Each run consumes n pairs, draws a herald outcome from the closed-form
law, and records the folding bookkeeping: the canonical class is
min(k, n-k), a collective bit flip is logged whenever k > n-k, and the
separable outcomes 0 and n are failures. The generator is the
counter-based Philox keyed by the caller's seed, and run i uses position i
of its stream, so a batch is a pure function of (n, p00, runs, seed).
Batches hold the outcomes as one integer array; per-run records are built
only when a caller indexes or iterates.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .probabilities import _MAX_LAW_N, _as_int, _fold, distribution

__all__ = ["RunBatch", "RunRecord", "YieldReport", "sample_runs", "yield_report"]

# Uniforms drawn per Generator call. Chunked calls return the same doubles
# as one call, so the size bounds memory without touching the stream.
_CHUNK = 1 << 16


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One protocol run: herald outcome and LOCC folding bookkeeping."""

    run_index: int
    raw_outcome_k: int
    folded_k: int | None  # None flags the separable failure outcomes
    bitflip_applied: bool

    @property
    def is_failure(self) -> bool:
        return self.folded_k is None


class RunBatch(Sequence):
    """Protocol runs as columns: run i gave herald outcome raw[i] in 0..n.

    A read-only sequence of RunRecord; integer indexing and iteration build
    the records on demand. Two batches are equal when their n and
    outcomes are.
    """

    __slots__ = ("n", "raw")

    def __init__(self, n: int, raw: np.ndarray):
        self.n = n
        self.raw = raw

    @property
    def folded_k(self) -> np.ndarray:
        """Canonical class min(k, n-k) of each run; 0 marks the failures."""
        return np.minimum(self.raw, self.n - self.raw)

    @property
    def bitflip_applied(self) -> np.ndarray:
        """Whether the fold of each run applied the collective bit flip."""
        return self.raw > self.n - self.raw

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index) -> RunRecord:
        i = range(len(self))[operator.index(index)]
        return next(self._records((i,), self.raw[i:i + 1]))

    def __iter__(self) -> Iterator[RunRecord]:
        return self._records(range(len(self)), self.raw)

    def _records(self, indices, raw: np.ndarray) -> Iterator[RunRecord]:
        part = RunBatch(self.n, raw)
        folded = [c or None for c in part.folded_k.tolist()]
        return map(RunRecord, indices, raw.tolist(), folded, part.bitflip_applied.tolist())

    def __eq__(self, other):
        if not isinstance(other, RunBatch):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.raw, other.raw)

    __hash__ = None


@dataclass(frozen=True)
class YieldReport:
    """Aggregate accounting of a batch of runs.

    pairs_per_dicke is the resource cost of one heralded Dicke state of
    any class; it is inf when every run failed.
    """

    runs: int
    pairs_consumed: int
    dicke_produced: dict[int, int]
    failures: int
    empirical_probs: dict[int, float]
    pairs_per_dicke: float


def _invert(cdf, m, guide, u) -> np.ndarray:
    """searchsorted(cdf, u, side="right") for keys u in [0, 1), through a guide table.

    guide[b] = searchsorted(cdf, b / m, side="right") for a power of two m, so
    b = floor(u * m) is exact and guide[b] <= answer <= guide[b + 1] (Chen & Asau
    1974). The answer is the first j with cdf[j] > u, which stays true beyond it:
    cdf[:-1] is a cumsum and cdf[-1] = 1 > u. One step forward settles nearly every
    key; the keys still short are searched on their own.
    """
    j = guide[(u * m).astype(np.intp)]
    j += cdf[j] <= u
    late = cdf[j] <= u
    if late.any():
        j[late] = np.searchsorted(cdf, u[late], side="right")
    return j


def _draws(n, p00, runs, seed) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The raw law of (n, p00) and the herald outcomes of runs 0..runs - 1, _CHUNK at a time.

    runs and seed are checked before the law is built. Outcomes follow by inverse
    CDF through one guide table per law, and one Generator serves every chunk, so
    run i always takes position i of the Philox stream keyed by seed.
    """
    runs = _as_int(runs, "runs", 1)
    seed = _as_int(seed, "seed", 0, 2**64 - 1)
    law = distribution(n, p00).raw
    cdf = np.cumsum(law)
    cdf[-1] = 1.0  # guard the top bin against roundoff
    m = min(1 << (2 * len(law) - 1).bit_length(), 1 << 16)  # a power of two >= 2(n + 1)
    guide = np.searchsorted(cdf, np.arange(m) / m, side="right")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return law, (_invert(cdf, m, guide, rng.random(min(_CHUNK, runs - start)))
                 for start in range(0, runs, _CHUNK))


def sample_runs(n, p00, runs, seed) -> RunBatch:
    """Draw independent protocol runs from the closed-form outcome law.

    Run i heralds searchsorted(cdf, u[i], side="right"), where cdf is the
    cumulative sum of distribution(n, p00).raw with its last entry set to 1
    and u = Generator(Philox(key=seed)).random(runs). A guide table (Chen &
    Asau 1974) reaches that same index for nearly every run without a binary
    search. The batch is a pure function of (n, p00, runs, seed).
    """
    law, chunks = _draws(n, p00, runs, seed)
    raw = np.concatenate(list(chunks))
    raw.flags.writeable = False
    return RunBatch(len(law) - 1, raw)


def _report(counts: np.ndarray) -> YieldReport:
    """The YieldReport of a batch whose outcome k occurred counts[k] times, k = 0..n."""
    n = len(counts) - 1
    failures, *produced = _fold(counts).tolist()
    counts = counts.tolist()
    runs = sum(counts)
    dicke_produced = {j: c for j, c in enumerate(produced, 1) if c}
    total_dicke = runs - failures
    pairs_consumed = n * runs
    return YieldReport(
        runs=runs,
        pairs_consumed=pairs_consumed,
        dicke_produced=dicke_produced,
        failures=failures,
        empirical_probs={k: c / runs for k, c in enumerate(counts)},
        pairs_per_dicke=pairs_consumed / total_dicke if total_dicke else math.inf,
    )


def yield_report(records: RunBatch, n) -> YieldReport:
    """Summarize a batch of runs into counts, frequencies, and pair cost.

    records is the RunBatch that sample_runs drew for n. Only its raw herald
    outcomes are read; classes and failures follow from them.
    """
    n = _as_int(n, "n", 1, _MAX_LAW_N)
    if not isinstance(records, RunBatch):
        raise TypeError(f"records must be a RunBatch, got {type(records).__name__}")
    if not records:
        raise ValueError("records must be nonempty")
    if records.n != n:
        raise ValueError(f"batch was drawn for n = {records.n}, not {n}")
    counts = np.bincount(records.raw, minlength=n + 1)
    if len(counts) > n + 1:
        raise ValueError(f"outcome {len(counts) - 1} exceeds n = {n}")
    return _report(counts)


def _streamed_report(n, p00, runs, seed) -> tuple[np.ndarray, np.ndarray, YieldReport]:
    """The raw law, outcome counts and yield_report of sample_runs(n, p00, runs, seed).

    Counts chunk by chunk, in O(_CHUNK + n) memory.
    """
    law, chunks = _draws(n, p00, runs, seed)
    counts = np.zeros(len(law), dtype=np.int64)
    for chunk in chunks:
        counts += np.bincount(chunk, minlength=len(law))
    return law, counts, _report(counts)

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chisquare

from dickelift import (
    DickeSpec,
    RunBatch,
    RunRecord,
    distribution,
    folded_prob,
    sample_runs,
    yield_report,
)
from dickelift import sampling
from dickelift.sampling import _CHUNK, _invert, _streamed_report

RUNS = 200_000

# sha256 of the int64 outcomes, recorded when sample_runs still built one
# RunRecord per run; they pin the seed -> outcome mapping bit for bit.
PINNED_DIGESTS = {
    (3, 0.5, 3000, 1): "5cadbd88028e7d3fd65163fbc9b9fbec80b9f4b437ca023899725c8c8dbad57c",
    (12, 1 / 12, 3000, 7): "347ae97bc864e570c016a5d0a024ec9214cb125d0d597eec59892aed806091ac",
    (100, 0.01, 3000, 11): "708664b257a8b76a7ccbfae905fe4fbacf94e87c5b67776424723b7a1dd342da",
}


def z_score(freq, p, runs):
    return (freq - p) / math.sqrt(p * (1 - p) / runs)


class TestSampleRuns:
    def test_reproducible(self):
        a = sample_runs(5, 0.3, 2000, seed=123)
        b = sample_runs(5, 0.3, 2000, seed=123)
        assert a == b

    def test_seed_changes_stream(self):
        a = sample_runs(5, 0.3, 2000, seed=123)
        b = sample_runs(5, 0.3, 2000, seed=124)
        assert a != b

    def test_run_indices_and_folding_fields(self):
        records = sample_runs(7, 0.4, 500, seed=9)
        for i, rec in enumerate(records):
            assert rec.run_index == i
            assert 0 <= rec.raw_outcome_k <= 7
            if rec.raw_outcome_k in (0, 7):
                assert rec.is_failure and rec.folded_k is None
            else:
                assert rec.folded_k == min(rec.raw_outcome_k, 7 - rec.raw_outcome_k)
                assert 1 <= rec.folded_k <= 3
            assert rec.bitflip_applied == (rec.raw_outcome_k > 7 - rec.raw_outcome_k)

    def test_even_midpoint_not_flipped(self):
        records = sample_runs(4, 0.5, 2000, seed=3)
        mids = [r for r in records if r.raw_outcome_k == 2]
        assert mids and all(not r.bitflip_applied and r.folded_k == 2 for r in mids)

    def test_degenerate_source_all_failures(self):
        records = sample_runs(4, 1.0, 100, seed=0)
        assert all(r.raw_outcome_k == 0 and r.is_failure for r in records)

    def test_w_frequency_within_five_sigma(self):
        records = sample_runs(3, 0.5, RUNS, seed=1)
        w = sum(1 for r in records if r.folded_k == 1) / RUNS
        assert abs(z_score(w, 0.75, RUNS)) < 5

    def test_all_raw_frequencies_within_five_sigma(self):
        n, p00 = 8, 0.2
        law = distribution(n, p00).raw
        records = sample_runs(n, p00, RUNS, seed=7)
        counts = np.bincount([r.raw_outcome_k for r in records], minlength=n + 1)
        for k in range(n + 1):
            if law[k] * RUNS < 25:
                continue  # too rare for a gaussian z test at this size
            assert abs(z_score(counts[k] / RUNS, law[k], RUNS)) < 5, k

    def test_folded_frequencies_within_five_sigma(self):
        n, p00 = 50, 1 / 50
        records = sample_runs(n, p00, RUNS, seed=11)
        freq = sum(1 for r in records if r.folded_k == 1) / RUNS
        p = folded_prob(DickeSpec(n, 1), p00)
        assert abs(z_score(freq, p, RUNS)) < 5

    def test_chi_square_over_outcomes(self):
        n, p00 = 6, 0.37
        law = distribution(n, p00).raw
        records = sample_runs(n, p00, RUNS, seed=21)
        counts = np.bincount([r.raw_outcome_k for r in records], minlength=n + 1)
        _, pvalue = chisquare(counts, law * RUNS)
        assert pvalue > 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_runs(3, 0.5, 0, seed=1)
        with pytest.raises(ValueError):
            sample_runs(3, 1.5, 10, seed=1)
        with pytest.raises(ValueError):
            sample_runs(3, 0.5, 10, seed=2**64)


class TestYieldReport:
    def test_three_pair_epr_cost(self):
        records = sample_runs(3, 0.5, RUNS, seed=2)
        report = yield_report(records, 3)
        assert report.pairs_consumed == 3 * RUNS
        assert report.pairs_per_dicke == pytest.approx(4.0, rel=0.01)

    def test_counts_balance(self):
        records = sample_runs(6, 0.3, 5000, seed=5)
        report = yield_report(records, 6)
        assert sum(report.dicke_produced.values()) + report.failures == report.runs
        assert sum(report.empirical_probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_all_failure_sentinel(self):
        records = sample_runs(2, 1.0, 10, seed=0)
        report = yield_report(records, 2)
        assert report.failures == 10
        assert math.isinf(report.pairs_per_dicke)

    def test_optimal_source_class_rate_tends_to_limit(self):
        # class-1 frequency at the large-n optimal weight approaches e^-1
        from dickelift import asymptotic_prob

        n = 200
        records = sample_runs(n, 1 / n, RUNS, seed=13)
        freq = sum(1 for r in records if r.folded_k == 1) / RUNS
        assert freq == pytest.approx(asymptotic_prob(1), abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(TypeError, match="^records must be a RunBatch, got list$"):
            yield_report([], 3)
        with pytest.raises(ValueError, match="^records must be nonempty$"):
            yield_report(RunBatch(3, np.zeros(0, dtype=np.int64)), 3)


def documented_outcomes(n, p00, runs, seed):
    """The construction the sample_runs docstring states, in one draw."""
    cdf = np.cumsum(distribution(n, p00).raw)
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.Philox(key=seed)).random(runs)
    return np.searchsorted(cdf, u, side="right")


def reference_records(n, raw):
    """The per-run loop that built sample_runs' records before batches."""
    records = []
    for i, k in enumerate(raw.tolist()):
        canonical = min(k, n - k)
        records.append(RunRecord(i, k, canonical if canonical >= 1 else None, k > n - k))
    return records


class TestSeedOutcomeMapping:
    @pytest.mark.parametrize("config", sorted(PINNED_DIGESTS))
    def test_pinned_digest(self, config):
        raw = sample_runs(*config).raw
        assert hashlib.sha256(raw.astype(np.int64).tobytes()).hexdigest() == PINNED_DIGESTS[config]
        np.testing.assert_array_equal(raw, documented_outcomes(*config))

    def test_chunked_draw_equals_one_draw(self):
        # more than two chunks, with a length that is no multiple of the
        # four 64-bit words a Philox counter step yields
        runs = 2 * _CHUNK + 3
        np.testing.assert_array_equal(sample_runs(9, 0.35, runs, 5).raw,
                                      documented_outcomes(9, 0.35, runs, 5))

    def test_streamed_counts_equal_batch_counts(self):
        n, p00, runs, seed = 9, 0.35, 2 * _CHUNK + 3, 5
        batch = sample_runs(n, p00, runs, seed)
        law, counts, streamed = _streamed_report(n, p00, runs, seed)
        np.testing.assert_array_equal(law, distribution(n, p00).raw)
        assert counts.tolist() == np.bincount(batch.raw, minlength=n + 1).tolist()
        assert streamed == yield_report(batch, n)


def guide_table(n, p00):
    """The cdf that sample_runs documents, with a guide table of the stated size m."""
    cdf = np.cumsum(distribution(n, p00).raw)
    cdf[-1] = 1.0
    m = min(1 << (2 * n + 1).bit_length(), 2**16)
    return cdf, m, np.searchsorted(cdf, np.arange(m) / m, side="right")


def crafted_keys(cdf, m, seed):
    """Philox draws, 0, 1 - 2**-53, every bucket edge b/m and cdf value, and their predecessors."""
    edges = np.concatenate([np.arange(m) / m, cdf])
    u = np.concatenate([np.random.Generator(np.random.Philox(key=seed)).random(1000),
                        [0.0, 1 - 2**-53], edges, np.nextafter(edges, -1)])
    return u[(u >= 0) & (u < 1)]


# p00 uniform, log-uniform down to 1e-12, their mirrors, and the ends and middle
P00 = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0).map(lambda p: 1.0 - p),
    st.floats(-12.0, 0.0).map(lambda e: 1.0 - 10.0**e),
    st.sampled_from([0.0, 1.0, 0.5]),
)


class TestGuideTable:
    @given(n=st.integers(2, 897), p00=P00, seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_invert_equals_one_search(self, n, p00, seed):
        try:
            cdf, m, guide = guide_table(n, p00)
        except ValueError as error:  # a law that distribution rejects is never sampled
            assert "raw probabilities sum to" in str(error)
            assume(False)
        u = crafted_keys(cdf, m, seed)
        np.testing.assert_array_equal(_invert(cdf, m, guide, u),
                                      np.searchsorted(cdf, u, side="right"))

    def test_late_keys_take_their_own_search(self, monkeypatch):
        cdf, m, guide = guide_table(800, 0.3)
        assert guide[1] - guide[0] > 400  # the first bucket holds hundreds of breakpoints
        u = crafted_keys(cdf, m, 3)
        expected = np.searchsorted(cdf, u, side="right")
        searched = []
        search = np.searchsorted

        def spy(a, v, side):
            searched.append(len(v))
            return search(a, v, side=side)

        monkeypatch.setattr(np, "searchsorted", spy)
        np.testing.assert_array_equal(_invert(cdf, m, guide, u), expected)
        assert len(searched) == 1 and 0 < searched[0] < len(u)

    @pytest.mark.parametrize("n,p00,m", [(2, 0.5, 8), (7, 0.5, 16), (800, 0.3, 2048),
                                         (40000, 1e-6, 2**16)])
    def test_table_size(self, monkeypatch, n, p00, m):
        tables = []
        invert = sampling._invert

        def spy(cdf, m, guide, u):
            tables.append((m, guide))
            return invert(cdf, m, guide, u)

        monkeypatch.setattr(sampling, "_invert", spy)
        raw = sample_runs(n, p00, 100, 9).raw
        np.testing.assert_array_equal(raw, documented_outcomes(n, p00, 100, 9))
        ((drawn_m, guide),) = tables
        assert drawn_m == m <= 2**16
        np.testing.assert_array_equal(guide, guide_table(n, p00)[2])

    @pytest.mark.parametrize("runs", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunk_edges_follow_documented_outcomes(self, runs):
        expected = documented_outcomes(800, 0.3, runs, 17)
        np.testing.assert_array_equal(sample_runs(800, 0.3, runs, 17).raw, expected)
        counts = _streamed_report(800, 0.3, runs, 17)[1]
        assert counts.tolist() == np.bincount(expected, minlength=801).tolist()


def typed_fields(record):
    return [(value, type(value)) for value in dataclasses.astuple(record)]


class TestRunBatch:
    N = 7

    @pytest.fixture(scope="class")
    def batch(self):
        return sample_runs(self.N, 0.4, 500, seed=9)

    def test_records_match_reference_loop(self, batch):
        expected = reference_records(self.N, batch.raw)
        assert isinstance(batch, RunBatch) and len(batch) == 500
        for i in (0, 250, -1):
            assert typed_fields(batch[i]) == typed_fields(expected[i])
        assert [typed_fields(r) for r in batch] == [typed_fields(r) for r in expected]
        with pytest.raises(IndexError):
            batch[500]

    def test_integer_index_only(self, batch):
        assert typed_fields(batch[np.int64(3)]) == typed_fields(batch[3])
        with pytest.raises(TypeError):
            batch[10:20]

    def test_column_views(self, batch):
        records = reference_records(self.N, batch.raw)
        assert batch.folded_k.tolist() == [r.folded_k or 0 for r in records]
        assert batch.bitflip_applied.tolist() == [r.bitflip_applied for r in records]

    def test_equality(self, batch):
        assert batch == sample_runs(self.N, 0.4, 500, seed=9)
        assert batch != RunBatch(self.N + 1, batch.raw)
        assert batch != list(batch)

    def test_report_same_for_list_and_batch(self, batch):
        report = yield_report(batch, self.N)
        with pytest.raises(TypeError, match="^records must be a RunBatch, got list$"):
            yield_report(list(batch), self.N)
        for value in (report.runs, report.pairs_consumed, report.failures,
                      *report.dicke_produced.values()):
            assert type(value) is int
        json.dumps(dataclasses.asdict(report))

    def test_report_rejects_other_n(self, batch):
        for n in (self.N - 1, self.N + 1):
            with pytest.raises(ValueError):
                yield_report(batch, n)
        with pytest.raises(TypeError):
            yield_report(list(batch), self.N - 1)

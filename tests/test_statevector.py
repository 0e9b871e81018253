import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dickelift.statevector as statevector
from dickelift import (
    ORACLE_MAX_QUBITS,
    ConditionalState,
    OutcomeDistribution,
    SourceState,
    build_state,
    dicke_fidelity,
    dicke_state_amplitudes,
    distribution,
    locc_fold,
    measure_fock,
    reduced_single_qubit,
    single_qubit_density,
)

EPR = SourceState(1 / math.sqrt(2), 1 / math.sqrt(2))
PHASED = SourceState(0.6 * np.exp(0.7j), 0.8 * np.exp(-2.1j))


class TestBuildState:
    def test_epr_three_pairs_uniform(self):
        st = build_state(EPR, 3)
        assert_allclose(st.amps, np.full(8, 2**-1.5), rtol=0, atol=1e-15)

    def test_pure_horizontal(self):
        st = build_state(SourceState(1.0, 0.0), 4)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert_allclose(st.amps, expected, rtol=0, atol=0)

    def test_two_pair_products(self):
        st = build_state(SourceState(0.6, 0.8), 2)
        assert_allclose(st.amps, [0.36, 0.48, 0.48, 0.64], rtol=0, atol=1e-15)
        assert np.sum(np.abs(st.amps) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            build_state(EPR, ORACLE_MAX_QUBITS + 1)

    def test_correlated_state_capacity(self):
        # measure_fock enumerates the support table of any state it is given
        n = ORACLE_MAX_QUBITS + 1
        amps = np.broadcast_to(np.complex128(2 ** (-n / 2)), (1 << n,))
        with pytest.raises(ValueError, match="2\\^n entries, n in"):
            statevector.CorrelatedState(n, amps)


class TestMeasureFock:
    def test_epr_three_pair_probabilities(self):
        probs = [b.probability for b in measure_fock(build_state(EPR, 3))]
        assert_allclose(probs, [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=0, atol=1e-14)

    def test_deterministic_outcome(self):
        branches = measure_fock(build_state(SourceState(1.0, 0.0), 5))
        assert branches[0].probability == pytest.approx(1.0, abs=1e-14)
        assert all(b.probability == 0.0 for b in branches[1:])

    def test_matches_closed_form(self):
        probs = [b.probability for b in measure_fock(build_state(SourceState.from_p00(0.81), 5))]
        assert_allclose(probs, distribution(5, 0.81).raw, rtol=0, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        probs = [b.probability for b in measure_fock(build_state(SourceState.from_p00(0.3), 7))]
        assert sum(probs) == pytest.approx(1.0, abs=1e-13)


class TestDickeFidelity:
    def test_asymmetric_source_still_ideal(self):
        branches = measure_fock(build_state(SourceState(0.6, 0.8), 4))
        assert dicke_fidelity(branches[2]) == pytest.approx(1.0, abs=1e-12)

    def test_w_state(self):
        branches = measure_fock(build_state(EPR, 3))
        assert dicke_fidelity(branches[1]) == pytest.approx(1.0, abs=1e-12)

    def test_complex_phase_source(self):
        amp11 = math.sqrt(1 - 0.98**2) * np.exp(1.3j)
        branches = measure_fock(build_state(SourceState(0.98, amp11), 6))
        assert dicke_fidelity(branches[2]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 3])
    def test_separable_branch_rejected(self, k):
        branches = measure_fock(build_state(EPR, 3))
        with pytest.raises(ValueError):
            dicke_fidelity(branches[k])


class TestLoccFold:
    def test_fold_majority_branch(self):
        branches = measure_fock(build_state(EPR, 3))
        folded = locc_fold(branches[2])
        assert folded.outcome_k == 1
        assert dicke_fidelity(folded) == pytest.approx(1.0, abs=1e-12)

    def test_even_midpoint_invariant(self):
        branches = measure_fock(build_state(SourceState(0.6, 0.8), 4))
        folded = locc_fold(branches[2])
        assert folded.outcome_k == 2
        assert dicke_fidelity(folded) == pytest.approx(1.0, abs=1e-12)

    def test_fold_equals_direct_build(self):
        # folding the weight-4 branch of 5 pairs must give the weight-1 state
        # built directly from the amplitude-swapped source
        amp11 = math.sqrt(1 - 0.3**2)
        branches = measure_fock(build_state(SourceState(0.3, amp11), 5))
        folded = locc_fold(branches[4])
        swapped = measure_fock(build_state(SourceState(amp11, 0.3), 5))
        direct = swapped[1]
        assert folded.outcome_k == direct.outcome_k == 1
        assert_allclose(folded.amps, direct.amps, rtol=0, atol=1e-12)

    def test_probability_preserved(self):
        branches = measure_fock(build_state(SourceState.from_p00(0.3), 6))
        assert locc_fold(branches[5]).probability == branches[5].probability


class TestReducedSingleQubit:
    def test_w_state_reduction(self):
        w = measure_fock(build_state(EPR, 3))[1]
        for site in range(3):
            assert_allclose(
                reduced_single_qubit(w, site),
                np.diag([2 / 3, 1 / 3]),
                rtol=0,
                atol=1e-14,
            )

    def test_bell_like_pair(self):
        half = measure_fock(build_state(EPR, 2))[1]
        assert_allclose(reduced_single_qubit(half, 0), np.diag([0.5, 0.5]), rtol=0, atol=1e-14)

    def test_site_independence_and_diagonality(self):
        branches = measure_fock(build_state(SourceState.from_p00(0.7), 6))
        cond = branches[2]
        first = reduced_single_qubit(cond, 0)
        assert abs(first[0, 1]) < 1e-12 and abs(first[1, 0]) < 1e-12
        for site in range(1, 6):
            assert_allclose(reduced_single_qubit(cond, site), first, rtol=0, atol=1e-12)

    def test_properties_of_density(self):
        cond = measure_fock(build_state(SourceState.from_p00(0.2), 5))[2]
        rho = reduced_single_qubit(cond, 3)
        assert_allclose(rho, rho.conj().T, rtol=0, atol=1e-14)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.linalg.eigvalsh(rho) > -1e-14)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_dense_partial_trace(self, n):
        # the heralded sector of a product source is uniform, so a random
        # sector on the same support also checks which bit is the site
        rng = np.random.default_rng(n)
        for cond in measure_fock(build_state(PHASED, n)):
            sector = rng.normal(size=cond.sector.size) + 1j * rng.normal(size=cond.sector.size)
            scrambled = dataclasses.replace(cond, sector=sector / np.linalg.norm(sector))
            for branch in (cond, scrambled):
                for site in range(n):
                    assert_allclose(reduced_single_qubit(branch, site),
                                    single_qubit_density(branch.amps, site), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_sector_every_site(self, n):
        # Dicke branches are symmetric under site permutations, so only a
        # random sector tells the most significant bit (site 0) from the least
        rng = np.random.default_rng(100 + n)
        for k in range(n + 1):
            size = math.comb(n, k)
            sector = rng.normal(size=size) + 1j * rng.normal(size=size)
            cond = ConditionalState(n, k, sector / np.linalg.norm(sector), 1.0)
            for site in range(n):
                assert_allclose(reduced_single_qubit(cond, site),
                                single_qubit_density(cond.amps, site), rtol=0, atol=1e-14)

    def test_peak_memory_below_one_dense_array(self):
        n = 16
        cond = measure_fock(build_state(PHASED, n))[8]
        tracemalloc.start()
        try:
            reduced_single_qubit(cond, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**n, f"peak {peak} B reaches one dense 2^{n} array"

    @pytest.mark.parametrize("site", [-1, 4])
    def test_rejects_out_of_range_site(self, site):
        cond = measure_fock(build_state(PHASED, 4))[2]
        with pytest.raises(ValueError, match="site must lie in"):
            reduced_single_qubit(cond, site)


class TestDickeReference:
    def test_uniform_on_fixed_weight(self):
        amps = dicke_state_amplitudes(4, 2)
        weights = np.array([bin(j).count("1") for j in range(16)])
        assert_allclose(np.abs(amps[weights == 2]) ** 2, np.full(6, 1 / 6), atol=1e-15)
        assert np.all(amps[weights != 2] == 0)

    @pytest.mark.parametrize(
        "n, k, name",
        [(4, 5, "k"), (4, -1, "k"), (0, 0, "n"), (-3, 0, "n"), (ORACLE_MAX_QUBITS + 1, 1, "n")],
    )
    def test_out_of_range_rejected_before_allocation(self, n, k, name, monkeypatch):
        def no_enumeration(n):
            raise AssertionError(f"enumerated 2^{n} bitstrings for a rejected input")

        monkeypatch.setattr(statevector, "_supports", no_enumeration)
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            dicke_state_amplitudes(n, k)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            dicke_state_amplitudes(4.0, 2)


# the fixed n = 20 source of the benchmark's oracle workload, where a single
# 2^20-term dot product missed 1e-12 by rounding (1.09e-12 at k = 11)
N20_SOURCE = SourceState(
    math.sqrt(0.8536948482275507) * np.exp(6.007571382571055j),
    math.sqrt(1 - 0.8536948482275507) * np.exp(5.770915809888045j),
)


def test_fidelity_rounding_at_capacity():
    branches = measure_fock(build_state(N20_SOURCE, ORACLE_MAX_QUBITS))
    for k in range(1, ORACLE_MAX_QUBITS):
        assert abs(dicke_fidelity(branches[k]) - 1.0) <= 1e-12, k
        assert abs(dicke_fidelity(locc_fold(branches[k])) - 1.0) <= 1e-12, k


def _dense_branches(state):
    # the full-length construction the sector layout replaced, kept as reference
    weights = np.bitwise_count(np.arange(1 << state.n, dtype=np.uint32))
    out = []
    for k in range(state.n + 1):
        sliced = np.where(weights == k, state.amps, 0.0)
        prob = float(np.sum(np.abs(sliced) ** 2))
        if prob > 0.0:
            sliced = sliced / math.sqrt(prob)
        out.append((sliced, prob))
    return out


def _phase_source(p00):
    return SourceState(math.sqrt(p00) * np.exp(0.7j), math.sqrt(1 - p00) * np.exp(-2.1j))


class TestSectorLayout:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_dense_construction(self, n):
        state = build_state(_phase_source(0.37), n)
        branches = measure_fock(state)
        weights = np.bitwise_count(np.arange(1 << n))
        for k, (b, (dense, prob)) in enumerate(zip(branches, _dense_branches(state))):
            assert b.outcome_k == k
            assert_allclose(b.amps, dense, rtol=0, atol=1e-15)
            assert b.probability == pytest.approx(prob, abs=1e-15)
            np.testing.assert_array_equal(b.support, np.flatnonzero(weights == k))
            np.testing.assert_array_equal(locc_fold(b).support, np.flatnonzero(weights == n - k))
            np.testing.assert_array_equal(locc_fold(b).amps, b.amps[::-1])
        assert sum(b.sector.nbytes for b in branches) == 16 * 2**n

    def test_amps_built_on_each_access(self):
        b = measure_fock(build_state(_phase_source(0.6), 5))[2]
        first = b.amps
        first[:] = 0
        assert b.amps is not first
        assert np.any(b.amps != 0)
        with pytest.raises(AttributeError):
            b.amps = first

    def test_support_table_cached_read_only(self):
        supports = statevector._supports(6)
        assert statevector._supports(6) is supports
        assert [s.dtype for s in supports] == [np.int32] * 7
        assert not any(s.flags.writeable for s in supports)
        b = measure_fock(build_state(_phase_source(0.6), 6))[2]
        assert b.support is b.support is supports[2]
        with pytest.raises(ValueError, match="read-only"):
            b.support[0] = 0

    def _branch(self):
        return measure_fock(build_state(_phase_source(0.45), 5))[2]

    def _rebuild(self, b, **changes):
        fields = dict(n=b.n, outcome_k=b.outcome_k, sector=b.sector, probability=b.probability)
        return ConditionalState(**{**fields, **changes})

    def test_stored_fields(self):
        # the support and the folded law are derived, so neither can be stored wrong
        assert [f.name for f in dataclasses.fields(ConditionalState)] == [
            "n", "outcome_k", "sector", "probability"]
        assert [f.name for f in dataclasses.fields(OutcomeDistribution)] == ["n", "raw"]

    def test_rejects_length_mismatch(self):
        b = self._branch()
        with pytest.raises(ValueError, match="10 entries"):
            self._rebuild(b, sector=b.sector[:-1])
        with pytest.raises(ValueError, match="1-D"):
            self._rebuild(b, sector=b.sector.reshape(2, 5))

    def test_rejects_unnormalized_sector(self):
        b = self._branch()
        with pytest.raises(ValueError, match="norm"):
            self._rebuild(b, sector=2 * b.sector)


def test_oracle_uses_no_closed_form():
    tree = ast.parse(Path(statevector.__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # the normalisation rule is shared; no probability formula is imported
    assert {name for module, name in imported if module == "probabilities"} == {
        "SourceState",
        "_as_int",
        "_check_norm",
        "_NORM_TOL",
    }
    assert not any(module in ("optimize", "entanglement") for module, _ in imported)
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"comb", "lgamma", "gamma", "factorial", "binom"}
    # BLAS reductions sum in an order that depends on the thread count
    assert not names & {"vdot", "dot", "inner", "linalg"}


class TestOracleClosedFormEquivalence:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_all_n_up_to_12(self, n):
        for p00 in np.linspace(0.0, 1.0, 21):
            probs = [
                b.probability
                for b in measure_fock(build_state(SourceState.from_p00(float(p00)), n))
            ]
            assert_allclose(probs, distribution(n, float(p00)).raw, rtol=0, atol=1e-12)


def test_ghz_partial_trace():
    # maximally correlated three-qubit state, built by hand
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 2**-0.5
    rho = single_qubit_density(amps, 1)
    assert_allclose(rho, np.diag([0.5, 0.5]), rtol=0, atol=1e-15)


def _kron_state(source, n):
    # the np.kron left fold build_state replaced, kept as reference
    pair = np.array([source.amp00, source.amp11], dtype=complex)
    amps = pair
    for _ in range(n - 1):
        amps = np.kron(amps, pair)
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


def _same_doubles(a, b):
    return np.array_equal(a.view(np.float64), b.view(np.float64))


BIT_IDENTITY_SOURCES = {
    "EPR": EPR,
    "PHASED": PHASED,
    "N20_SOURCE": N20_SOURCE,
    "p00=0": SourceState.from_p00(0.0),
    "p00=1": SourceState.from_p00(1.0),
    # norm^2 1 + 4e-14 per pair, so the final division is not by 1.0
    "off-norm": SourceState(0.6 * (1 + 5e-14), 0.8 * np.exp(1.3j)),
}


class TestBitIdentity:
    @pytest.mark.parametrize("name", BIT_IDENTITY_SOURCES)
    def test_build_state_equals_kron_fold(self, name):
        source = BIT_IDENTITY_SOURCES[name]
        for n in range(2, ORACLE_MAX_QUBITS + 1):
            assert _same_doubles(build_state(source, n).amps, _kron_state(source, n)), n

    @pytest.mark.parametrize("name", BIT_IDENTITY_SOURCES)
    def test_measure_fock_equals_per_sector_sum(self, name):
        source = BIT_IDENTITY_SOURCES[name]
        for n in range(2, 17):
            state = build_state(source, n)
            for b, support in zip(measure_fock(state), statevector._supports(n)):
                sector = state.amps[support]
                prob = float(np.sum(np.abs(sector) ** 2))
                if prob > 0.0:
                    sector /= math.sqrt(prob)
                assert b.probability == prob, (n, b.outcome_k)
                assert _same_doubles(b.sector, sector), (n, b.outcome_k)

    def test_norm2_equals_pairwise_sum(self):
        rng = np.random.default_rng(20)
        for size in range(4097):
            x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            assert statevector._norm2(x) == float(np.sum(np.abs(x) ** 2)), size

    def test_build_peak_memory(self):
        # the last site holds the 2^15 input and the 2^16 output: 1.5 dense arrays
        n = 16
        tracemalloc.start()
        try:
            build_state(PHASED, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 16 * 2**n, f"peak {peak / (16 * 2**n):.2f} dense 2^{n} arrays"

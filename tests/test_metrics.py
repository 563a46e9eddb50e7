"""Concurrence, fidelity, Bell catalog, and peak detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.dynamics import ProtocolConfig, ProtocolMode, run_protocol
from collisim.linalg import NumericalError, density_from_pure
from collisim.metrics import (
    all_pairs,
    bell_catalog,
    characterize_peak,
    concurrence,
    fidelity,
    find_peaks,
    pair_concurrences,
    purity,
    reduced_pair,
)
from collisim.network import CouplingKind, NetworkSpec, preset_topology
from reference import eigvals_general, spin_flip

RT2 = 1.0 / np.sqrt(2.0)
PHI_PLUS = np.array([RT2, 0, 0, RT2], dtype=complex)
PSI_MINUS = np.array([0, RT2, -RT2, 0], dtype=complex)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = dim if rank is None else rank
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pure_concurrence_oracle(ket):
    """|<psi| sigma_y x sigma_y |psi*>| for a pure two-qubit state."""
    yy = np.kron(
        np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
    )
    return abs(ket @ yy @ ket)


def werner_state(p):
    """p |Psi-><Psi-| + (1 - p) I/4, concurrence max(0, (3p - 1)/2)."""
    return p * density_from_pure(PSI_MINUS) + (1.0 - p) * np.eye(4) / 4.0


class TestSpinFlip:
    def test_maximally_mixed_is_fixed(self):
        assert np.allclose(spin_flip(np.eye(4) / 4.0), np.eye(4) / 4.0)

    def test_flips_basis_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        flipped = spin_flip(rho)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.allclose(flipped, expected)

    def test_bell_state_is_fixed(self):
        rho = density_from_pure(PHI_PLUS)
        assert np.max(np.abs(spin_flip(rho) - rho)) < 1e-14

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            spin_flip(np.eye(2) / 2.0)


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(density_from_pure(PHI_PLUS)) - 1.0) < 1e-12

    def test_basis_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1] = 1.0
        assert concurrence(rho) == 0.0

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4.0) == 0.0

    def test_pure_states_match_overlap_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            ket = random_ket(rng, 4)
            got = concurrence(density_from_pure(ket))
            assert abs(got - pure_concurrence_oracle(ket)) < 1e-12

    def test_matches_eigenvalue_route(self):
        # Same quantity via the textbook eigenvalue path.
        rng = np.random.default_rng(32)
        for _ in range(100):
            rho = random_density(rng, 4)
            lam = eigvals_general(rho @ spin_flip(rho))
            mu = np.sort(np.sqrt(np.clip(lam.real, 0.0, None)))[::-1]
            want = max(0.0, mu[0] - mu[1] - mu[2] - mu[3])
            assert abs(concurrence(rho) - want) < 1e-8

    def test_werner_family_closed_form(self):
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
            want = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert abs(concurrence(werner_state(p)) - want) < 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            rho = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9

    def test_product_states_have_none(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            rho = np.kron(random_density(rng, 2), random_density(rng, 2))
            assert concurrence(rho) < 1e-9

    def test_range(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            c = concurrence(random_density(rng, 4, rank=rng.integers(1, 5)))
            assert -1e-12 <= c <= 1.0 + 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(4))

    def test_rejects_negative_state(self):
        with pytest.raises(NumericalError):
            concurrence(np.diag([1.1, -0.1, 0.0, 0.0]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(8) / 8.0)


class TestStackedConcurrence:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        size=st.integers(1, 8),
        data=st.data(),
    )
    def test_matches_single_state_calls(self, seed, n, size, data):
        # Two-qubit reductions of random n-qubit states of rank 1..4.
        rng = np.random.default_rng(seed)
        pair = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2))))
        states = np.array(
            [random_density(rng, 2**n, rank=int(rng.integers(1, 5))) for _ in range(size)]
        )
        stack = reduced_pair(states, pair, n)
        for i in range(size):
            assert np.array_equal(stack[i], reduced_pair(states[i], pair, n))
        got = concurrence(stack)
        assert isinstance(got, np.ndarray) and got.shape == (size,)
        for i in range(size):
            single = concurrence(stack[i])
            assert isinstance(single, float)
            assert got[i] == single

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 20),
        data=st.data(),
        bad=st.sampled_from(["negative", "trace"]),
    )
    def test_bad_state_is_named_by_index(self, seed, size, data, bad):
        rng = np.random.default_rng(seed)
        stack = np.array(
            [random_density(rng, 4, rank=int(rng.integers(1, 5))) for _ in range(size)]
        )
        index = data.draw(st.integers(0, size - 1))
        if bad == "negative":
            stack[index] = np.diag([1.1, -0.1, 0.0, 0.0])
            error = NumericalError
        else:
            stack[index] = np.eye(4) / 2.0
            error = ValueError
        with pytest.raises(error, match=rf"\(stack index {index}\)"):
            concurrence(stack)

    def test_several_leading_axes(self):
        rng = np.random.default_rng(37)
        stack = np.array([random_density(rng, 4) for _ in range(6)]).reshape(3, 2, 4, 4)
        got = concurrence(stack)
        assert got.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert got[i, j] == concurrence(stack[i, j])
        stack[2, 1] = np.eye(4)
        with pytest.raises(ValueError, match=r"\(stack index \(2, 1\)\)"):
            concurrence(stack)

    def test_rejects_wrong_shape_stack(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence(np.array([np.eye(8) / 8.0] * 3))


class TestFidelity:
    def test_perfect_overlap(self):
        assert abs(fidelity(density_from_pure(PHI_PLUS), PHI_PLUS) - 1.0) < 1e-14

    def test_orthogonal(self):
        assert abs(fidelity(density_from_pure(PHI_PLUS), PSI_MINUS)) < 1e-14

    def test_maximally_mixed(self):
        assert abs(fidelity(np.eye(4) / 4.0, PHI_PLUS) - 0.25) < 1e-14

    def test_accepts_catalog_entries(self):
        target = bell_catalog()[0]
        rho = density_from_pure(target.state)
        assert abs(fidelity(rho, target) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2) / 2.0, PHI_PLUS)

    def test_entanglement_witness_threshold(self):
        # Bell-state fidelity above 1/2 certifies entanglement; check along
        # the noisy-singlet family where the concurrence is known.
        for q in (0.4, 0.6, 0.8, 1.0):
            rho = werner_state(q)
            f = fidelity(rho, PSI_MINUS)
            assert abs(f - (q + (1.0 - q) / 4.0)) < 1e-12
            if f > 0.5:
                assert concurrence(rho) > 0.0


class TestBellCatalog:
    def test_order_and_labels(self):
        labels = [t.label for t in bell_catalog()]
        assert labels == [
            "PhiTilde+",
            "PhiTilde-",
            "Phi+",
            "Phi-",
            "Psi+",
            "Psi-",
            "PsiTilde+",
            "PsiTilde-",
            "p-",
        ]

    def test_states_are_normalized_and_maximally_entangled(self):
        for target in bell_catalog():
            assert abs(np.linalg.norm(target.state) - 1.0) < 1e-12
            c = concurrence(density_from_pure(target.state))
            assert abs(c - 1.0) < 1e-10

    def test_tilde_amplitudes(self):
        by_label = {t.label: t.state for t in bell_catalog()}
        assert np.allclose(by_label["PhiTilde-"], [RT2, 0, 0, -1j * RT2])
        assert np.allclose(by_label["PsiTilde+"], [0, RT2, 1j * RT2, 0])

    def test_balanced_combination_amplitudes(self):
        by_label = {t.label: t.state for t in bell_catalog()}
        assert np.allclose(by_label["p-"], [0.5, -0.5j, 0.5j, -0.5])

    def test_mutual_overlaps(self):
        # The eight plain entries split into two orthogonal quartets; p-
        # straddles Phi- and Psi- with overlap 1/2 each.
        states = {t.label: t.state for t in bell_catalog()}
        assert abs(states["Phi+"].conj() @ states["Phi-"]) < 1e-12
        assert abs(states["PhiTilde+"].conj() @ states["PsiTilde-"]) < 1e-12
        assert abs(abs(states["p-"].conj() @ states["Phi-"]) ** 2 - 0.5) < 1e-12
        assert abs(abs(states["p-"].conj() @ states["Psi-"]) ** 2 - 0.5) < 1e-12

    def test_returns_a_fresh_list(self):
        first = bell_catalog()
        first.clear()
        assert len(bell_catalog()) == 9


class TestPurity:
    def test_pure(self):
        assert abs(purity(density_from_pure(PHI_PLUS)) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(np.eye(4) / 4.0) - 0.25) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 4, 8]),
        shape=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    )
    def test_stack_matches_single_state_calls(self, seed, dim, shape):
        rng = np.random.default_rng(seed)
        states = [
            random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            for _ in range(int(np.prod(shape)))
        ]
        stack = np.array(states).reshape(tuple(shape) + (dim, dim))
        got = purity(stack)
        assert isinstance(got, np.ndarray) and got.shape == tuple(shape)
        for index in np.ndindex(*shape):
            single = purity(stack[index])
            assert isinstance(single, float)
            assert got[index] == single


class TestReducedPair:
    def test_extracts_marginal(self):
        rng = np.random.default_rng(36)
        pair_rho = random_density(rng, 4)
        lone = random_density(rng, 2)
        full = np.kron(pair_rho, lone)
        got = reduced_pair(full, (0, 1), 3)
        assert np.max(np.abs(got - pair_rho)) < 1e-12

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            reduced_pair(np.eye(8) / 8.0, (1, 1), 3)
        with pytest.raises(ValueError):
            reduced_pair(np.eye(8) / 8.0, (0, 3), 3)


class TestPairConcurrences:
    def make_trajectory(self, steps=12):
        spec = NetworkSpec(
            topology=preset_topology("linear3"),
            system_coupling=CouplingKind.XX,
            omega0=1.0,
            ancilla_coupling=CouplingKind.XX,
            omega=5.0,
            target=0,
        )
        net0 = np.zeros(8, dtype=complex)
        net0[0] = 1.0
        cfg = ProtocolConfig(
            spec=spec,
            mode=ProtocolMode.REPEATED_INTERACTION,
            dt=0.4,
            steps=steps,
            ancilla_init=np.array([1.0, 1.0]) / np.sqrt(2.0),
            network_init=net0,
        )
        return run_protocol(cfg)

    def test_default_pairs_and_shape(self):
        traj = self.make_trajectory()
        pairs, table = pair_concurrences(traj)
        assert pairs == [(0, 1), (0, 2), (1, 2)]
        assert table.shape == (13, 3)

    def test_initial_product_row_is_zero(self):
        _, table = pair_concurrences(self.make_trajectory())
        assert np.max(table[0]) < 1e-12

    def test_matches_direct_loop(self):
        traj = self.make_trajectory(steps=6)
        pairs, table = pair_concurrences(traj, pairs=[(1, 2)])
        for row, state in enumerate(traj.network):
            want = concurrence(reduced_pair(state, (1, 2), 3))
            assert table[row, 0] == want

    def test_all_pairs_helper(self):
        assert all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
        assert all_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestFindPeaks:
    def test_single_spike(self):
        assert find_peaks([0.0, 1.0, 0.0], 0.5) == [(1, 1.0)]

    def test_monotone_has_no_peaks(self):
        assert find_peaks(np.linspace(0.0, 1.0, 9), 0.0) == []

    def test_plateau_counts_once(self):
        assert find_peaks([0.0, 1.0, 1.0, 0.0], 0.5) == [(1, 1.0)]

    def test_plateau_touching_the_edge_is_not_a_peak(self):
        assert find_peaks([1.0, 1.0, 0.0, 0.0], 0.0) == []
        assert find_peaks([0.0, 0.0, 1.0, 1.0], 0.0) == []

    def test_endpoints_never_qualify(self):
        assert find_peaks([2.0, 1.0, 2.0], 0.0) == []

    def test_min_height_filters(self):
        series = [0.0, 0.4, 0.0, 0.9, 0.0]
        assert find_peaks(series, 0.5) == [(3, 0.9)]
        assert find_peaks(series, 0.0) == [(3, 0.9), (1, 0.4)]

    def test_sorted_by_value_then_index(self):
        series = [0.0, 0.7, 0.0, 0.9, 0.0, 0.7, 0.0]
        assert find_peaks(series, 0.0) == [(3, 0.9), (1, 0.7), (5, 0.7)]

    def test_too_short(self):
        with pytest.raises(ValueError):
            find_peaks([0.0, 1.0], 0.0)


class TestCharacterizePeak:
    def test_catalog_member_identified(self):
        for target in bell_catalog():
            label, f = characterize_peak(density_from_pure(target.state))
            assert label == target.label
            assert abs(f - 1.0) < 1e-12

    def test_exact_tie_resolved_by_catalog_order(self):
        label, f = characterize_peak(np.eye(4) / 4.0)
        assert label == "PhiTilde+"
        assert abs(f - 0.25) < 1e-12

    def test_biased_mixture(self):
        catalog = {t.label: t.state for t in bell_catalog()}
        rho = 0.7 * density_from_pure(catalog["Psi+"]) + 0.3 * np.eye(4) / 4.0
        label, f = characterize_peak(rho)
        assert label == "Psi+"
        assert abs(f - 0.775) < 1e-12

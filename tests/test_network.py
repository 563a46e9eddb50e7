"""Hamiltonian construction and its symmetries."""

import numpy as np
import pytest

from collisim.linalg import IDENTITY_2, SIGMA_X, SIGMA_Z, embed_single, expm_hermitian
from collisim.network import (
    CouplingKind,
    NetworkSpec,
    Topology,
    build_interaction_hamiltonian,
    build_propagator,
    build_system_hamiltonian,
    pair_label,
    pair_term,
    preset_topology,
    qubit_label,
)


def ket(bits):
    """Computational basis column vector, qubit 0 as the most significant bit."""
    n = len(bits)
    vec = np.zeros(2**n, dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    vec[idx] = 1.0
    return vec


def bit_permutation_matrix(perm, n):
    """Unitary that moves qubit q to slot perm[q]."""
    dim = 2**n
    p = np.zeros((dim, dim))
    for old in range(dim):
        bits = [(old >> (n - 1 - q)) & 1 for q in range(n)]
        new = 0
        moved = [0] * n
        for q in range(n):
            moved[perm[q]] = bits[q]
        for b in moved:
            new = (new << 1) | b
        p[new, old] = 1.0
    return p


def chain_spec(**overrides):
    base = dict(
        topology=preset_topology("linear3"),
        system_coupling=CouplingKind.XX,
        omega0=1.0,
        ancilla_coupling=CouplingKind.XX,
        omega=5.0,
        target=0,
    )
    base.update(overrides)
    return NetworkSpec(**base)


class TestLabels:
    def test_letters(self):
        assert qubit_label(0) == "A"
        assert qubit_label(2) == "C"
        assert pair_label((1, 2)) == "BC"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            qubit_label(26)


class TestTopology:
    def test_presets(self):
        linear = preset_topology("linear3")
        assert linear.edges() == [(0, 1), (1, 2)]
        triangle = preset_topology("triangle3")
        assert triangle.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_topology("ring17")

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Topology(2, np.array([[0, 1], [0, 0]]))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(2, np.array([[1, 0], [0, 0]]))

    def test_rejects_weights(self):
        with pytest.raises(ValueError):
            Topology(2, np.array([[0, 2], [2, 0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Topology(3, np.zeros((2, 2), dtype=int))


class TestPairTerm:
    def test_xx_flips_both(self):
        op = pair_term(CouplingKind.XX, 0, 1, 2)
        assert np.allclose(op @ ket("00"), ket("11"))
        assert np.allclose(op @ ket("10"), ket("01"))

    def test_zz_is_diagonal_with_parity_signs(self):
        op = pair_term(CouplingKind.ZZ, 0, 1, 2)
        assert np.allclose(op, np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_exchange_hops_one_excitation(self):
        op = pair_term(CouplingKind.EXCHANGE, 0, 1, 2)
        assert np.allclose(op @ ket("01"), 0.5 * ket("10"))
        assert np.allclose(op @ ket("10"), 0.5 * ket("01"))
        assert np.allclose(op @ ket("00"), 0.0)
        assert np.allclose(op @ ket("11"), 0.0)

    def test_hermitian(self):
        for kind in CouplingKind:
            op = pair_term(kind, 0, 2, 3)
            assert np.max(np.abs(op - op.conj().T)) < 1e-14

    def test_order_does_not_matter(self):
        for kind in CouplingKind:
            a = pair_term(kind, 1, 3, 4)
            b = pair_term(kind, 3, 1, 4)
            assert np.allclose(a, b)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pair_term(CouplingKind.XX, 1, 1, 3)
        with pytest.raises(ValueError):
            pair_term(CouplingKind.XX, 0, 3, 3)


class TestSystemHamiltonian:
    def test_triangle_matches_explicit_sum(self):
        spec = chain_spec(topology=preset_topology("triangle3"), omega0=2.0)
        h = build_system_hamiltonian(spec, n_total=3, network_offset=0)
        x = [embed_single(SIGMA_X, q, 3) for q in range(3)]
        expected = 2.0 * (x[0] @ x[1] + x[0] @ x[2] + x[1] @ x[2])
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_chain_omits_end_to_end_coupling(self):
        spec = chain_spec()
        h = build_system_hamiltonian(spec, n_total=3, network_offset=0)
        x = [embed_single(SIGMA_X, q, 3) for q in range(3)]
        expected = x[0] @ x[1] + x[1] @ x[2]
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_default_register_leaves_ancilla_idle(self):
        spec = chain_spec()
        h = build_system_hamiltonian(spec)
        bare = build_system_hamiltonian(spec, n_total=3, network_offset=0)
        assert h.shape == (16, 16)
        assert np.max(np.abs(h - np.kron(IDENTITY_2, bare))) < 1e-12

    def test_zero_strength(self):
        spec = chain_spec(omega0=0.0)
        assert not np.any(build_system_hamiltonian(spec))

    def test_register_too_small(self):
        with pytest.raises(ValueError):
            build_system_hamiltonian(chain_spec(), n_total=3)


class TestInteractionHamiltonian:
    def test_zz_on_target_b(self):
        spec = chain_spec(ancilla_coupling=CouplingKind.ZZ, omega=5.0, target=1)
        h = build_interaction_hamiltonian(spec)
        expected = 5.0 * (
            embed_single(SIGMA_Z, 0, 4) @ embed_single(SIGMA_Z, 2, 4)
        )
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_xx_on_target_a(self):
        spec = chain_spec(omega=3.0, target=0)
        h = build_interaction_hamiltonian(spec)
        expected = 3.0 * (
            embed_single(SIGMA_X, 0, 4) @ embed_single(SIGMA_X, 1, 4)
        )
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_zero_strength_decouples(self):
        spec = chain_spec(omega=0.0)
        assert not np.any(build_interaction_hamiltonian(spec))

    def test_ancilla_slot_collision(self):
        with pytest.raises(ValueError):
            build_interaction_hamiltonian(chain_spec(), network_offset=0)


class TestRelabelSymmetry:
    def test_permutation_helper_moves_single_sites(self):
        perm = [2, 0, 1]
        p = bit_permutation_matrix(perm, 3)
        for q in range(3):
            lhs = p @ embed_single(SIGMA_X, q, 3) @ p.conj().T
            rhs = embed_single(SIGMA_X, perm[q], 3)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_relabeling_network_qubits_conjugates_hamiltonian(self):
        # Permuting the adjacency matrix must act on the Hamiltonian as the
        # corresponding basis permutation.
        perm = [1, 2, 0]
        p = bit_permutation_matrix(perm, 3)
        for name in ("linear3", "triangle3"):
            topo = preset_topology(name)
            permuted_adj = np.zeros_like(topo.adjacency)
            for i in range(3):
                for j in range(3):
                    permuted_adj[perm[i], perm[j]] = topo.adjacency[i, j]
            original = build_system_hamiltonian(
                chain_spec(topology=topo), n_total=3, network_offset=0
            )
            relabeled = build_system_hamiltonian(
                chain_spec(topology=Topology(3, permuted_adj)),
                n_total=3,
                network_offset=0,
            )
            assert np.max(np.abs(relabeled - p @ original @ p.conj().T)) < 1e-12

    def test_chain_end_swap_mirrors_full_hamiltonian(self):
        # On the open chain, coupling the ancilla to A and then swapping the
        # two chain ends gives exactly the ancilla-to-C Hamiltonian.
        swap = bit_permutation_matrix([0, 3, 2, 1], 4)
        h_a = build_system_hamiltonian(chain_spec(target=0)) + (
            build_interaction_hamiltonian(chain_spec(target=0))
        )
        h_c = build_system_hamiltonian(chain_spec(target=2)) + (
            build_interaction_hamiltonian(chain_spec(target=2))
        )
        assert np.max(np.abs(swap @ h_a @ swap.conj().T - h_c)) < 1e-12


class TestExchangeConservation:
    def test_commutes_with_total_z(self):
        spec = chain_spec(
            topology=preset_topology("triangle3"),
            system_coupling=CouplingKind.EXCHANGE,
        )
        h = build_system_hamiltonian(spec, n_total=3, network_offset=0)
        total_z = sum(embed_single(SIGMA_Z, q, 3) for q in range(3))
        comm = h @ total_z - total_z @ h
        assert np.max(np.abs(comm)) < 1e-12


class TestPropagator:
    def test_unitary(self):
        u = build_propagator(chain_spec(), 0.4)
        assert u.shape == (16, 16)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-9

    def test_short_time_expansion(self):
        spec = chain_spec()
        dt = 1e-6
        h = build_system_hamiltonian(spec) + build_interaction_hamiltonian(spec)
        u = build_propagator(spec, dt)
        first_order = np.eye(16) - 1j * dt * h
        hnorm = np.linalg.norm(h, ord=2)
        assert np.max(np.abs(u - first_order)) < (hnorm * dt) ** 2

    def test_diagonal_when_everything_commutes(self):
        # ZZ ancilla coupling with the network switched off gives a
        # propagator that is diagonal with pure phases.
        spec = chain_spec(omega0=0.0, ancilla_coupling=CouplingKind.ZZ, omega=2.0)
        dt = 0.3
        u = build_propagator(spec, dt)
        h = build_interaction_hamiltonian(spec)
        expected = np.diag(np.exp(-1j * dt * np.diag(h)))
        assert np.max(np.abs(u - expected)) < 1e-10

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            build_propagator(chain_spec(), 0.0)
        with pytest.raises(ValueError):
            build_propagator(chain_spec(), -0.1)


class TestNetworkSpecValidation:
    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            chain_spec(target=3)

    def test_negative_strength(self):
        with pytest.raises(ValueError):
            chain_spec(omega=-1.0)

    def test_non_finite_strength(self):
        for bad in (dict(omega=float("nan")), dict(omega0=float("inf"))):
            with pytest.raises(ValueError):
                chain_spec(**bad)

"""Hamiltonian construction and its symmetries."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.linalg import (
    ATOL_UNITARY,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    NumericalError,
    embed_single,
    expm_hermitian,
)
from collisim import network as network_module
from collisim.network import (
    CouplingKind,
    NetworkSpec,
    Topology,
    build_propagator,
    build_system_hamiltonian,
    pair_label,
    pair_term,
    preset_topology,
    qubit_label,
)
from collisim.runner import PRESETS, ExperimentConfig, build_protocol, preset
from reference import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    charge_block_propagator,
    interaction_hamiltonian,
    kron_pair_term,
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

    def test_matches_kron_chains_exactly(self):
        # Basis-index arithmetic gives the np.kron result entry for entry.
        for n in (3, 4, 8):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for kind in CouplingKind:
                        assert np.array_equal(pair_term(kind, i, j, n), kron_pair_term(kind, i, j, n))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pair_term(CouplingKind.XX, 1, 1, 3)
        with pytest.raises(ValueError):
            pair_term(CouplingKind.XX, 0, 3, 3)


class TestSystemHamiltonian:
    def test_triangle_matches_explicit_sum(self):
        spec = chain_spec(topology=preset_topology("triangle3"), omega0=2.0)
        h = build_system_hamiltonian(spec)
        x = [embed_single(SIGMA_X, q, 3) for q in range(3)]
        expected = 2.0 * (x[0] @ x[1] + x[0] @ x[2] + x[1] @ x[2])
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_chain_omits_end_to_end_coupling(self):
        spec = chain_spec()
        h = build_system_hamiltonian(spec)
        x = [embed_single(SIGMA_X, q, 3) for q in range(3)]
        expected = x[0] @ x[1] + x[1] @ x[2]
        assert np.max(np.abs(h - expected)) < 1e-12

    def test_default_register_leaves_ancilla_idle(self):
        # With the ancilla coupling off, the propagator is the network's own
        # one-step unitary next to an idle ancilla in slot 0.
        spec = chain_spec(omega=0.0)
        h = build_system_hamiltonian(spec)
        assert h.shape == (8, 8)
        u_net = expm_hermitian(h, -1j * 0.4)
        u = build_propagator(spec, 0.4)
        assert np.max(np.abs(u - np.kron(IDENTITY_2, u_net))) < 1e-12

    def test_zero_strength(self):
        spec = chain_spec(omega0=0.0)
        assert not np.any(build_system_hamiltonian(spec))


def assert_propagates(spec, interaction, dt=0.4):
    """build_propagator's U is exp(-i H dt) for H = I x H_system + interaction."""
    h = np.kron(IDENTITY_2, build_system_hamiltonian(spec)) + interaction
    assert np.max(np.abs(build_propagator(spec, dt) - expm_hermitian(h, -1j * dt))) < 1e-12


class TestInteractionHamiltonian:
    """The ancilla couples to its target, ancilla in slot 0 and network qubit k in slot k + 1."""

    def test_zz_on_target_b(self):
        spec = chain_spec(ancilla_coupling=CouplingKind.ZZ, omega=5.0, target=1)
        expected = 5.0 * (
            embed_single(SIGMA_Z, 0, 4) @ embed_single(SIGMA_Z, 2, 4)
        )
        assert np.max(np.abs(interaction_hamiltonian(spec) - expected)) < 1e-12
        assert_propagates(spec, expected)

    def test_xx_on_target_a(self):
        spec = chain_spec(omega=3.0, target=0)
        expected = 3.0 * (
            embed_single(SIGMA_X, 0, 4) @ embed_single(SIGMA_X, 1, 4)
        )
        assert np.max(np.abs(interaction_hamiltonian(spec) - expected)) < 1e-12
        assert_propagates(spec, expected)

    def test_exchange_on_target_c(self):
        spec = chain_spec(ancilla_coupling=CouplingKind.EXCHANGE, omega=2.0, target=2)
        up = embed_single(SIGMA_PLUS, 0, 4) @ embed_single(SIGMA_MINUS, 3, 4)
        expected = 2.0 * 0.5 * (up + up.conj().T)
        assert np.max(np.abs(interaction_hamiltonian(spec) - expected)) < 1e-12
        assert_propagates(spec, expected)

    def test_zero_strength_decouples(self):
        spec = chain_spec(omega=0.0)
        assert not np.any(interaction_hamiltonian(spec))
        assert_propagates(spec, 0.0)


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
            original = build_system_hamiltonian(chain_spec(topology=topo))
            relabeled = build_system_hamiltonian(
                chain_spec(topology=Topology(3, permuted_adj))
            )
            assert np.max(np.abs(relabeled - p @ original @ p.conj().T)) < 1e-12

    def test_chain_end_swap_mirrors_full_hamiltonian(self):
        # On the open chain, coupling the ancilla to A and then swapping the
        # two chain ends gives exactly the ancilla-to-C Hamiltonian.
        swap = bit_permutation_matrix([0, 3, 2, 1], 4)
        h_a, h_c = (
            np.kron(IDENTITY_2, build_system_hamiltonian(spec))
            + interaction_hamiltonian(spec)
            for spec in (chain_spec(target=0), chain_spec(target=2))
        )
        assert np.max(np.abs(swap @ h_a @ swap.conj().T - h_c)) < 1e-12


class TestExchangeConservation:
    def test_commutes_with_total_z(self):
        spec = chain_spec(
            topology=preset_topology("triangle3"),
            system_coupling=CouplingKind.EXCHANGE,
        )
        h = build_system_hamiltonian(spec)
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
        h = np.kron(IDENTITY_2, build_system_hamiltonian(spec))
        h += interaction_hamiltonian(spec)
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
        h = interaction_hamiltonian(spec)
        expected = np.diag(np.exp(-1j * dt * np.diag(h)))
        assert np.max(np.abs(u - expected)) < 1e-10

    def test_overflowing_hamiltonian_is_a_numerical_error(self):
        # The triangle's ZZ diagonal, 3 omega0, overflows to inf; that fails
        # naming both strengths, with no numpy warning escaping.
        spec = chain_spec(
            topology=preset_topology("triangle3"), system_coupling=CouplingKind.ZZ, omega0=1e308
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NumericalError, match=r"overflows with omega0=1e\+308 and omega=5;"
            ):
                build_propagator(spec, 0.4)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            build_propagator(chain_spec(), 0.0)
        with pytest.raises(ValueError):
            build_propagator(chain_spec(), -0.1)


def _oracle_configs():
    """Configs on which H's components are its joint charge blocks."""
    chain7 = [[1 if abs(i - j) == 1 else 0 for j in range(7)] for i in range(7)]
    configs = {name: preset(name) for name in PRESETS}
    configs["chain7_carry"] = ExperimentConfig(
        topology=chain7, system_coupling="Exchange", ancilla_coupling="Exchange",
        omega=5.0, target="A", mode="repeated", dt=0.4, steps=200, ancilla_init="1",
    )
    for omega in np.linspace(0.5, 30.0, 40):
        configs[f"fig2_cm-omega{omega:g}"] = dataclasses.replace(
            preset("fig2_cm"), omega=float(omega)
        )
    configs["fig6-omega0"] = dataclasses.replace(preset("fig6"), omega=0.0)
    configs["fig2-omega0_0"] = dataclasses.replace(preset("fig2"), omega0=0.0)
    return configs


ORACLE_CONFIGS = _oracle_configs()

# An open chain A-B-C beside a qubit D that nothing couples to.
ISOLATED_D = Topology(4, np.array([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]))


@st.composite
def topologies(draw):
    """A random 0/1 adjacency on 1 to 4 qubits, or ISOLATED_D."""
    if draw(st.booleans()):
        return ISOLATED_D
    n = draw(st.integers(1, 4))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(bits).reshape(n, n), 1)
    return Topology(n, (upper | upper.T).astype(int))


STRENGTHS = st.one_of(st.just(0.0), st.floats(0.1, 20.0))


def components(h):
    """Boolean (N, N): True where two register states are linked by a path
    of nonzero entries of h, each state with itself included."""
    reach = (h != 0) | np.eye(len(h), dtype=bool)
    while True:
        grown = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(grown, reach):
            return reach
        reach = grown


class TestPropagatorBlocks:
    """build_propagator exponentiates H over the blocks H couples."""

    @pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
    def test_matches_charge_block_reference(self, name):
        protocol = build_protocol(ORACLE_CONFIGS[name])[0]
        got = build_propagator(protocol.spec, protocol.dt)
        assert np.array_equal(got, charge_block_propagator(protocol.spec, protocol.dt))

    @settings(max_examples=120, deadline=None)
    @given(
        topology=topologies(),
        system=st.sampled_from(CouplingKind),
        ancilla=st.sampled_from(CouplingKind),
        omega0=STRENGTHS,
        omega=STRENGTHS,
        dt=st.floats(0.05, 1.0),
        data=st.data(),
    )
    def test_zero_between_components_and_unitary(
        self, topology, system, ancilla, omega0, omega, dt, data
    ):
        spec = NetworkSpec(
            topology, system, omega0, ancilla, omega, data.draw(st.integers(0, topology.n - 1))
        )
        h = np.kron(IDENTITY_2, build_system_hamiltonian(spec))
        h += interaction_hamiltonian(spec)
        u = build_propagator(spec, dt)
        assert not u[~components(h)].any()
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= ATOL_UNITARY
        assert np.max(np.abs(u - expm_hermitian(h, -1j * dt))) <= 1e-12

    def test_isolated_qubit_splits_the_charge_blocks(self):
        # D's bit is conserved on its own, finer than any charge: U links
        # no two states that differ in it, and moves by roundoff only.
        spec = NetworkSpec(ISOLATED_D, CouplingKind.XX, 1.0, CouplingKind.ZZ, 5.0, 1)
        got = build_propagator(spec, 0.4)
        want = charge_block_propagator(spec, 0.4)
        assert np.count_nonzero(got) == 128 < np.count_nonzero(want)
        assert np.max(np.abs(got - want)) <= 1e-14


class TestStackedPropagators:
    """build_propagator over a stack equals each run's own build."""

    def test_each_run_equals_its_own_build(self):
        # Equal runs go through one batched eigh, an omega of 0 has finer
        # blocks than the others, and the step durations differ.
        runs = [(5.0, 0.4), (12.0, 0.2), (5.0, 0.4), (0.0, 0.3), (20.0, 0.05)]
        specs = [chain_spec(omega=omega) for omega, _ in runs]
        dts = [dt for _, dt in runs]
        got = build_propagator(specs, dts)
        assert got.shape == (5, 16, 16)
        for k, (spec, dt) in enumerate(zip(specs, dts)):
            assert got[k].tobytes() == build_propagator(spec, dt).tobytes()

    def test_one_eigh_call_per_pattern_and_block_size(self, monkeypatch):
        # fig2_cm's H splits into blocks of one size at every omega, and an
        # omega of 0 drops the ancilla's diagonal terms: a second pattern.
        calls = []
        monkeypatch.setattr(
            network_module,
            "expm_hermitian",
            lambda h, scale: calls.append(h.shape) or expm_hermitian(h, scale),
        )
        base = preset("fig2_cm")
        specs = [
            build_protocol(dataclasses.replace(base, omega=4.0 + k))[0].spec for k in range(16)
        ]
        build_propagator(specs, [base.dt] * 16)
        assert len(calls) == 1
        calls.clear()
        zero = build_protocol(dataclasses.replace(base, omega=0.0))[0].spec
        got = build_propagator(specs + [zero], [base.dt] * 17)
        assert len(calls) == 2
        assert got[16].tobytes() == build_propagator(zero, base.dt).tobytes()

    def test_rejects_mismatched_stacks(self):
        spec = chain_spec()
        with pytest.raises(ValueError, match="2 network specs for 1 step durations"):
            build_propagator([spec, spec], [0.4])
        with pytest.raises(ValueError, match="step duration must be positive"):
            build_propagator([spec, spec], [0.4, -0.1])
        with pytest.raises(ValueError, match="share the network size"):
            build_propagator([spec, chain_spec(topology=ISOLATED_D)], [0.4, 0.4])


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

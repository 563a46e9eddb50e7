"""Step map and protocol loop behaviour."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim.dynamics import (
    Propagator,
    ProtocolConfig,
    ProtocolMode,
    collision_step,
    run_protocol,
)
from collisim.linalg import (
    IDENTITY_2,
    PSD_SLACK,
    NumericalError,
    density_from_pure,
    expm_hermitian,
)
from collisim.network import (
    CouplingKind,
    NetworkSpec,
    build_propagator,
    build_system_hamiltonian,
    preset_topology,
)
from collisim.runner import PRESETS, ExperimentConfig, build_protocol, preset
from reference import reference_step, reference_trajectory

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
KET_ZERO = np.array([1.0, 0.0])
KET_ONE = np.array([0.0, 1.0])


def basis_ket(n, index=0):
    vec = np.zeros(2**n, dtype=complex)
    vec[index] = 1.0
    return vec


def make_spec(**overrides):
    base = dict(
        topology=preset_topology("triangle3"),
        system_coupling=CouplingKind.XX,
        omega0=1.0,
        ancilla_coupling=CouplingKind.XX,
        omega=5.0,
        target=0,
    )
    base.update(overrides)
    return NetworkSpec(**base)


def make_config(**overrides):
    base = dict(
        spec=make_spec(),
        mode=ProtocolMode.REPEATED_INTERACTION,
        dt=0.4,
        steps=10,
        ancilla_init=KET_PLUS,
        network_init=basis_ket(3),
    )
    base.update(overrides)
    return ProtocolConfig(**base)


class TestCollisionStep:
    def test_identity_leaves_states_alone(self):
        net = density_from_pure(basis_ket(3))
        anc = density_from_pure(KET_PLUS)
        net_out, anc_out = collision_step(net, anc, np.eye(16, dtype=complex))
        assert np.max(np.abs(net_out - net)) < 1e-14
        assert np.max(np.abs(anc_out - anc)) < 1e-14

    def test_diagonal_propagator_preserves_basis_states(self):
        spec = make_spec(
            system_coupling=CouplingKind.ZZ,
            ancilla_coupling=CouplingKind.ZZ,
            target=1,
        )
        u = build_propagator(spec, 0.4)
        net = density_from_pure(basis_ket(3))
        anc = density_from_pure(KET_ONE)
        net_out, anc_out = collision_step(net, anc, u)
        assert np.max(np.abs(net_out - net)) < 1e-12
        assert np.max(np.abs(anc_out - anc)) < 1e-12

    def test_matches_dense_oracle(self):
        # Recompute one step with plain matrix products and explicit
        # block-index partial traces.
        u = build_propagator(make_spec(), 0.4)
        net = density_from_pure(basis_ket(3))
        anc = density_from_pure(KET_PLUS)
        joint = np.kron(anc, net)
        evolved = u @ joint @ u.conj().T
        want_net = evolved[:8, :8] + evolved[8:, 8:]
        want_anc = np.array(
            [
                [np.trace(evolved[:8, :8]), np.trace(evolved[:8, 8:])],
                [np.trace(evolved[8:, :8]), np.trace(evolved[8:, 8:])],
            ]
        )
        net_out, anc_out = collision_step(net, anc, u)
        assert np.max(np.abs(net_out - want_net)) < 1e-10
        assert np.max(np.abs(anc_out - want_anc)) < 1e-10

    def test_rejects_non_unitary(self):
        net = density_from_pure(basis_ket(3))
        anc = density_from_pure(KET_PLUS)
        with pytest.raises(ValueError):
            collision_step(net, anc, np.eye(16) * 0.5)

    def test_rejects_mismatched_dimensions(self):
        net = density_from_pure(basis_ket(2))
        anc = density_from_pure(KET_PLUS)
        with pytest.raises(ValueError):
            collision_step(net, anc, np.eye(16, dtype=complex))

    def test_rejects_non_finite_input(self):
        net = density_from_pure(basis_ket(3))
        net[0, 0] = np.nan
        anc = density_from_pure(KET_PLUS)
        with pytest.raises(NumericalError):
            collision_step(net, anc, np.eye(16, dtype=complex))


class TestRunProtocol:
    def test_record_layout(self):
        traj = run_protocol(make_config(steps=7, dt=0.25))
        assert [r.n for r in traj.records] == list(range(8))
        assert np.allclose([r.time for r in traj.records], 0.25 * np.arange(8))
        assert traj.records[0].network_state.shape == (8, 8)
        assert traj.records[0].ancilla_state.shape == (2, 2)
        assert len(traj.network_states()) == 8

    def test_modes_agree_after_one_step(self):
        cm = run_protocol(make_config(mode=ProtocolMode.COLLISION, steps=1))
        rim = run_protocol(make_config(mode=ProtocolMode.REPEATED_INTERACTION, steps=1))
        delta = np.abs(
            cm.records[1].network_state - rim.records[1].network_state
        )
        assert np.max(delta) == 0.0

    def test_modes_agree_when_ancilla_state_is_preserved(self):
        # A ZZ ancilla coupling cannot change diagonal ancilla states, so
        # resetting and carrying forward feed the same state every step.
        for anc in (KET_ONE, IDENTITY_2 / 2.0):
            runs = {}
            for mode in ProtocolMode:
                cfg = make_config(
                    spec=make_spec(
                        topology=preset_topology("linear3"),
                        ancilla_coupling=CouplingKind.ZZ,
                        target=1,
                    ),
                    mode=mode,
                    steps=60,
                    ancilla_init=anc,
                )
                runs[mode] = run_protocol(cfg)
            for rec_cm, rec_rim in zip(
                runs[ProtocolMode.COLLISION].records,
                runs[ProtocolMode.REPEATED_INTERACTION].records,
            ):
                assert np.max(np.abs(rec_cm.network_state - rec_rim.network_state)) < 1e-12

    def test_decoupled_network_evolves_unitarily(self):
        # With the ancilla coupling off, every step conjugates the network
        # by exp(-i H dt) and leaves the ancilla untouched.
        spec = make_spec(omega=0.0)
        cfg = make_config(spec=spec, steps=50, network_init=basis_ket(3, 1))
        traj = run_protocol(cfg)
        h = build_system_hamiltonian(spec, n_total=3, network_offset=0)
        u = expm_hermitian(h, -1j * cfg.dt)
        rho = density_from_pure(basis_ket(3, 1))
        anc0 = density_from_pure(KET_PLUS)
        for rec in traj.records:
            assert np.max(np.abs(rec.network_state - rho)) < 1e-9
            assert np.max(np.abs(rec.ancilla_state - anc0)) < 1e-12
            rho = u @ rho @ u.conj().T

    def test_states_stay_physical_over_long_runs(self):
        for mode in ProtocolMode:
            traj = run_protocol(make_config(mode=mode, steps=500))
            for rec in traj.records:
                for rho in (rec.network_state, rec.ancilla_state):
                    assert abs(np.trace(rho).real - 1.0) < 1e-12
                    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
                    evals = np.linalg.eigvalsh(rho)
                    assert evals[0] > -1e-8
                    purity = float(np.trace(rho @ rho).real)
                    assert purity <= 1.0 + 1e-9
                    assert purity >= 1.0 / rho.shape[0] - 1e-9

    def test_every_step_recomputable_from_stored_marginals(self):
        # The loop must be exactly the iteration of collision_step on the
        # recorded marginals, with the mode picking the ancilla input.
        for mode in ProtocolMode:
            cfg = make_config(mode=mode, steps=40)
            traj = run_protocol(cfg)
            u = build_propagator(cfg.spec, cfg.dt)
            anc0 = traj.records[0].ancilla_state
            for prev, cur in zip(traj.records, traj.records[1:]):
                anc_in = anc0 if mode is ProtocolMode.COLLISION else prev.ancilla_state
                net, anc = collision_step(prev.network_state, anc_in, u)
                assert np.array_equal(net, cur.network_state)
                assert np.array_equal(anc, cur.ancilla_state)

    def test_accepts_density_matrix_inputs(self):
        mixed_net = np.eye(8, dtype=complex) / 8.0
        traj = run_protocol(make_config(network_init=mixed_net, steps=3))
        assert traj.records[0].network_state.shape == (8, 8)

    def test_initial_states_are_copied(self):
        mixed_net = np.eye(8, dtype=complex) / 8.0
        traj = run_protocol(make_config(network_init=mixed_net, steps=1))
        mixed_net[0, 0] = 0.0
        assert abs(traj.records[0].network_state[0, 0] - 1.0 / 8.0) < 1e-15


class TestValidation:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            make_config(steps=0)
        with pytest.raises(ValueError):
            make_config(steps=2.5)

    def test_rejects_bad_dt(self):
        for dt in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                make_config(dt=dt)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            make_config(mode="collision")

    def test_rejects_wrong_network_size(self):
        with pytest.raises(ValueError):
            run_protocol(make_config(network_init=basis_ket(2)))

    def test_rejects_unnormalized_ancilla(self):
        with pytest.raises(ValueError):
            run_protocol(make_config(ancilla_init=np.array([1.0, 1.0])))


def exchange_chain(n, mode, steps):
    """An open exchange chain with an exchange-coupled ancilla |1> on A."""
    adjacency = [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    cfg = ExperimentConfig(
        topology=adjacency, system_coupling="Exchange", ancilla_coupling="Exchange",
        omega=5.0, target="A", mode=mode, dt=0.4, steps=steps, ancilla_init="1",
    )
    return build_protocol(cfg)[0]


DIFFERENTIAL_CASES = list(PRESETS) + [f"chain{n}" for n in range(3, 7)]


def differential_protocol(case, mode):
    """A preset, or an exchange chain named chain<n>, run for 200 steps."""
    if case.startswith("chain"):
        return exchange_chain(int(case[len("chain"):]), mode, 200)
    return build_protocol(dataclasses.replace(preset(case), mode=mode, steps=200))[0]


class TestAgainstReferenceStep:
    """The Kraus kernel against the joint-register step it replaced."""

    @pytest.mark.parametrize("mode", ["collision", "repeated"])
    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
    def test_trajectories_agree(self, case, mode):
        protocol = differential_protocol(case, mode)
        traj = run_protocol(protocol)
        first = traj.records[0]
        want = reference_trajectory(protocol, first.network_state, first.ancilla_state)
        assert len(want) == len(traj.records) == 201
        for rec, (net, anc) in zip(traj.records, want):
            assert np.max(np.abs(rec.network_state - net)) <= 1e-12
            assert np.max(np.abs(rec.ancilla_state - anc)) <= 1e-12


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_ancilla(rng, minor):
    """(1 - minor) |v><v| + minor |v_perp><v_perp| in a random basis."""
    basis = random_unitary(rng, 2)
    return (basis * np.array([1.0 - minor, minor])) @ basis.conj().T


def kraus_operators(prop, anc):
    stack, adjoint = prop.kraus(anc)
    d = prop.dim
    return stack.reshape(-1, d, d), adjoint.reshape(-1, d, d)


# The smaller ancilla weight: zero for a pure ancilla, else from 1e-12 up
# to 1/2, so weights just above the roundoff floor are exercised too.
MINOR_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-12.0, max_value=np.log10(0.5)).map(lambda e: 10.0**e),
)


class TestKrausChannel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_net=st.integers(1, 3), minor=MINOR_WEIGHTS)
    def test_completeness(self, seed, n_net, minor):
        rng = np.random.default_rng(seed)
        prop = Propagator(random_unitary(rng, 2 ** (n_net + 1)))
        anc = random_ancilla(rng, minor)
        ops, adjoints = kraus_operators(prop, anc)
        assert len(ops) == (2 if minor == 0.0 else 4)
        total = sum(k.conj().T @ k for k in ops)
        assert np.max(np.abs(total - np.eye(prop.dim))) <= 1e-12
        assert np.array_equal(adjoints, ops.conj().transpose(0, 2, 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_net=st.integers(1, 3), minor=MINOR_WEIGHTS)
    def test_outputs_are_states_and_match_reference(self, seed, n_net, minor):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 2 ** (n_net + 1))
        anc = random_ancilla(rng, minor)
        net = random_density(rng, 2**n_net)
        got = collision_step(net, anc, u)
        want = reference_step(net, anc, u)
        for rho, ref in zip(got, want):
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -PSD_SLACK
            assert np.max(np.abs(rho - ref)) <= 1e-12

    def test_pure_ancilla_uses_two_operators(self):
        prop = Propagator(build_propagator(make_spec(), 0.4))
        for ket in (KET_ZERO, KET_ONE, KET_PLUS):
            ops, _ = kraus_operators(prop, density_from_pure(ket))
            assert len(ops) == 2

    def test_unchanged_ancilla_is_factorized_once(self):
        prop = Propagator(build_propagator(make_spec(), 0.4))
        anc = density_from_pure(KET_PLUS)
        first = prop.kraus(anc)
        assert prop.kraus(anc.copy()) is first
        assert prop.kraus(IDENTITY_2 / 2.0) is not first

    def test_run_trusts_the_built_propagator(self, monkeypatch):
        # build_propagator has verified unitarity; the loop must not re-check
        # it, neither per run nor per step.
        def fail(u):
            raise AssertionError("propagator re-checked")

        monkeypatch.setattr(Propagator, "checked", staticmethod(fail))
        traj = run_protocol(make_config(steps=5))
        assert len(traj.records) == 6

    def test_rejects_non_finite_ancilla(self):
        net = density_from_pure(basis_ket(3))
        anc = density_from_pure(KET_PLUS)
        anc[0, 1] = np.inf
        with pytest.raises(NumericalError):
            collision_step(net, anc, np.eye(16, dtype=complex))

    def test_rejects_multi_qubit_ancilla(self):
        net = density_from_pure(basis_ket(2))
        anc = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(ValueError):
            collision_step(net, anc, np.eye(16, dtype=complex))

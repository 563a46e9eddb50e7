"""Step map and protocol loop behaviour."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collisim.dynamics as dynamics_module
from collisim.dynamics import (
    MAX_RUN_BYTES,
    ProtocolConfig,
    ProtocolMode,
    collision_step,
    kraus_operators,
    propagator_blocks,
    run_protocol,
    run_protocols,
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
    Topology,
    build_propagator,
    build_system_hamiltonian,
    preset_topology,
)
from collisim.runner import PRESETS, ExperimentConfig, build_protocol, preset
from reference import reference_step, reference_trajectory, step_kraus

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
        net_out, anc_out = collision_step(net, step_kraus(np.eye(16), anc))
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
        net_out, anc_out = collision_step(net, step_kraus(u, anc))
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
        net_out, anc_out = collision_step(net, step_kraus(u, anc))
        assert np.max(np.abs(net_out - want_net)) < 1e-10
        assert np.max(np.abs(anc_out - want_anc)) < 1e-10

    def test_rejects_non_finite_input(self):
        net = density_from_pure(basis_ket(3))
        net[0, 0] = np.nan
        anc = density_from_pure(KET_PLUS)
        with pytest.raises(NumericalError):
            collision_step(net, step_kraus(np.eye(16), anc))


class TestStackedStep:
    def test_names_the_bad_state_of_a_stack(self):
        kraus = step_kraus(build_propagator(make_spec(), 0.4), density_from_pure(KET_PLUS))
        stacked = tuple(np.stack([op] * 3) for op in kraus)
        nets = np.stack([density_from_pure(basis_ket(3, k)) for k in range(3)])
        nets[1, 0, 0] = np.nan
        with pytest.raises(
            NumericalError, match=r"network state contains non-finite entries \(stack index 1\)"
        ):
            collision_step(nets, stacked)
        nets[1, 0, 0] = 0.0
        nets[2] *= 1.1
        with pytest.raises(
            NumericalError, match=r"beyond budget: hermiticity \S+, trace 0.0999\d* \(stack index 2\)"
        ):
            collision_step(nets, stacked)


class TestRunProtocol:
    def test_record_layout(self):
        traj = run_protocol(make_config(steps=7, dt=0.25))
        assert traj.network.shape == (8, 8, 8)
        assert traj.ancilla.shape == (8, 2, 2)
        assert traj.network.dtype == traj.ancilla.dtype == complex
        assert traj.network_states() is traj.network
        assert np.array_equal(traj.network[0], density_from_pure(basis_ket(3)))
        assert np.array_equal(traj.ancilla[0], density_from_pure(KET_PLUS))

    def test_modes_agree_after_one_step(self):
        cm = run_protocol(make_config(mode=ProtocolMode.COLLISION, steps=1))
        rim = run_protocol(make_config(mode=ProtocolMode.REPEATED_INTERACTION, steps=1))
        assert np.max(np.abs(cm.network[1] - rim.network[1])) == 0.0

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
            delta = np.abs(
                runs[ProtocolMode.COLLISION].network
                - runs[ProtocolMode.REPEATED_INTERACTION].network
            )
            assert np.max(delta) < 1e-12

    def test_decoupled_network_evolves_unitarily(self):
        # With the ancilla coupling off, every step conjugates the network
        # by exp(-i H dt) and leaves the ancilla untouched.
        spec = make_spec(omega=0.0)
        cfg = make_config(spec=spec, steps=50, network_init=basis_ket(3, 1))
        traj = run_protocol(cfg)
        h = build_system_hamiltonian(spec)
        u = expm_hermitian(h, -1j * cfg.dt)
        rho = density_from_pure(basis_ket(3, 1))
        anc0 = density_from_pure(KET_PLUS)
        for net, anc in zip(traj.network, traj.ancilla):
            assert np.max(np.abs(net - rho)) < 1e-9
            assert np.max(np.abs(anc - anc0)) < 1e-12
            rho = u @ rho @ u.conj().T

    def test_states_stay_physical_over_long_runs(self):
        for mode in ProtocolMode:
            traj = run_protocol(make_config(mode=mode, steps=500))
            for states in (traj.network, traj.ancilla):
                for rho in states:
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
            blocks = propagator_blocks(build_propagator(cfg.spec, cfg.dt))
            anc0 = traj.ancilla[0]
            for n in range(1, cfg.steps + 1):
                anc_in = anc0 if mode is ProtocolMode.COLLISION else traj.ancilla[n - 1]
                kraus = kraus_operators(blocks, anc_in)
                net, anc = collision_step(traj.network[n - 1], kraus)
                assert np.array_equal(net, traj.network[n])
                assert np.array_equal(anc, traj.ancilla[n])

    def test_accepts_density_matrix_inputs(self):
        mixed_net = np.eye(8, dtype=complex) / 8.0
        traj = run_protocol(make_config(network_init=mixed_net, steps=3))
        assert np.array_equal(traj.network[0], mixed_net)

    def test_initial_states_are_copied(self):
        mixed_net = np.eye(8, dtype=complex) / 8.0
        traj = run_protocol(make_config(network_init=mixed_net, steps=1))
        mixed_net[0, 0] = 0.0
        assert abs(traj.network[0, 0, 0] - 1.0 / 8.0) < 1e-15


class TestValidation:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            make_config(steps=0)
        with pytest.raises(ValueError):
            make_config(steps=2.5)

    def test_rejects_boolean_steps(self):
        # int(True) == True, so only an explicit check keeps a flag from
        # passing as one step.
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match="steps"):
                make_config(steps=flag)
        assert make_config(steps=1).steps == 1

    def test_rejects_runs_over_the_storage_limit(self):
        def chain_config(n, steps):
            adjacency = [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
            spec = make_spec(topology=Topology(n, np.array(adjacency)))
            return make_config(spec=spec, steps=steps, network_init=basis_ket(n))

        with pytest.raises(ValueError, match="steps=80 on 12 network qubits"):
            chain_config(12, 80)
        # At n = 9 a step stores 4 MiB and the propagator 16 MiB, so 507
        # steps fill 2 GiB exactly and one more step is over the limit.
        assert MAX_RUN_BYTES == 2 * 2**30
        assert chain_config(9, 507).steps == 507
        with pytest.raises(ValueError, match="steps=508 on 9 network qubits"):
            chain_config(9, 508)

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
        want = reference_trajectory(protocol, traj.network[0], traj.ancilla[0])
        assert len(want) == len(traj.network) == len(traj.ancilla) == 201
        for got_net, got_anc, (net, anc) in zip(traj.network, traj.ancilla, want):
            assert np.max(np.abs(got_net - net)) <= 1e-12
            assert np.max(np.abs(got_anc - anc)) <= 1e-12


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


def kraus_matrices(u, anc):
    """The Kraus operators and their adjoints as (m, d, d) stacks."""
    stack, adjoint = step_kraus(u, anc)
    d = u.shape[0] // 2
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
        u = random_unitary(rng, 2 ** (n_net + 1))
        anc = random_ancilla(rng, minor)
        ops, adjoints = kraus_matrices(u, anc)
        assert len(ops) == (2 if minor == 0.0 else 4)
        total = sum(k.conj().T @ k for k in ops)
        assert np.max(np.abs(total - np.eye(2**n_net))) <= 1e-12
        assert np.array_equal(adjoints, ops.conj().transpose(0, 2, 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_net=st.integers(1, 3), minor=MINOR_WEIGHTS)
    def test_outputs_are_states_and_match_reference(self, seed, n_net, minor):
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 2 ** (n_net + 1))
        anc = random_ancilla(rng, minor)
        net = random_density(rng, 2**n_net)
        got = collision_step(net, step_kraus(u, anc))
        want = reference_step(net, anc, u)
        for rho, ref in zip(got, want):
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -PSD_SLACK
            assert np.max(np.abs(rho - ref)) <= 1e-12

    def test_pure_ancilla_uses_two_operators(self):
        u = build_propagator(make_spec(), 0.4)
        for ket in (KET_ZERO, KET_ONE, KET_PLUS):
            ops, _ = kraus_matrices(u, density_from_pure(ket))
            assert len(ops) == 2

    def test_unchanged_ancilla_is_factorized_once(self, monkeypatch):
        # Kraus operators are built once per distinct ancilla input, and
        # never for a step that does not run, so the last build is the last
        # step's input. fig5's carried ancilla stays put on every step whose
        # output is fed on; fig6's moves every step.
        builds = []

        def counted(blocks, anc):
            builds.append(anc.copy())
            return kraus_operators(blocks, anc)

        monkeypatch.setattr(dynamics_module, "kraus_operators", counted)
        for name, mode, want in (
            ("fig5", "collision", 1),
            ("fig5", "repeated", 1),
            ("fig6", "repeated", 220),
        ):
            builds.clear()
            cfg = dataclasses.replace(preset(name), mode=mode)
            protocol = build_protocol(cfg)[0]
            traj = run_protocol(protocol)
            assert len(builds) == want, (name, mode)
            if mode == "repeated":
                assert all(
                    not np.array_equal(a, b) for a, b in zip(builds, builds[1:])
                )
                assert np.array_equal(builds[-1], traj.ancilla[protocol.steps - 1])

    # The channel trusts its ancilla input: run_protocol rejects a bad one
    # at entry, before the propagator is built or any step runs.

    def test_rejects_non_finite_ancilla(self, monkeypatch):
        def fail(*args):
            raise AssertionError("built a propagator for a rejected run")

        monkeypatch.setattr(dynamics_module, "build_propagator", fail)
        anc = density_from_pure(KET_PLUS)
        anc[0, 1] = np.inf
        for bad in (np.array([np.nan, 0.0]), np.array([1.0, np.inf]), anc):
            with pytest.raises(ValueError, match="ancilla state"):
                run_protocol(make_config(ancilla_init=bad))

    def test_rejects_multi_qubit_ancilla(self):
        for bad in (np.eye(4, dtype=complex) / 4.0, basis_ket(2)):
            with pytest.raises(ValueError, match="ancilla state has 2 qubits"):
                run_protocol(make_config(ancilla_init=bad))


class TestStackedRuns:
    """run_protocols steps several runs as one stack, each as if alone."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        points=st.integers(1, 5),
        data=st.data(),
    )
    def test_each_run_matches_its_own(self, seed, n, points, data):
        # Modes, couplings and ancillas differ between the runs, so pure and
        # mixed ancillas share a stack and the Kraus operators get padded.
        rng = np.random.default_rng(seed)
        configs = []
        for _ in range(points):
            upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
            spec = NetworkSpec(
                topology=Topology(n, upper + upper.T),
                system_coupling=data.draw(st.sampled_from(list(CouplingKind))),
                omega0=1.0,
                ancilla_coupling=data.draw(st.sampled_from(list(CouplingKind))),
                omega=data.draw(st.floats(0.0, 20.0)),
                target=data.draw(st.integers(0, n - 1)),
            )
            configs.append(
                ProtocolConfig(
                    spec=spec,
                    mode=data.draw(st.sampled_from(list(ProtocolMode))),
                    dt=data.draw(st.floats(0.01, 1.0)),
                    steps=12,
                    ancilla_init=random_ancilla(rng, data.draw(MINOR_WEIGHTS)),
                    network_init=random_density(rng, 2**n),
                )
            )
        for config, traj in zip(configs, run_protocols(configs)):
            alone = run_protocol(config)
            assert traj.config is config
            assert np.array_equal(traj.network, alone.network)
            assert np.array_equal(traj.ancilla, alone.ancilla)

    def test_rejects_runs_of_different_sizes(self):
        chain4 = make_spec(topology=Topology(4, np.diag([1, 1, 1], 1) + np.diag([1, 1, 1], -1)))
        with pytest.raises(ValueError, match="must share steps and network size"):
            run_protocols([make_config(), make_config(steps=11)])
        with pytest.raises(ValueError, match="must share steps and network size"):
            run_protocols([make_config(), make_config(spec=chain4, network_init=basis_ket(4))])


class TestModesAgreeForConservingCouplings:
    """Demo 03's argument as a property.

    An XX (ZZ) ancilla coupling commutes with the ancilla's sigma_x
    (sigma_z), so each step reads only the ancilla populations in that
    basis, and those never change. Resetting the ancilla and carrying it
    forward must then give the same network trajectory for any topology,
    network coupling, target and ancilla state.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        system=st.sampled_from(list(CouplingKind)),
        ancilla=st.sampled_from([CouplingKind.XX, CouplingKind.ZZ]),
        omega=st.floats(0.0, 20.0),
        dt=st.floats(0.01, 1.0),
        minor=MINOR_WEIGHTS,
        pure_network=st.booleans(),
        data=st.data(),
    )
    def test_network_trajectories_agree(
        self, seed, n, system, ancilla, omega, dt, minor, pure_network, data
    ):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        spec = NetworkSpec(
            topology=Topology(n, upper + upper.T),
            system_coupling=system,
            omega0=1.0,
            ancilla_coupling=ancilla,
            omega=omega,
            target=data.draw(st.integers(0, n - 1)),
        )
        if pure_network:
            ket = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            network_init = ket / np.linalg.norm(ket)
        else:
            network_init = random_density(rng, 2**n)
        anc = random_ancilla(rng, minor)
        runs = [
            run_protocol(
                ProtocolConfig(
                    spec=spec, mode=mode, dt=dt, steps=40,
                    ancilla_init=anc, network_init=network_init,
                )
            )
            for mode in ProtocolMode
        ]
        assert np.max(np.abs(runs[0].network - runs[1].network)) <= 1e-10

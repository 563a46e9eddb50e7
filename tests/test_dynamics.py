"""Step map and protocol loop behaviour."""

import dataclasses
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collisim.dynamics as dynamics_module
import collisim.network as network_module
from collisim.dynamics import (
    _CHARGES,
    _register_charge,
    MAX_RUN_BYTES,
    check_run_size,
    ProtocolConfig,
    ProtocolMode,
    collision_step,
    mix_blocks,
    pair_states,
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
    num_qubits_of,
)
from collisim.metrics import all_pairs, concurrence, pair_concurrences
from collisim.network import (
    CouplingKind,
    NetworkSpec,
    Topology,
    build_propagator,
    build_system_hamiltonian,
    preset_topology,
)
from collisim.runner import (
    PRESETS,
    ExperimentConfig,
    build_protocol,
    config_from_dict,
    preset,
    run_experiment,
)
from reference import (
    ONE_BLOCK,
    assert_same_bits,
    dense_pair_states,
    dense_run_protocols,
    first_fit_groups,
    one_block_step,
    reference_step,
    reference_trajectory,
)
from test_bench import bench_module

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
        net_out, anc_out = one_block_step(net, np.eye(16), anc)
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
        net_out, anc_out = one_block_step(net, u, anc)
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
        net_out, anc_out = one_block_step(net, u, anc)
        assert np.max(np.abs(net_out - want_net)) < 1e-10
        assert np.max(np.abs(anc_out - want_anc)) < 1e-10

    def test_rejects_non_finite_input(self):
        net = density_from_pure(basis_ket(3))
        net[0, 0] = np.nan
        anc = density_from_pure(KET_PLUS)
        with pytest.raises(NumericalError):
            one_block_step(net, np.eye(16), anc)

    def test_infinite_ancilla_raises_numerical_error_without_warnings(self):
        # inf times 0 makes NaN inside the step; no RuntimeWarning escapes
        # before _cleanup names the bad state, even with warnings as errors.
        anc = density_from_pure(KET_PLUS)
        anc[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite"):
                u = build_propagator(make_spec(), 0.4)
                one_block_step(density_from_pure(basis_ket(3)), u, anc)


class TestStackedStep:
    def test_names_the_bad_state_of_a_stack(self):
        u = np.stack([build_propagator(make_spec(), 0.4)] * 3)
        anc = np.stack([density_from_pure(KET_PLUS)] * 3)
        nets = np.stack([density_from_pure(basis_ket(3, k)) for k in range(3)])
        nets[1, 0, 0] = np.nan
        with pytest.raises(
            NumericalError, match=r"network state contains non-finite entries \(stack index 1\)"
        ):
            one_block_step(nets, u, anc)
        nets[1, 0, 0] = 0.0
        nets[2] *= 1.1
        with pytest.raises(
            NumericalError, match=r"beyond budget: hermiticity \S+, trace (\S+) \(stack index 2\)"
        ) as caught:
            one_block_step(nets, u, anc)
        # The trace defect is 0.1 up to the step's roundoff.
        trace = re.search(r"trace (\S+) ", str(caught.value)).group(1)
        assert abs(float(trace) - 0.1) <= 1e-12


class TestCleanup:
    @pytest.mark.parametrize("what", ["network", "ancilla"])
    @pytest.mark.parametrize("defect", ["inf", "trace", "hermiticity"])
    def test_names_the_middle_run_of_a_stack(self, what, defect):
        # Three runs, the middle one bad; an ancilla defect of an earlier
        # run is named only when no network is bad.
        partition = dynamics_module._partition(ONE_BLOCK, 3)
        nets = np.stack([density_from_pure(basis_ket(3, k)) for k in range(3)])
        ancs = np.stack([density_from_pure(KET_PLUS)] * 3)
        bad = (nets if what == "network" else ancs)[1]
        if defect == "inf":
            bad[0, 1] = np.inf
        elif defect == "trace":
            bad *= 1.1
        else:
            bad[0, 1] += 1e-3
        if what == "network":
            ancs[0] *= 2.0
        rows = np.concatenate([nets.reshape(3, 64), ancs.reshape(3, 4)], axis=1)
        with pytest.raises(NumericalError) as caught:
            dynamics_module._cleanup(rows, partition)
        message = str(caught.value)
        assert message.startswith(f"{what} state ")
        assert message.endswith(" (stack index 1)")
        if defect == "inf":
            assert "contains non-finite entries" in message
        else:
            found = re.search(r"beyond budget: hermiticity (\S+), trace (\S+) ", message)
            want = (0.0, 0.1) if defect == "trace" else (5e-4, 0.0)
            assert np.allclose([float(v) for v in found.groups()], want, rtol=0, atol=1e-12)


class TestRunProtocol:
    def test_record_layout(self):
        traj = run_protocol(make_config(steps=7, dt=0.25))
        assert traj.network.shape == (8, 8, 8)
        assert traj.ancilla.shape == (8, 2, 2)
        assert traj.network.dtype == traj.ancilla.dtype == complex
        assert np.array_equal(traj.network[0], density_from_pure(basis_ket(3)))
        assert np.array_equal(traj.ancilla[0], density_from_pure(KET_PLUS))
        # The trajectory keeps blocks; network_states() is the trajectory
        # itself, indexed step by step, and network a fresh dense array.
        assert traj.network_states() is traj
        assert len(traj) == 8 and traj.blocks.shape == (8, 64)
        assert traj.network is not traj.network
        for k in range(-8, 8):
            assert np.array_equal(traj[k], traj.network[k])
        assert np.array_equal(traj[2:5], traj.network[2:5])
        assert np.array_equal(np.array(list(traj)), traj.network)

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
        # Sector blocks are read from and written to the dense states; the
        # exchange chain steps by excitation number, the default as one block.
        exchange = make_spec(
            topology=preset_topology("linear3"),
            system_coupling=CouplingKind.EXCHANGE,
            ancilla_coupling=CouplingKind.EXCHANGE,
        )
        for mode in ProtocolMode:
            for cfg, charge in (
                (make_config(mode=mode, steps=40), ONE_BLOCK),
                (
                    make_config(spec=exchange, mode=mode, steps=40, ancilla_init=KET_ONE),
                    ("number", True),
                ),
            ):
                traj = run_protocol(cfg)
                u = build_propagator(cfg.spec, cfg.dt)[None]
                partition = dynamics_module._choose_partition(u, traj.network[:1], traj.ancilla[:1])
                assert partition.charge == charge
                blocks = propagator_blocks(u, partition)
                anc0 = traj.ancilla[:1]
                for n in range(1, cfg.steps + 1):
                    anc_in = anc0 if mode is ProtocolMode.COLLISION else traj.ancilla[n - 1 : n]
                    mixed = mix_blocks(blocks, anc_in)
                    rows = collision_step(partition.gather(traj[n - 1 : n]), blocks, mixed)
                    assert np.array_equal(rows[:, :-4], partition.gather(traj[n : n + 1]))
                    assert np.array_equal(rows[:, -4:].reshape(-1, 2, 2), traj.ancilla[n : n + 1])

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
        # Above about 527 qubits the byte count no longer fits in a float.
        with pytest.raises(ValueError, match=r"steps=8 on 600 network qubits needs \S+ GiB"):
            check_run_size(600, 8)
        with pytest.raises(ValueError, match="steps=8 on 600 network qubits"):
            make_config(spec=make_spec(topology=Topology(600, np.zeros((600, 600), int))), steps=8)

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

    # The step trusts its ancilla input: run_protocol rejects a bad one at
    # entry, before the propagator is built or any step runs.

    def test_rejects_non_finite_ancilla(self, monkeypatch):
        def fail(*args):
            raise AssertionError("built a propagator for a rejected run")

        monkeypatch.setattr(dynamics_module, "build_propagator", fail)
        anc = density_from_pure(KET_PLUS)
        anc[0, 1] = np.inf
        for bad in (np.array([np.nan, 0.0]), np.array([1.0, np.inf]), anc):
            with pytest.raises(ValueError, match="ancilla state"):
                run_protocol(make_config(ancilla_init=bad))

    def test_rejects_overflowing_network_ket_without_warnings(self):
        ket = basis_ket(3)
        ket[5] = 1.0e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="network state has norm inf"):
                run_protocol(make_config(network_init=ket))

    def test_rejects_multi_qubit_ancilla(self):
        for bad in (np.eye(4, dtype=complex) / 4.0, basis_ket(2)):
            with pytest.raises(ValueError, match="ancilla state has 2 qubits"):
                run_protocol(make_config(ancilla_init=bad))


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
    """The block kernel against the joint-register step it replaced."""

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


# The smaller ancilla weight: zero for a pure ancilla, else from 1e-12 up
# to 1/2, so nearly pure ancillas are exercised too.
MINOR_WEIGHTS = st.one_of(
    st.just(0.0),
    st.floats(min_value=-12.0, max_value=np.log10(0.5)).map(lambda e: 10.0**e),
)


def random_step_inputs(rng, charge, n_net, minor):
    """(network, propagator, ancilla) that keep one of dynamics._CHARGES.

    The propagator is a random unitary on each charge block of the
    register, the network state a random state pinched to the network's
    charge blocks, and the ancilla random with weights 1 - minor and
    minor, diagonal for a charged ancilla.
    """
    d = 2**n_net
    labels = _register_charge(charge, n_net)
    u = np.zeros((2 * d, 2 * d), dtype=complex)
    for q in np.unique(labels):
        index = np.flatnonzero(labels == q)
        u[np.ix_(index, index)] = random_unitary(rng, len(index))
    net = np.where(labels[:d, None] == labels[:d], random_density(rng, d), 0.0)
    if charge[1]:
        anc = np.diag(rng.permutation([1.0 - minor, minor])).astype(complex)
    else:
        anc = random_ancilla(rng, minor)
    return net, u, anc


def partition_step(nets, us, ancs, charge):
    """collision_step on (P, d, d) dense states in the partition by charge,
    with dense (P, d, d) network outputs."""
    partition = dynamics_module._partition(charge, num_qubits_of(nets.shape[-1]))
    blocks = propagator_blocks(us, partition)
    rows = collision_step(partition.gather(nets), blocks, mix_blocks(blocks, ancs))
    return partition.dense(rows[:, :-4]), rows[:, -4:].reshape(-1, 2, 2)


class TestStepMap:
    """collision_step against the joint-register step, in every partition."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_net=st.integers(1, 3),
        charge=st.sampled_from(_CHARGES),
        minor=MINOR_WEIGHTS,
    )
    def test_outputs_are_states_and_match_reference(self, seed, n_net, charge, minor):
        net, u, anc = random_step_inputs(np.random.default_rng(seed), charge, n_net, minor)
        got = partition_step(net[None], u[None], anc[None], charge)
        want = reference_step(net, anc, u)
        for rho, ref in zip(got, want):
            rho = rho[0]
            assert np.array_equal(rho, rho.conj().T)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -PSD_SLACK
            assert np.max(np.abs(rho - ref)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_net=st.integers(1, 3),
        charge=st.sampled_from(_CHARGES),
        minor=MINOR_WEIGHTS,
    )
    def test_map_preserves_trace_before_cleanup(self, seed, n_net, charge, minor):
        # What reaches the cleanup is already Hermitian with unit trace up
        # to roundoff: the map itself is trace-preserving.
        net, u, anc = random_step_inputs(np.random.default_rng(seed), charge, n_net, minor)
        raw = []
        cleanup = dynamics_module._cleanup

        def spy(rows, partition):
            # The cleanup repairs the rows in place: keep them as they came.
            raw.extend([partition.dense(rows[:, :-4]), rows[:, -4:].reshape(-1, 2, 2).copy()])
            return cleanup(rows, partition)

        with mock.patch.object(dynamics_module, "_cleanup", spy):
            partition_step(net[None], u[None], anc[None], charge)
        assert len(raw) == 2
        for rho in raw:
            assert abs(np.trace(rho, axis1=-2, axis2=-1).sum() - 1.0) <= 1e-12
            assert np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_net=st.integers(1, 3),
        charge=st.sampled_from(_CHARGES),
        count=st.sampled_from([1, 2, 5]),
        data=st.data(),
    )
    def test_stack_matches_each_run_alone(self, seed, n_net, charge, count, data):
        # Pure and mixed ancillas share the stack, and each run steps to
        # the bit as it does alone.
        rng = np.random.default_rng(seed)
        inputs = [
            random_step_inputs(rng, charge, n_net, data.draw(MINOR_WEIGHTS)) for _ in range(count)
        ]
        nets, us, ancs = (np.array(column) for column in zip(*inputs))
        stacked = partition_step(nets, us, ancs, charge)
        for p, (net, u, anc) in enumerate(inputs):
            alone = partition_step(net[None], u[None], anc[None], charge)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[p], want[0])


class TestLongRuns:
    """Trace, hermiticity and positivity hold over 10**4 steps in every partition."""

    @pytest.mark.parametrize(
        "system, ancilla, ancilla_init, network_init, charge",
        [
            ("Exchange", "ZZ", "+", "100", ("number", False)),
            ("Exchange", "Exchange", "1", "100", ("number", True)),
            ("XX", "ZZ", "+", "000", ("parity", False)),
            ("XX", "XX", "1", "000", ("parity", True)),
            ("Exchange", "XX", "+", "000", (None, False)),
        ],
    )
    def test_states_stay_physical(self, system, ancilla, ancilla_init, network_init, charge):
        # Both modes as one stack: the reset run and the carried one.
        cfg = ExperimentConfig(
            topology="linear3",
            system_coupling=system,
            ancilla_coupling=ancilla,
            omega=5.0,
            target="A",
            mode="collision",
            dt=0.4,
            steps=10**4,
            ancilla_init=ancilla_init,
            network_init=network_init,
        )
        protocol = build_protocol(cfg)[0]
        modes = [dataclasses.replace(protocol, mode=mode) for mode in ProtocolMode]
        for traj in run_protocols(modes):
            assert traj.partition.charge == charge
            for states in (traj.network, traj.ancilla):
                assert np.array_equal(states, states.conj().swapaxes(-1, -2))
                assert np.max(np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)) <= 1e-12
                assert np.linalg.eigvalsh(states).min() >= -PSD_SLACK


class TestMixedBlocks:
    """run_protocols mixes the propagator blocks only where the ancilla changes."""

    @pytest.mark.parametrize(
        "modes, calls",
        [
            # A reset ancilla is mixed once per call, however many runs.
            (["COLLISION"], 1),
            (["COLLISION", "COLLISION"], 1),
            # A carried one is mixed before the loop and before every step.
            (["REPEATED_INTERACTION"], 1 + 6),
            (["COLLISION", "REPEATED_INTERACTION"], 1 + 6),
        ],
    )
    def test_mixes_once_per_call_or_once_per_step(self, monkeypatch, modes, calls):
        seen = []
        mix = dynamics_module.mix_blocks

        def counted(blocks, anc):
            seen.append(len(anc))
            return mix(blocks, anc)

        monkeypatch.setattr(dynamics_module, "mix_blocks", counted)
        run_protocols([make_config(mode=ProtocolMode[m], steps=6) for m in modes])
        assert seen == [len(modes)] * calls


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
        # mixed, carried and reset ancillas share a stack.
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


def steps_as_one_block():
    """Make run_protocols step every stack as one block, as with no charge."""
    return mock.patch.object(
        dynamics_module,
        "_choose_partition",
        lambda u, net, anc: dynamics_module._partition(ONE_BLOCK, num_qubits_of(net.shape[-1])),
    )


def partition_of(monkeypatch, configs):
    """The partition run_protocols steps a stack of configs by, and the trajectories."""
    seen = []
    blocks = dynamics_module.propagator_blocks

    def spy(u, partition):
        seen.append(partition)
        return blocks(u, partition)

    monkeypatch.setattr(dynamics_module, "propagator_blocks", spy)
    trajectories = run_protocols(configs)
    return seen[-1], trajectories


def chain_protocol(n, mode="repeated", steps=5, **overrides):
    """chain7_carry's settings on an n-qubit chain, with config keys overridden."""
    adjacency = [[1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    doc = dict(
        topology=adjacency, system_coupling="Exchange", ancilla_coupling="Exchange",
        omega=5.0, target="A", mode=mode, dt=0.4, steps=steps, ancilla_init="1",
    )
    doc.update(overrides)
    return build_protocol(ExperimentConfig(**doc))[0]


def sector_sizes(partition):
    return [len(sector) for sector in partition.sectors]


class TestChargeSectors:
    """The step runs sector by sector where the run keeps a charge."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        system=st.sampled_from(list(CouplingKind)),
        ancilla=st.sampled_from(list(CouplingKind)),
        omega=st.floats(0.0, 20.0),
        dt=st.floats(0.01, 1.0),
        mode=st.sampled_from(list(ProtocolMode)),
        excited=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        data=st.data(),
    )
    def test_sectors_match_one_block(self, seed, n, system, ancilla, omega, dt, mode, excited, data):
        # Diagonal ancillas and basis-state networks keep every charge the
        # couplings conserve, so these runs step by sectors.
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        config = ProtocolConfig(
            spec=NetworkSpec(
                topology=Topology(n, upper + upper.T),
                system_coupling=system,
                omega0=1.0,
                ancilla_coupling=ancilla,
                omega=omega,
                target=data.draw(st.integers(0, n - 1)),
            ),
            mode=mode,
            dt=dt,
            steps=20,
            ancilla_init=np.diag([1.0 - excited, excited]).astype(complex),
            network_init=basis_ket(n, data.draw(st.integers(0, 2**n - 1))),
        )
        traj = run_protocol(config)
        with steps_as_one_block():
            dense = run_protocol(config)
        assert np.max(np.abs(traj.network - dense.network)) <= 1e-12
        assert np.max(np.abs(traj.ancilla - dense.ancilla)) <= 1e-12
        for states in (traj.network, traj.ancilla):
            assert np.array_equal(states, states.conj().swapaxes(-1, -2))
            assert np.max(np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        points=st.integers(2, 5),
        system=st.sampled_from(list(CouplingKind)),
        ancilla=st.sampled_from(list(CouplingKind)),
        data=st.data(),
    )
    def test_stacked_sectors_match_each_run_alone(self, seed, n, points, system, ancilla, data):
        # Runs that keep the same charge share its sectors in a stack and
        # step exactly as alone; a stack of runs that keep different ones
        # steps as one block, within roundoff of each run alone.
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        configs = [
            ProtocolConfig(
                spec=NetworkSpec(
                    topology=Topology(n, upper + upper.T),
                    system_coupling=system,
                    omega0=1.0,
                    ancilla_coupling=ancilla,
                    omega=data.draw(st.floats(0.0, 20.0)),
                    target=data.draw(st.integers(0, n - 1)),
                ),
                mode=data.draw(st.sampled_from(list(ProtocolMode))),
                dt=data.draw(st.floats(0.01, 1.0)),
                steps=12,
                ancilla_init=np.diag([1.0 - p, p]).astype(complex),
                network_init=basis_ket(n, data.draw(st.integers(0, 2**n - 1))),
            )
            for p in rng.choice([0.0, 1.0, rng.uniform()], size=points)
        ]
        charges = {
            dynamics_module._choose_partition(
                build_propagator(c.spec, c.dt)[None],
                density_from_pure(c.network_init)[None],
                c.ancilla_init[None],
            ).charge
            for c in configs
        }
        for config, traj in zip(configs, run_protocols(configs)):
            alone = run_protocol(config)
            if len(charges) == 1:
                assert np.array_equal(traj.network, alone.network)
                assert np.array_equal(traj.ancilla, alone.ancilla)
            else:
                assert np.max(np.abs(traj.network - alone.network)) <= 1e-12
                assert np.max(np.abs(traj.ancilla - alone.ancilla)) <= 1e-12

    def test_carried_chain4_matches_reference(self, monkeypatch):
        protocol = chain_protocol(4, steps=200)
        partition, [traj] = partition_of(monkeypatch, [protocol])
        assert partition.charge == ("number", True)
        assert sector_sizes(partition) == [1, 4, 6, 4, 1]
        want = reference_trajectory(protocol, traj.network[0], traj.ancilla[0])
        for got_net, got_anc, (net, anc) in zip(traj.network, traj.ancilla, want):
            assert np.max(np.abs(got_net - net)) <= 1e-12
            assert np.max(np.abs(got_anc - anc)) <= 1e-12
        # The carried ancilla goes mixed and stays exactly diagonal.
        assert traj.ancilla[-1, 0, 0] > 0.0
        assert not traj.ancilla[:, [0, 1], [1, 0]].any()

    def test_chain7_steps_by_excitation_number(self, monkeypatch):
        partition, _ = partition_of(monkeypatch, [chain_protocol(7)])
        assert partition.charge == ("number", True)
        assert sector_sizes(partition) == [1, 7, 21, 35, 35, 21, 7, 1]

    def test_fig2_cm_steps_by_parity(self, monkeypatch):
        partition, _ = partition_of(monkeypatch, [build_protocol(preset("fig2_cm"))[0]])
        assert partition.charge == ("parity", False)
        assert sector_sizes(partition) == [4, 4]

    @pytest.mark.parametrize(
        "protocol",
        [
            lambda: chain_protocol(3, ancilla_init="+"),
            lambda: chain_protocol(7, ancilla_coupling="XX", ancilla_init="+"),
            lambda: build_protocol(preset("fig6"))[0],
            lambda: dataclasses.replace(
                chain_protocol(3), network_init=random_density(np.random.default_rng(5), 8)
            ),
        ],
        ids=["plus-ancilla-exchange", "chain7-fig6-couplings", "fig6", "mixed-network"],
    )
    def test_runs_without_a_kept_charge_step_as_one_block(self, monkeypatch, protocol):
        partition, _ = partition_of(monkeypatch, [protocol()])
        assert partition.charge == ONE_BLOCK
        assert len(partition.sectors) == 1

    def test_mixed_partition_stack_steps_as_one_block(self, monkeypatch):
        # Alone, the first run steps by excitation number and the second as
        # one block; together they share only the one block.
        configs = [chain_protocol(4, steps=60), chain_protocol(4, steps=60, ancilla_coupling="XX", ancilla_init="+")]
        assert partition_of(monkeypatch, configs[:1])[0].charge == ("number", True)
        partition, trajectories = partition_of(monkeypatch, configs)
        assert partition.charge == ONE_BLOCK
        for config, traj in zip(configs, trajectories):
            alone = run_protocol(config)
            assert np.max(np.abs(traj.network - alone.network)) <= 1e-12
            assert np.max(np.abs(traj.ancilla - alone.ancilla)) <= 1e-12

    def test_hamiltonian_is_built_once_per_stack(self, monkeypatch):
        # The two runs differ only in omega, so they share H_system.
        builds = []
        build = network_module.build_system_hamiltonian

        def counted(spec):
            builds.append(spec)
            return build(spec)

        monkeypatch.setattr(network_module, "build_system_hamiltonian", counted)
        run_protocols([chain_protocol(4), chain_protocol(4, omega=3.0)])
        assert len(builds) == 1


# The six presets, fig5 and fig6 also in collision mode, and chain7_carry's settings.
DENSE_ROUTE_CASES = [*PRESETS, "fig5-collision", "fig6-collision", "chain7_carry"]


def dense_route_protocol(case):
    """The protocol of a DENSE_ROUTE_CASES entry: a preset, in the mode after "-" if given."""
    if case == "chain7_carry":
        return chain_protocol(7, steps=200)
    name, _, mode = case.partition("-")
    return build_protocol(dataclasses.replace(preset(name), mode=mode or preset(name).mode))[0]


def bench_chain_config(n):
    """bench/workloads.chain_config(n): the chain7_carry workload's config document."""
    return bench_module("workloads").chain_config(n)


def zero_blocks(charge, n):
    """propagator_blocks' (partition, groups) for the charge, from a zero propagator."""
    partition = dynamics_module._partition(charge, n)
    return propagator_blocks(np.zeros((1, 2 ** (n + 1), 2 ** (n + 1)), dtype=complex), partition)


class TestPropagatorBlocks:
    @pytest.mark.parametrize("charge", _CHARGES)
    def test_first_group_into_each_class_covers_it(self, charge):
        # collision_step adds the groups into a class in this order, so the
        # order, whole-class groups first, fixes how a step rounds.
        for n in range(1, 9):
            partition, groups = zero_blocks(charge, n)
            first = {}
            for g in groups:
                first.setdefault(g.t_class, g)
            assert sorted(first) == list(range(len(partition.classes)))
            assert all(g.t_pos == slice(None) for g in first.values())

    @pytest.mark.parametrize("charge", _CHARGES)
    def test_groups_match_first_fit(self, charge):
        for n in range(1, 8):
            partition, groups = zero_blocks(charge, n)

            def charges(c, pos):
                qs = partition.classes[c][1]
                return qs[pos] if isinstance(pos, slice) else [qs[i] for i in pos]

            got = [
                list(
                    zip(
                        charges(g.s_class, g.s_pos),
                        charges(g.t_class, g.t_pos),
                        [
                            [tuple(b) for b in blocks]
                            for blocks in g.ja.reshape(len(g.ja), -1, 2).tolist()
                        ],
                    )
                )
                for g in groups
            ]
            assert got == first_fit_groups(partition)


class TestBlockTrajectory:
    """Trajectories keep sector blocks; densified, they are the dense route's arrays."""

    @pytest.mark.parametrize("sectors", [False, True])
    def test_blocks_and_ancilla_are_views_of_one_row_array(self, sectors):
        # Alone or in a stack, a run's states are one C-contiguous
        # (steps + 1, N + 4) array, and blocks and ancilla read it in place.
        exchange = make_spec(
            system_coupling=CouplingKind.EXCHANGE, ancilla_coupling=CouplingKind.EXCHANGE
        )
        overrides = dict(spec=exchange, ancilla_init=KET_ONE) if sectors else {}
        config = make_config(steps=6, **overrides)
        stack = run_protocols([config, dataclasses.replace(config, mode=ProtocolMode.COLLISION)])
        for traj in [run_protocol(config)] + stack:
            n = len(traj.partition.index)
            assert (n < 64) is sectors
            assert traj.rows.shape == (7, n + 4) and traj.rows.flags.c_contiguous
            for view in (traj.blocks, traj.ancilla):
                assert np.shares_memory(view, traj.rows)
            assert_same_bits(traj.blocks, traj.rows[:, :n])
            assert_same_bits(traj.ancilla, traj.rows[:, n:].reshape(7, 2, 2))
        assert not np.shares_memory(stack[0].rows, stack[1].rows)

    @pytest.mark.parametrize("case", DENSE_ROUTE_CASES)
    def test_matches_dense_route(self, case):
        protocol = dense_route_protocol(case)
        traj = run_protocol(protocol)
        network, ancilla = dense_run_protocols([protocol])
        assert_same_bits(traj.network, network[0])
        assert_same_bits(traj.ancilla, ancilla[0])
        assert_same_bits(traj[-1], network[0, -1])
        pairs = all_pairs(protocol.spec.topology.n)
        reduced = dense_pair_states(network[0], pairs, protocol.spec.topology.n)
        assert_same_bits(pair_states([traj], pairs)[0], reduced)
        assert_same_bits(pair_concurrences(traj)[1], concurrence(reduced))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        points=st.sampled_from([1, 2, 5]),
        system=st.sampled_from(list(CouplingKind)),
        ancilla=st.sampled_from(list(CouplingKind)),
        mixed=st.booleans(),
        data=st.data(),
    )
    def test_stacks_match_dense_route(self, seed, n, points, system, ancilla, mixed, data):
        # Diagonal ancillas and basis-state networks keep the charges the
        # couplings conserve, so those stacks step by sectors; mixed states
        # step as one block.
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        configs = []
        for _ in range(points):
            p = rng.choice([0.0, 1.0, rng.uniform()])
            configs.append(
                ProtocolConfig(
                    spec=NetworkSpec(
                        topology=Topology(n, upper + upper.T),
                        system_coupling=system,
                        omega0=1.0,
                        ancilla_coupling=ancilla,
                        omega=data.draw(st.floats(0.0, 20.0)),
                        target=data.draw(st.integers(0, n - 1)),
                    ),
                    mode=data.draw(st.sampled_from(list(ProtocolMode))),
                    dt=data.draw(st.floats(0.01, 1.0)),
                    steps=8,
                    ancilla_init=random_ancilla(rng, p) if mixed else np.diag([1.0 - p, p]),
                    network_init=random_density(rng, 2**n)
                    if mixed
                    else basis_ket(n, data.draw(st.integers(0, 2**n - 1))),
                )
            )
        pairs = data.draw(st.lists(st.sampled_from(all_pairs(n)), min_size=1, unique=True))
        network, ancilla = dense_run_protocols(configs)
        trajectories = run_protocols(configs)
        _, tables = pair_concurrences(trajectories, pairs)
        for p, traj in enumerate(trajectories):
            assert_same_bits(traj.network, network[p])
            assert_same_bits(traj.ancilla, ancilla[p])
            reduced = dense_pair_states(network[p], pairs, n)
            assert_same_bits(pair_states([traj], pairs)[0], reduced)
            assert_same_bits(pair_concurrences(traj, pairs)[1], concurrence(reduced))
            assert_same_bits(tables[p], concurrence(reduced))

    def test_chain7_carry_stores_blocks_only(self):
        # The dense (201, 128, 128) trajectory alone takes 52.7 MB; the
        # blocks take 11.0 MB, and the whole run must stay well below the
        # dense array.
        cfg = config_from_dict(bench_chain_config(7))
        tracemalloc.start()
        try:
            result = run_experiment(cfg)
            run_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            last = result.trajectory.network_states()[-1]
            densify_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert result.trajectory.blocks.shape == (201, 3432)
        assert run_peak < 32 * 2**20
        # One dense 128 x 128 state is 256 KiB.
        assert densify_peak < 2 * 16 * 128 * 128
        assert np.array_equal(last, result.trajectory.network[-1])

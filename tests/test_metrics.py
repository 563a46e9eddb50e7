"""Concurrence, fidelity, Bell catalog, and peak detection."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collisim import dynamics
from collisim.dynamics import (
    _CHARGES,
    _register_charge,
    _Stack,
    ProtocolConfig,
    ProtocolMode,
    Trajectory,
    pair_states,
    run_protocol,
    run_protocols,
)
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
    top_peaks,
)
from collisim.network import CouplingKind, NetworkSpec, Topology, preset_topology
from collisim.runner import build_protocol, config_from_dict, preset
from reference import (
    assert_same_bits,
    dense_pair_states,
    eigh_concurrence,
    eigvals_general,
    loop_find_peaks,
    spin_flip,
)

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


def x_state(block_a, block_b):
    """4x4 state with block_a on |00>, |11> and block_b on |01>, |10>, unit trace."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[np.ix_([0, 3], [0, 3])] = block_a
    rho[np.ix_([1, 2], [1, 2])] = block_b
    return rho / np.trace(rho).real


def random_block(rng, rank):
    """Random 2x2 PSD block of the given rank (0, 1 or 2)."""
    a = rng.normal(size=(2, rank)) + 1j * rng.normal(size=(2, rank))
    return a @ a.conj().T


def random_x_state(rng, kind):
    """Random X state: "blocks" of rank 1..4, "product", "bell" or "number"."""
    if kind == "blocks":
        rank_a = int(rng.integers(0, 3))
        rank_b = int(rng.integers(1 if rank_a == 0 else 0, 3))
        return x_state(random_block(rng, rank_a), random_block(rng, rank_b))
    if kind == "product":
        # A product of two diagonal qubit states, pure when p and q are 0 or 1.
        p, q = rng.choice([0.0, 1.0, rng.uniform()], size=2)
        return np.diag(np.kron([p, 1.0 - p], [q, 1.0 - q])).astype(complex)
    if kind == "bell":
        phase = rng.choice([1.0, -1.0, 1j, -1j])
        coherent = np.array([[1.0, phase], [np.conj(phase), 1.0]])
        empty = np.zeros((2, 2))
        return x_state(coherent, empty) if rng.uniform() < 0.5 else x_state(empty, coherent)
    # Number-shaped: |00> and |11> do not mix, so rho03 = 0.
    diagonal = np.diag(rng.uniform(size=2))
    return x_state(diagonal, random_block(rng, int(rng.integers(1, 3))))


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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 20),
        data=st.data(),
        bad=st.sampled_from(["negative", "trace", "nan"]),
        x_route=st.booleans(),
    )
    def test_bad_state_is_named_by_index(self, seed, size, data, bad, x_route):
        rng = np.random.default_rng(seed)
        stack = np.array(
            [random_density(rng, 4, rank=int(rng.integers(1, 5))) for _ in range(size)]
        )
        index = data.draw(st.integers(0, size - 1))
        if bad == "negative":
            if x_route:
                # Either block, with a negative diagonal entry or a coherence
                # too large for its diagonal: eigenvalues 1.1 and -0.1.
                block = data.draw(
                    st.sampled_from([np.diag([1.1, -0.1]), np.array([[0.5, 0.6j], [-0.6j, 0.5]])])
                )
                blocks = (block, np.zeros((2, 2)))
                stack[index] = x_state(*(blocks if data.draw(st.booleans()) else blocks[::-1]))
            else:
                # 1.2 |a><a| - 0.2 |b><b| for orthogonal a, b has eigenvalue -0.2.
                a, b = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0].T
                stack[index] = 1.2 * density_from_pure(a) - 0.2 * density_from_pure(b)
            error, message = NumericalError, "state eigenvalue"
        elif bad == "trace":
            stack[index] = np.eye(4) / 2.0 if x_route else 2.0 * stack[index]
            error, message = ValueError, "state trace"
        else:
            if x_route:
                stack[index] = np.diag([np.nan, 0.5, 0.5, 0.0])
            else:
                stack[index, 0, 2] = np.nan
            error, message = NumericalError, "state contains non-finite entries"
        with pytest.raises(error, match=rf"{message} .*\(stack index {index}\)"):
            concurrence(stack)
        # A chunk of a larger stack counts its leading index from first.
        with pytest.raises(error, match=rf"{message} .*\(stack index {index + 7}\)"):
            concurrence(stack, first=7)
        with pytest.raises(error, match=message):
            concurrence(stack[index])

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize(
        "block", [np.diag([1.1, -0.1]), np.array([[0.5, 0.6j], [-0.6j, 0.5]])]
    )
    def test_negative_x_state_in_either_block(self, block, first):
        blocks = (block, np.zeros((2, 2)))
        rho = x_state(*(blocks if first else blocks[::-1]))
        stack = np.array([np.eye(4) / 4.0, rho, density_from_pure(PHI_PLUS)])
        with pytest.raises(NumericalError, match=r"eigenvalue -0\.\d+ .*\(stack index 1\)"):
            concurrence(stack)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["blocks", "product", "bell", "number"]),
    )
    def test_x_states_match_eigh_route(self, seed, kind):
        rng = np.random.default_rng(seed)
        rho = random_x_state(rng, kind)
        # A local unitary on one qubit mixes the X's entries with the rest,
        # so the same concurrence must also come out of the general route.
        u = np.kron(random_unitary(rng, 2), np.eye(2))
        rotated = u @ rho @ u.conj().T
        want = eigh_concurrence(rho)
        assert abs(concurrence(rho) - want) < 1e-12
        assert abs(concurrence(rotated) - want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["blocks", "product", "bell", "number", "dense"]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_mixed_stack_matches_single_state_calls(self, seed, kinds):
        rng = np.random.default_rng(seed)
        stack = np.array(
            [
                random_density(rng, 4, rank=int(rng.integers(1, 5)))
                if kind == "dense"
                else random_x_state(rng, kind)
                for kind in kinds
            ]
        )
        got = concurrence(stack)
        assert got.shape == (len(kinds),)
        for i in range(len(kinds)):
            assert got[i] == concurrence(stack[i])

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
        with pytest.raises(ValueError, match=r"\(stack index \(6, 1\)\)"):
            concurrence(stack, first=4)

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

    def test_rejects_imaginary_residue(self):
        # A non-Hermitian matrix has complex overlaps: |00><11| gives i/2,
        # to roundoff, with the PhiTilde+ target (|00> + i|11>)/sqrt(2).
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 3] = 1.0
        with pytest.raises(NumericalError, match=r"imaginary residue 0\.(5|4999)"):
            fidelity(rho, bell_catalog()[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, bad):
        rho = density_from_pure(PHI_PLUS)
        rho[3, 3] = bad
        # An infinite entry times a zero amplitude is NaN, which numpy warns of.
        with np.errstate(invalid="ignore"):
            for state in (np.full((4, 4), bad), rho):
                with pytest.raises(NumericalError, match="not finite"):
                    fidelity(state, PHI_PLUS)

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

    def test_charge_conserving_runs_skip_lapack(self, monkeypatch):
        # Parity (fig2_cm) and excitation-number (exchange chain) runs give
        # X-shaped reductions only, which take the closed form; fig6 keeps
        # no charge and still reaches the eigh route. So do stacks: a
        # 16-run fig2_cm omega stack, tabulated in six windows of 16 steps,
        # and fig6 in both modes. A stack's tables equal each run's own bit
        # for bit.
        chain = config_from_dict(
            dict(
                topology=[[1 if abs(i - j) == 1 else 0 for j in range(4)] for i in range(4)],
                system_coupling="Exchange", ancilla_coupling="Exchange", omega=5.0,
                target="A", mode="repeated", dt=0.4, steps=40, ancilla_init="1",
            )
        )
        trajectories = {
            name: run_protocol(build_protocol(cfg)[0])
            for name, cfg in (("fig2_cm", preset("fig2_cm")), ("chain4", chain), ("fig6", preset("fig6")))
        }
        tables = {name: pair_concurrences(traj)[1] for name, traj in trajectories.items()}
        fig6 = build_protocol(preset("fig6"))[0]
        stacks = {
            "fig2_cm": omega_stack(16),
            "fig6": run_protocols([fig6, dataclasses.replace(fig6, mode=ProtocolMode.COLLISION)]),
        }
        stacked = {name: pair_concurrences(runs)[1] for name, runs in stacks.items()}
        for name, runs in stacks.items():
            assert stacked[name].shape == (len(runs), len(runs[0]), 3)
            for run, table in zip(runs, stacked[name]):
                assert_same_bits(table, pair_concurrences(run)[1])

        class LapackCalled(Exception):
            pass

        def refuse(*args, **kwargs):
            raise LapackCalled

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for name in ("fig2_cm", "chain4"):
            _, table = pair_concurrences(trajectories[name])
            assert np.array_equal(table, tables[name])
            assert table.max() > 0.1
        assert np.array_equal(pair_concurrences(stacks["fig2_cm"])[1], stacked["fig2_cm"])
        for runs in (trajectories["fig6"], stacks["fig6"]):
            with pytest.raises(LapackCalled):
                pair_concurrences(runs)

    def test_a_failing_state_is_named_by_its_index_in_the_stack(self):
        # An 8-run stack is tabulated in windows of 32 steps, so step 40 of
        # run 5 is in the second, but the error counts from the stack's
        # first step; a run alone names (step, pair). A 300-step run alone
        # takes windows of 256 steps, and step 280 is in its second.
        runs = omega_stack(8)
        runs[5].rows[40, 0] = np.nan
        for where, given_runs in (("(5, 40, 0)", runs), ("(40, 0)", runs[5])):
            with pytest.raises(NumericalError) as error:
                pair_concurrences(given_runs)
            assert str(error.value).endswith(f"non-finite entries (stack index {where})")
        protocol = build_protocol(dataclasses.replace(preset("fig2_cm"), steps=300))[0]
        run = run_protocol(protocol)
        run.rows[280, 0] = np.nan
        with pytest.raises(NumericalError, match=r"entries \(stack index \(280, 0\)\)$"):
            pair_concurrences(run)

    def test_a_long_run_is_tabulated_within_the_window_budget(self):
        # The pair states of a 5000-step fig2 run alone take 3.7 MiB; a
        # window of 256 steps of them takes 0.2 MiB, and the 0.1 MiB table
        # is the rest of the peak.
        traj = run_protocol(build_protocol(dataclasses.replace(preset("fig2"), steps=5000))[0])
        tracemalloc.start()
        try:
            _, table = pair_concurrences(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (5001, 3)
        assert peak <= 2**20

    def test_rejects_bad_pairs(self):
        traj = self.make_trajectory(steps=3)
        for bad in [(1, 1), (0, 3), (2, 0), (-1, 2)]:
            with pytest.raises(ValueError, match=rf"pair \({bad[0]}, {bad[1]}\) invalid for 3"):
                pair_concurrences(traj, [(0, 1), bad])

    def test_no_pairs_gives_an_empty_table(self):
        pairs, table = pair_concurrences(self.make_trajectory(steps=3), [])
        assert pairs == [] and table.shape == (4, 0)
        runs = omega_stack(16)
        pairs, tables = pair_concurrences(runs, [])
        assert pairs == [] and tables.shape == (16, 81, 0)
        for run, table in zip(runs, tables):
            assert_same_bits(table, pair_concurrences(run, [])[1])

    def test_all_pairs_helper(self):
        assert all_pairs(3) == [(0, 1), (0, 2), (1, 2)]
        assert all_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def omega_stack(count):
    """fig2_cm at count omegas, 4, 4.5, ..., stepped as one stack."""
    protocol = build_protocol(preset("fig2_cm"))[0]
    spec = protocol.spec
    return run_protocols(
        [
            dataclasses.replace(protocol, spec=dataclasses.replace(spec, omega=4.0 + k / 2))
            for k in range(count)
        ]
    )


def block_trajectory(charge, arrays):
    """A Trajectory holding (steps + 1, d, d) arrays pinched to the sectors
    of the partition by charge, as a run keeping that charge stores them."""
    n = int(np.log2(arrays.shape[-1]))
    spec = NetworkSpec(
        Topology(n, np.zeros((n, n), int)), CouplingKind.XX, 1.0, CouplingKind.XX, 1.0, 0
    )
    config = ProtocolConfig(
        spec=spec, mode=ProtocolMode.COLLISION, dt=0.1, steps=len(arrays) - 1,
        ancilla_init=np.eye(2) / 2.0, network_init=arrays[0],
    )
    partition = dynamics._partition(charge, n)
    ancilla = np.broadcast_to(np.eye(2, dtype=complex).ravel() / 2.0, (len(arrays), 4))
    return Trajectory(config, partition, np.hstack([partition.gather(arrays), ancilla]))


class TestBlockReductions:
    """Pair reductions from sector blocks against one partial_trace per pair on dense states."""

    @pytest.mark.parametrize("charge", _CHARGES)
    def test_every_pair_reads_the_dense_entries(self, charge):
        # Random entries, not states, so a misplaced gather column shows as
        # a wrong value; every entry's terms lie all in or all out of the sectors.
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            shape = (3, 2**n, 2**n)
            traj = block_trajectory(charge, rng.normal(size=shape) + 1j * rng.normal(size=shape))
            labels = _register_charge(charge, n)[: 2**n]
            assert not traj.network[:, labels[:, None] != labels].any()
            pairs = all_pairs(n)
            reduced = dense_pair_states(traj.network, pairs, n)
            assert_same_bits(pair_states(_Stack([traj], traj.rows[None]), pairs)[0], reduced)
            # The entries kept have a term in the sectors at every t.
            entries, columns = dynamics._pair_gather(charge, n, tuple(pairs))
            assert (columns >= 0).all() and len(entries) == columns.shape[1]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        charge=st.sampled_from(_CHARGES),
        steps=st.integers(1, 4),
        data=st.data(),
    )
    def test_states_and_tables_match_dense_route(self, seed, n, charge, steps, data):
        # Pinching a state to the sectors keeps it a state; the pairs are a
        # random subset, possibly empty.
        rng = np.random.default_rng(seed)
        traj = block_trajectory(
            charge, np.array([random_density(rng, 2**n) for _ in range(steps + 1)])
        )
        pairs = data.draw(st.lists(st.sampled_from(all_pairs(n)), unique=True))
        reduced = dense_pair_states(traj.network, pairs, n)
        assert_same_bits(pair_states(_Stack([traj], traj.rows[None]), pairs)[0], reduced)
        assert_same_bits(pair_concurrences(traj, pairs)[1], concurrence(reduced))


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

    def test_nan_is_never_a_peak_or_a_plateau(self):
        nan = float("nan")
        assert find_peaks([0.0, nan, 0.0], 0.0) == []
        assert find_peaks([0.0, 1.0, nan, 0.0, 0.5, 0.0], 0.0) == [(4, 0.5)]
        assert find_peaks([nan, 1.0, 0.0], 0.0) == []

    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf]),
                    st.floats(allow_nan=True, allow_infinity=True),
                ),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=80,
        ).map(lambda runs: [value for value, length in runs for _ in range(length)][:300])
        .filter(lambda series: len(series) >= 3),
        min_height=st.sampled_from([-np.inf, 0.0, 0.25, 0.5, 1.0, np.nan]),
    )
    def test_matches_loop_reference(self, runs, min_height):
        got = find_peaks(runs, min_height)
        want = loop_find_peaks(runs, min_height)
        # repr tells -0.0 from 0.0 and int from numpy integer types.
        assert repr(got) == repr(want)
        assert all(type(i) is int and type(v) is float for i, v in got)

    @settings(max_examples=100, deadline=None)
    @given(
        table=st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, np.nan]), min_size=6, max_size=6),
            min_size=1,
            max_size=6,
        ),
        min_height=st.sampled_from([0.0, 0.5, np.nan]),
    )
    def test_top_peaks_take_each_series_first_peak(self, table, min_height):
        # Ties and plateaus are likely among so few values, and NaN is never a peak.
        index, value = top_peaks(np.array(table), min_height)
        for row, series in enumerate(table):
            found = find_peaks(series, min_height)
            if found:
                assert (int(index[row]), float(value[row])) == found[0]
            else:
                assert index[row] == -1


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

"""Kernel checks: tensor algebra, eigensolvers, partial trace."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collisim.linalg as linalg_module
from collisim.linalg import (
    ATOL_STATE,
    ATOL_UNITARY,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_density_matrix,
    check_pure_state,
    density_from_pure,
    embed_single,
    expm_hermitian,
    num_qubits_of,
    partial_trace,
)
from reference import SIGMA_PLUS, eigvals_general


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density(rng, n_qubits, rank=None):
    d = 2**n_qubits
    a = random_complex(rng, (d, d if rank is None else rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    a = random_complex(rng, (dim, dim))
    return 0.5 * (a + a.conj().T)


class TestEmbedSingle:
    def test_single_qubit_register(self):
        assert np.array_equal(embed_single(SIGMA_Z, 0, 1), SIGMA_Z)

    def test_first_of_two(self):
        assert np.array_equal(embed_single(SIGMA_X, 0, 2), np.kron(SIGMA_X, IDENTITY_2))

    def test_middle_of_three(self):
        expected = np.kron(np.kron(IDENTITY_2, SIGMA_Y), IDENTITY_2)
        assert np.array_equal(embed_single(SIGMA_Y, 1, 3), expected)

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            embed_single(SIGMA_X, 3, 3)
        with pytest.raises(ValueError):
            embed_single(SIGMA_X, -1, 2)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            embed_single(np.eye(4), 0, 2)


def expm_taylor(m):
    """Scaling-and-squaring Taylor series, independent of any eigensolver."""
    norm = np.linalg.norm(m, ord=1)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    a = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestExpmHermitian:
    def test_zero_generator(self):
        assert np.allclose(expm_hermitian(np.zeros((4, 4)), -0.3j), np.eye(4))

    def test_diagonal_phases(self):
        u = expm_hermitian(SIGMA_Z, -1j * np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            h = random_hermitian(rng, 4)
            scale = -1j * 0.7
            got = expm_hermitian(h, scale)
            want = expm_taylor(scale * h)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_inverse_pair(self):
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 8)
        prod = expm_hermitian(h, -0.4j) @ expm_hermitian(h, 0.4j)
        assert np.max(np.abs(prod - np.eye(8))) < 1e-9

    def test_unitary_for_imaginary_scale(self):
        rng = np.random.default_rng(16)
        h = random_hermitian(rng, 8)
        u = expm_hermitian(h, -2.3j)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < ATOL_UNITARY

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            expm_hermitian(SIGMA_PLUS, -1j)
        with pytest.raises(ValueError, match="square"):
            expm_hermitian(np.zeros((2, 3)), -1j)


def partial_trace_oracle(rho, discard, n):
    """Index-sum reduction written out with explicit bit loops."""
    keep = [q for q in range(n) if q not in discard]
    m = len(keep)
    out = np.zeros((2**m, 2**m), dtype=complex)

    def full_index(kept_bits, summed_bits):
        bits = [0] * n
        for q, b in zip(keep, kept_bits):
            bits[q] = b
        for q, b in zip(sorted(discard), summed_bits):
            bits[q] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for row in range(2**m):
        for col in range(2**m):
            row_bits = [(row >> (m - 1 - k)) & 1 for k in range(m)]
            col_bits = [(col >> (m - 1 - k)) & 1 for k in range(m)]
            total = 0.0
            for s in range(2 ** len(discard)):
                s_bits = [(s >> (len(discard) - 1 - k)) & 1 for k in range(len(discard))]
                total += rho[full_index(row_bits, s_bits), full_index(col_bits, s_bits)]
            out[row, col] = total
    return out


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(17)
        rho_a = random_density(rng, 1)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(joint, {0}) - rho_b)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, {1, 2}) - rho_a)) < 1e-12

    def test_entangled_marginal(self):
        bell = np.array([1.0, 0.0, 0.0, 1j]) / np.sqrt(2.0)
        rho = density_from_pure(bell)
        assert np.max(np.abs(partial_trace(rho, {0}) - np.eye(2) / 2)) < 1e-12

    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(18)
        rho = random_density(rng, 3)
        for discard in ({0}, {1}, {2}, {0, 2}, {1, 2}):
            got = partial_trace(rho, discard)
            want = partial_trace_oracle(rho, discard, 3)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_preserves_trace(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, 3)
        out = partial_trace(rho, {0, 2})
        assert abs(np.trace(out) - np.trace(rho)) < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(20)
        rho = random_density(rng, 3)
        two_calls = partial_trace(partial_trace(rho, {0}), {0})
        one_call = partial_trace(rho, {0, 1})
        assert np.max(np.abs(two_calls - one_call)) < 1e-12

    def test_discard_everything(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng, 2)
        out = partial_trace(rho, {0, 1})
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1.0) < 1e-10

    def test_invalid_indices(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace(rho, {2})

    def test_qubit_count_must_match_the_shape(self):
        with pytest.raises(ValueError, match="does not hold 2 qubits"):
            partial_trace(np.eye(8) / 8, {0}, num_qubits=2)

    def test_gather_index_is_built_once_and_inputs_still_checked(self):
        # Any spelling of one discard set shares one read-only index; the
        # inputs are checked on every call, a cached index or not.
        rho = random_density(np.random.default_rng(22), 3)
        linalg_module._trace_index.cache_clear()
        first = partial_trace(rho, {0, 2})
        assert np.array_equal(partial_trace(rho, [2, np.int64(0)]), first)
        info = linalg_module._trace_index.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not linalg_module._trace_index((0, 2), 3).flags.writeable
        with pytest.raises(ValueError, match="invalid for 3 qubits"):
            partial_trace(rho, {0, 3})
        with pytest.raises(ValueError, match="does not hold 2 qubits"):
            partial_trace(rho, {0, 2}, num_qubits=2)


class TestStackedPartialTrace:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        size=st.integers(1, 6),
        data=st.data(),
    )
    def test_matches_single_state_calls(self, seed, n, size, data):
        rng = np.random.default_rng(seed)
        discard = data.draw(st.sets(st.integers(0, n - 1)))
        stack = np.array(
            [random_density(rng, n, rank=int(rng.integers(1, 5))) for _ in range(size)]
        )
        got = partial_trace(stack, discard)
        d = 2 ** (n - len(discard))
        assert got.shape == (size, d, d)
        for i in range(size):
            assert np.array_equal(got[i], partial_trace(stack[i], discard))

    def test_several_leading_axes(self):
        rng = np.random.default_rng(25)
        stack = np.array([random_density(rng, 3) for _ in range(6)]).reshape(2, 3, 8, 8)
        got = partial_trace(stack, {1})
        assert got.shape == (2, 3, 4, 4)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(got[i, j], partial_trace(stack[i, j], {1}))

    def test_discard_everything_keeps_the_stack(self):
        rng = np.random.default_rng(26)
        stack = np.array([random_density(rng, 2) for _ in range(4)])
        out = partial_trace(stack, {0, 1})
        assert out.shape == (4, 1, 1)
        assert np.max(np.abs(out - 1.0)) < 1e-10

    def test_rejects_non_square_stack(self):
        with pytest.raises(ValueError, match="square"):
            partial_trace(np.zeros((3, 4, 2)), {0})
        with pytest.raises(ValueError, match="power of two"):
            partial_trace(np.zeros((3, 6, 6)), {0})


class TestEigvalsGeneral:
    def test_diagonal(self):
        vals = sorted(eigvals_general(np.diag([3.0, 5.0])).real)
        assert np.allclose(vals, [3.0, 5.0])

    def test_nilpotent(self):
        vals = eigvals_general(SIGMA_PLUS)
        assert np.max(np.abs(vals)) < 1e-12

    def test_agrees_with_hermitian_solver(self):
        rng = np.random.default_rng(22)
        h = random_hermitian(rng, 4)
        general = np.sort(eigvals_general(h).real)
        hermitian = np.linalg.eigvalsh(h)
        assert np.max(np.abs(general - hermitian)) < 1e-8
        assert abs(eigvals_general(h).sum() - np.trace(h)) < 1e-8

    def test_power_sum_oracle(self):
        # Newton's identities: sum of k-th powers of the eigenvalues must
        # equal the trace of the k-th matrix power.
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = random_complex(rng, (4, 4)) / 4.0
            vals = eigvals_general(m)
            power = np.eye(4, dtype=complex)
            for k in range(1, 5):
                power = power @ m
                assert abs(np.sum(vals**k) - np.trace(power)) < 1e-8

    def test_spin_flip_product_spectrum(self):
        # Eigenvalues of rho rhotilde are real and non-negative up to
        # roundoff for any two-qubit state.
        rng = np.random.default_rng(24)
        yy = np.kron(SIGMA_Y, SIGMA_Y)
        for _ in range(20):
            rho = random_density(rng, 2)
            vals = eigvals_general(rho @ yy @ rho.conj() @ yy)
            assert np.max(np.abs(vals.imag)) < 1e-8
            assert np.min(vals.real) > -1e-8


class TestStateChecks:
    def test_pure_state_roundtrip(self):
        vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert check_pure_state(vec) == 2
        rho = density_from_pure(vec)
        assert check_density_matrix(rho) == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            check_pure_state(np.array([1.0, 1.0]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2))

    def test_rejects_non_finite_entries(self):
        # A NaN norm or trace compares False with everything, so the
        # checks must not be written as "defect > tolerance".
        for ket in ([np.nan, 0.0], [1.0, np.inf], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="norm"):
                check_pure_state(np.array(ket))
        for diagonal in ([np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="trace"):
                check_density_matrix(np.diag(diagonal))

    def test_rejects_overflowing_norm_without_warnings(self):
        # A finite ket whose squared norm overflows has norm inf: the norm
        # check names the key, and numpy's overflow warning stays inside.
        for ket in ([1.0e300, 0.0], [0.0, 1.0e300, 1.0e300, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^config key ancilla_init has norm inf,"):
                    check_pure_state(np.array(ket), "config key ancilla_init")

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError):
            check_density_matrix(m)

    def test_rejects_negative_state(self):
        m = np.diag([1.2, -0.2])
        with pytest.raises(ValueError):
            check_density_matrix(m)

    def test_psd_slack_is_tolerated(self):
        m = np.diag([1.0 + 5e-9, -5e-9])
        assert check_density_matrix(m) == 1

    def test_dimension_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            num_qubits_of(3)
        with pytest.raises(ValueError):
            check_pure_state(np.array([1.0, 0.0, 0.0]))

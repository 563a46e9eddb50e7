"""Dense complex linear algebra for small qubit registers.

Everything here operates on plain numpy arrays of complex128. An operator
or state on n qubits is a (2**n, 2**n) matrix. Qubit 0 is the MOST
significant bit of the computational-basis index, and tensor factors
combine left to right, exactly as np.kron does. Every module in the
package shares this convention.
"""

from __future__ import annotations

import functools

import numpy as np

# Shared tolerances. State invariants (trace, hermiticity, norm) are held
# to 1e-10, unitarity to 1e-9, and eigenvalues may dip to -1e-8 from
# roundoff before a state is rejected as unphysical.
ATOL_STATE = 1e-10
ATOL_UNITARY = 1e-9
PSD_SLACK = 1e-8

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class NumericalError(RuntimeError):
    """A computation left the numerically trustworthy regime."""


def first_flagged(flags, values, first=0):
    """(location text, value) for the first flagged state of a stack.

    The text is empty for a single state and names the stack index
    otherwise, its leading indices counted from first (an int or a tuple),
    so a failing state in a trajectory, or in part of a stack, can be found.
    """
    if flags.ndim == 0:
        return "", float(values)
    index = tuple(int(i) for i in np.argwhere(flags)[0])
    first = first if isinstance(first, tuple) else (first,)
    where = tuple(i + f for i, f in zip(index, first)) + index[len(first) :]
    return f" (stack index {where[0] if len(where) == 1 else where})", float(values[index])


def _as_square(m, what="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


def num_qubits_of(dim, what="operator"):
    """Qubit count for a dimension that must be a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    return n


def embed_single(op, site, n):
    """Embed a single-qubit operator at `site` in an n-qubit register.

    Returns I x ... x op x ... x I with `op` in slot `site`.
    """
    op = _as_square(op, "single-qubit operator")
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} qubits")
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else IDENTITY_2)
    return out


def is_hermitian(m, atol=ATOL_STATE):
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= atol)


def expm_hermitian(h, scale):
    """exp(scale * h) for Hermitian h, or for each matrix of a (..., d, d) stack.

    Computed via eigendecomposition. h must be square and Hermitian within
    ATOL_STATE, or ValueError is raised. With purely imaginary scale the
    result is unitary up to eigensolver accuracy, which is what the
    propagators rely on.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"Hermitian matrix must be square, got shape {h.shape}")
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _bit_offsets(qubits, n):
    """Register-index offset of every joint value of `qubits`, first qubit most significant."""
    offsets = np.zeros(1, dtype=np.intp)
    for q in qubits:
        offsets = (offsets[:, None] + np.array([0, 1 << (n - 1 - q)])).ravel()
    return offsets


@functools.lru_cache(maxsize=64)
def _trace_index(discard, n):
    """partial_trace's gather index for the sorted tuple of discarded qubits.

    Entry (t, a, b) is the flattened position of rho[row(a, t), row(b, t)].
    Cached, so callers share it; it is read-only.
    """
    keep = [q for q in range(n) if q not in discard]
    rows = _bit_offsets(discard, n)[:, None] + _bit_offsets(keep, n)
    flat = rows[:, :, None] * 2**n + rows[:, None, :]
    flat.flags.writeable = False
    return flat


def partial_trace(rho, discard, num_qubits=None):
    """Trace out the qubits listed in `discard`.

    rho is a 2**n x 2**n matrix, or a stack of them with shape
    (..., 2**n, 2**n) as numpy.linalg takes. The result acts on the
    remaining qubits in their original order. Discarding every qubit
    returns the 1x1 matrix holding trace(rho).

    Entry (a, b) of the result sums rho[row(a, t), row(b, t)] over every
    value t of the discarded qubits, so the whole stack is reduced by one
    gather of those entries, with no loop over its states.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"state must be square, got shape {rho.shape}")
    dim = rho.shape[-1]
    n = num_qubits_of(dim, "state")
    if num_qubits is not None and num_qubits != n:
        raise ValueError(f"state of dimension {dim} does not hold {num_qubits} qubits")
    discard = set(discard)
    if not all(isinstance(q, (int, np.integer)) and 0 <= q < n for q in discard):
        raise ValueError(f"discard indices {sorted(discard)} invalid for {n} qubits")
    flat = _trace_index(tuple(sorted(int(q) for q in discard)), n)
    terms = rho.reshape(rho.shape[:-2] + (dim * dim,))[..., flat]
    # Add the terms in a fixed order: numpy's own sum picks its order by
    # memory layout, so a state would round differently alone and in a stack.
    return sum(terms[..., t, :, :] for t in range(len(flat)))


def check_pure_state(vec, what="state vector"):
    """Validate a ket: 1-d, power-of-two length, unit norm. Returns its qubit count."""
    vec = np.asarray(vec, dtype=complex)
    if vec.ndim != 1:
        raise ValueError(f"{what} must be a vector, got shape {vec.shape}")
    n = num_qubits_of(vec.shape[0], what)
    # A finite ket whose squared norm overflows has norm inf, which the
    # check below rejects; numpy's overflow warning is not the error.
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    # Written so that a NaN norm fails too: every comparison with NaN is False.
    if not abs(norm - 1.0) <= ATOL_STATE:
        raise ValueError(f"{what} has norm {float(norm)!r}, expected 1")
    return n


def check_density_matrix(rho, what="density matrix"):
    """Validate unit trace, hermiticity, and positivity. Returns the qubit count.

    Positivity allows the PSD_SLACK dip that roundoff can introduce.
    """
    rho = _as_square(rho, what)
    n = num_qubits_of(rho.shape[0], what)
    tr = np.trace(rho)
    if not abs(tr - 1.0) <= ATOL_STATE:
        raise ValueError(f"{what} has trace {tr!r}, expected 1")
    if not is_hermitian(rho):
        raise ValueError(f"{what} is not Hermitian within {ATOL_STATE}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -PSD_SLACK:
        raise ValueError(f"{what} has eigenvalue {smallest}, below -{PSD_SLACK}")
    return n


def density_from_pure(vec):
    """|psi><psi| for a ket."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())

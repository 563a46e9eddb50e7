"""Entanglement measures and peak analysis for two-qubit reductions.

Concurrence follows the spin-flip construction: with
rhotilde = (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y), the measure
is max(0, mu1 - mu2 - mu3 - mu4) where the mu_i are the decreasingly
sorted square roots of the eigenvalues of rho rhotilde. An X state, one
whose eight entries off the diagonal and the anti-diagonal are exactly 0,
takes the closed form 2 max(0, |rho12| - sqrt(rho00 rho33),
|rho03| - sqrt(rho11 rho22)) instead; every two-qubit reduction of a run
that conserves parity or excitation number is one. Both routes agree to
roundoff. Reductions and concurrence take stacks of states, (..., d, d),
so a whole trajectory is analyzed without a per-step loop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .dynamics import MAX_STACK_BYTES, Trajectory, pair_states
from .linalg import (
    ATOL_STATE,
    PSD_SLACK,
    SIGMA_Y,
    NumericalError,
    first_flagged,
    partial_trace,
)

# sigma_y x sigma_y is real, which keeps the spin flip cheap.
_YY = np.kron(SIGMA_Y, SIGMA_Y).real

# Flat indices of the eight entries of a 4x4 state on its X, the diagonal
# and the anti-diagonal, as rho00, rho11, rho33, rho22, rho03, rho12,
# rho30, rho21; and of the eight entries off it.
_X = np.array([0, 5, 15, 10, 3, 6, 12, 9])
_OFF_X = np.array([1, 2, 4, 7, 8, 11, 13, 14])

# Tie margin when ranking Bell-state fidelities: differences below this
# are treated as equal and resolved by catalog order.
FIDELITY_TIE = 1e-9


def concurrence(rho, first=0):
    """Wootters concurrence of a two-qubit density matrix.

    rho is a 4x4 state, for which a float is returned, or a stack of them
    with shape (..., 4, 4), for which an array of shape (...) is returned.
    X states take the closed form (see _x_route); the others take one
    eigh and one svd call for all of them (see _general_route). Every
    state must be finite and pass the PSD floor and the trace check; for
    a stack the error names the index of the first state that fails, its
    leading indices counted from first, an int or a tuple, as for a chunk
    of a larger stack or a window of its steps.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence is defined for 4x4 states, got {rho.shape}")
    stack = rho.shape[:-2]
    flat = rho.reshape(-1, 16)
    finite = np.isfinite(flat).all(axis=-1).reshape(stack)
    if not finite.all():
        where, _ = first_flagged(~finite, finite, first)
        raise NumericalError(f"state contains non-finite entries{where}")
    # The closed form runs on every state, and the states off the X then
    # overwrite their entries with the general route's.
    lowest, traces, c = _x_route(flat)
    off_x = flat[:, _OFF_X].any(axis=-1)
    if off_x.any():
        lowest[off_x], traces[off_x], c[off_x] = _general_route(flat[off_x].reshape(-1, 4, 4))
    lowest, traces, c = (a.reshape(stack) for a in (lowest, traces, c))
    # Written so that a NaN fails too: every comparison with NaN is False.
    fine = -PSD_SLACK <= lowest
    if not fine.all():
        where, value = first_flagged(~fine, lowest, first)
        raise NumericalError(f"state eigenvalue {value} below -{PSD_SLACK}{where}")
    fine = np.abs(traces - 1.0) <= 1e-8
    if not fine.all():
        where, value = first_flagged(~fine, traces, first)
        raise ValueError(f"state trace {value} is not 1{where}")
    return float(c) if c.ndim == 0 else c


def _x_route(flat):
    """(lowest eigenvalue, trace, concurrence) of (k, 16) rows read as X
    states: only the diagonal and anti-diagonal entries are used.

    An X state is two 2x2 blocks, [[p00, w], [w*, p33]] on |00>, |11> and
    [[p11, z], [z*, p22]] on |01>, |10>, with w and z taken from the
    hermitized state. A block [[p, v], [v*, q]] has lowest eigenvalue
    (p + q)/2 - hypot((p - q)/2, |v|), and the concurrence is
    2 max(0, |z| - sqrt(p00 p33), |w| - sqrt(p11 p22)).
    """
    x = flat[:, _X]
    # Column 0 of each pair holds the |00>, |11> block and column 1 the
    # |01>, |10> one.
    p, q = x[:, 0:2].real, x[:, 2:4].real
    coherence = np.abs(x[:, 4:6] + x[:, 6:8].conj()) / 2.0
    diagonal = p + q
    lowest = (diagonal / 2.0 - np.hypot((p - q) / 2.0, coherence)).min(axis=-1)
    # Clipping keeps the roots real for entries within the PSD slack.
    roots = np.sqrt(np.maximum(p, 0.0) * np.maximum(q, 0.0))
    c = 2.0 * np.maximum(0.0, (coherence - roots[:, ::-1]).max(axis=-1))
    return lowest, diagonal.sum(axis=-1), c


def _general_route(rho):
    """(lowest eigenvalue, trace, concurrence) of (k, 4, 4) states.

    Computed in a square-root-free form: factor rho = L L^dagger from its
    eigendecomposition; the spectrum of rho rhotilde equals that of
    M^dagger M for M = L^T (sigma_y x sigma_y) L, so the mu_i are exactly
    the singular values of M. Taking singular values directly keeps the
    near-zero roots at machine precision, where eigenvalues of rho
    rhotilde followed by a square root would lose half the digits.
    """
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))
    left = v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    mu = np.linalg.svd(left.swapaxes(-1, -2) @ _YY @ left, compute_uv=False)
    c = np.maximum(0.0, mu[:, 0] - mu[:, 1] - mu[:, 2] - mu[:, 3])
    return w[:, 0], w.sum(axis=-1), c


def fidelity(rho, target):
    """Overlap <target| rho |target> with a pure target state."""
    rho = np.asarray(rho, dtype=complex)
    vec = np.asarray(getattr(target, "state", target), dtype=complex)
    if rho.shape != (vec.shape[0], vec.shape[0]):
        raise ValueError(
            f"state shape {rho.shape} does not match target of length {vec.shape[0]}"
        )
    value = complex(vec.conj() @ rho @ vec)
    if not cmath.isfinite(value):
        raise NumericalError(f"fidelity {value} is not finite")
    if abs(value.imag) >= ATOL_STATE:
        raise NumericalError(f"fidelity has imaginary residue {value.imag}")
    return float(value.real)


def purity(rho):
    """tr(rho^2), from 1/dim for the maximally mixed state up to 1.

    rho is one state, for which a float is returned, or a stack with
    shape (..., d, d), for which an array of shape (...) is returned.
    """
    rho = np.asarray(rho, dtype=complex)
    p = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return float(p) if p.ndim == 0 else p


@dataclass(eq=False)
class BellTarget:
    label: str
    state: np.ndarray


def _catalog():
    s = 1.0 / np.sqrt(2.0)
    phi_plus = np.array([s, 0, 0, s], dtype=complex)
    phi_minus = np.array([s, 0, 0, -s], dtype=complex)
    psi_plus = np.array([0, s, s, 0], dtype=complex)
    psi_minus = np.array([0, s, -s, 0], dtype=complex)
    entries = [
        ("PhiTilde+", np.array([s, 0, 0, 1j * s], dtype=complex)),
        ("PhiTilde-", np.array([s, 0, 0, -1j * s], dtype=complex)),
        ("Phi+", phi_plus),
        ("Phi-", phi_minus),
        ("Psi+", psi_plus),
        ("Psi-", psi_minus),
        ("PsiTilde+", np.array([0, s, 1j * s, 0], dtype=complex)),
        ("PsiTilde-", np.array([0, s, -1j * s, 0], dtype=complex)),
        ("p-", s * (phi_minus - 1j * psi_minus)),
    ]
    return [BellTarget(label, state) for label, state in entries]


_CATALOG = _catalog()


def bell_catalog():
    """The nine maximally entangled target states, in tie-break order.

    The plus/minus families carry relative phase +-1, the tilde families
    relative phase +-i, and p- is the balanced combination
    (Phi- - i Psi-)/sqrt(2).
    """
    return list(_CATALOG)


def all_pairs(n):
    """Index pairs (i, j), i < j, in lexicographic label order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def reduced_pair(network_state, pair, num_qubits):
    """Two-qubit reduction of a network state, or of a stack of them, onto a pair."""
    i, j = pair
    if not (0 <= i < j < num_qubits):
        raise ValueError(f"pair {pair} invalid for {num_qubits} qubits")
    discard = [q for q in range(num_qubits) if q not in (i, j)]
    return partial_trace(network_state, discard, num_qubits)


def pair_concurrences(trajectories, pairs=None):
    """Concurrence of each tracked pair at every step, of one run or a stack.

    trajectories is one Trajectory, or the P trajectories of one
    run_protocols call or sweep window. Returns (pairs, table), table of
    shape (steps + 1, len(pairs)) for one run and (P, T, len(pairs)) for
    a stack of T rows; row n belongs to the network state after the n-th
    collision. The reductions come from dynamics.pair_states in chunks of
    runs that hold at most about MAX_STACK_BYTES / 4 of pair states, one
    concurrence call each. A failing state is named by its (run, step,
    pair) index in the stack, its step counted from the window's first,
    or its (step, pair) index for one run.
    """
    single = isinstance(trajectories, Trajectory)
    runs = [trajectories] if single else trajectories
    if pairs is None:
        pairs = all_pairs(runs[0].config.spec.topology.n)
    table = np.empty((len(runs), len(runs[0]), len(pairs)))
    # One run's states and table drop the run axis.
    lead = 0 if single else slice(None)
    # A run's pair states hold 16 entries of 16 B per pair and step.
    chunk = max(1, MAX_STACK_BYTES // 4 // (max(table[0].size, 1) * 16 * 16))
    first = getattr(runs, "start", 0)
    for start in range(0, len(runs), chunk):
        part = slice(start, start + chunk)
        table[part] = concurrence(pair_states(runs[part], pairs)[lead], (start, first))
    return pairs, table[lead]


def find_peaks(series, min_height):
    """Local maxima of a series, as (index, value) pairs.

    A peak must rise strictly above both neighbors; a flat-topped run
    counts once, at its first index, when both ends drop away. Peaks at
    or above min_height are returned sorted by value descending, ties by
    index ascending. Series endpoints never qualify.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 3:
        raise ValueError("peak finding needs a 1-d series of length >= 3")
    index = _peaks(arr)
    value = arr[index]
    keep = value >= min_height
    index, value = index[keep], value[keep]
    order = np.lexsort((index, -value))
    return [(int(i), float(v)) for i, v in zip(index[order], value[order])]


def top_peaks(series, min_height):
    """The first peak find_peaks lists for each series of a (..., length) stack.

    Returns (index, value) arrays of shape (...); index is -1 where a
    series has no peak at or above min_height.
    """
    arr = np.asarray(series, dtype=float)
    flat = arr.reshape(-1)
    peak = _peaks(arr)
    peak = peak[flat[peak] >= min_height]
    score = np.full(flat.shape, -np.inf)
    score[peak] = flat[peak]
    # argmax takes the first of equal values, as find_peaks breaks ties.
    index = score.reshape(arr.shape).argmax(axis=-1)
    found = np.zeros(flat.size // arr.shape[-1], dtype=bool)
    found[peak // arr.shape[-1]] = True
    value = np.take_along_axis(arr, index[..., None], axis=-1)[..., 0]
    return np.where(found.reshape(index.shape), index, -1), value


def _peaks(arr):
    """Flat indices of the peaks along the last axis of arr, at any height.

    A peak is the start of a run of equal values that rises strictly
    above the value before it and above the run after it. Each series
    starts a run, so runs never span two series, and a series' first
    and last runs, with no neighbour on one side, never qualify. NaN
    equals nothing, so each NaN is a run of its own and never a peak.
    """
    length = arr.shape[-1]
    flat = arr.reshape(-1)
    begins = np.empty(flat.shape, dtype=bool)
    begins[1:] = flat[1:] != flat[:-1]
    begins[::length] = True
    starts = np.flatnonzero(begins)
    start, after = starts[:-1], starts[1:]
    top = flat[start]
    inner = (start % length != 0) & (after % length != 0)
    return start[inner & (flat[start - 1] < top) & (flat[after] < top)]


def characterize_peak(rho_pair):
    """Best Bell-catalog match for a two-qubit state.

    Returns (label, fidelity) for the catalog entry with the highest
    fidelity; ties within FIDELITY_TIE go to the earlier catalog entry.
    """
    best_label, best_f = None, -np.inf
    for target in _CATALOG:
        f = fidelity(rho_pair, target.state)
        if f > best_f + FIDELITY_TIE:
            best_label, best_f = target.label, f
    return best_label, best_f


@dataclass
class PeakReport:
    """One concurrence peak: where, how high, and what state it is."""

    pair: tuple
    n: int
    concurrence: float
    best_target: str
    fidelity: float

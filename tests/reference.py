"""Reference implementations kept only as test oracles.

reference_step is the step as it was computed before the kernel applied
the network channel in operator-sum form: tensor the ancilla and network
marginals, conjugate the joint state by the full register propagator,
trace each side back out, then hermitize and renormalize. It costs three
register-sized products per step.

step_kraus feeds collision_step from a raw register matrix, as the tests
that step by hand need.

spin_flip and eigvals_general give concurrence's textbook eigenvalue
route, which cross-checks the library's singular-value form.
"""

import numpy as np

from collisim.dynamics import ProtocolMode, kraus_operators, propagator_blocks
from collisim.linalg import SIGMA_Y, NumericalError, num_qubits_of, partial_trace
from collisim.network import build_propagator

_YY = np.kron(SIGMA_Y, SIGMA_Y).real


def spin_flip(rho):
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) for a two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"spin flip is defined for 4x4 states, got {rho.shape}")
    return _YY @ rho.conj() @ _YY


def eigvals_general(m):
    """All eigenvalues of a general (possibly non-Hermitian) square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


def step_kraus(u, anc):
    """collision_step's Kraus pair for register matrix u and ancilla state anc."""
    return kraus_operators(propagator_blocks(np.asarray(u, dtype=complex)), anc)


def _hermitize(rho):
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def reference_step(net, anc, u):
    """kron -> U rho U^dagger -> partial traces; returns (network, ancilla)."""
    n_total = num_qubits_of(u.shape[0])
    evolved = u @ np.kron(anc, net) @ u.conj().T
    net_out = partial_trace(evolved, [0], n_total)
    anc_out = partial_trace(evolved, range(1, n_total), n_total)
    return _hermitize(net_out), _hermitize(anc_out)


def reference_trajectory(protocol, net0, anc0):
    """(network, ancilla) after every step of `protocol`, index 0 the inputs."""
    u = build_propagator(protocol.spec, protocol.dt)
    states = [(net0, anc0)]
    net, anc_in = net0, anc0
    for _ in range(protocol.steps):
        net, anc_out = reference_step(net, anc_in, u)
        states.append((net, anc_out))
        anc_in = anc0 if protocol.mode is ProtocolMode.COLLISION else anc_out
    return states

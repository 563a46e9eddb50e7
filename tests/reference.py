"""Reference step map for differential tests of the Kraus-form kernel.

This is the step as it was computed before the kernel applied the network
channel in operator-sum form: tensor the ancilla and network marginals,
conjugate the joint state by the full register propagator, trace each
side back out, then hermitize and renormalize. It costs three register-
sized products per step and is kept here only as an oracle.
"""

import numpy as np

from collisim.dynamics import ProtocolMode
from collisim.linalg import num_qubits_of, partial_trace
from collisim.network import build_propagator


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

"""Discrete-time open-system evolution as a channel on the network alone.

Each step couples the network to the incoming ancilla through the joint
propagator U for a duration dt and then re-factorizes, so any correlation
built up between ancilla and network within a step is dropped. That makes
one step a completely positive, trace-preserving map on the network, which
is applied in operator-sum form without ever forming the joint register:

    rho' = sum_{j,m} K_jm rho K_jm^dagger,
    K_jm = sqrt(w_m) sum_a v_am U_ja,

where U_ja = <j|U|a> are the network-sized blocks of U (ancilla in slot
0) and (w_m, v_m) is the eigendecomposition of the incoming ancilla
state. A pure ancilla gives two Kraus operators, a mixed one four. The
post-step ancilla comes from the same operators, anc'_jk = sum_m
tr(K_jm rho K_km^dagger). Both marginals are then hermitized and
renormalized, and a step that needs more than MAX_STEP_CORRECTION of
repair aborts the run.

The two protocol modes differ only in what is fed to the next step:
Collision resets the ancilla to its initial state, so its Kraus operators
are built once per run, while RepeatedInteraction carries the post-step
ancilla marginal forward. run_protocol makes that choice and checks its
inputs once, at entry; U's unitarity is verified by build_propagator, and
collision_step itself checks nothing but its outputs.

run_protocol stores a run as one Trajectory: a (steps + 1, d, d) array of
network states and a (steps + 1, 2, 2) array of ancilla states, allocated
before the first step and filled in place. Their size is bounded by
MAX_RUN_BYTES, which ProtocolConfig checks before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    NumericalError,
    check_density_matrix,
    check_pure_state,
    density_from_pure,
)

# bench/spans.py wraps partial_trace where this module looks it up, so the
# name stays importable here although the step itself takes no partial trace.
from .linalg import partial_trace  # noqa: F401
from .network import NetworkSpec, build_propagator

# A post-step cleanup (hermitize, renormalize the trace) absorbs roundoff;
# if it ever has to move a state by more than this, the run is aborted
# rather than silently repaired.
MAX_STEP_CORRECTION = 1e-8

# Ancilla eigenvalues at or below this are roundoff on a pure state; their
# Kraus operators are dropped, so a pure ancilla costs two operators, not four.
_WEIGHT_FLOOR = 1e-14


# Largest dense storage one run may commit: the trajectory's network states
# plus the register propagator, at 16 B per complex entry.
MAX_RUN_BYTES = 2 * 2**30


def check_run_size(num_qubits, steps):
    """Reject a run whose dense storage would exceed MAX_RUN_BYTES.

    Needs (steps + 1) 4**n entries for the network trajectory and 4**(n+1)
    for the propagator; nothing is allocated to find that out.
    """
    need = ((steps + 1) * 4**num_qubits + 4 ** (num_qubits + 1)) * 16
    if need > MAX_RUN_BYTES:
        raise ValueError(
            f"steps={steps} on {num_qubits} network qubits needs "
            f"{need / 2**30:.3g} GiB of dense storage, above the "
            f"{MAX_RUN_BYTES / 2**30:g} GiB limit; use fewer steps or qubits"
        )


class ProtocolMode(Enum):
    COLLISION = "collision"
    REPEATED_INTERACTION = "repeated"


@dataclass(eq=False)
class ProtocolConfig:
    """A complete run description.

    Initial states may be kets (1-d arrays) or density matrices; kets
    are promoted internally. The ancilla is a single qubit, the network
    has spec.topology.n qubits. A run whose storage exceeds MAX_RUN_BYTES
    is rejected here, before anything is allocated.
    """

    spec: NetworkSpec
    mode: ProtocolMode
    dt: float
    steps: int
    ancilla_init: np.ndarray
    network_init: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if (
            isinstance(self.steps, (bool, np.bool_))
            or int(self.steps) != self.steps
            or self.steps < 1
        ):
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        self.steps = int(self.steps)
        if not isinstance(self.mode, ProtocolMode):
            raise ValueError(f"mode must be a ProtocolMode, got {self.mode!r}")
        check_run_size(self.spec.topology.n, self.steps)


@dataclass(eq=False)
class Trajectory:
    """The network and ancilla marginals after every collision.

    network has shape (steps + 1, d, d) and ancilla (steps + 1, 2, 2);
    index n holds the states after the n-th collision, at time n * dt,
    and index 0 the initial states.
    """

    config: ProtocolConfig
    network: np.ndarray
    ancilla: np.ndarray

    def network_states(self):
        """The network states: the `network` array itself, not a copy."""
        return self.network


def _as_density(state, expected_qubits, what):
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        n = check_pure_state(state, what)
        rho = density_from_pure(state)
    else:
        n = check_density_matrix(state, what)
        rho = state
    if n != expected_qubits:
        raise ValueError(f"{what} has {n} qubits, expected {expected_qubits}")
    return rho


def _cleanup(rho, what):
    """Hermitize and renormalize, aborting on more than roundoff damage."""
    if not np.all(np.isfinite(rho)):
        raise NumericalError(f"{what} contains non-finite entries")
    adjoint = rho.conj().T
    herm_defect = float(np.max(np.abs(rho - adjoint))) / 2.0
    trace_defect = abs(float(np.trace(rho).real) - 1.0)
    if herm_defect > MAX_STEP_CORRECTION or trace_defect > MAX_STEP_CORRECTION:
        raise NumericalError(
            f"{what} needs correction beyond budget: hermiticity {herm_defect}, "
            f"trace {trace_defect}"
        )
    rho = 0.5 * (rho + adjoint)
    return rho / np.trace(rho).real


def propagator_blocks(u):
    """Lay out a verified register propagator in the block form the step uses.

    Returns (blocks, adjoints), each of shape (2, 2, d*d): entry (j, a) of
    blocks holds U_ja = <j|U|a> (ancilla in slot 0) flattened, and of
    adjoints U_ja^dagger.
    """
    d = u.shape[0] // 2
    blocks = u.reshape(2, d, 2, d)
    return (
        np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(2, 2, d * d),
        np.ascontiguousarray(blocks.conj().transpose(0, 2, 3, 1)).reshape(2, 2, d * d),
    )


def kraus_operators(blocks, anc):
    """Kraus operators of the step channel for ancilla input anc.

    blocks is the output of propagator_blocks. Returns (stack, adjoint),
    each of shape (2, m, d*d): entry (j, m) of stack holds K_jm flattened,
    and of adjoint K_jm^dagger.
    """
    # Weights come ascending and sum to one, so only the first can be
    # roundoff on a pure state.
    w, v = np.linalg.eigh(anc)
    first = 0 if w[0] > _WEIGHT_FLOOR else 1
    amps = (v[:, first:] * np.sqrt(w[first:])).T
    return amps @ blocks[0], amps.conj() @ blocks[1]


def collision_step(net, kraus):
    """One collision as a channel on the network, in operator-sum form.

    kraus is the (stack, adjoint) pair from kraus_operators for the
    incoming ancilla. Returns the post-step (network, ancilla) marginals,
    cleaned up to exact hermiticity and unit trace.
    """
    stack, adjoint = kraus
    d = net.shape[0]
    count = stack.shape[0] * stack.shape[1]
    # K rho for every Kraus operator in one product, then
    # sum_i (K_i rho) K_i^dagger = hstack(K rho) @ vstack(K^dagger).
    applied = stack.reshape(-1, d) @ net
    side = applied.reshape(count, d, d).transpose(1, 0, 2).reshape(d, count * d)
    net_out = side @ adjoint.reshape(-1, d)
    # anc'_jk = sum_m tr(K_jm rho K_km^dagger); vdot conjugates its first argument.
    applied = applied.reshape(2, -1)
    stack = stack.reshape(2, -1)
    anc_out = np.array(
        [[np.vdot(stack[k], applied[j]) for k in range(2)] for j in range(2)]
    )
    return _cleanup(net_out, "network state"), _cleanup(anc_out, "ancilla state")


def run_protocol(config):
    """Iterate collision_step for config.steps steps.

    The initial states are validated and the propagator is built, its
    unitarity verified, once per run; the steps trust both. Kraus
    operators are built once per distinct ancilla input: once per run in
    collision mode, and in repeated mode again only when the carried
    ancilla differs from the previous input. The trajectory arrays are
    allocated up front and each step's output is written into its slot;
    slot 0 holds copies of the initial states.
    """
    n_net = config.spec.topology.n
    anc0 = _as_density(config.ancilla_init, 1, "ancilla state")
    net0 = _as_density(config.network_init, n_net, "network state")
    blocks = propagator_blocks(build_propagator(config.spec, config.dt))
    network = np.empty((config.steps + 1,) + net0.shape, dtype=complex)
    ancilla = np.empty((config.steps + 1, 2, 2), dtype=complex)
    network[0], ancilla[0] = net0, anc0
    carry = config.mode is ProtocolMode.REPEATED_INTERACTION
    anc_in = anc0
    kraus = kraus_operators(blocks, anc_in)
    for n in range(1, config.steps + 1):
        network[n], ancilla[n] = collision_step(network[n - 1], kraus)
        if carry and n < config.steps and not np.array_equal(ancilla[n], anc_in):
            anc_in = ancilla[n]
            kraus = kraus_operators(blocks, anc_in)
    return Trajectory(config, network, ancilla)

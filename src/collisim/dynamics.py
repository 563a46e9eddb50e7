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
ancilla marginal forward. U's unitarity is verified once per propagator:
by build_propagator for a run, or by Propagator.checked when a raw matrix
is handed to collision_step.

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
    ATOL_UNITARY,
    NumericalError,
    check_density_matrix,
    check_pure_state,
    density_from_pure,
    num_qubits_of,
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


class Propagator:
    """A register propagator in the block form the step channel uses.

    Holds the network blocks U_ja = <j|U|a> of U (ancilla in slot 0) and
    their adjoints, each flattened and grouped by ancilla output j. The
    constructor trusts its input to be unitary; Propagator.checked verifies
    a raw matrix first. kraus() keeps the Kraus operators of the last
    ancilla it saw, so an ancilla that never changes is factorized once.
    """

    def __init__(self, u):
        d = u.shape[0] // 2
        blocks = u.reshape(2, d, 2, d)
        self.dim = d
        self._blocks = np.ascontiguousarray(
            blocks.transpose(0, 2, 1, 3)
        ).reshape(2, 2, d * d)
        self._adjoints = np.ascontiguousarray(
            blocks.conj().transpose(0, 2, 3, 1)
        ).reshape(2, 2, d * d)
        self._key = None
        self._kraus = None

    @classmethod
    def checked(cls, u):
        """Wrap a raw register matrix after checking its shape and unitarity."""
        u = np.asarray(u, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
            raise ValueError(f"propagator shape {u.shape} is not a register operator")
        num_qubits_of(u.shape[0], "propagator")
        if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > ATOL_UNITARY:
            raise ValueError("propagator is not unitary within tolerance")
        return cls(u)

    def kraus(self, anc):
        """Kraus operators of the step channel for ancilla input anc.

        Returns (stack, adjoint), each of shape (2, m, d*d): entry (j, m)
        of stack holds K_jm flattened, and of adjoint K_jm^dagger.
        """
        key = anc.tobytes()
        if key != self._key:
            if not np.all(np.isfinite(anc)):
                raise NumericalError("ancilla state contains non-finite entries")
            # Weights come ascending and sum to one, so only the first can
            # be roundoff on a pure state.
            w, v = np.linalg.eigh(anc)
            first = 0 if w[0] > _WEIGHT_FLOOR else 1
            amps = (v[:, first:] * np.sqrt(w[first:])).T
            self._kraus = amps @ self._blocks, amps.conj() @ self._adjoints
            self._key = key
        return self._kraus


def collision_step(net, anc, u):
    """One collision as a channel on the network, in operator-sum form.

    u is a Propagator or a raw register matrix, which is checked for
    shape and unitarity on every call. Returns the post-step (network,
    ancilla) marginals, cleaned up to exact hermiticity and unit trace.
    """
    net = np.asarray(net, dtype=complex)
    anc = np.asarray(anc, dtype=complex)
    n_net = num_qubits_of(net.shape[0], "network state")
    if anc.shape != (2, 2):
        raise ValueError(f"ancilla state must be one qubit, got shape {anc.shape}")
    if not isinstance(u, Propagator):
        u = Propagator.checked(u)
    d = net.shape[0]
    if u.dim != d:
        raise ValueError(
            f"propagator for a {2 * u.dim}-dimensional register does not match "
            f"1 + {n_net} qubits"
        )
    stack, adjoint = u.kraus(anc)
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

    The propagator is built, and its unitarity verified, once per run.
    The trajectory arrays are allocated up front and each step's output
    is written into its slot; slot 0 holds copies of the initial states.
    """
    n_net = config.spec.topology.n
    anc0 = _as_density(config.ancilla_init, 1, "ancilla state")
    net0 = _as_density(config.network_init, n_net, "network state")
    u = Propagator(build_propagator(config.spec, config.dt))
    network = np.empty((config.steps + 1,) + net0.shape, dtype=complex)
    ancilla = np.empty((config.steps + 1, 2, 2), dtype=complex)
    network[0], ancilla[0] = net0, anc0
    anc_in = anc0
    for n in range(1, config.steps + 1):
        network[n], ancilla[n] = collision_step(network[n - 1], anc_in, u)
        if config.mode is not ProtocolMode.COLLISION:
            anc_in = ancilla[n]
    return Trajectory(config, network, ancilla)

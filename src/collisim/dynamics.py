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
ancilla marginal forward. The run loop makes that choice and checks its
inputs once, at entry; U's unitarity is verified by build_propagator, and
collision_step itself checks nothing but its outputs.

The step and its Kraus builders take stacks and treat each state as they
would alone. run_protocols steps P runs of one size together, with one
Kraus pair for the whole stack, rebuilt in one call when any carried
ancilla moves; run_protocol is its case P = 1. Each run is stored as one
Trajectory: a (steps + 1, d, d) array of network states and a (steps + 1,
2, 2) array of ancilla states, allocated before the first step and filled
in place. ProtocolConfig bounds one run's size by MAX_RUN_BYTES before
anything is allocated; sweep keeps its stacks within MAX_STACK_BYTES.
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
    first_flagged,
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

# Largest stack of network trajectories that sweep steps together. About a
# dozen n = 3 runs fill it, which already saves most of the per-call
# overhead a stack can save; a larger stack only costs memory.
MAX_STACK_BYTES = 2**20


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


def runs_per_stack(protocol):
    """How many runs of this one's size fit in MAX_STACK_BYTES; at least one."""
    per_run = (protocol.steps + 1) * 4**protocol.spec.topology.n * 16
    return max(1, MAX_STACK_BYTES // per_run)


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
    """Hermitize and renormalize each state of a (..., d, d) stack.

    A state that needs more than roundoff repair aborts the run. One test
    also catches a non-finite entry, which makes a defect NaN or inf. The
    reductions run over each state flattened, which is cheaper than over
    a tuple of axes.
    """
    adjoint = rho.conj().swapaxes(-1, -2)
    herm_defect = np.abs(rho - adjoint).reshape(rho.shape[:-2] + (-1,)).max(axis=-1) / 2.0
    # Hermitizing keeps the real part of every diagonal entry exactly, so
    # this trace also renormalizes the hermitized state.
    trace = rho.trace(axis1=-2, axis2=-1).real
    trace_defect = np.abs(trace - 1.0)
    if not (np.maximum(herm_defect, trace_defect) <= MAX_STEP_CORRECTION).all():
        _reject(rho, herm_defect, trace_defect, what)
    rho = rho + adjoint
    rho *= 0.5
    rho /= trace[..., None, None]
    return rho


def _reject(rho, herm_defect, trace_defect, what):
    """Raise _cleanup's NumericalError, naming the first bad state of a stack."""
    finite = np.isfinite(rho.reshape(rho.shape[:-2] + (-1,))).all(axis=-1)
    if not finite.all():
        where, _ = first_flagged(~finite, finite)
        raise NumericalError(f"{what} contains non-finite entries{where}")
    over = np.maximum(herm_defect, trace_defect) > MAX_STEP_CORRECTION
    where, herm = first_flagged(over, herm_defect)
    _, trace = first_flagged(over, trace_defect)
    raise NumericalError(
        f"{what} needs correction beyond budget: hermiticity {herm}, trace {trace}{where}"
    )


def propagator_blocks(u):
    """Lay out verified register propagators in the block form the step uses.

    u is one (2d, 2d) propagator or a stack, (..., 2d, 2d). Returns
    (blocks, adjoints), each (..., 2, 2, d*d): entry (j, a) of blocks holds
    U_ja = <j|U|a> (ancilla in slot 0) flattened, and of adjoints U_ja^dagger.
    """
    d = u.shape[-1] // 2
    lead = u.shape[:-2]
    blocks = u.reshape(lead + (2, d, 2, d))
    return (
        np.ascontiguousarray(blocks.swapaxes(-3, -2)).reshape(lead + (2, 2, d * d)),
        np.ascontiguousarray(np.moveaxis(blocks.conj(), -3, -1)).reshape(lead + (2, 2, d * d)),
    )


def kraus_operators(blocks, anc):
    """Kraus operators of the step channel for ancilla input anc.

    blocks is the output of propagator_blocks, and anc one (2, 2) state or
    a stack with the same leading axes. Returns (stack, adjoint), each of
    shape (..., 2, m, d*d): entry (j, m) of stack holds K_jm flattened, and
    of adjoint K_jm^dagger. m is the largest count in the stack; a pure
    state's one operator comes first and zero operators pad its slot, which
    leaves its step unchanged from two network qubits up.
    """
    # Weights come ascending and sum to one, so only the first can be
    # roundoff on a pure state; its operator becomes zero and goes last.
    w, v = np.linalg.eigh(anc)
    kept = (w > _WEIGHT_FLOOR)[..., None]
    amps = np.where(kept, v.swapaxes(-1, -2) * np.sqrt(w.clip(0.0))[..., None], 0.0)
    amps = np.where(kept[..., :1, :], amps, amps[..., ::-1, :])
    if not kept[..., 0, :].any():
        amps = amps[..., :1, :]
    # A strided array would take another matmul path and round differently.
    amps = np.ascontiguousarray(amps[..., None, :, :])
    return amps @ blocks[0], amps.conj() @ blocks[1]


def collision_step(net, kraus):
    """One collision as a channel on the network, in operator-sum form.

    net is one (d, d) state or a stack of them, (..., d, d). kraus is the
    (stack, adjoint) pair from kraus_operators for the incoming ancilla,
    with the same leading axes: (..., 2, m, d*d). Returns the post-step
    (network, ancilla) marginals, (..., d, d) and (..., 2, 2), each state
    cleaned up to exact hermiticity and unit trace.
    """
    stack, adjoint = kraus
    d = net.shape[-1]
    lead = net.shape[:-2]
    count = stack.shape[-3] * stack.shape[-2]
    # K rho for every Kraus operator in one product, then
    # sum_i (K_i rho) K_i^dagger = hstack(K rho) @ vstack(K^dagger).
    applied = stack.reshape(lead + (count * d, d)) @ net
    side = applied.reshape(lead + (count, d, d)).swapaxes(-3, -2)
    net_out = side.reshape(lead + (d, count * d)) @ adjoint.reshape(lead + (count * d, d))
    # anc'_jk = sum_m tr(K_jm rho K_km^dagger); vecdot conjugates its first
    # argument and sums in the order vdot does, so one state's ancilla is
    # the same to the last bit whether or not it is stepped in a stack.
    applied = applied.reshape(lead + (2, 1, -1))
    stack = stack.reshape(lead + (1, 2, -1))
    anc_out = np.vecdot(stack, applied)
    return _cleanup(net_out, "network state"), _cleanup(anc_out, "ancilla state")


def run_protocols(configs):
    """Step several runs together; returns one Trajectory per config.

    The configs must share the network size and the step count, as the
    points of a sweep over omega or dt do; their couplings, dt, modes and
    initial states may differ. Each step is one collision_step call on
    the (P, d, d) stack of network states. For each run the initial
    states are validated and the propagator is built, its unitarity
    verified, once; the steps trust both. The stack's Kraus pair is rebuilt
    after a step that moved a carried ancilla, and a run whose input did
    not move gets the same operators again. The trajectory arrays are
    allocated up front and each step's output is written into its slot;
    slot 0 holds copies of the initial states.
    """
    steps, n_net = configs[0].steps, configs[0].spec.topology.n
    for config in configs:
        if config.steps != steps or config.spec.topology.n != n_net:
            raise ValueError(
                "stepped runs must share steps and network size, got "
                f"{config.steps} steps on {config.spec.topology.n} qubits "
                f"beside {steps} on {n_net}"
            )
    anc_in = np.array([_as_density(c.ancilla_init, 1, "ancilla state") for c in configs])
    net0 = np.array([_as_density(c.network_init, n_net, "network state") for c in configs])
    blocks = propagator_blocks(np.array([build_propagator(c.spec, c.dt) for c in configs]))
    network = np.empty((len(configs), steps + 1) + net0.shape[1:], dtype=complex)
    ancilla = np.empty((len(configs), steps + 1, 2, 2), dtype=complex)
    network[:, 0], ancilla[:, 0] = net0, anc_in
    carry = np.array([c.mode is ProtocolMode.REPEATED_INTERACTION for c in configs])
    any_carry = carry.any()
    kraus = kraus_operators(blocks, anc_in)
    for n in range(1, steps + 1):
        network[:, n], ancilla[:, n] = collision_step(network[:, n - 1], kraus)
        if n == steps or not any_carry:
            continue
        moved = carry & (ancilla[:, n] != anc_in).reshape(len(configs), 4).any(axis=1)
        if moved.any():
            anc_in[moved] = ancilla[moved, n]
            kraus = kraus_operators(blocks, anc_in)
    return [
        Trajectory(config, network[p], ancilla[p]) for p, config in enumerate(configs)
    ]


def run_protocol(config):
    """Iterate collision_step for config.steps steps: run_protocols for one run."""
    return run_protocols([config])[0]

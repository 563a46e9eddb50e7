"""Discrete-time open-system evolution as a channel on the network alone.

Each step couples the network to the incoming ancilla through the joint
propagator U for a duration dt and then re-factorizes, so any correlation
built up between ancilla and network within a step is dropped. That makes
one step the completely positive, trace-preserving map

    rho' = Tr_anc[U (eta x rho) U^dagger] = sum_{j,a,b} eta_ab U_ja rho U_jb^dagger,

which is linear in the incoming ancilla state eta and is applied without
ever forming the joint register. U_ja = <j|U|a> are the network-sized
blocks of U (ancilla in slot 0). mix_blocks folds eta into them, V_jb =
eta_0b U_j0 + eta_1b U_j1, and the step takes Y_jb = V_jb rho in one
product and closes the sandwich as rho' = sum_{j,b} Y_jb U_jb^dagger. The
post-step ancilla comes from the same products, anc'_jk = sum_b tr(Y_jb
U_kb^dagger). Both marginals are then hermitized and renormalized, and a
step that needs more than MAX_STEP_CORRECTION of repair aborts the run.

The two protocol modes differ only in which eta mixes the next step's
blocks: Collision resets the ancilla to its initial state, so the blocks
are mixed once per run, while RepeatedInteraction carries the post-step
ancilla marginal forward and mixes them every step. The run loop makes
that choice and checks its inputs once, at entry; U's unitarity is
verified by build_propagator, and collision_step itself checks nothing
but its outputs.

The step works on a charge partition of the network basis. When the
register Hamiltonian conserves a charge Q = q_anc + Q_net, each block U_ja
moves the network charge by q(a) - q(j), so a network state that starts
block-diagonal in Q_net stays so, and only its blocks are stepped. The
charges tried, finest first, are the network's excitation number and its
parity, each with the ancilla uncharged (q = 0) or charged (q = 0, 1);
only this module knows them. A charge holds for a run when U is exactly
0 between charges (build_propagator exponentiates H over the blocks it
couples, so U is 0 wherever H is), the initial network state is exactly
block-diagonal, and, for a charged ancilla, the ancilla state is exactly
diagonal, so V_ja = eta_aa U_ja and only the ancilla's diagonal is
filled; a carried charged ancilla then stays exactly diagonal. A run that
keeps no charge, and a stack whose runs keep no charge in common, is
stepped as one block: the same kernel with one sector. Sandwiches of one
shape run as one batched product.

A run's state is one row of N + 4 entries: the network's N sector-block
entries, then its ancilla's 4. The step adds into views of a zeroed row,
which the cleanup repairs in place. It takes stacks and treats each state
as it would alone: _windows steps P runs of one size through one set of
propagator blocks and yields their rows a window of steps at a time, all
of them for run_protocols (run_protocol is its case P = 1). pair_states
reduces the rows directly; dense network states are built only on request.
MAX_RUN_BYTES bounds a run, MAX_STACK_BYTES a sweep's stack.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    _trace_index,
    NumericalError,
    check_density_matrix,
    check_pure_state,
    density_from_pure,
    first_flagged,
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

# The propagator blocks U_ja = <j|U|a> as (j, a), in the order of the 2 x 2
# (j, a) grid: an uncharged ancilla's sector pairs link all four, a charged
# one's those that move the charge alike, in this order.
_ALL_BLOCKS = ((0, 0), (0, 1), (1, 0), (1, 1))

# The flattened 2x2 ancilla: the index of its transpose and its diagonal.
_ANCILLA_TRANSPOSE = np.array([0, 2, 1, 3])
_ANCILLA_DIAGONAL = np.array([0, 3])


# Largest dense storage one run may commit: the trajectory's network states
# plus the register propagator, at 16 B per complex entry: an upper bound, as
# a trajectory keeps only its sector blocks.
MAX_RUN_BYTES = 2 * 2**30

# Largest stack of runs that sweep streams together, 16 B an entry: their
# propagators and blocks, and the window of steps whose rows and pair states
# it keeps at a time (runs_per_stack): 43 fig2_cm runs, 5 steps at a time.
# The runs of a stack share each step's fixed cost.
MAX_STACK_BYTES = 3 * 2**18


def check_run_size(num_qubits, steps):
    """Reject a run whose dense storage would exceed MAX_RUN_BYTES.

    Counts (steps + 1) 4**n entries for a dense network trajectory, an upper
    bound on its blocks, and 4**(n+1) for the propagator; allocates nothing.
    """
    need = ((steps + 1) * 4**num_qubits + 4 ** (num_qubits + 1)) * 16
    if need > MAX_RUN_BYTES:
        # A float overflows above about 527 qubits. decimal is imported only
        # here: it adds about 2 ms to start-up (2-vCPU host), and no run that
        # fits needs it.
        from decimal import Decimal

        raise ValueError(
            f"steps={steps} on {num_qubits} network qubits needs "
            f"{Decimal(need) / 2**30:.3g} GiB of dense storage, above the "
            f"{MAX_RUN_BYTES / 2**30:g} GiB limit; use fewer steps or qubits"
        )


def runs_per_stack(protocol):
    """How many runs like this one sweep streams as one stack; at least one.

    A window's pair states take a quarter of MAX_STACK_BYTES, so with its
    (N + 4)-entry rows it takes the same bytes in any stack. The blocks
    fill the rest: a run's 4**(n + 1)-entry propagator and three times its
    blocks (u, u_adj, mixed), counted dense if the propagator fails to build.
    """
    n = protocol.spec.topology.n
    try:
        partition, groups = propagator_blocks(*_layout([protocol])[2:])
        entries, blocks = len(partition.index), sum(g.u[0].size for g in groups)
    except (ValueError, NumericalError):
        entries, blocks = 4**n, 4 ** (n + 1)
    window = _window_steps(1, n) * (entries + 4 + 8 * n * (n - 1)) * 16
    return max(1, (MAX_STACK_BYTES - window) // ((4 ** (n + 1) + 3 * blocks) * 16))


def _window_steps(runs, n):
    """Steps whose pair states, 256 B per pair of n qubits and run, fill MAX_STACK_BYTES / 4."""
    return max(1, MAX_STACK_BYTES // 4 // (runs * 256 * max(1, n * (n - 1) // 2)))


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

    rows (steps + 1, N + 4) holds one state a row: the network's sector
    blocks in the run's partition, then the flattened ancilla. Row n is
    after the n-th collision, at time n * dt. blocks (steps + 1, N) and
    ancilla (steps + 1, 2, 2) are views of rows. Indexing densifies only
    the network states it selects: traj[n] is the (d, d) state of row n.
    pair_states reduces the rows of a stack of runs, or of a run alone as
    a stack of one, onto pairs; metrics.pair_concurrences tabulates them.
    """

    config: ProtocolConfig
    partition: _Partition
    rows: np.ndarray

    @property
    def blocks(self):
        return self.rows[:, : len(self.partition.index)]

    @property
    def ancilla(self):
        return self.rows[:, len(self.partition.index) :].reshape(-1, 2, 2)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        return self.partition.dense(self.blocks[index])

    @property
    def network(self):
        """All network states as one dense (steps + 1, d, d) array, built on each access."""
        return self[:]

    def network_states(self):
        """The network states, densified as indexed: the trajectory itself."""
        return self


class _Stack(list):
    """The Trajectories of a stack in order, and rows, their rows as one
    (P, T, N + 4) array whose row 0 is after collision start; a slice is a _Stack."""

    def __init__(self, runs, rows, start=0):
        super().__init__(runs)
        self.rows, self.start = rows, start

    def __getitem__(self, index):
        runs = super().__getitem__(index)
        return _Stack(runs, self.rows[index], self.start) if isinstance(index, slice) else runs


def pair_states(trajectories, pairs):
    """Each pair's reduction at every step of a _Stack, or of a list of one
    run, (P, T, len(pairs), 4, 4).

    One gather per discarded basis state over the whole stack's rows,
    never copied, added in partial_trace's order; the terms it skips,
    outside the sectors, are exact zeros, so the states equal
    partial_trace's bit for bit.
    """
    first = trajectories[0]
    rows = trajectories.rows if isinstance(trajectories, _Stack) else first.rows[None]
    if len(rows) != len(trajectories):
        raise ValueError("pair_states needs the runs of one stack")
    n = first.config.spec.topology.n
    entries, columns = _pair_gather(first.partition.charge, n, tuple(map(tuple, pairs)))
    kept = np.zeros(rows.shape[:2] + (len(entries),), dtype=complex)
    for t_columns in columns:
        kept += np.take(rows, t_columns, axis=2)
    states = np.zeros(rows.shape[:2] + (16 * len(pairs),), dtype=complex)
    states[..., entries] = kept
    return states.reshape(rows.shape[:2] + (len(pairs), 4, 4))


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


def _densities(states, expected_qubits, what):
    """The stacked density matrices of states; each distinct state object,
    such as the initial state every point of a sweep shares, is checked once."""
    done = {}
    for state in states:
        if id(state) not in done:
            done[id(state)] = _as_density(state, expected_qubits, what)
    return np.array([done[id(state)] for state in states])


# Charges the register Hamiltonian may conserve, finest first: the
# network's excitation number or parity, with the ancilla uncharged or
# charged (its bit counts as 0 or 1). The last, no charge, always holds.
_CHARGES = (
    ("number", False),
    ("number", True),
    ("parity", False),
    ("parity", True),
    (None, False),
)


@functools.lru_cache(maxsize=32)
def _register_charge(charge, n):
    """Charge of each register basis state, ancilla in slot 0, for one of _CHARGES.

    The first 2**n entries, ancilla |0>, are the network states' charges.
    The array is cached, so it is read-only.
    """
    kind, charged = charge
    ones = sum((np.arange(2**n) >> k) & 1 for k in range(n)) if kind else np.zeros(2**n, int)
    labels = np.concatenate([ones, ones + 1 if charged else ones])
    labels = labels % 2 if kind == "parity" else labels
    labels.flags.writeable = False
    return labels


class _Partition(
    namedtuple("_Partition", "charge sectors classes index views transpose diagonal")
):
    """A charge partition of the network basis and the layout of its blocks.

    sectors[q] holds the basis indices of charge q in ascending order.
    A stack's states are (P, N + 4) rows: N block entries, then the
    flattened ancilla. Sectors of one size b form a class, stored as a
    (P, S, b, b) view of the rows: classes lists (offset, charges, b) for
    each, and views the (column slice, shape) of that view. index places
    the N block entries in the flattened dense states. transpose maps a
    row to its blocks' and its ancilla's transposes, and diagonal lists
    their diagonal entries, network first.
    """

    __slots__ = ()

    def target(self, q, shift):
        """The charge that q moves to, or None outside the range."""
        t = q + shift
        if self.charge[0] == "parity":
            return t % 2
        return t if 0 <= t < len(self.sectors) else None

    def gather(self, dense):
        """The (P, N) blocks of a (P, d, d) stack of states."""
        return np.take(dense.reshape(len(dense), -1), self.index, axis=1)

    def dense(self, blocks):
        """The (..., d, d) states of (..., N) blocks, exactly 0 between sectors."""
        d = sum(map(len, self.sectors))
        dense = np.zeros(blocks.shape[:-1] + (d * d,), dtype=complex)
        dense[..., self.index] = blocks
        return dense.reshape(blocks.shape[:-1] + (d, d))


@functools.lru_cache(maxsize=32)
def _partition(charge, n):
    """The _Partition of the network basis by one of _CHARGES.

    Cached, so callers share it; its arrays are read-only."""
    d = 2**n
    labels = _register_charge(charge, n)[:d]
    sectors = [np.flatnonzero(labels == q) for q in range(labels.max() + 1)]
    by_size = {}
    for q, sector in enumerate(sectors):
        by_size.setdefault(len(sector), []).append(q)
    classes, offset = [], 0
    for b, charges in by_size.items():
        classes.append((offset, charges, b))
        offset += len(charges) * b * b
    index = np.concatenate(
        [(sectors[q][:, None] * d + sectors[q]).ravel() for _, qs, _ in classes for q in qs]
    )
    views = [(slice(o, o + len(qs) * b * b), (-1, len(qs), b, b)) for o, qs, b in classes]
    entries = [np.arange(o, o + len(qs) * b * b).reshape(len(qs), b, b) for o, qs, b in classes]
    transpose = np.concatenate(
        [e.swapaxes(-1, -2).ravel() for e in entries] + [offset + _ANCILLA_TRANSPOSE]
    )
    diagonal = np.concatenate(
        [e.diagonal(axis1=-2, axis2=-1).ravel() for e in entries] + [offset + _ANCILLA_DIAGONAL]
    )
    for shared in sectors + [index, transpose, diagonal]:
        shared.flags.writeable = False
    return _Partition(charge, sectors, classes, index, views, transpose, diagonal)


@functools.lru_cache(maxsize=64)
def _pair_gather(charge, n, pairs):
    """(entries, columns) that reduce the blocks of _partition(charge, n) onto pairs.

    entries are the flat entries of the (len(pairs), 4, 4) reductions that
    the sectors reach, and row t of columns the block column of each
    one's term for the t-th discarded basis state, in partial_trace's
    order. Charges add over qubits, so an entry's terms are all in the
    sectors or all out. Cached, so callers share it; it is read-only.
    """
    index = _partition(charge, n).index
    column = np.full(4**n, -1)
    column[index] = np.arange(len(index))
    flat = []
    for pair in pairs:
        if not (0 <= pair[0] < pair[1] < n):
            raise ValueError(f"pair {pair} invalid for {n} qubits")
        discard = tuple(q for q in range(n) if q not in pair)
        flat.append(column[_trace_index(discard, n).reshape(-1, 16)])
    flat = np.hstack(flat) if pairs else np.empty((1, 0), int)
    entries = np.flatnonzero(flat[0] >= 0)
    columns = flat[:, entries]
    entries.flags.writeable = columns.flags.writeable = False
    return entries, columns


def _choose_partition(u, net, anc):
    """The finest charge partition that every run of a stack keeps.

    A charge holds as the module docstring says; the no-charge partition
    always does. A network index is the register index with the ancilla
    in |0>, so one label array tests u and the network states.
    """
    n = num_qubits_of(net.shape[-1])
    links = [np.nonzero(m)[-2:] for m in (u, net)]
    rows, cols = (np.concatenate(side) for side in zip(*links))
    diagonal = not anc[:, [0, 1], [1, 0]].any()
    for charge in _CHARGES:
        labels = _register_charge(charge, n)
        if (diagonal or not charge[1]) and (labels[rows] == labels[cols]).all():
            return _partition(charge, n)


def _cleanup(rows, partition):
    """Hermitize and renormalize each run's (N + 4) state row in place.

    rows is a stack's (P, N + 4) rows, network blocks then ancilla, whose
    transposes and diagonal entries the partition indexes. A stack where
    a network or ancilla needs more than MAX_STEP_CORRECTION of repair
    aborts, naming the first such run: a state's hermiticity defect is
    half its largest |rho - rho^dagger| entry, its trace defect the
    distance of its trace from 1, and a non-finite entry, which makes a
    defect NaN or inf, is reported as such.
    """
    n = len(partition.index)
    adjoint = np.take(rows, partition.transpose, axis=1).conj()
    gap = np.abs(rows - adjoint)
    # Hermitizing keeps the real part of every diagonal entry exactly, so
    # these traces, network then ancilla, also renormalize the result.
    diagonal = np.take(rows, partition.diagonal, axis=1).real
    traces = np.add.reduceat(diagonal, (0, diagonal.shape[1] - 2), axis=1)
    trace = np.abs(traces - 1.0)
    # Written so that a NaN defect fails too: every comparison with NaN is False.
    if not (gap.max() <= 2.0 * MAX_STEP_CORRECTION and trace.max() <= MAX_STEP_CORRECTION):
        # Each run's defects as (P, 2) columns, network then ancilla.
        finite = np.logical_and.reduceat(np.isfinite(rows), (0, n), axis=1)
        herm = np.maximum.reduceat(gap, (0, n), axis=1) / 2.0
        over = ~(np.maximum(herm, trace) <= MAX_STEP_CORRECTION)
        for k, what in enumerate(("network state", "ancilla state")):
            if not finite[:, k].all():
                where, _ = first_flagged(~finite[:, k], finite[:, k])
                raise NumericalError(f"{what} contains non-finite entries{where}")
            if over[:, k].any():
                where, h = first_flagged(over[:, k], herm[:, k])
                _, t = first_flagged(over[:, k], trace[:, k])
                raise NumericalError(
                    f"{what} needs correction beyond budget: hermiticity {h}, trace {t}{where}"
                )
    rows += adjoint
    rows *= np.repeat(0.5 / traces, (n, 4), axis=1)


class _Group(namedtuple("_Group", "s_class s_pos t_class t_pos u u_adj ja diagonal")):
    """Step sandwiches of one shape, from S sectors of charge q to charge t.

    The sectors are positions s_pos of class s_class and t_pos of class
    t_class, each slice(None) for a whole class in order or an index
    array; no two share a target. ja (S, J, A, 2) lists the (j, a) of
    each block U_ja: the whole 2 x 2 grid for an uncharged ancilla, and
    for a charged one each of the J blocks with its own (j, a), A = 1. u
    holds the blocks restricted to each sector pair, (P, S, J, A, b_t,
    b_s), and u_adj their adjoints as one vertical stack per sector pair,
    (P, S, J*A*b_s, b_t). For a charged ancilla, diagonal is the (2, S*J)
    0/1 matrix that adds each block's part to the ancilla entry (j, j).
    """

    __slots__ = ()


def propagator_blocks(u, partition):
    """Lay out verified register propagators in the block form the step uses.

    u is a (P, 2d, 2d) stack of propagators that keep the partition's
    charge. Returns (partition, groups), the _Groups of sandwiches that
    the step runs. Each sandwich links a sector pair (q, t): an uncharged
    ancilla keeps the charge, and the block U_ja for a charged one moves
    it by a - j. Pairs of one shape and number of blocks are grouped by
    rank: the k-th such pair into a target joins that shape's k-th group,
    so no group has a target twice. Each group's blocks are one gather
    of u over its (j, a) grid: rows j*d plus the target sector's basis
    states, columns a*d plus the source sector's.
    """
    d = u.shape[-1] // 2
    home = {}
    for c, (_, charges, _) in enumerate(partition.classes):
        for pos, q in enumerate(charges):
            home[q] = (c, pos)
    links = {}
    for q in range(len(partition.sectors)):
        for j, a in _ALL_BLOCKS:
            t = partition.target(q, a - j if partition.charge[1] else 0)
            if t is not None:
                links.setdefault((q, t), []).append((j, a))
    grouped, rank = {}, Counter()
    for (q, t), ja in links.items():
        key = (len(partition.sectors[t]), len(partition.sectors[q]), len(ja))
        rank[key, t] += 1
        grouped.setdefault(key, {}).setdefault(rank[key, t], []).append(((q, t), ja))
    groups = []
    for bins in grouped.values():
        for members in bins.values():
            src = np.array([partition.sectors[q] for (q, _), _ in members])
            dst = np.array([partition.sectors[t] for (_, t), _ in members])
            # (S, J, A, 2): an uncharged ancilla's links hold the whole grid.
            per_j = 1 if partition.charge[1] else 2
            ja = np.array([ja for _, ja in members]).reshape(len(members), -1, per_j, 2)
            rows = ja[..., :1, None] * d + dst[:, None, None, :, None]
            cols = ja[..., 1:, None] * d + src[:, None, None, None, :]
            # Mixed slice and fancy indexing leaves the run axis inside; a
            # strided array would round differently.
            blocks = np.ascontiguousarray(u[:, rows, cols])
            s_class, s_pos = zip(*[home[q] for (q, _), _ in members])
            t_class, t_pos = zip(*[home[t] for (_, t), _ in members])
            groups.append(
                _Group(
                    s_class[0],
                    _positions(s_pos, partition.classes[s_class[0]]),
                    t_class[0],
                    _positions(t_pos, partition.classes[t_class[0]]),
                    blocks,
                    np.ascontiguousarray(blocks.swapaxes(-1, -2).conj()).reshape(
                        len(u), len(members), -1, dst.shape[1]
                    ),
                    ja,
                    (ja[..., 0].ravel() == [[0], [1]]) if partition.charge[1] else None,
                )
            )
    # Groups that cover a whole class go first: the order in which the step
    # adds the groups' sandwiches into a class fixes how they round.
    groups.sort(key=lambda g: not isinstance(g.t_pos, slice))
    return partition, groups


def _positions(pos, cls):
    """slice(None) for every sector of the class in order, else the positions as an array."""
    return slice(None) if list(pos) == list(range(len(cls[1]))) else np.array(pos)


# An infinite input makes NaN (inf times 0) inside the mix or the step,
# which _cleanup then rejects: no numpy warning escapes first.
@np.errstate(invalid="ignore", over="ignore")
def mix_blocks(blocks, anc):
    """Each group's V_jb = sum_a eta_ab U_ja, shaped as its u, for the
    (partition, groups) blocks and (P, 2, 2) incoming ancillas eta; for a
    charged ancilla, which is diagonal, V_ja = eta_aa U_ja. A fixed-order
    elementwise sum, so a run rounds the same alone as in any stack."""
    partition, groups = blocks
    if partition.charge[1]:
        weight = anc[:, [0, 1], [0, 1]].real
        return [np.take(weight, g.ja[..., 1], axis=1)[..., None, None] * g.u for g in groups]
    eta = anc[:, None, None, :, :, None, None]
    return [eta[:, :, :, 0] * g.u[:, :, :, :1] + eta[:, :, :, 1] * g.u[:, :, :, 1:] for g in groups]


@np.errstate(invalid="ignore", over="ignore")
def collision_step(rows, blocks, mixed):
    """One collision as a channel on the network, linear in the incoming ancilla.

    rows holds a stack's (P, N + 4) state rows, or only their (P, N) sector
    blocks; blocks is the (partition, groups) pair from propagator_blocks,
    and mixed the blocks mix_blocks mixed by the incoming ancillas. Returns
    new (P, N + 4) rows, zeroed and then added into by every group: its
    sandwiches into its class's view, its ancilla read-out into the last 4
    entries; each run is cleaned up to exact hermiticity and unit trace.
    """
    partition, groups = blocks
    n = len(partition.index)
    out = np.zeros((len(rows), n + 4), dtype=complex)
    rho = [rows[:, columns].reshape(shape) for columns, shape in partition.views]
    classes = [out[:, columns].reshape(shape) for columns, shape in partition.views]
    charged = partition.charge[1]
    # A charged ancilla's read-out fills only its diagonal, entries 0 and 3.
    anc = out[:, n::3] if charged else out[:, n:].reshape(-1, 2, 2)
    for g, v in zip(groups, mixed):
        p, s, j, _, b_t, b_s = g.u.shape
        # Y_jb = V_jb rho for every block in one product.
        y = v.reshape(p, s, -1, b_s) @ rho[g.s_class][:, g.s_pos]
        # sum_jb Y_jb U_jb^dagger = hstack(Y) @ vstack(U^dagger).
        y_row = y.reshape(p, s, -1, b_t, b_s).swapaxes(-3, -2).reshape(p, s, b_t, -1)
        sandwich = y_row @ g.u_adj
        classes[g.t_class][:, g.t_pos] += sandwich
        # anc'_jk = sum_b tr(Y_jb U_kb^dagger); vecdot conjugates its first
        # argument and sums in the order vdot does. Blocks with another a
        # never share a sector pair, so a charged ancilla gets only its
        # diagonal, and its off-diagonal entries stay exactly 0.
        if charged:
            part = np.vecdot(g.u.reshape(p, s * j, -1), y.reshape(p, s * j, -1))
            anc += np.vecdot(g.diagonal, part[:, None, :])
        else:
            part = np.vecdot(g.u.reshape(p, s, 1, j, -1), y.reshape(p, s, j, 1, -1))
            anc += part.sum(axis=1) if s > 1 else part[:, 0]
    _cleanup(out, partition)
    return out


def _layout(configs):
    """(initial ancillas, initial network states, propagators, partition) of a stack.

    Validates the initial states and builds every run's propagator, its
    unitarity verified, as one stack; the partition is the finest that
    every run keeps.
    """
    steps, n_net = configs[0].steps, configs[0].spec.topology.n
    for config in configs:
        if config.steps != steps or config.spec.topology.n != n_net:
            raise ValueError(
                "stepped runs must share steps and network size, got "
                f"{config.steps} steps on {config.spec.topology.n} qubits "
                f"beside {steps} on {n_net}"
            )
    anc0 = _densities([c.ancilla_init for c in configs], 1, "ancilla state")
    net0 = _densities([c.network_init for c in configs], n_net, "network state")
    u = build_propagator([c.spec for c in configs], [c.dt for c in configs])
    return anc0, net0, u, _choose_partition(u, net0, anc0)


def _windows(configs, size=None):
    """Step runs that share the network size and step count together,
    yielding their rows as _Stacks of size steps (by default _window_steps),
    each overwritten by the next. The propagators are built and laid out
    once, in the finest partition every run keeps; each step is one
    collision_step call, its blocks mixed by each run's incoming ancilla:
    its initial state in collision mode, its last step's ancilla in
    repeated-interaction mode. A stack in which no run carries is mixed
    once, any other before every step."""
    anc0, net0, u, partition = _layout(configs)
    blocks = propagator_blocks(u, partition)
    # The steps read only the blocks: free U before the rows.
    del u
    n, p, steps = len(partition.index), len(configs), configs[0].steps
    size = min(size or _window_steps(p, configs[0].spec.topology.n), steps + 1)
    rows = np.empty((p, size, n + 4), dtype=complex)
    runs = [Trajectory(c, partition, r) for c, r in zip(configs, rows)]
    rows[:, 0, :n], rows[:, 0, n:] = partition.gather(net0), anc0.reshape(p, 4)
    row = rows[:, 0]
    carry = np.array([c.mode is ProtocolMode.REPEATED_INTERACTION for c in configs])[:, None, None]
    some = carry.any()
    mixed = mix_blocks(blocks, anc0)
    for k in range(steps + 1):
        if k:
            # A reset ancilla keeps its mixed blocks; a carried one is mixed again.
            if some:
                mixed = mix_blocks(blocks, np.where(carry, row[:, n:].reshape(p, 2, 2), anc0))
            row = collision_step(row, blocks, mixed)
            rows[:, k % size] = row
        if k == steps and k % size < size - 1:
            # np.take copies a strided array whole at every gather.
            rows = np.ascontiguousarray(rows[:, : k % size + 1])
            runs = [Trajectory(c, partition, r) for c, r in zip(configs, rows)]
        if k == steps or k % size == size - 1:
            yield _Stack(runs, rows, k - k % size)


def run_protocols(configs):
    """Step several runs together, keeping every step of each in one
    (P, steps + 1, N + 4) array; returns one Trajectory per config."""
    (stack,) = _windows(configs, configs[0].steps + 1)
    return stack


def run_protocol(config):
    """Iterate collision_step for config.steps steps: run_protocols for one run."""
    return run_protocols([config])[0]

"""Hamiltonians for an ancilla qubit coupled to a small qubit network.

The register layout is fixed package-wide: the ancilla occupies slot 0
and network qubit k occupies slot k + 1. Network qubits are displayed
as letters, A for index 0, B for 1, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import ATOL_UNITARY, NumericalError, expm_hermitian

class CouplingKind(Enum):
    """Pairwise interaction type used for a simulation."""

    XX = "XX"
    ZZ = "ZZ"
    EXCHANGE = "Exchange"


def qubit_label(index):
    """Display letter for a network qubit index (0 -> A)."""
    if not 0 <= index < 26:
        raise ValueError(f"no letter label for network qubit {index}")
    return chr(ord("A") + index)


def pair_label(pair):
    """Two-letter label for an index pair, e.g. (1, 2) -> 'BC'."""
    return qubit_label(pair[0]) + qubit_label(pair[1])


@dataclass(eq=False)
class Topology:
    """Network connectivity: a symmetric 0/1 adjacency matrix, zero diagonal."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=int)
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {adj.shape} does not match n={self.n}")
        if self.n < 1:
            raise ValueError("topology needs at least one qubit")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if not np.all((adj == 0) | (adj == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        self.adjacency = adj

    def edges(self):
        """All coupled pairs (i, j) with i < j."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adjacency[i, j]
        ]


def preset_topology(name):
    """Named three-qubit geometries: an open chain or a closed triangle."""
    if name == "linear3":
        return Topology(3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    if name == "triangle3":
        return Topology(3, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    raise ValueError(f"unknown topology {name!r}, expected linear3 or triangle3")


@dataclass(eq=False)
class NetworkSpec:
    """Everything needed to build the Hamiltonians for one simulation."""

    topology: Topology
    system_coupling: CouplingKind
    omega0: float
    ancilla_coupling: CouplingKind
    omega: float
    target: int

    def __post_init__(self):
        if not 0 <= self.target < self.topology.n:
            raise ValueError(
                f"target qubit {self.target} outside network of {self.topology.n}"
            )
        if not (0 <= self.omega0 < np.inf and 0 <= self.omega < np.inf):
            raise ValueError("coupling strengths must be finite and non-negative")


def pair_term(kind, i, j, n):
    """Two-qubit coupling operator embedded in an n-qubit register.

    XX gives sigma_x sigma_x, ZZ gives sigma_z sigma_z, and Exchange gives
    (sigma_plus sigma_minus + sigma_minus sigma_plus) / 2. Each is built
    from basis-index arithmetic: qubit k is bit n - 1 - k of the index, XX
    flips both bits, ZZ is the sign of their parity, and Exchange flips
    them where they differ.
    """
    if i == j:
        raise ValueError("pair_term needs two distinct qubits")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair ({i}, {j}) outside register of {n} qubits")
    index = np.arange(2**n)
    flipped = index ^ (1 << (n - 1 - i)) ^ (1 << (n - 1 - j))
    differ = ((index >> (n - 1 - i)) ^ (index >> (n - 1 - j))) & 1
    out = np.zeros((2**n, 2**n), dtype=complex)
    if kind is CouplingKind.XX:
        out[flipped, index] = 1.0
    elif kind is CouplingKind.ZZ:
        out[index, index] = 1.0 - 2.0 * differ
    elif kind is CouplingKind.EXCHANGE:
        hops = differ == 1
        out[flipped[hops], index[hops]] = 0.5
    else:
        raise ValueError(f"unknown coupling kind {kind!r}")
    return out


def build_system_hamiltonian(spec):
    """Network Hamiltonian omega0 * sum over coupled pairs of pair_term.

    Acts on the n network qubits alone; build_propagator places it in
    the register next to the ancilla.
    """
    n = spec.topology.n
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in spec.topology.edges():
        h += pair_term(spec.system_coupling, i, j, n)
    return spec.omega0 * h


def build_propagator(spec, dt):
    """One-step unitary U = exp(-i (H_system + H_interaction) dt).

    spec is one NetworkSpec and dt one step duration, for which U is
    (2d, 2d), or equal-length sequences of them with one network size,
    for which U is the (P, 2d, 2d) stack of each run's U. U acts on the
    full register: ancilla in slot 0, network in slots 1..n, and
    H_interaction is omega * pair_term(ancilla, target) there. H is
    exponentiated over the blocks it couples, the connected components of
    its nonzero entries, so U is exactly 0 between them and so between
    the values of any charge H conserves. Each block is checked to be
    unitary within ATOL_UNITARY.

    A stack is built as one: H once per distinct run setting other than
    omega and dt, and one eigh per block size of each distinct nonzero
    pattern of H. Each run's U equals its own build bit for bit.
    """
    single = isinstance(spec, NetworkSpec)
    specs, dts = ([spec], [dt]) if single else (list(spec), list(dt))
    if len(specs) != len(dts) or not specs:
        raise ValueError(f"{len(specs)} network specs for {len(dts)} step durations")
    for step in dts:
        if step <= 0:
            raise ValueError(f"step duration must be positive, got {step}")
    n = specs[0].topology.n
    if any(s.topology.n != n for s in specs):
        raise ValueError("stacked propagators must share the network size")
    settings = [
        (s.topology.adjacency.tobytes(), s.system_coupling, s.omega0, s.ancilla_coupling, s.target)
        for s in specs
    ]
    dts = np.array(dts)
    omega = np.array([s.omega for s in specs])
    d = 2**n
    h = np.zeros((len(specs), 2 * d, 2 * d), dtype=complex)
    u = np.zeros_like(h)
    defect = 0.0
    # Coupling strengths near the float limit overflow H, and a huge dt U,
    # to non-finite entries; that is a numerical error, not an invalid matrix.
    with np.errstate(over="ignore", invalid="ignore"):
        for runs, k in _shared(settings):
            h[runs, :d, :d] = h[runs, d:, d:] = build_system_hamiltonian(specs[k])
            h[runs] += omega[runs, None, None] * pair_term(
                specs[k].ancilla_coupling, 0, specs[k].target + 1, n + 1
            )
        finite = np.isfinite(h).all(axis=(1, 2))
        if not finite.all():
            s = specs[int(np.argmin(finite))]
            raise NumericalError(
                f"register Hamiltonian overflows with omega0={s.omega0:g} and "
                f"omega={s.omega:g}; use smaller coupling strengths"
            )
        pattern = h != 0
        for runs, p in _shared([p.tobytes() for p in pattern]):
            for index in _blocks(pattern[p]):
                # The (runs, k, b, b) stack of each run's k blocks of b states.
                at = (runs[:, None, None, None], index[:, :, None], index[:, None, :])
                blocks = expm_hermitian(h[at], -1j * dts[runs, None, None])
                # U is 0 between blocks, so checking each block checks U;
                # np.maximum keeps a NaN.
                gram = blocks @ blocks.conj().swapaxes(-1, -2)
                defect = np.maximum(defect, np.abs(gram - np.eye(index.shape[1])).max())
                u[at] = blocks
    # Written so that a NaN defect fails too: every comparison with NaN is False.
    if not defect <= ATOL_UNITARY:
        raise NumericalError(f"propagator unitarity defect {defect}")
    return u[0] if single else u


def _shared(keys):
    """(positions, first position) of each distinct key among keys, positions an array."""
    groups = {}
    for position, key in enumerate(keys):
        groups.setdefault(key, []).append(position)
    return [(np.array(positions), positions[0]) for positions in groups.values()]


def _blocks(pattern):
    """The connected components of a nonzero pattern, one (k, b) array of
    state indices per component size b, each component's states ascending.

    Each state is labelled by the lowest state of its component: take the
    lowest label among its neighbours, jump to that label's label, until
    none moves. Components of one size are listed by their lowest state.
    """
    linked, neighbour = np.nonzero(pattern)
    label, lower = None, np.arange(len(pattern))
    while not np.array_equal(lower, label):
        label = lower.copy()
        np.minimum.at(lower, linked, label[neighbour])
        lower = lower[lower]
    size = np.bincount(label)[label]
    out = []
    for b in dict.fromkeys(size.tolist()):
        states = np.flatnonzero(size == b)
        # A stable sort by label keeps each component's states ascending.
        out.append(states[np.argsort(label[states], kind="stable")].reshape(-1, b))
    return out

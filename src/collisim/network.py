"""Hamiltonians for an ancilla qubit coupled to a small qubit network.

The register layout is fixed package-wide: the ancilla occupies slot 0
and network qubit k occupies slot k + 1. Network qubits are displayed
as letters, A for index 0, B for 1, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    ATOL_UNITARY,
    NumericalError,
    expm_hermitian,
)

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


def _embed_pair(op_i, i, op_j, j, n):
    """op_i in slot i times op_j in slot j, as one np.kron chain.

    Equals embed_single(op_i, i, n) @ embed_single(op_j, j, n) for i != j
    without the register-sized product.
    """
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op_i if k == i else op_j if k == j else IDENTITY_2)
    return out


def pair_term(kind, i, j, n):
    """Two-qubit coupling operator embedded in an n-qubit register.

    XX gives sigma_x sigma_x, ZZ gives sigma_z sigma_z, and Exchange gives
    (sigma_plus sigma_minus + sigma_minus sigma_plus) / 2.
    """
    if i == j:
        raise ValueError("pair_term needs two distinct qubits")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair ({i}, {j}) outside register of {n} qubits")
    if kind is CouplingKind.XX:
        return _embed_pair(SIGMA_X, i, SIGMA_X, j, n)
    if kind is CouplingKind.ZZ:
        return _embed_pair(SIGMA_Z, i, SIGMA_Z, j, n)
    if kind is CouplingKind.EXCHANGE:
        up = _embed_pair(SIGMA_PLUS, i, SIGMA_MINUS, j, n)
        down = _embed_pair(SIGMA_MINUS, i, SIGMA_PLUS, j, n)
        return 0.5 * (up + down)
    raise ValueError(f"unknown coupling kind {kind!r}")


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


def build_interaction_hamiltonian(spec):
    """Ancilla-network coupling omega * pair_term(ancilla, target) on the register."""
    return spec.omega * pair_term(
        spec.ancilla_coupling, 0, spec.target + 1, spec.topology.n + 1
    )


def build_propagator(spec, dt):
    """One-step unitary U = exp(-i (H_system + H_interaction) dt).

    Acts on the full register: ancilla in slot 0, network in slots
    1..n. The result is checked to be unitary within ATOL_UNITARY.
    """
    if dt <= 0:
        raise ValueError(f"step duration must be positive, got {dt}")
    h = np.kron(IDENTITY_2, build_system_hamiltonian(spec))
    u = expm_hermitian(h + build_interaction_hamiltonian(spec), -1j * dt)
    defect = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    # Written so that a NaN defect fails too: every comparison with NaN is False.
    if not defect <= ATOL_UNITARY:
        raise NumericalError(f"propagator unitarity defect {defect}")
    return u

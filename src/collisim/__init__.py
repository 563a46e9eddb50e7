"""Collision-model simulation of entanglement distribution in qubit networks.

A single ancilla qubit repeatedly interacts with one qubit of a small
network; between interactions the ancilla is either reset (collision
protocol) or its marginal is carried forward (repeated interaction).
The package tracks pairwise concurrence across the network, finds the
peaks, and identifies which maximally entangled Bell state each peak
realizes.

This namespace holds the names the README and the demos use, plus the
building blocks of a run; everything else is imported from its module.
"""

from .linalg import (
    SIGMA_X,
    SIGMA_Z,
    NumericalError,
    density_from_pure,
    embed_single,
    partial_trace,
)
from .network import (
    CouplingKind,
    NetworkSpec,
    Topology,
    build_propagator,
    build_system_hamiltonian,
    pair_label,
    preset_topology,
)
from .dynamics import ProtocolConfig, ProtocolMode, Trajectory, run_protocol
from .metrics import (
    bell_catalog,
    concurrence,
    fidelity,
    pair_concurrences,
    purity,
    reduced_pair,
)
from .runner import (
    ExperimentConfig,
    build_protocol,
    load_config,
    preset,
    reproduce,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"

"""Collision-model simulation of entanglement distribution in qubit networks.

A single ancilla qubit repeatedly interacts with one qubit of a small
network; between interactions the ancilla is either reset (collision
protocol) or its marginal is carried forward (repeated interaction).
The package tracks pairwise concurrence across the network, finds the
peaks, and identifies which maximally entangled Bell state each peak
realizes.
"""

from .linalg import (
    ATOL_STATE,
    ATOL_UNITARY,
    IDENTITY_2,
    PSD_SLACK,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NumericalError,
    check_density_matrix,
    check_pure_state,
    density_from_pure,
    embed_single,
    expm_hermitian,
    herm_eig,
    kron,
    partial_trace,
)
from .network import (
    ANCILLA_INDEX,
    NETWORK_OFFSET,
    CouplingKind,
    NetworkSpec,
    Topology,
    build_interaction_hamiltonian,
    build_propagator,
    build_system_hamiltonian,
    pair_label,
    pair_term,
    preset_topology,
    qubit_label,
)
from .dynamics import (
    MAX_STEP_CORRECTION,
    ProtocolConfig,
    ProtocolMode,
    Trajectory,
    collision_step,
    run_protocol,
)
from .metrics import (
    BellTarget,
    PeakReport,
    all_pairs,
    bell_catalog,
    characterize_peak,
    concurrence,
    fidelity,
    find_peaks,
    pair_concurrences,
    purity,
    reduced_pair,
)
from .runner import (
    DUAL_MODE_PRESETS,
    PRESETS,
    ExperimentConfig,
    ExperimentResult,
    build_protocol,
    config_from_dict,
    config_to_dict,
    emit_csv,
    emit_report,
    load_config,
    main,
    preset,
    reproduce,
    run_experiment,
    sweep,
)

__version__ = "0.1.0"

"""Reference implementations kept only as test oracles.

reference_step is the step as it was computed before the kernel applied
the network channel in operator-sum form: tensor the ancilla and network
marginals, conjugate the joint state by the full register propagator,
trace each side back out, then hermitize and renormalize. It costs three
register-sized products per step.

one_block_step steps dense states through collision_step as one block,
from a raw register matrix, as the tests that step by hand need.

kron_pair_term builds pair_term's operators as np.kron chains, as it was
done before pair_term used basis-index arithmetic; the tests compare the
two for exact equality.

spin_flip and eigvals_general give concurrence's textbook eigenvalue
route, which cross-checks the library's singular-value form.
eigh_concurrence is that singular-value form on its own, the route every
state took before X states got their closed form.

charge_block_propagator is build_propagator as it was before its blocks
were the connected components of H: the joint blocks of every register
charge H keeps, each exponentiated with the same stacking, so the two
agree bit for bit wherever the components are those blocks.

loop_find_peaks is find_peaks as a scan over runs of equal values, as it
was before the runs came from one comparison of neighbours.

first_fit_groups is propagator_blocks' grouping of sector links as it was
before the grouping rule was stated by rank: each link joins the first
group of its shape that does not have its target yet.

dense_run_protocols and dense_pair_states are the dense route trajectories
took before they kept sector blocks: run_protocols' loop scattering every
step's blocks into a zeroed (P, steps + 1, d, d) array, and one
reduced_pair call per pair on those dense states.

closed_network_states is the evolution no protocol mode takes: the joint
register propagated without re-factorizing, as demo 06 runs it, read out
as the network marginal after every step.
"""

import numpy as np

from collisim import dynamics
from collisim.dynamics import (
    _CHARGES,
    _as_density,
    _choose_partition,
    _register_charge,
    ProtocolMode,
    collision_step,
    mix_blocks,
    propagator_blocks,
)
from collisim.linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NumericalError,
    expm_hermitian,
    num_qubits_of,
    partial_trace,
)
from collisim.metrics import reduced_pair
from collisim.network import (
    CouplingKind,
    build_interaction_hamiltonian,
    build_propagator,
    build_system_hamiltonian,
)

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


def eigh_concurrence(rho):
    """Concurrence of one 4x4 state from the singular values of
    L^T (sigma_y x sigma_y) L, with rho = L L^dagger from eigh."""
    rho = np.asarray(rho, dtype=complex)
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    left = v * np.sqrt(np.clip(w, 0.0, None))
    mu = np.linalg.svd(left.T @ _YY @ left, compute_uv=False)
    return max(0.0, mu[0] - mu[1] - mu[2] - mu[3])


def loop_find_peaks(series, min_height):
    """find_peaks's (index, value) list, by a scan over runs of equal values."""
    arr = np.asarray(series, dtype=float)
    peaks = []
    i = 1
    while i < arr.shape[0] - 1:
        j = i
        while j + 1 < arr.shape[0] and arr[j + 1] == arr[i]:
            j += 1
        if arr[i - 1] < arr[i] and j + 1 < arr.shape[0] and arr[j + 1] < arr[i]:
            if arr[i] >= min_height:
                peaks.append((i, float(arr[i])))
        i = j + 1
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks


ONE_BLOCK = (None, False)


def one_block_blocks(u):
    """collision_step's propagator blocks for (P, 2d, 2d) propagators, with
    the network basis as one block."""
    u = np.asarray(u, dtype=complex)
    return propagator_blocks(u, dynamics._partition(ONE_BLOCK, num_qubits_of(u.shape[-1]) - 1))


def one_block_step(net, u, anc):
    """(network, ancilla) after one collision_step on dense states, as one block.

    net is a (d, d) state with a (2d, 2d) register matrix u and a (2, 2)
    ancilla, or a stack of each with a leading P axis.
    """
    net = np.asarray(net, dtype=complex)
    alone = net.ndim == 2
    if alone:
        net, u, anc = net[None], np.asarray(u)[None], np.asarray(anc)[None]
    blocks = one_block_blocks(u)
    flat, anc_out = collision_step(
        net.reshape(len(net), -1), blocks, mix_blocks(blocks, np.asarray(anc, dtype=complex))
    )
    net_out = flat.reshape(net.shape)
    return (net_out[0], anc_out[0]) if alone else (net_out, anc_out)


def charge_block_propagator(spec, dt):
    """build_propagator's U, exponentiated over the joint charge blocks of H."""
    n = spec.topology.n
    d = 2**n
    h = np.zeros((2 * d, 2 * d), dtype=complex)
    h[:d, :d] = h[d:, d:] = build_system_hamiltonian(spec)
    h += build_interaction_hamiltonian(spec)
    rows, cols = np.nonzero(h)
    labels = [_register_charge(charge, n) for charge in _CHARGES]
    kept = [q for q in labels if (q[rows] == q[cols]).all()]
    block = np.ravel_multi_index(kept, [n + 2] * len(kept))
    sizes = np.bincount(block)
    u = np.zeros_like(h)
    for size in set(sizes[sizes > 0].tolist()):
        members = np.flatnonzero(sizes == size)
        index = np.stack([np.flatnonzero(block == b) for b in members])
        rows, cols = index[:, :, None], index[:, None, :]
        u[rows, cols] = expm_hermitian(h[rows, cols], -1j * dt)
    return u


def _embed_pair(op_i, i, op_j, j, n):
    """op_i in slot i times op_j in slot j of an n-qubit register, as one np.kron chain."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(n):
        out = np.kron(out, op_i if k == i else op_j if k == j else IDENTITY_2)
    return out


def kron_pair_term(kind, i, j, n):
    """pair_term(kind, i, j, n) from np.kron chains."""
    if kind is CouplingKind.XX:
        return _embed_pair(SIGMA_X, i, SIGMA_X, j, n)
    if kind is CouplingKind.ZZ:
        return _embed_pair(SIGMA_Z, i, SIGMA_Z, j, n)
    up = _embed_pair(SIGMA_PLUS, i, SIGMA_MINUS, j, n)
    down = _embed_pair(SIGMA_MINUS, i, SIGMA_PLUS, j, n)
    return 0.5 * (up + down)


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


def closed_network_states(protocol):
    """(steps + 1, d, d) network marginals of the joint state U^n (anc0 x net0) U^dagger^n."""
    n = protocol.spec.topology.n
    u = build_propagator(protocol.spec, protocol.dt)
    joint = np.kron(
        _as_density(protocol.ancilla_init, 1, "ancilla state"),
        _as_density(protocol.network_init, n, "network state"),
    )
    states = [partial_trace(joint, [0], n + 1)]
    for _ in range(protocol.steps):
        joint = u @ joint @ u.conj().T
        states.append(partial_trace(joint, [0], n + 1))
    return np.array(states)


def first_fit_groups(partition):
    """propagator_blocks' groups as lists of (q, t, blocks) links, in its order."""
    links = {}
    for q in range(len(partition.sectors)):
        for j, a in dynamics._ALL_BLOCKS:
            t = partition.target(q, a - j if partition.charge[1] else 0)
            if t is not None:
                links.setdefault((q, t), []).append((j, a))
    grouped = {}
    for (q, t), ja in links.items():
        key = (len(partition.sectors[t]), len(partition.sectors[q]), len(ja))
        bins = grouped.setdefault(key, [])
        for members in bins:
            if t not in [t2 for _, t2, _ in members]:
                members.append((q, t, ja))
                break
        else:
            bins.append([(q, t, ja)])
    groups = [members for bins in grouped.values() for members in bins]
    # Groups whose targets are a whole class, in order, go first.
    whole = [tuple(charges) for _, charges, _ in partition.classes]
    groups.sort(key=lambda members: tuple(t for _, t, _ in members) not in whole)
    return groups


def dense_run_protocols(configs):
    """run_protocols' (network, ancilla) arrays, (P, steps + 1, d, d) and
    (P, steps + 1, 2, 2), with every step scattered into a zeroed dense array."""
    steps, n_net = configs[0].steps, configs[0].spec.topology.n
    anc0 = np.array([_as_density(c.ancilla_init, 1, "ancilla state") for c in configs])
    net0 = np.array([_as_density(c.network_init, n_net, "network state") for c in configs])
    u = np.array([build_propagator(c.spec, c.dt) for c in configs])
    partition = _choose_partition(u, net0, anc0)
    blocks = propagator_blocks(u, partition)
    # Entries between sectors are never written and stay exactly 0.
    network = np.zeros((len(configs), steps + 1) + net0.shape[1:], dtype=complex)
    ancilla = np.empty((len(configs), steps + 1, 2, 2), dtype=complex)
    network[:, 0], ancilla[:, 0] = net0, anc0
    net = partition.gather(net0)
    carry = np.array([c.mode is ProtocolMode.REPEATED_INTERACTION for c in configs])[:, None, None]
    for n in range(1, steps + 1):
        mixed = mix_blocks(blocks, np.where(carry, ancilla[:, n - 1], anc0))
        net, ancilla[:, n] = collision_step(net, blocks, mixed)
        network[:, n].reshape(len(configs), -1)[:, partition.index] = net
    return network, ancilla


def dense_pair_states(network, pairs, num_qubits):
    """(steps + 1, len(pairs), 4, 4) reductions of dense states, one reduced_pair call per pair."""
    reduced = np.empty((len(network), len(pairs), 4, 4), dtype=complex)
    for col, pair in enumerate(pairs):
        reduced[:, col] = reduced_pair(network, pair, num_qubits)
    return reduced


def assert_same_bits(got, want):
    """Equal shapes, dtypes and bytes: signed zeros must match too."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()

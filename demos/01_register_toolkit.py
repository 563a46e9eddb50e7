"""
Register toolkit: operators, propagators, reductions
====================================================

A quick tour of the dense linear-algebra layer the simulations sit on:
building multi-qubit operators with Kronecker products, exponentiating a
Hamiltonian into a one-step unitary, and reducing a register state back
down with the partial trace.
"""

import numpy as np

from collisim import (
    SIGMA_X,
    SIGMA_Z,
    CouplingKind,
    NetworkSpec,
    build_propagator,
    density_from_pure,
    embed_single,
    partial_trace,
    preset_topology,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)

# Qubit 0 is the most significant bit of the basis index, so np.kron(a, b)
# puts `a` on the high bits. A sigma_x on qubit 0 of two:
print("sigma_x on qubit 0 of 2:")
print(embed_single(SIGMA_X, 0, 2).real)

# Pair couplings are just products of embedded single-qubit operators.
zz = embed_single(SIGMA_Z, 0, 2) @ embed_single(SIGMA_Z, 1, 2)
print("\nsigma_z sigma_z is diagonal with parity signs:", np.diag(zz).real)

# A full simulation register: ancilla in slot 0, then a three-qubit chain.
spec = NetworkSpec(
    topology=preset_topology("linear3"),
    system_coupling=CouplingKind.XX,
    omega0=1.0,
    ancilla_coupling=CouplingKind.ZZ,
    omega=5.0,
    target=0,
)
u = build_propagator(spec, dt=0.4)
defect = np.max(np.abs(u @ u.conj().T - np.eye(16)))
print(f"\none-step propagator: shape {u.shape}, unitarity defect {defect:.2e}")

# The partial trace undoes a tensor product exactly. Start from a product
# of a plus state and a two-qubit Bell state, then discard either side.
plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
joint = density_from_pure(np.kron(plus, bell))

print("\nreduced single qubit (recovers |+><+|):")
print(partial_trace(joint, {1, 2}).real)

# The Bell half comes back too, and its own marginal is maximally mixed:
pair = partial_trace(joint, {0})
print("\nreduced Bell pair, then one more reduction:")
print(pair.real)
print(partial_trace(pair, {0}).real)

# np.kron and embed_single agree on where a qubit lives.
assert np.allclose(np.kron(SIGMA_X, np.eye(2)), embed_single(SIGMA_X, 0, 2))
print("\nconventions check out.")

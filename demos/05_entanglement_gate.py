"""The two-register entanglement gate: block structure of the coupling,
leakage-free evolution, the conditional phase gate, and why it is universal."""

import numpy as np

from jumpcodes import (
    Ket,
    ent_unitary,
    gate_theta_matrix,
    h_ent,
    is_primitive_diagonal,
    jump_code,
    product_code_basis,
    projector,
    schmidt_rank,
    v_gate,
)

code4 = jump_code(4, 0.0)
C9 = product_code_basis(code4, code4)
labels = [f"|{i}{j}>" for i in range(3) for j in range(3)]

print("=== the coupling Hamiltonian ===")
gh = h_ent()
print(f"terms: {gh.terms}")
H = gh.matrix(8)
print("eigenvalue on each two-register state:")
for label, s in zip(labels, C9.T):
    ev = np.vdot(s, H @ s).real
    print(f"  {label}: {ev:+.3f}")

print("\n=== leakage from the 35-word code space ===")
P35 = projector(jump_code(8, 0.0))
P9 = C9 @ C9.conj().T
one = np.eye(256)
for tau in (0.0, np.pi / 7, np.pi / 2, np.pi, 2 * np.pi):
    U = ent_unitary(tau)
    leak = np.linalg.norm((one - P35) @ U @ P9, 2)
    print(f"  tau = {tau:.4f}: leakage {leak:.2e}")

print("\n=== the conditional phase gate V = -U(pi) ===")
V = v_gate()
logical = C9.conj().T @ V @ C9
print("diagonal of V on the nine two-register states:")
print("  " + "  ".join(f"{labels[m]}:{logical[m, m].real:+.0f}" for m in range(9)))

theta = gate_theta_matrix(V, C9)
primitive, witness = is_primitive_diagonal(theta)
print(f"\nphase table theta/pi:\n{theta.theta / np.pi}")
print(f"primitive: {primitive}, violating quadruple (j,k,p,q): {witness}")
th = theta.theta
print(
    f"named violation: theta11 + theta22 = {th[1, 1] + th[2, 2]:.4f} "
    f"!= {th[1, 2] + th[2, 1]:.4f} = theta12 + theta21 (mod 2pi)"
)

print("\n=== V entangles product states ===")
uniform = Ket(8, C9.sum(axis=1) / 3.0)
print(f"Schmidt rank of the uniform product state:   {schmidt_rank(uniform, 4)}")
print(f"Schmidt rank after applying V:               {schmidt_rank(Ket(8, V @ uniform.amplitudes), 4)}")

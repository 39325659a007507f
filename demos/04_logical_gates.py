"""One-register logical gates: the pair Hamiltonians' action on the code
words, the generator algebra they span, product-formula scaling, and exact
synthesis of arbitrary qutrit unitaries in at most three E/F segments that
never leave the code space."""

import numpy as np
from scipy.stats import unitary_group

from jumpcodes import (
    jump_code,
    leakage_certificate,
    lie_closure,
    phase_aligned_distance,
    program_logical_unitary,
    program_to_json,
    program_unitary,
    su3_generators,
    synthesize_qutrit,
    table1_matrices,
    trotter_commutator,
    trotter_sum,
)
from jumpcodes.gates import (
    commutator_formula_target,
    gell_mann_matrices,
    span_residual,
    sum_formula_target,
)

np.set_printoptions(precision=3, suppress=True)

print("=== logical action of the pair Hamiltonians ===")
for name, M in table1_matrices().items():
    print(f"{name}:\n{M.real}")

print("=== generator algebra ===")
gens = su3_generators()
for g in gens:
    tag = f"= {' - '.join(t[0] + str(t[1][0]) + str(t[1][1]) for t in g.hamiltonian.terms)}" \
        if g.hamiltonian else f"= i[{g.commutator_of[0]}, {g.commutator_of[1]}]"
    print(f"{g.name:5s} {tag}")
closure = lie_closure([g.logical for g in gens])
print(f"commutator closure dimension: {closure.dimension} (traceless part {closure.traceless_dimension})")
traceless = [M - np.trace(M) / 3 * np.eye(3) for M in closure.basis]
worst = max(span_residual(traceless, gm) for gm in gell_mann_matrices())
print(f"Gell-Mann matrices inside the traceless part: residual {worst:.2e}")

print("\n=== product-formula error scaling ===")
rng = np.random.default_rng(0)
M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
H1 = 0.5 * (M + M.conj().T)
M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
H2 = 0.5 * (M + M.conj().T)
target = sum_formula_target(H1, H2, 1.0, 1.0)
print("sum formula (expected ratio 2):")
prev = None
for n in (16, 32, 64, 128):
    err = np.linalg.norm(program_unitary(trotter_sum(H1, H2, 1.0, 1.0, n)) - target, 2)
    ratio = f"  ratio {prev / err:.2f}" if prev else ""
    print(f"  n={n:4d}: error {err:.2e}{ratio}")
    prev = err
target = commutator_formula_target(H1, H2, 1.0, 1.0)
print("commutator formula (expected ratio sqrt(2) = 1.41):")
prev = None
for n in (64, 128, 256, 512):
    err = np.linalg.norm(
        program_unitary(trotter_commutator(H1, H2, 1.0, 1.0, n)) - target, 2
    )
    ratio = f"  ratio {prev / err:.2f}" if prev else ""
    print(f"  n={n:4d}: error {err:.2e}{ratio}")
    prev = err

print("\n=== exact qutrit synthesis: two reflections, then one symmetric segment ===")
code = jump_code(4, 0.0)
for k in range(3):
    U = unitary_group.rvs(3, random_state=100 + k)
    program = synthesize_qutrit(U, code)
    err = phase_aligned_distance(program_logical_unitary(program, code), U)
    leak = leakage_certificate(program, code)
    durations = ", ".join(f"{seg.duration:.4f}" for seg in program.segments)
    print(
        f"target {k}: {len(program.segments)} segments (durations {durations}), "
        f"error {err:.1e}, leakage bound {leak:.1e}"
    )
first = program_to_json(program)["segments"][0]
print(f"first segment of the last program: {first}")

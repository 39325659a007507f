"""Spontaneous decay three ways: the master equation, the no-jump Kraus
family, and Monte-Carlo trajectories with jump records."""

import numpy as np

from jumpcodes import (
    Ket,
    average_trajectories,
    basis_ket,
    integrate_master,
    memory_model,
    no_jump_kraus,
    pure_density,
    run_trajectories,
    trace_distance,
)

kappa = 1.0
model = memory_model(1, kappa)

print("=== master equation: excited population ===")
rho0 = pure_density(basis_ket("1"))
for T in (0.5, 1.0, 2.0):
    rho = integrate_master(model, rho0, T, 1e-3)
    print(
        f"T={T}: population {rho.matrix[1, 1].real:.6f}  "
        f"(analytic e^-kT = {np.exp(-kappa * T):.6f})"
    )

print("\n=== no-jump Kraus family on the DFS ===")
dfs_model = memory_model(4, kappa)
for t in (0.5, 1.0):
    K0 = no_jump_kraus(dfs_model, t)
    v = basis_ket("0101").amplitudes
    eig = (K0 @ v)[v != 0][0].real
    print(f"K0({t}) on a 2-excitation state: factor {eig:.6f} = e^-kt")

print("\n=== single trajectories ===")
batch = run_trajectories(model, basis_ket("1"), 5.0, 42, range(5))
for traj, (times, qubits) in enumerate(zip(batch.jump_times, batch.jump_qubits)):
    jumps = ", ".join(f"t={t:.3f} (qubit {a})" for t, a in zip(times, qubits) if a) or "none"
    print(f"trajectory {traj}: jumps {jumps}")

print("\n=== ensemble average vs master ===")
plus = Ket(1, np.array([1.0, 1.0]) / np.sqrt(2))
for count in (100, 1000, 10000):
    approx = average_trajectories(model, plus, 1.0, count, 7)
    exact = integrate_master(model, pure_density(plus), 1.0, 1e-3)
    print(f"{count:6d} trajectories: trace distance {trace_distance(approx, exact):.5f}")

print("\n=== jump-time statistics ===")
batch = run_trajectories(model, basis_ket("1"), 20.0, 11, range(20000))
times = np.sort(batch.jump_times[batch.jump_counts > 0, 0])
emp = np.arange(1, len(times) + 1) / len(times)
ks = np.abs(emp - (1 - np.exp(-times))).max()
print(f"first-jump empirical CDF vs 1 - e^-t: KS distance {ks:.4f} ({len(times)} samples)")

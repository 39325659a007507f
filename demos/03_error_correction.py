"""Verify correctability and run the full detect-and-recover loop, including
what breaks it: unknown error positions, missed detections, rate mismatch."""

import numpy as np

from jumpcodes import (
    ExperimentConfig,
    KrausSet,
    correct_trajectory,
    dfs_projector,
    dfs_basis,
    encode,
    jump_code,
    kl_check,
    memory_model,
    no_jump_kraus,
    dfs_check,
    projector,
    recovery_unitary,
    run_experiment,
    run_trajectories,
)
from jumpcodes.states import LOWER, LocalOperator, local_to_dense

kappa = 1.0
code = jump_code(4, 0.0)
P = projector(code)
jump = lambda a: np.sqrt(kappa) * local_to_dense(LocalOperator((a,), LOWER), 4)

print("=== reversibility checks ===")
r = kl_check(KrausSet((jump(1),)), P)
print(f"known-position jump L1:   {r.verdict}, Lambda = {r.lam[0, 0].real:.3f} (= kappa/2)")
r = kl_check(KrausSet((jump(1), jump(2))), P)
print(f"unknown-position {{L1,L2}}: {r.verdict}, residual {r.residual:.3f}")
r = dfs_check(
    KrausSet((no_jump_kraus(memory_model(4, kappa), 0.8),)),
    dfs_projector(dfs_basis(4, 2)),
)
print(f"no-jump family on DFS:    lambda = {r.lambdas[0].real:.4f} (= e^-0.8)")

print("\n=== recovery unitaries ===")
rng = np.random.default_rng(1)
a = rng.normal(size=3) + 1j * rng.normal(size=3)
a /= np.linalg.norm(a)
psi = encode(code, a)
for alpha in (1, 3):
    U = recovery_unitary(code, alpha)
    jumped = jump(alpha) @ psi.amplitudes
    jumped /= np.linalg.norm(jumped)
    fid = abs(np.vdot(psi.amplitudes, U @ jumped)) ** 2
    print(f"jump on qubit {alpha} then recovery: fidelity {fid:.12f}")

print("\n=== trajectory correction ===")
model = memory_model(4, kappa)
batch = run_trajectories(model, psi, 3.0, 99, range(5))
_, fids = correct_trajectory(batch, code, a)
for traj, (jumps, fid) in enumerate(zip(batch.jump_counts, fids)):
    print(f"trajectory {traj}: {jumps} jump(s), corrected fidelity {fid:.12f}")

print("\n=== imperfection study (1000 trajectories each) ===")
base = dict(n_qubits=4, phase=0.0, kappas=[kappa], t_final=3.0, trajectories=1000, seed=7)
for label, knobs in [
    ("ideal", {}),
    ("recovery delay 0.3/kappa", {"delay": 0.3}),
    ("10% missed detections", {"p_miss": 0.1}),
    ("all detections missed", {"p_miss": 1.0}),
    ("rate mismatch +-30%", {"mismatch": [1.3, 0.7, 1.0, 1.0]}),
    ("mismatch and delay", {"mismatch": [1.3, 0.7, 1.0, 1.0], "delay": 0.3}),
]:
    _, fids, summary = run_experiment(ExperimentConfig(**base, **knobs))
    print(
        f"{label:28s} mean fidelity {summary['mean_fidelity']:.6f} "
        f"+- {summary['std_error']:.6f}"
    )

"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criteria with runtime bounds assert them.
"""

import time
from math import comb, log2

import numpy as np
import pytest
from scipy.stats import unitary_group

from jumpcodes.codes import (
    codeword_ket,
    dfs_basis,
    dfs_projector,
    encode,
    jump_code,
    product_code_basis,
    projector,
)
from jumpcodes.dynamics import (
    KrausSet,
    average_trajectories,
    integrate_master,
    memory_model,
    no_jump_kraus,
    pure_density,
    run_trajectories,
    trace_distance,
)
from jumpcodes.gates import (
    commutator_formula_target,
    ent_unitary,
    gate_theta_matrix,
    gell_mann_matrices,
    is_primitive_diagonal,
    leakage_certificate,
    lie_closure,
    phase_aligned_distance,
    program_logical_unitary,
    program_unitary,
    schmidt_rank,
    span_residual,
    su3_generators,
    sum_formula_target,
    synthesize_qutrit,
    table1_matrices,
    trotter_commutator,
    trotter_sum,
    v_gate,
)
from jumpcodes.qec import dfs_check, kl_check, replay_records
from jumpcodes.states import Ket, LOWER, LocalOperator, local_to_dense


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_table1_reproduction():
    start = time.time()
    expected = {
        "E12": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        "E23": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "E13": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "F12": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        "F13": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        "F23": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    }
    got = table1_matrices(0.0)
    residual = max(
        float(np.abs(got[name] - np.array(mat, dtype=float)).max())
        for name, mat in expected.items()
    )
    elapsed = time.time() - start
    report(
        1,
        residual < 1e-12 and elapsed < 1.0,
        f"six logical matrices, max residual {residual:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_code_combinatorics():
    ok = True
    for n in range(1, 13):
        for k in range(n + 1):
            ok &= dfs_basis(n, k).dimension == comb(n, k)
    ok &= jump_code(4).count == 3
    ok &= jump_code(8).count == 35
    for n in range(2, 25, 2):
        ok &= comb(n, n // 2) // 2 == comb(n - 1, n // 2 - 1)
    deviations = [
        abs(log2(comb(n - 1, n // 2 - 1)) - (n - log2(n) / 2.0))
        for n in range(4, 25, 2)
    ]
    ok &= max(deviations) <= 2.0
    report(
        2,
        bool(ok),
        f"DFS dims, counts 3/35, pair identity to N=24, max L_q deviation {max(deviations):.3f}",
    )


def test_criterion_3_kl_verdicts():
    kappa = 1.0
    code = jump_code(4, 0.0)
    P = projector(code)
    jump = lambda a: np.sqrt(kappa) * local_to_dense(LocalOperator((a,), LOWER), 4)
    ok = True
    worst_residual = 0.0
    for alpha in range(1, 5):
        r = kl_check(KrausSet((jump(alpha),)), P)
        ok &= r.reversible and abs(r.lam[0, 0] - kappa / 2.0) < 1e-12
        worst_residual = max(worst_residual, r.residual)
    ok &= worst_residual < 1e-12
    pair = kl_check(KrausSet((jump(1), jump(2))), P)
    witness = float(np.abs(P @ jump(1).conj().T @ jump(2) @ P).max())
    ok &= (not pair.reversible) and witness > 1e-6
    t = 0.8
    dfs = dfs_check(
        KrausSet((no_jump_kraus(memory_model(4, kappa), t),)),
        dfs_projector(dfs_basis(4, 2)),
    )
    ok &= dfs.passed and abs(dfs.lambdas[0] - np.exp(-kappa * t)) < 1e-12
    report(
        3,
        bool(ok),
        f"known-position Lambda=kappa/2 (res {worst_residual:.1e}), pair witness {witness:.3f}, "
        f"lambda(K0)={dfs.lambdas[0].real:.6f}",
    )


def test_criterion_4_recovery_exactness():
    start = time.time()
    kappa = 1.0
    code = jump_code(4, 0.0)
    model = memory_model(4, kappa)
    rng = np.random.default_rng(2024)
    logical = rng.normal(size=3) + 1j * rng.normal(size=3)
    logical /= np.linalg.norm(logical)
    psi = encode(code, logical)
    T = 3.0 / kappa
    # All 1000 records in one batch, replayed as correct_trajectory replays
    # them: every jump detected, recovery without delay, zero flow rates.
    batch = run_trajectories(model, psi, T, 515, range(1000))
    _, fidelities = replay_records(
        code,
        psi.normalized().amplitudes,
        batch.jump_times,
        batch.jump_qubits,
        np.ones(batch.jump_qubits.shape, dtype=bool),
        memory_model(4, 0.0),
        delay=0.0,
        horizon=T,
    )
    worst = min(1.0, fidelities.min())
    jumps = batch.jump_counts.sum()
    elapsed = time.time() - start
    report(
        4,
        worst >= 1.0 - 1e-9 and elapsed < 30.0,
        f"1000 trajectories ({jumps} jumps), worst fidelity 1-{1.0 - worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_trajectory_master_consistency():
    start = time.time()
    count = 100_000
    # 1-qubit model from a superposition: exercises coherence decay
    model1 = memory_model(1, 1.0)
    plus = Ket(1, np.array([1.0, 1.0]) / np.sqrt(2.0))
    approx1 = average_trajectories(model1, plus, 1.0, count, 606)
    exact1 = integrate_master(model1, pure_density(plus), 1.0, 1e-3)
    d1 = trace_distance(approx1, exact1)
    # 2-qubit model with unequal rates from an entangled state
    model2 = memory_model(2, [1.0, 0.7])
    bell = Ket(2, np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0))
    approx2 = average_trajectories(model2, bell, 1.0, count, 607)
    exact2 = integrate_master(model2, pure_density(bell), 1.0, 1e-3)
    d2 = trace_distance(approx2, exact2)
    # jump-time law: first-jump CDF of the excited qubit vs 1 - e^{-t}; one
    # batch over the ids gives each trajectory's record bit for bit
    batch = run_trajectories(model1, Ket(1, np.array([0.0, 1.0])), 25.0, 608, range(count))
    times = np.sort(batch.jump_times[batch.jump_counts > 0, 0])
    m = len(times)
    cdf = 1.0 - np.exp(-times)
    ks = max(
        float(np.max(np.arange(1, m + 1) / m - cdf)),
        float(np.max(cdf - np.arange(0, m) / m)),
    )
    elapsed = time.time() - start
    report(
        5,
        d1 <= 5e-3 and d2 <= 5e-3 and ks <= 0.01 and elapsed < 300.0,
        f"trace distances {d1:.2e}/{d2:.2e}, KS {ks:.4f} ({m} jump times), {elapsed:.0f}s",
    )


def test_criterion_6_lie_closure():
    closure = lie_closure([g.logical for g in su3_generators()])
    traceless = [M - np.trace(M) / 3.0 * np.eye(3) for M in closure.basis]
    worst = max(span_residual(traceless, gm) for gm in gell_mann_matrices())
    report(
        6,
        closure.dimension == 9 and closure.traceless_dimension == 8 and worst < 1e-10,
        f"closure dim {closure.dimension}, traceless {closure.traceless_dimension}, "
        f"Gell-Mann inclusion residual {worst:.2e}",
    )


def test_criterion_7_trotter_scaling():
    rng = np.random.default_rng(717)
    sum_ratios, comm_ratios = [], []
    for _ in range(5):
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H1 = 0.5 * (M + M.conj().T)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H2 = 0.5 * (M + M.conj().T)
        target = sum_formula_target(H1, H2, 1.0, 1.0)
        errs = [
            np.linalg.norm(program_unitary(trotter_sum(H1, H2, 1.0, 1.0, n)) - target, 2)
            for n in (64, 128)
        ]
        sum_ratios.append(errs[0] / errs[1])
        target = commutator_formula_target(H1, H2, 1.0, 1.0)
        errs = [
            np.linalg.norm(
                program_unitary(trotter_commutator(H1, H2, 1.0, 1.0, n)) - target, 2
            )
            for n in (256, 512)
        ]
        comm_ratios.append(errs[0] / errs[1])
    ok = all(1.6 <= r <= 2.4 for r in sum_ratios) and all(
        1.19 <= r <= 1.65 for r in comm_ratios
    )
    report(
        7,
        bool(ok),
        f"sum ratios {[f'{r:.2f}' for r in sum_ratios]}, "
        f"commutator ratios {[f'{r:.2f}' for r in comm_ratios]}",
    )


def test_criterion_8_entanglement_gate():
    code4 = jump_code(4, 0.0)
    states = product_code_basis(code4, code4)
    C9 = np.column_stack([s.amplitudes for s in states])
    P9 = C9 @ C9.conj().T
    P35 = projector(jump_code(8, 0.0))
    one = np.eye(256)
    V = v_gate()
    v_residual = float(
        np.abs(C9.conj().T @ V @ C9 - np.diag([1.0] * 8 + [-1.0])).max()
    )
    leakage = max(
        float(np.linalg.norm((one - P35) @ ent_unitary(tau) @ P9, 2))
        for tau in (0.0, np.pi / 7.0, np.pi / 2.0, np.pi, 2.0 * np.pi)
    )
    theta = gate_theta_matrix(V, states, 3)
    primitive, witness = is_primitive_diagonal(theta)
    th = theta.theta
    named = abs((th[1, 1] + th[2, 2]) - np.pi) < 1e-9 and abs(th[1, 2] + th[2, 1]) < 1e-9
    uniform = C9.sum(axis=1) / 3.0
    rank = schmidt_rank(Ket(8, V @ uniform), 4)
    ok = (
        v_residual <= 1e-10
        and leakage <= 1e-12
        and not primitive
        and witness is not None
        and named
        and rank == 2
    )
    report(
        8,
        bool(ok),
        f"-U(pi) residual {v_residual:.1e}, leakage {leakage:.1e}, "
        f"witness {witness}, theta11+theta22=pi confirmed, Schmidt rank {rank}",
    )


def test_criterion_9_qutrit_synthesis():
    start = time.time()
    code = jump_code(4, 0.0)
    basis = [codeword_ket(code, i) for i in range(3)]
    worst_err = 0.0
    worst_leak = 0.0
    for k in range(20):
        U = unitary_group.rvs(3, random_state=9000 + k)
        program = synthesize_qutrit(U, code)
        err = phase_aligned_distance(program_logical_unitary(program, basis), U)
        leak = leakage_certificate(program, code)
        worst_err = max(worst_err, err)
        worst_leak = max(worst_leak, leak)
    elapsed = time.time() - start
    report(
        9,
        worst_err <= 1e-12 and worst_leak <= 1e-12 and elapsed < 300.0,
        f"20 Haar targets, worst error {worst_err:.1e}, worst leakage {worst_leak:.1e}, "
        f"{elapsed:.0f}s",
    )

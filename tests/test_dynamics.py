import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from jumpcodes import dynamics
from jumpcodes.codes import codeword_ket, dfs_basis, encode, jump_code
from jumpcodes.dynamics import (
    DensityMatrix,
    LindbladModel,
    average_trajectories,
    effective_hamiltonian,
    integrate_master,
    jump_channel_weights,
    memory_model,
    no_jump_kraus,
    pure_density,
    records_to_csv,
    run_trajectories,
    run_trajectory,
    trace_distance,
)
from jumpcodes.states import (
    Ket,
    LOWER,
    LocalOperator,
    NUMBER,
    OperatorSum,
    SIGMA_X,
    basis_ket,
    local_to_dense,
    row_norms,
    sum_to_dense,
)


def excited(n: int) -> Ket:
    return basis_ket("1" * n)


class TestModelValidation:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladModel(2, None, ((1, -0.1),))

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(2, None, ((1, rate),))

    def test_rejects_overflowing_rate_sum(self):
        # Each rate is finite, but their sum overflows to inf.
        with pytest.raises(ValueError, match="sum must be finite"):
            memory_model(4, 1e308)

    def test_non_finite_norms_stop_the_trajectory_loop(self):
        # Past validation, infinite rates make the states NaN; the loop used
        # to step forward by about 3e-11 per round, never reaching T.
        model = memory_model(4, 1.0)
        model.channels = tuple((a, 1e308) for a, _ in model.channels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="norms must be finite"):
                run_trajectories(model, code_state(4, 1), 1.0, 1, range(4))

    def test_rejects_duplicate_channel(self):
        with pytest.raises(ValueError):
            LindbladModel(2, None, ((1, 0.5), (1, 0.2)))

    def test_decay_rates_count_excitations(self):
        model = memory_model(3, [1.0, 2.0, 4.0])
        rates = model.decay_rates()
        assert rates[0] == 0.0
        assert rates[0b111] == 7.0
        assert rates[0b101] == 5.0


class TestEffectiveHamiltonian:
    def test_no_channels_returns_h(self):
        H = OperatorSum((LocalOperator((1,), SIGMA_X),))
        model = LindbladModel(2, H, ())
        assert effective_hamiltonian(model).terms == H.terms

    def test_memory_single_channel(self):
        model = LindbladModel(1, None, ((1, 0.7),))
        M = sum_to_dense(effective_hamiltonian(model), 1)
        assert np.allclose(M, -0.5j * 0.7 * NUMBER)

    def test_antihermitian_eigenvalues(self):
        kappa = 1.3
        model = memory_model(3, kappa)
        M = sum_to_dense(effective_hamiltonian(model), 3)
        anti = 0.5 * (M - M.conj().T) / 1j  # = -(kappa/2) * excitation count
        diag = np.diag(anti).real
        for idx in range(8):
            weight = bin(idx).count("1")
            assert np.isclose(diag[idx], -0.5 * kappa * weight)


class TestNoJumpKraus:
    def test_zero_time_identity(self):
        K = no_jump_kraus(memory_model(3, 1.0), 0.0)
        assert np.allclose(K, np.eye(8))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    def test_rejects_time_that_is_not_finite_and_non_negative(self, t):
        with pytest.raises(ValueError, match="finite and non-negative"):
            no_jump_kraus(memory_model(2, 1.0), t)

    def test_dfs_eigenvalue(self):
        kappa, t = 0.9, 0.7
        K = no_jump_kraus(memory_model(4, kappa), t)
        for s in dfs_basis(4, 2).basis:
            v = basis_ket(s).amplitudes
            assert np.allclose(K @ v, np.exp(-kappa * t) * v)

    def test_semigroup(self):
        model = memory_model(3, [0.3, 1.0, 2.2])
        K1 = no_jump_kraus(model, 0.4)
        K2 = no_jump_kraus(model, 1.1)
        K12 = no_jump_kraus(model, 1.5)
        assert np.linalg.norm(K1 @ K2 - K12) < 1e-12

    def test_requires_memory_case(self):
        model = LindbladModel(1, OperatorSum((LocalOperator((1,), SIGMA_X),)), ((1, 1.0),))
        with pytest.raises(ValueError):
            no_jump_kraus(model, 1.0)


class TestIntegrateMaster:
    def test_single_qubit_decay(self):
        kappa, T = 1.0, 2.0
        model = memory_model(1, kappa)
        rho = integrate_master(model, pure_density(basis_ket("1")), T, 1e-3)
        assert abs(rho.matrix[1, 1].real - np.exp(-kappa * T)) < 1e-6

    def test_ground_state_stationary(self):
        model = memory_model(2, 3.0)
        rho0 = pure_density(basis_ket("00"))
        rho = integrate_master(model, rho0, 1.5, 1e-3)
        assert trace_distance(rho, rho0) < 1e-10

    def test_two_qubits_factorize(self):
        k1, k2, T = 1.0, 0.4, 0.8
        joint = integrate_master(
            memory_model(2, [k1, k2]), pure_density(excited(2)), T, 1e-3
        )
        r1 = integrate_master(memory_model(1, k1), pure_density(excited(1)), T, 1e-3)
        r2 = integrate_master(memory_model(1, k2), pure_density(excited(1)), T, 1e-3)
        assert np.linalg.norm(joint.matrix - np.kron(r2.matrix, r1.matrix)) < 1e-6

    def test_coherence_decay_with_hamiltonian(self):
        # driven qubit: RK4 against scipy expm of the full Liouvillian
        kappa, omega, T = 0.8, 1.1, 1.3
        H = OperatorSum((LocalOperator((1,), omega * SIGMA_X),))
        model = LindbladModel(1, H, ((1, kappa),))
        rho = integrate_master(model, pure_density(basis_ket("1")), T, 1e-3)
        Hm = omega * SIGMA_X
        L = np.sqrt(kappa) * LOWER
        eye = np.eye(2)
        liouv = (
            -1j * (np.kron(eye, Hm) - np.kron(Hm.T, eye))
            + np.kron(L.conj(), L)
            - 0.5 * np.kron(eye, L.conj().T @ L)
            - 0.5 * np.kron((L.conj().T @ L).T, eye)
        )
        vec0 = pure_density(basis_ket("1")).matrix.reshape(-1, order="F")
        expected = (expm(liouv * T) @ vec0).reshape(2, 2, order="F")
        assert np.linalg.norm(rho.matrix - expected) < 1e-8

    def test_driven_mixed_rates_match_liouvillian(self):
        # N = 3 with a two-qubit drive and unequal rates: RK4 against expm of
        # the full 64x64 Liouvillian, column-stacked vec(A rho B) = (B^T x A) vec(rho)
        rng = np.random.default_rng(31)
        M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = OperatorSum((
            LocalOperator((1, 3), 0.5 * (M + M.conj().T)),
            LocalOperator((2,), 0.7 * SIGMA_X),
        ))
        model = LindbladModel(3, H, ((1, 1.2), (2, 0.5), (3, 0.8)))
        psi = random_state(3, 8)
        T = 0.9
        rho = integrate_master(model, pure_density(psi), T, 1e-3)
        Hm, eye = sum_to_dense(H, 3), np.eye(8)
        liouv = -1j * (np.kron(eye, Hm) - np.kron(Hm.T, eye))
        for alpha, _ in model.channels:
            L = local_to_dense(model.jump_operator(alpha), 3)
            LdL = L.conj().T @ L
            liouv += np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)
        vec0 = pure_density(psi).matrix.reshape(-1, order="F")
        expected = (expm(liouv * T) @ vec0).reshape(8, 8, order="F")
        assert np.linalg.norm(rho.matrix - expected) < 1e-8

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_master(memory_model(1, 1.0), pure_density(basis_ket("1")), 1.0, 0.0)

    @pytest.mark.parametrize("T, dt, word", [
        (float("inf"), 1e-3, "T must be finite and non-negative"),
        (float("nan"), 1e-3, "T must be finite and non-negative"),
        (1.0, float("nan"), "dt must be positive and finite"),
        (1.0, float("inf"), "dt must be positive and finite"),
    ], ids=["T-inf", "T-nan", "dt-nan", "dt-inf"])
    def test_rejects_non_finite_times(self, T, dt, word):
        # Before this check, T = inf looped forever, T = nan returned rho0
        # and dt = nan an all-NaN state.
        with pytest.raises(ValueError, match=word):
            integrate_master(memory_model(1, 1.0), pure_density(basis_ket("1")), T, dt)


class TestRunTrajectory:
    def test_dark_state_never_jumps(self):
        model = memory_model(3, 2.0)
        batch = run_trajectory(model, basis_ket("000"), 5.0, 11)
        assert batch.jump_counts.tolist() == [0]
        assert np.allclose(batch.final_states[0], basis_ket("000").amplitudes)

    def test_deterministic_per_seed(self):
        model = memory_model(2, 1.0)
        a = run_trajectory(model, excited(2), 4.0, 3, trajectory_id=5)
        b = run_trajectory(model, excited(2), 4.0, 3, trajectory_id=5)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_qubits, b.jump_qubits)
        assert np.array_equal(a.final_states, b.final_states)

    def test_channel_weights_uniform_on_codeword(self):
        kappa = 1.0
        model = memory_model(4, kappa)
        psi = codeword_ket(jump_code(4, 0.0), 1)
        w = jump_channel_weights(model, psi)
        assert np.allclose(w, kappa / 2.0)

    def test_record_weight_matches_operator_product(self):
        # the final state must be the normalized state built from the record
        # by explicit operator products
        kappa = [1.0, 0.6, 1.7]
        model = memory_model(3, kappa)
        H_eff = sum_to_dense(effective_hamiltonian(model), 3)
        found = 0
        for traj in range(30):
            rec = run_trajectory(model, excited(3), 6.0, 21, trajectory_id=traj)
            psi = excited(3).amplitudes
            t_prev = 0.0
            for t, alpha in zip(rec.jump_times[0], rec.jump_qubits[0]):
                psi = expm(-1j * H_eff * (t - t_prev)) @ psi
                psi = local_to_dense(model.jump_operator(alpha), 3) @ psi
                t_prev = t
            psi = expm(-1j * H_eff * (6.0 - t_prev)) @ psi
            direction = rec.final_states[0]
            assert np.linalg.norm(psi / np.linalg.norm(psi) - direction) < 1e-7
            found += rec.jump_counts[0]
        assert found > 0

    def test_requires_normalized_input(self):
        model = memory_model(1, 1.0)
        with pytest.raises(ValueError):
            run_trajectory(model, Ket(1, [2.0, 0.0]), 1.0, 0)


class TestAverageTrajectories:
    def test_single_trajectory_no_channels(self):
        omega = 0.9
        H = OperatorSum((LocalOperator((1,), omega * SIGMA_X),))
        model = LindbladModel(1, H, ())
        T = 1.2
        rho = average_trajectories(model, basis_ket("1"), T, 1, 7)
        U = expm(-1j * omega * SIGMA_X * T)
        v = U @ basis_ket("1").amplitudes
        assert np.linalg.norm(rho.matrix - np.outer(v, v.conj())) < 1e-9

    def test_hermitian_unit_trace(self):
        model = memory_model(2, 0.7)
        rho = average_trajectories(model, excited(2), 1.0, 64, 9)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
        assert np.linalg.norm(rho.matrix - rho.matrix.conj().T) < 1e-12

    def test_close_to_master_small_sample(self):
        model = memory_model(1, 1.0)
        plus = Ket(1, np.array([1.0, 1.0]) / np.sqrt(2))
        approx = average_trajectories(model, plus, 1.0, 4000, 13)
        exact = integrate_master(model, pure_density(plus), 1.0, 1e-3)
        assert trace_distance(approx, exact) < 0.02

    def test_bitwise_deterministic_ensemble(self):
        model = memory_model(2, [1.0, 0.4])
        a = average_trajectories(model, excited(2), 1.5, 200, 33)
        b = average_trajectories(model, excited(2), 1.5, 200, 33)
        assert np.array_equal(a.matrix, b.matrix)

    def test_every_trajectory_absorbed(self, monkeypatch):
        # At a crossing the norm falls at the rate of the channel weight, so
        # no real model reaches a zero total weight; zero weights force it.
        monkeypatch.setattr(
            dynamics, "_channel_weights",
            lambda model, psi, columns: np.zeros((len(psi), len(model.channels))),
        )
        model, psi0 = memory_model(4, 1.0), code_state(4, 1)
        batch = run_trajectories(model, psi0, 40.0, 3, range(64))
        assert batch.absorbed.all()
        assert not batch.jump_counts.any()
        assert np.abs(np.linalg.norm(batch.final_states, axis=1) - 1.0).max() <= 1e-15
        rho = average_trajectories(model, psi0, 40.0, 64, 3).matrix
        v = psi0.amplitudes
        assert np.abs(rho - np.outer(v, v.conj())).max() <= 1e-15
        assert abs(np.trace(rho) - 1.0) <= 1e-15

    def test_general_hamiltonian_path_matches_master(self):
        omega, kappa = 1.0, 0.9
        H = OperatorSum((LocalOperator((1,), omega * SIGMA_X),))
        model = LindbladModel(1, H, ((1, kappa),))
        approx = average_trajectories(model, basis_ket("1"), 1.1, 3000, 17)
        exact = integrate_master(model, pure_density(basis_ket("1")), 1.1, 1e-3)
        assert trace_distance(approx, exact) < 0.03


def code_state(n: int, seed: int) -> Ket:
    """A random normalized state of the n-qubit jump code."""
    code = jump_code(n, 0.0)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=code.count) + 1j * rng.normal(size=code.count)
    return encode(code, a / np.linalg.norm(a))


def projector_case(name: str):
    """(model, psi0, T, count, seed) of one ensemble, by name."""
    rates = ((1, 1.3), (2, 0.7), (3, 1.0), (4, 1.0))
    if name == "code-n8":
        return memory_model(8, 1.0), code_state(8, 2), 0.5, 300, 5
    if name == "driven-e23-f23":
        # The benchmark's drive. It couples only basis states that differ by
        # a swap of bits 2 and 3, so its states keep exact zeros too.
        from jumpcodes.gates import GateHamiltonian

        drive = GateHamiltonian((("E", (2, 3), 1.0), ("F", (2, 3), -1.0))).to_sum()
        return LindbladModel(4, drive, rates), code_state(4, 1), 1.0, 300, 5
    if name == "driven-sigma-x":
        H = OperatorSum(tuple(LocalOperator((a,), 0.7 * SIGMA_X) for a in range(1, 5)))
        return LindbladModel(4, H, rates), code_state(4, 1), 1.0, 300, 5
    if name == "dense-mixed-rates":
        # Most rows never jump, so one group holds a dense (rows, 256) block.
        model = memory_model(8, list(np.linspace(0.1, 0.3, 8)))
        return model, random_state(8, 4), 0.5, 300, 5
    if name == "count-1100":
        return memory_model(2, [1.0, 0.4]), random_state(2, 3), 1.5, 1100, 33
    raise KeyError(name)


def dense_projector_mean(model, psi0, T, count, seed) -> np.ndarray:
    """Oracle: the projectors summed by one einsum over all rows and all
    2^N x 2^N entries, with no grouping."""
    V = run_trajectories(model, psi0, T, seed, range(count)).final_states.T.copy()
    total = np.einsum("ir,jr->ij", V, V.conj()) / count
    total = 0.5 * (total + total.conj().T)
    return total / np.trace(total).real


class TestGroupedProjectorSum:
    @pytest.mark.parametrize("name", [
        "code-n8", "driven-e23-f23", "driven-sigma-x", "dense-mixed-rates", "count-1100",
    ])
    def test_matches_dense_einsum(self, name):
        model, psi0, T, count, seed = projector_case(name)
        expected = dense_projector_mean(model, psi0, T, count, seed)
        got = average_trajectories(model, psi0, T, count, seed).matrix
        assert np.abs(got - expected).max() <= 1e-13 * np.trace(expected).real

    def test_code_state_decay_leaves_several_patterns(self):
        model, psi0, T, count, seed = projector_case("code-n8")
        final = run_trajectories(model, psi0, T, seed, range(count)).final_states
        assert len(np.unique(final != 0, axis=0)) > 1

    def test_drive_on_every_qubit_leaves_one_dense_support(self):
        model, psi0, T, count, seed = projector_case("driven-sigma-x")
        final = run_trajectories(model, psi0, T, seed, range(count)).final_states
        assert np.count_nonzero(final) == final.size

    @pytest.mark.parametrize("name", ["code-n8", "driven-e23-f23"])
    def test_at_time_zero_is_the_initial_projector(self, name):
        model, psi0, _, _, seed = projector_case(name)
        # 64 rows: summing count equal projectors rounds about count ulps.
        rho = average_trajectories(model, psi0, 0.0, 64, seed).matrix
        v = psi0.amplitudes
        assert np.abs(rho - np.outer(v, v.conj())).max() <= 1e-15

    @pytest.mark.parametrize("T", [0.5, 3.0, 40.0])
    def test_no_decay_keeps_the_initial_projector(self, T):
        psi0 = random_state(4, 8)
        rho = average_trajectories(memory_model(4, 0.0), psi0, T, 64, 3).matrix
        v = psi0.amplitudes
        assert np.abs(rho - np.outer(v, v.conj())).max() <= 1e-15

    def test_blas_thread_count_does_not_change_result(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import jumpcodes

        src = str(Path(jumpcodes.__file__).resolve().parent.parent)
        here = str(Path(__file__).resolve().parent)
        script = (
            "import hashlib\n"
            "from test_dynamics import average_trajectories, projector_case\n"
            "for name in ('code-n8', 'driven-e23-f23', 'dense-mixed-rates'):\n"
            "    rho = average_trajectories(*projector_case(name))\n"
            "    print(name, hashlib.sha256(rho.matrix.tobytes()).hexdigest())\n"
        )
        path = os.pathsep.join(filter(None, [src, here, os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=path,
                         OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                stdout=subprocess.PIPE, text=True,
            )
            for threads in ("1", "2")
        ]
        outputs = [proc.communicate(timeout=300)[0] for proc in runs]
        assert all(proc.returncode == 0 for proc in runs)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") == 3


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2.0 * np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("matrix", [
        np.full((2, 2), np.nan), np.array([[1.0, np.nan], [np.nan, 0.0]]),
    ], ids=["all-nan", "nan-coherence"])
    def test_rejects_nan(self, matrix):
        with pytest.raises(ValueError):
            DensityMatrix(matrix)


def test_dfs_no_jump_flow_is_scalar():
    # within an equal-excitation sector the no-jump propagator is
    # exp(-k kappa t / 2) times the identity
    kappa = 1.3
    model = memory_model(4, kappa)
    code = jump_code(4, 0.0)
    rng = np.random.default_rng(23)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    psi0 = sum(
        coeff * codeword_ket(code, i).amplitudes for i, coeff in enumerate(a)
    )
    H_eff = sum_to_dense(effective_hamiltonian(model), 4)
    for t in (0.2, 1.0, 3.7):
        evolved = expm(-1j * H_eff * t) @ psi0
        scalar = np.exp(-2.0 * kappa * t / 2.0)  # k = 2 excitations
        assert np.linalg.norm(evolved - scalar * psi0) <= 1e-10


def test_no_jump_probability_on_dfs_state():
    kappa, t = 0.8, 0.5
    K0 = no_jump_kraus(memory_model(4, kappa), t)
    psi = codeword_ket(jump_code(4, 0.0), 0).amplitudes
    p = np.linalg.norm(K0 @ psi) ** 2
    assert abs(p - np.exp(-2.0 * kappa * t)) < 1e-12  # k = 2 excitations


def amplitude_damping_product(rho: np.ndarray, n: int, gammas) -> np.ndarray:
    """Oracle: an independent amplitude-damping channel on each qubit, applied
    through its Kraus pair {diag(1, sqrt(1 - g)), sqrt(g) |0><1|}."""
    t = rho.reshape((2,) * (2 * n))
    for a, g in enumerate(gammas, start=1):
        row, col = n - a, 2 * n - a  # qubit a owns bit 2**(a-1)
        acc = np.zeros_like(t)
        for K in (np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]]),
                  np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])):
            u = np.moveaxis(np.tensordot(K, t, axes=([1], [row])), 0, row)
            acc += np.moveaxis(np.tensordot(K.conj(), u, axes=([1], [col])), 0, col)
        t = acc
    return t.reshape(2**n, 2**n)


class TestExactReferenceChannel:
    """With H = 0 the memory-model channel up to time T is the product of
    amplitude-damping maps with gamma_a = 1 - exp(-kappa_a T) (Nielsen &
    Chuang, section 8.3.5): an exact reference for RK4 and for the ensemble."""

    N, RATES, T = 3, [1.0, 0.7, 0.4], 1.3

    def case(self):
        rng = np.random.default_rng(1)
        amps = rng.normal(size=2**self.N) + 1j * rng.normal(size=2**self.N)
        psi = Ket(self.N, amps / np.linalg.norm(amps))
        gammas = [1.0 - np.exp(-k * self.T) for k in self.RATES]
        exact = amplitude_damping_product(pure_density(psi).matrix, self.N, gammas)
        return memory_model(self.N, self.RATES), psi, exact

    @pytest.mark.parametrize("dt, bound", [(1e-2, 1e-9), (1e-3, 1e-12)])
    def test_rk4_matches_exact_channel(self, dt, bound):
        model, psi, exact = self.case()
        rho = integrate_master(model, pure_density(psi), self.T, dt).matrix
        assert np.abs(rho - exact).max() <= bound

    def test_trajectory_ensemble_matches_exact_channel(self):
        model, psi, exact = self.case()
        count = 4000
        rho = average_trajectories(model, psi, self.T, count, 11)
        assert trace_distance(rho, DensityMatrix(exact)) <= 3.0 / np.sqrt(count)


def test_records_csv_format():
    model = memory_model(2, 1.0)
    csv = records_to_csv(run_trajectories(model, excited(2), 5.0, 1, range(3)))
    lines = csv.strip().split("\n")
    assert lines[0] == "trajectory_id,t,alpha"
    for line in lines[1:]:
        tid, t, alpha = line.split(",")
        assert int(tid) in (0, 1, 2)
        assert float(t) > 0
        assert int(alpha) in (1, 2)


def test_records_csv_is_the_batch_jump_log_exactly():
    model = memory_model(3, [1.0, 0.6, 1.7])
    batch = run_trajectories(model, excited(3), 2.0, 8, range(25))
    lines = records_to_csv(batch).splitlines()
    assert lines[0] == "trajectory_id,t,alpha"
    assert len(lines) - 1 == batch.jump_counts.sum() > 25
    parsed = [line.split(",") for line in lines[1:]]
    ids = [int(tid) for tid, _, _ in parsed]
    expected = [row for row, n in enumerate(batch.jump_counts) for _ in range(n)]
    assert ids == expected
    times = np.array([float(t) for _, t, _ in parsed])
    qubits = [int(alpha) for _, _, alpha in parsed]
    mask = np.arange(batch.jump_times.shape[1]) < batch.jump_counts[:, None]
    assert times.tobytes() == batch.jump_times[mask].tobytes()
    assert qubits == batch.jump_qubits[mask].tolist()
    empty = run_trajectories(model, excited(3), 0.0, 8, range(5))
    assert records_to_csv(empty) == "trajectory_id,t,alpha\n"


def test_horizon_must_be_non_negative():
    model, psi = memory_model(2, 1.0), excited(2)
    with pytest.raises(ValueError, match="horizon must be finite and non-negative"):
        run_trajectories(model, psi, -1.0, 0, range(3))
    with pytest.raises(ValueError, match="horizon must be finite and non-negative"):
        average_trajectories(model, psi, -1.0, 3, 0)
    batch = run_trajectories(model, psi, 0.0, 0, range(3))
    assert batch.jump_counts.tolist() == [0, 0, 0]
    assert np.array_equal(batch.final_states, np.tile(psi.amplitudes, (3, 1)))


def random_state(n: int, seed: int) -> Ket:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return Ket(n, v / np.linalg.norm(v))


class TestRunTrajectories:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_single_trajectory_is_its_batch_row(self, n, mixed):
        model = memory_model(n, list(np.linspace(0.4, 1.6, n)) if mixed else 1.0)
        psi = random_state(n, n)
        ids = [3, 0, 7, 1, 12, 5]
        batch = run_trajectories(model, psi, 2.0, 41, ids)
        for row, traj_id in enumerate(ids):
            rec = run_trajectory(model, psi, 2.0, 41, trajectory_id=traj_id)
            n = batch.jump_counts[row]
            assert rec.jump_times[0].tobytes() == batch.jump_times[row, :n].tobytes()
            assert np.array_equal(rec.jump_qubits[0], batch.jump_qubits[row, :n])
            assert rec.final_states[0].tobytes() == batch.final_states[row].tobytes()
            assert rec.absorbed[0] == batch.absorbed[row]
        assert batch.jump_counts.sum() > 0

    def test_driven_single_trajectory_is_its_batch_row(self):
        H = OperatorSum((LocalOperator((1,), 0.8 * SIGMA_X),))
        model = LindbladModel(2, H, ((1, 1.0), (2, 0.6)))
        batch = run_trajectories(model, excited(2), 1.5, 5, range(6))
        for traj_id, n in enumerate(batch.jump_counts):
            rec = run_trajectory(model, excited(2), 1.5, 5, trajectory_id=traj_id)
            assert np.array_equal(rec.jump_times[0], batch.jump_times[traj_id, :n])
            assert np.array_equal(rec.jump_qubits[0], batch.jump_qubits[traj_id, :n])
            assert np.array_equal(rec.final_states[0], batch.final_states[traj_id])

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        model = memory_model(2, [1.0, 0.4])
        psi = random_state(2, 3)
        batch = run_trajectories(model, psi, 1.5, 33, range(20))
        rho = average_trajectories(model, psi, 1.5, 1100, 33)
        monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", 3)
        small = run_trajectories(model, psi, 1.5, 33, range(20))
        assert small.jump_times.tobytes() == batch.jump_times.tobytes()
        assert np.array_equal(small.jump_qubits, batch.jump_qubits)
        assert small.final_states.tobytes() == batch.final_states.tobytes()
        assert average_trajectories(model, psi, 1.5, 1100, 33).matrix.tobytes() == (
            rho.matrix.tobytes()
        )


def round_case(name: str):
    """(model, psi0, T) of one sampler case, by name."""
    if name == "code-mismatch":
        return memory_model(8, [1.2, 0.8, 1.0, 1.1, 0.9, 1.0, 1.0, 1.05]), code_state(8, 4), 1.5
    if name == "full-support":
        return memory_model(8, list(np.linspace(0.6, 1.4, 8))), random_state(8, 5), 1.0
    if name == "driven":
        from jumpcodes.gates import GateHamiltonian

        drive = GateHamiltonian((("E", (2, 3), 1.0), ("F", (2, 3), -1.0))).to_sum()
        return LindbladModel(4, drive, ((1, 1.3), (2, 0.7), (3, 1.0), (4, 1.0))), code_state(4, 1), 2.0
    raise KeyError(name)


def dense_trajectory(model, psi0: Ket, T: float, seed: int, traj_id: int):
    """Oracle: one trajectory as an event loop on its full 2^N state, with the
    jump operators applied as local operators and the channel drawn by
    ``Generator.choice``. Returns (jump times, jump qubits, final state)."""
    from jumpcodes.dynamics import trajectory_rng
    from jumpcodes.states import apply_local

    rng, flow, one = trajectory_rng(seed, traj_id), dynamics._NoJumpRows(model), np.arange(1)
    psi, t, times, qubits = psi0.amplitudes, 0.0, [], []
    while True:
        u = rng.random()
        flow.start(psi[None, :])
        remaining = np.array([T - t])
        if u == 0 or flow.norm_sq(one)(remaining)[0] > u:
            return times, qubits, flow.unit_state(one, remaining)[0]
        s = dynamics._bisect_jump_times(flow, one, remaining, np.array([u]))
        pre = flow.unit_state(one, s)[0]
        w = jump_channel_weights(model, Ket(psi0.n_qubits, pre))
        if w.sum() <= 0:
            return times, qubits, pre
        alpha = model.channels[rng.choice(len(w), p=w / w.sum())][0]
        psi = apply_local(model.jump_operator(alpha), Ket(psi0.n_qubits, pre)).amplitudes
        psi = psi / np.linalg.norm(psi)
        t += s[0]
        times.append(t)
        qubits.append(alpha)
        if t >= T:
            return times, qubits, psi


class TestRoundColumns:
    """Round k of the sampler works on the strings k jumps can reach."""

    @pytest.mark.parametrize("name", ["code-mismatch", "full-support", "driven"])
    def test_rows_are_bitwise_the_same_in_any_batch(self, name, monkeypatch):
        model, psi0, T = round_case(name)
        ids = range(40)
        full = run_trajectories(model, psi0, T, 29, ids)
        assert full.jump_counts.max() >= 2
        parts = [run_trajectories(model, psi0, T, 29, ids[a:b]) for a, b in ((0, 13), (13, 40))]
        monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", 7)
        chunked = run_trajectories(model, psi0, T, 29, ids)
        rows = [(part, r) for part in parts for r in range(len(part.jump_qubits))]
        for row, (part, r) in enumerate(rows):
            n = full.jump_counts[row]
            for other, i in ((part, r), (chunked, row)):
                assert other.jump_times[i, :n].tobytes() == full.jump_times[row, :n].tobytes()
                assert np.array_equal(other.jump_qubits[i, :n], full.jump_qubits[row, :n])
                assert other.final_states[i].tobytes() == full.final_states[row].tobytes()

    @pytest.mark.parametrize("name", ["code-mismatch", "full-support", "driven"])
    def test_rows_match_a_dense_event_loop(self, name):
        model, psi0, T = round_case(name)
        batch = run_trajectories(model, psi0, T, 31, range(25))
        assert batch.jump_counts.max() >= 2
        for row in range(25):
            times, qubits, final = dense_trajectory(model, psi0, T, 31, row)
            n = batch.jump_counts[row]
            assert batch.jump_qubits[row, :n].tolist() == qubits
            assert (np.abs(batch.jump_times[row, :n] - times) <= 1e-14 * np.array(times)).all()
            assert np.abs(batch.final_states[row] - final).max() <= 1e-14

    def test_a_jump_at_the_horizon_ends_on_the_lowered_strings(self, monkeypatch):
        # u at the squared norm at T makes ln(S/u)/r round to T or past it:
        # the row jumps at T exactly and ends on the next round's strings.
        model, psi0 = memory_model(4, 1.0), code_state(4, 1)
        flow, one, at_horizon = dynamics._NoJumpRows(model), np.arange(1), 0
        flow.start(psi0.amplitudes[None, :])
        for T in np.linspace(0.05, 3.0, 40):
            u = flow.norm_sq(one)(np.array([T]))[0]
            monkeypatch.setattr(dynamics, "_philox_uniforms",
                                lambda keys, blocks: np.tile([u, 0.5, 0.5, 0.5], (len(keys), 1)))
            batch = run_trajectories(model, psi0, T, 3, range(1))
            if batch.jump_counts[0] == 1 and batch.jump_times[0, 0] == T:
                at_horizon += 1
                alpha = model.jump_operator(batch.jump_qubits[0, 0])
                lowered = local_to_dense(alpha, 4) @ psi0.amplitudes
                expected = lowered / np.linalg.norm(lowered)
                assert np.abs(batch.final_states[0] - expected).max() <= 1e-14
        assert at_horizon > 0

    def test_code_rows_work_on_their_excitation_sector(self, monkeypatch):
        # A code state sits in the weight-4 sector, and after k jumps in the
        # weight 4 - k sector: C(8, 4 - k) strings in round k.
        from math import comb

        widths = []
        start = dynamics._NoJumpRows.start

        def recording_start(flow, psi, *columns):
            widths.append(psi.shape[1])
            start(flow, psi, *columns)

        monkeypatch.setattr(dynamics._NoJumpRows, "start", recording_start)
        batch = run_trajectories(memory_model(8, 1.0), code_state(8, 3), 20.0, 5, range(50))
        assert widths == [comb(8, 4 - k) for k in range(5)]
        assert (batch.jump_counts == 4).all()
        weights = [bin(x).count("1") for x in range(256)]
        for state, n in zip(batch.final_states, batch.jump_counts):
            assert {weights[x] for x in np.flatnonzero(state)} == {4 - n}


class TestNoJumpFlow:
    """The driven no-jump flow against exp(-i H_eff t) applied row by row."""

    def assert_matches_expm(self, model, eigenbasis):
        flow = dynamics._NoJumpRows(model)
        assert flow.eigenbasis == eigenbasis
        psi = np.array([random_state(model.n_qubits, seed).amplitudes for seed in range(6)])
        t = np.array([0.0, 1e-6, 0.3, 1.0, 2.2, 3.0])
        flow.start(psi)
        got = flow.state(np.arange(6), t)
        h_eff = sum_to_dense(effective_hamiltonian(model), model.n_qubits)
        for row, (tr, p) in enumerate(zip(t, psi)):
            assert np.abs(got[row] - expm(-1j * tr * h_eff) @ p).max() < 1e-12
        # A subset of the rows, at other times, as bisection evaluates them.
        rows, times = np.array([4, 1]), np.array([0.7, 2.9])
        expected = [
            np.linalg.norm(expm(-1j * tr * h_eff) @ psi[r]) ** 2 for tr, r in zip(times, rows)
        ]
        assert np.abs(flow.norm_sq(rows)(times) - expected).max() < 1e-12

    @pytest.mark.parametrize("case", ["diagonal", "eigenbasis", "expm"])
    def test_underflowing_rows_are_rescaled(self, case):
        # Norms near e^-1000 at T: the normalized state must match the flow
        # renormalized after each of ten steps, none of which underflows.
        rates = ((1, 1300.0), (2, 700.0), (3, 1000.0), (4, 1000.0))
        if case == "diagonal":
            model, T = LindbladModel(4, None, rates), 1.0
        elif case == "eigenbasis":
            from jumpcodes.gates import GateHamiltonian

            drive = GateHamiltonian((("E", (2, 3), 300.0), ("F", (2, 3), -300.0))).to_sum()
            model, T = LindbladModel(4, drive, rates), 1.0
        else:  # the exceptional point, scaled up: H_eff = 250 sigma_x - 500 i n
            H = OperatorSum((LocalOperator((1,), 250.0 * SIGMA_X),))
            model, T = LindbladModel(1, H, ((1, 1000.0),)), 8.0
        state = random_state if case == "expm" else code_state  # no zero-rate string
        psi = np.array([state(model.n_qubits, seed).amplitudes for seed in range(3)])
        rows = np.arange(len(psi))
        flow = dynamics._NoJumpRows(model)
        assert flow.diagonal == (case == "diagonal")
        assert flow.diagonal or flow.eigenbasis == (case == "eigenbasis")
        flow.start(psi)
        assert (row_norms(flow.state(rows, np.full(3, T))) < 1e-150).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = flow.unit_state(rows, np.full(3, T))
            stepped = psi
            for _ in range(10):
                flow.start(stepped)
                stepped = flow.unit_state(rows, np.full(3, T / 10))
        assert np.abs(got - stepped).max() < 1e-9

    def test_code_preserving_drive_uses_the_eigenbasis(self):
        from jumpcodes.gates import GateHamiltonian

        drive = GateHamiltonian((("E", (2, 3), 1.0), ("F", (2, 3), -1.0))).to_sum()
        model = LindbladModel(4, drive, ((1, 1.3), (2, 0.7), (3, 1.0), (4, 1.0)))
        self.assert_matches_expm(model, eigenbasis=True)

    def test_exceptional_point_takes_the_expm_path(self):
        # H_eff = 0.25 sigma_x - (i/2) n has one eigenvector at kappa = 1.
        H = OperatorSum((LocalOperator((1,), 0.25 * SIGMA_X),))
        self.assert_matches_expm(LindbladModel(1, H, ((1, 1.0),)), eigenbasis=False)


class TestJumpTimeBracket:
    """Jump times bisected from each row's decay-rate bracket."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_equal_rate_code_rows_take_the_closed_form(self, n, monkeypatch):
        kappa = 0.7
        evals = {"end": 0, "bisection": 0}
        in_bisection = []
        rounds = []
        norm_sq, bisect = dynamics._NoJumpRows.norm_sq, dynamics._bisect_jump_times

        def counting_norm_sq(flow, rows):
            f = norm_sq(flow, rows)

            def evaluate(t):
                evals["bisection" if in_bisection else "end"] += 1
                return f(t)

            return evaluate

        def recording_bisect(flow, rows, horizon, threshold):
            in_bisection.append(True)
            s = bisect(flow, rows, horizon, threshold)
            in_bisection.pop()
            rounds.append((flow.weights[rows], flow.rates, horizon, threshold, s))
            return s

        monkeypatch.setattr(dynamics._NoJumpRows, "norm_sq", counting_norm_sq)
        monkeypatch.setattr(dynamics, "_bisect_jump_times", recording_bisect)
        batch = run_trajectories(memory_model(n, kappa), code_state(n, 2), 3.0, 17, range(300))
        assert len(rounds) >= 2 and batch.jump_counts.max() == len(rounds)
        # The norm is evaluated once per round for the end test, never inside.
        assert evals["bisection"] == 0
        assert evals["end"] in (len(rounds), len(rounds) + 1)
        for k, (weights, rates, horizon, u, s) in enumerate(rounds):
            # After k jumps every row sits in the weight n/2 - k sector.
            support_rates = np.where(weights > 0, rates, np.nan)
            assert np.array_equal(np.nanmin(support_rates, 1), np.nanmax(support_rates, 1))
            r = np.nanmax(support_rates, 1)
            assert np.allclose(r, kappa * (n // 2 - k), rtol=1e-15, atol=0)
            closed_form = np.log(weights.sum(axis=1) / u) / r
            assert np.abs(s - closed_form).max() <= 1e-13 * closed_form.min()
            assert ((s > 0) & (s <= horizon)).all()

    def test_mixed_rate_rows_land_within_tolerance_of_the_crossing(self):
        from scipy.optimize import brentq

        model = memory_model(4, [1.3, 0.7, 1.0, 0.4])
        rates = model.decay_rates()
        psi = np.array([random_state(4, seed).amplitudes for seed in range(24)])
        psi[::2, 0] = 0.0  # half the rows without the zero-rate ground state
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        flow = dynamics._NoJumpRows(model)
        flow.start(psi)
        rows, horizon = np.arange(len(psi)), np.full(len(psi), 3.0)
        end = flow.norm_sq(rows)(horizon)
        u = end + (1.0 - end) * np.random.default_rng(5).uniform(0.05, 0.95, len(psi))
        s = dynamics._bisect_jump_times(flow, rows, horizon, u)
        weights = np.abs(psi) ** 2
        crossing = np.array([
            brentq(lambda t: weights[r] @ np.exp(-rates * t) - u[r], 0.0, 3.0,
                   xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for r in rows
        ])
        tol = dynamics.JUMP_TIME_REL_TOL * np.maximum(crossing, 1.0)
        assert (np.abs(s - crossing) <= tol).all()
        # Each bracket holds the crossing and is narrower than (0, horizon).
        lo, hi = flow.bracket(rows, horizon, u)
        assert (lo > 0).all() and (hi < horizon).any()
        assert ((lo <= crossing + tol) & (crossing - tol <= hi)).all()

    @pytest.mark.parametrize("case", ["zero rate in support", "u above weight",
                                      "u above weight, dark"])
    def test_edge_rows_give_times_in_horizon_without_warnings(self, case, monkeypatch):
        # Every round draws the same (threshold u, channel) pair.
        u = 0.6 if case == "zero rate in support" else 1 - 2**-40
        monkeypatch.setattr(
            dynamics, "_philox_uniforms",
            lambda keys, blocks: np.tile([u, 0.5, u, 0.5], (len(keys), len(blocks))),
        )
        if case == "zero rate in support":
            ket = (basis_ket("0000").amplitudes + basis_ket("0011").amplitudes) / np.sqrt(2)
        else:  # squared norm 1 - 1e-10, below u
            start = basis_ket("0000") if case.endswith("dark") else code_state(4, 1)
            ket = start.amplitudes * np.sqrt(1 - 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_trajectories(memory_model(4, 1.0), Ket(4, ket), 3.0, 3, range(4))
        times = batch.jump_times
        assert (((times > 0) & (times <= 3.0)) | np.isnan(times)).all()
        assert (np.diff(times, axis=1) > 0)[~np.isnan(times[:, 1:])].all()
        if case == "zero rate in support":
            # 0.5 + 0.5 exp(-2t) crosses 0.6 at ln(5)/2; then rate 1 alone.
            expected = [np.log(5) / 2, np.log(5) / 2 + np.log(1 / 0.6)]
            assert np.allclose(times, expected, rtol=1e-10, atol=0)
        elif case == "u above weight":
            assert (batch.jump_counts == 2).all()
        else:  # the ground state has no channel weight
            assert batch.absorbed.all() and not batch.jump_counts.any()

    def test_threshold_at_the_end_norm_stays_within_horizon(self):
        # u equal to the squared norm at the horizon jumps; ln(S/u)/r may
        # round past the horizon, and the time must not.
        flow = dynamics._NoJumpRows(memory_model(4, 1.0))
        horizon = np.linspace(0.05, 3.0, 400)
        flow.start(np.tile(code_state(4, 1).amplitudes, (len(horizon), 1)))
        rows = np.arange(len(horizon))
        u = flow.norm_sq(rows)(horizon)
        assert (np.log(np.add.reduce(flow.weights, axis=1) / u) / 2.0 > horizon).any()
        s = dynamics._bisect_jump_times(flow, rows, horizon, u)
        assert ((s > 0) & (s <= horizon)).all()

    @pytest.mark.parametrize("kappas", [1000.0, [1000.0, 900.0, 1100.0, 1000.0]])
    def test_zero_threshold_never_jumps(self, kappas, monkeypatch):
        # Every draw is 0, so every threshold is 0: its waiting time is
        # infinite. The norm at T underflows (e^-2000 at equal rates), and
        # the final state is the start state on its slowest strings.
        monkeypatch.setattr(
            dynamics, "_philox_uniforms",
            lambda keys, blocks: np.zeros((len(keys), 4 * len(blocks))),
        )
        model, psi = memory_model(4, kappas), code_state(4, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_trajectories(model, psi, 1.0, 3, range(5))
        assert not batch.jump_counts.any() and not batch.absorbed.any()
        assert np.isfinite(batch.final_states).all()
        rates = model.decay_rates()
        slowest = rates == rates[psi.amplitudes != 0].min()
        expected = psi.amplitudes * slowest / np.linalg.norm(psi.amplitudes * slowest)
        assert np.abs(batch.final_states - expected).max() < 1e-12

    def test_zero_threshold_bisects_from_zero_to_horizon(self):
        # u = 0 is crossed only where the norm underflows to 0. The bisection
        # alone: run_trajectories never bisects a zero threshold.
        flow = dynamics._NoJumpRows(memory_model(4, 1000.0))
        flow.start(code_state(4, 1).amplitudes[None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = flow.bracket(np.arange(1), np.ones(1), np.zeros(1))
            s = dynamics._bisect_jump_times(flow, np.arange(1), np.ones(1), np.zeros(1))
        assert (lo, hi) == (0.0, 1.0)
        assert 0 < s[0] <= 1.0 and flow.norm_sq(np.arange(1))(s)[0] < 1e-300


def test_trajectory_stream_is_philox_keyed_by_seed_sequence():
    from jumpcodes.dynamics import trajectory_rng

    for seed, traj_id, stream in ((0, 0, 0), (7, 1, 1), (2**40, 10**9, 0)):
        key = np.random.SeedSequence((seed, traj_id, stream)).generate_state(2, np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(8)
        assert np.array_equal(trajectory_rng(seed, traj_id, stream).random(8), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@example(seed=2**80, extra=[2**64 - 1], stream=1, first=3, count=2)
@example(seed=0, extra=[], stream=0, first=0, count=9)
@given(
    seed=st.integers(0, 2**80),
    extra=st.lists(st.integers(0, 2**64 - 1), max_size=4),
    stream=st.sampled_from([0, 1]),
    first=st.integers(0, 10),
    count=st.integers(1, 9),
)
def test_batch_streams_match_numpy_bit_for_bit(seed, extra, stream, first, count):
    """Keys and draws computed for a batch of ids, whose ids take one or two
    32-bit entropy words, are SeedSequence -> Philox -> random(), and no
    unsigned overflow warning escapes."""
    from jumpcodes.dynamics import _philox_uniforms, _stream_keys

    ids = [0, 2**32 - 1, 2**32, *extra]
    keys = _stream_keys(seed, ids, stream)
    blocks = range(first // 4 + 1, (first + count - 1) // 4 + 2)
    draws = _philox_uniforms(keys, blocks)[:, first % 4 : first % 4 + count]
    for row, traj_id in enumerate(ids):
        seq = np.random.SeedSequence((seed, traj_id, stream))
        assert np.array_equal(keys[row], seq.generate_state(2, np.uint64))
        expected = np.random.Generator(np.random.Philox(seq)).random(first + count)
        assert np.array_equal(draws[row], expected[first:])


def test_no_generator_is_built_per_trajectory(monkeypatch):
    from jumpcodes.qec import ExperimentConfig, run_experiment

    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(dynamics.np.random, "Philox", counting_philox)
    run_trajectories(memory_model(2, 1.0), excited(2), 2.0, 5, range(1000))
    assert built == []
    config = ExperimentConfig(4, 0.0, [1.0], 3.0, 300, seed=9, p_miss=0.3)
    assert run_experiment(config)[2]["total_jumps"] > 300
    assert len(built) == 1  # the logical state's normal() draw


def test_run_experiment_builds_no_ket_per_trajectory(monkeypatch):
    from jumpcodes.qec import ExperimentConfig, run_experiment

    built = []
    post_init = Ket.__post_init__

    def counting_post_init(self):
        built.append(self.n_qubits)
        post_init(self)

    monkeypatch.setattr(Ket, "__post_init__", counting_post_init)
    counts = []
    for trajectories in (10, 1000):
        built.clear()
        run_experiment(ExperimentConfig(4, 0.0, [1.0], 3.0, trajectories, seed=9))
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_stream_keys_reject_negative_inputs_and_ids_past_64_bits():
    from jumpcodes.dynamics import _stream_keys

    for seed, ids, stream in ((-1, [0], 0), (0, [-1], 0), (0, [2**64], 0), (0, [1], -1)):
        with pytest.raises(ValueError, match="trajectory ids"):
            _stream_keys(seed, ids, stream)


def test_rounds_read_each_rows_stream_in_order():
    """Round k of trajectory i uses draws 2k and 2k + 1 of trajectory_rng(seed, i):
    a threshold, then a channel pick. From |111> under pure decay, each round's
    jump time and channel follow from those two draws in closed form."""
    from jumpcodes.dynamics import trajectory_rng

    rates = np.array([1.0, 0.7, 0.4])
    ids = [0, 3, 2**32 + 5, 99]
    batch = run_trajectories(memory_model(3, list(rates)), basis_ket("111"), 50.0, 21, ids)
    for row, traj_id in enumerate(ids):
        rng = trajectory_rng(21, traj_id)
        excited, t = np.ones(3, dtype=bool), 0.0
        for k in range(3):
            threshold, pick = rng.random(2)
            t += -np.log(threshold) / rates[excited].sum()
            cdf = np.cumsum(rates[excited] / rates[excited].sum())
            qubit = np.flatnonzero(excited)[np.count_nonzero(cdf / cdf[-1] <= pick)]
            excited[qubit] = False
            assert batch.jump_qubits[row, k] == qubit + 1
            assert abs(batch.jump_times[row, k] - t) <= 1e-8 * t
        assert batch.jump_counts[row] == 3

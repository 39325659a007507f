import numpy as np
import pytest
from scipy.linalg import expm

from jumpcodes import dynamics
from jumpcodes.codes import codeword_ket, dfs_basis, jump_code
from jumpcodes.dynamics import (
    DensityMatrix,
    KrausSet,
    LindbladModel,
    apply_operation,
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
    sum_to_dense,
)


def excited(n: int) -> Ket:
    return basis_ket("1" * n)


class TestModelValidation:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladModel(2, None, ((1, -0.1),))

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
        assert np.allclose(K.matrix, np.eye(8))

    def test_dfs_eigenvalue(self):
        kappa, t = 0.9, 0.7
        K = no_jump_kraus(memory_model(4, kappa), t).matrix
        for s in dfs_basis(4, 2).basis:
            v = basis_ket(s).amplitudes
            assert np.allclose(K @ v, np.exp(-kappa * t) * v)

    def test_semigroup(self):
        model = memory_model(3, [0.3, 1.0, 2.2])
        K1 = no_jump_kraus(model, 0.4).matrix
        K2 = no_jump_kraus(model, 1.1).matrix
        K12 = no_jump_kraus(model, 1.5).matrix
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

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            integrate_master(memory_model(1, 1.0), pure_density(basis_ket("1")), 1.0, 0.0)


class TestRunTrajectory:
    def test_dark_state_never_jumps(self):
        model = memory_model(3, 2.0)
        rec = run_trajectory(model, basis_ket("000"), 5.0, 11)
        assert rec.jumps == []
        assert np.allclose(rec.final_state.amplitudes, basis_ket("000").amplitudes)

    def test_deterministic_per_seed(self):
        model = memory_model(2, 1.0)
        a = run_trajectory(model, excited(2), 4.0, 3, trajectory_id=5)
        b = run_trajectory(model, excited(2), 4.0, 3, trajectory_id=5)
        assert a.jumps == b.jumps
        assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)

    def test_channel_weights_uniform_on_codeword(self):
        kappa = 1.0
        model = memory_model(4, kappa)
        psi = codeword_ket(jump_code(4, 0.0), 1)
        w = jump_channel_weights(model, psi)
        assert np.allclose(w, kappa / 2.0)

    def test_record_weight_matches_operator_product(self):
        # the running weight must equal the squared norm of the unnormalized
        # state built from the record by explicit operator products
        kappa = [1.0, 0.6, 1.7]
        model = memory_model(3, kappa)
        H_eff = sum_to_dense(effective_hamiltonian(model), 3)
        found = 0
        for traj in range(30):
            rec = run_trajectory(model, excited(3), 6.0, 21, trajectory_id=traj)
            psi = excited(3).amplitudes
            t_prev = 0.0
            for t, alpha in rec.jumps:
                psi = expm(-1j * H_eff * (t - t_prev)) @ psi
                psi = local_to_dense(model.jump_operator(alpha), 3) @ psi
                t_prev = t
            psi = expm(-1j * H_eff * (6.0 - t_prev)) @ psi
            assert abs(rec.weight - np.linalg.norm(psi) ** 2) < 1e-9
            direction = rec.final_state.amplitudes
            assert np.linalg.norm(psi / np.linalg.norm(psi) - direction) < 1e-7
            found += len(rec.jumps)
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

    def test_general_hamiltonian_path_matches_master(self):
        omega, kappa = 1.0, 0.9
        H = OperatorSum((LocalOperator((1,), omega * SIGMA_X),))
        model = LindbladModel(1, H, ((1, kappa),))
        approx = average_trajectories(model, basis_ket("1"), 1.1, 3000, 17)
        exact = integrate_master(model, pure_density(basis_ket("1")), 1.1, 1e-3)
        assert trace_distance(approx, exact) < 0.03


class TestApplyOperation:
    def test_identity_only(self):
        rho = pure_density(basis_ket("0"))
        out = apply_operation(KrausSet((np.eye(2),), complete=True), rho)
        assert len(out) == 1
        p, r = out[0]
        assert abs(p - 1.0) < 1e-12
        assert np.allclose(r.matrix, rho.matrix)

    def test_amplitude_damping_complete(self):
        kappa, t = 1.0, 0.6
        p_decay = 1.0 - np.exp(-kappa * t)
        K0 = np.diag([1.0, np.sqrt(1.0 - p_decay)])
        K1 = np.sqrt(p_decay) * LOWER
        plus = Ket(1, np.array([1.0, 1.0]) / np.sqrt(2))
        out = apply_operation(KrausSet((K0, K1), complete=True), pure_density(plus))
        assert abs(sum(p for p, _ in out) - 1.0) < 1e-12

    def test_no_jump_probability_on_dfs_state(self):
        kappa, t = 0.8, 0.5
        model = memory_model(4, kappa)
        K0 = no_jump_kraus(model, t).matrix
        psi = codeword_ket(jump_code(4, 0.0), 0)
        out = apply_operation(KrausSet((K0,)), pure_density(psi))
        p, _ = out[0]
        assert abs(p - np.exp(-2.0 * kappa * t)) < 1e-12  # k = 2 excitations

    def test_pure_state_stays_pure(self):
        kappa, t = 1.0, 0.4
        p_decay = 1.0 - np.exp(-kappa * t)
        K0 = np.diag([1.0, np.sqrt(1.0 - p_decay)])
        K1 = np.sqrt(p_decay) * LOWER
        plus = Ket(1, np.array([1.0, 1.0]) / np.sqrt(2))
        for p, r in apply_operation(KrausSet((K0, K1), complete=True), pure_density(plus)):
            eigs = np.linalg.eigvalsh(r.matrix)
            assert eigs.max() > 1.0 - 1e-9  # rank one

    def test_incomplete_flagged_complete_rejected(self):
        with pytest.raises(ValueError):
            KrausSet((0.5 * np.eye(2),), complete=True)


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2.0 * np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))


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


def test_density_to_json_pairs():
    from jumpcodes.dynamics import density_to_json

    rho = pure_density(basis_ket("01"))
    data = density_to_json(rho)
    assert data[1][1] == [1.0, 0.0]
    assert data[0][0] == [0.0, 0.0]


def test_records_csv_format():
    model = memory_model(2, 1.0)
    recs = [run_trajectory(model, excited(2), 5.0, 1, trajectory_id=i) for i in range(3)]
    csv = records_to_csv(recs)
    lines = csv.strip().split("\n")
    assert lines[0] == "trajectory_id,t,alpha"
    for line in lines[1:]:
        tid, t, alpha = line.split(",")
        assert int(tid) in (0, 1, 2)
        assert float(t) > 0
        assert int(alpha) in (1, 2)


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
        batch = run_trajectories(model, psi, 2.0, 41, ids).records()
        for got, traj_id in zip(batch, ids):
            rec = run_trajectory(model, psi, 2.0, 41, trajectory_id=traj_id)
            assert rec.jumps == got.jumps
            assert rec.final_state.amplitudes.tobytes() == got.final_state.amplitudes.tobytes()
            assert rec.weight == got.weight
            assert rec.absorbed == got.absorbed
        assert sum(len(r.jumps) for r in batch) > 0

    def test_driven_single_trajectory_is_its_batch_row(self):
        H = OperatorSum((LocalOperator((1,), 0.8 * SIGMA_X),))
        model = LindbladModel(2, H, ((1, 1.0), (2, 0.6)))
        batch = run_trajectories(model, excited(2), 1.5, 5, range(6)).records()
        for traj_id, got in enumerate(batch):
            rec = run_trajectory(model, excited(2), 1.5, 5, trajectory_id=traj_id)
            assert rec.jumps == got.jumps
            assert np.array_equal(rec.final_state.amplitudes, got.final_state.amplitudes)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        model = memory_model(2, [1.0, 0.4])
        psi = random_state(2, 3)
        batch = run_trajectories(model, psi, 1.5, 33, range(20))
        rho = average_trajectories(model, psi, 1.5, 1100, 33)
        monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", 3)
        small = run_trajectories(model, psi, 1.5, 33, range(20))
        assert [r.jumps for r in small.records()] == [r.jumps for r in batch.records()]
        assert small.final_states.tobytes() == batch.final_states.tobytes()
        assert average_trajectories(model, psi, 1.5, 1100, 33).matrix.tobytes() == (
            rho.matrix.tobytes()
        )


def test_trajectory_stream_is_philox_keyed_by_seed_sequence():
    from jumpcodes.dynamics import trajectory_rng

    for seed, traj_id, stream in ((0, 0, 0), (7, 1, 1), (2**40, 10**9, 0)):
        key = np.random.SeedSequence((seed, traj_id, stream)).generate_state(2, np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(8)
        assert np.array_equal(trajectory_rng(seed, traj_id, stream).random(8), expected)

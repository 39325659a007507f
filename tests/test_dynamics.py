import tracemalloc
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
        H = (LocalOperator((1,), SIGMA_X),)
        model = LindbladModel(2, H, ())
        assert effective_hamiltonian(model).tobytes() == sum_to_dense(H, 2).tobytes()

    def test_drive_forms(self):
        # A drive is a tuple of local terms; None and () are no drive.
        from jumpcodes.gates import GateHamiltonian

        gh = GateHamiltonian((("E", (2, 3), 1.0), ("F", (2, 3), -1.0)))
        rates = ((1, 0.4), (2, 1.0), (3, 0.7), (4, 1.3))
        driven = LindbladModel(4, gh.to_sum(), rates)
        decay = 0.5j * np.diag(driven.decay_rates())
        assert isinstance(driven.hamiltonian, tuple) and len(driven.hamiltonian) == 2
        assert effective_hamiltonian(driven).tobytes() == (gh.matrix(4) - decay).tobytes()
        with pytest.raises(ValueError, match="H = 0 memory case"):
            no_jump_kraus(driven, 1.0)
        for none in (None, ()):
            model = LindbladModel(4, none, rates)
            assert model.hamiltonian == ()
            want = np.full((16, 16), 0j) - decay
            assert effective_hamiltonian(model).tobytes() == want.tobytes()
            assert no_jump_kraus(model, 1.0).tobytes() == (
                np.diag(np.exp(-0.5 * model.decay_rates() * 1.0)).tobytes()
            )

    def test_memory_single_channel(self):
        model = LindbladModel(1, None, ((1, 0.7),))
        M = effective_hamiltonian(model)
        assert np.allclose(M, -0.5j * 0.7 * NUMBER)

    def test_equals_the_per_channel_number_term_sum(self):
        # Oracle: the drive's terms plus -(i/2) kappa |1><1| for each channel
        # with kappa > 0, summed as one tuple of local terms.
        from jumpcodes.gates import GateHamiltonian

        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                drive = GateHamiltonian(tuple(
                    (str(rng.choice(["E", "F"])),
                     tuple(int(q) for q in rng.choice(np.arange(1, n + 1), 2, replace=False)),
                     float(rng.normal()))
                    for _ in range(int(rng.integers(0, 4)))
                )).to_sum()
            else:
                terms = []
                for _ in range(int(rng.integers(0, 4))):
                    support = rng.choice(np.arange(1, n + 1), int(rng.integers(1, 3)), replace=False)
                    d = 2 ** len(support)
                    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                    terms.append(LocalOperator(tuple(support), 0.5 * (M + M.conj().T)))
                drive = tuple(terms)
            rates = rng.choice([0.0, 0.3, 1.0, 2.5], size=n) * rng.random(n)
            rates[rng.random(n) < 0.3] = 0.0
            model = LindbladModel(n, drive, tuple(enumerate(rates.tolist(), start=1)))
            oracle = list(drive) + [
                LocalOperator((alpha,), -0.5j * kappa * NUMBER)
                for alpha, kappa in model.channels if kappa > 0.0
            ]
            want = sum_to_dense(tuple(oracle), n)
            assert effective_hamiltonian(model).tobytes() == want.tobytes()

    def test_antihermitian_eigenvalues(self):
        kappa = 1.3
        model = memory_model(3, kappa)
        M = effective_hamiltonian(model)
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
        model = LindbladModel(1, (LocalOperator((1,), SIGMA_X),), ((1, 1.0),))
        with pytest.raises(ValueError):
            no_jump_kraus(model, 1.0)


def liouvillian(model: LindbladModel) -> np.ndarray:
    """The model's Liouvillian on column-stacked rho: vec(A rho B) = (B^T x A) vec(rho)."""
    n = model.n_qubits
    Hm, eye = sum_to_dense(model.hamiltonian, n), np.eye(2**n)
    liouv = -1j * (np.kron(eye, Hm) - np.kron(Hm.T, eye))
    for alpha, _ in model.channels:
        L = local_to_dense(model.jump_operator(alpha), n)
        LdL = L.conj().T @ L
        liouv += np.kron(L.conj(), L) - 0.5 * np.kron(eye, LdL) - 0.5 * np.kron(LdL.T, eye)
    return liouv


def classic_rk4(model: LindbladModel, rho0: DensityMatrix, T: float, dt: float) -> np.ndarray:
    """Oracle: the four-stage RK4 on all 2^N strings, h/6 (k1 + 2 k2 + 2 k3 + k4),
    with two matmuls for the commutator and dense L_a rho L_a^+ per stage."""
    n = model.n_qubits
    h_eff = effective_hamiltonian(model)
    jumps = [local_to_dense(model.jump_operator(a), n) for a, k in model.channels if k > 0]

    def rhs(rho):
        out = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
        for L in jumps:
            out += L @ rho @ L.conj().T
        return out

    rho = rho0.matrix.copy()
    steps, last = divmod(T, dt)
    for h in [dt] * int(steps) + [last] * (last > 1e-15 * T):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def master_case(name: str):
    """(model, rho0, T, dt) of one master-equation case, by name."""
    if name == "benchmark":  # the benchmark's driven_master call
        model, psi, T, _, _ = projector_case("driven-e23-f23")
        return model, pure_density(psi), T, 1e-3
    if name == "two-sectors":  # coherent across the weight-2 and weight-1 sectors
        model, psi, _, _, _ = projector_case("driven-e23-f23")
        v = psi.amplitudes + 0.6j * basis_ket("0001").amplitudes - 0.3 * basis_ket("1000").amplitudes
        return model, pure_density(Ket(4, v / np.linalg.norm(v))), 0.5, 1e-3
    if name == "every-string":  # a drive that couples every string: C is all 16
        model, psi, _, _, _ = projector_case("driven-sigma-x")
        return model, pure_density(psi), 0.5, 1e-3
    if name == "code-n6":
        model = memory_model(6, [1.2, 0.8, 1.0, 1.1, 0.9, 1.0])
        return model, pure_density(code_state(6, 3)), 0.5, 1e-2
    raise KeyError(name)


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
        H = (LocalOperator((1,), omega * SIGMA_X),)
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
        H = (
            LocalOperator((1, 3), 0.5 * (M + M.conj().T)),
            LocalOperator((2,), 0.7 * SIGMA_X),
        )
        model = LindbladModel(3, H, ((1, 1.2), (2, 0.5), (3, 0.8)))
        psi = random_state(3, 8)
        T = 0.9
        rho = integrate_master(model, pure_density(psi), T, 1e-3)
        vec0 = pure_density(psi).matrix.reshape(-1, order="F")
        expected = (expm(liouvillian(model) * T) @ vec0).reshape(8, 8, order="F")
        assert np.linalg.norm(rho.matrix - expected) < 1e-8

    def test_benchmark_case_matches_liouvillian(self):
        # N = 4 under the E23 - F23 drive at rates (1.3, 0.7, 1, 1) from a
        # code state: RK4 against expm of the 256 x 256 Liouvillian.
        model, rho0, T, dt = master_case("benchmark")
        rho = integrate_master(model, rho0, T, dt)
        vec0 = rho0.matrix.reshape(-1, order="F")
        expected = (expm(liouvillian(model) * T) @ vec0).reshape(16, 16, order="F")
        assert np.abs(rho.matrix - expected).max() < 1e-9

    @pytest.mark.parametrize("name", ["benchmark", "two-sectors", "every-string", "code-n6"])
    def test_matches_classic_rk4_on_every_string(self, name):
        model, rho0, T, dt = master_case(name)
        rho = integrate_master(model, rho0, T, dt)
        assert np.abs(rho.matrix - classic_rk4(model, rho0, T, dt)).max() <= 1e-14

    @pytest.mark.parametrize("name", ["benchmark", "two-sectors", "every-string"])
    def test_step_operator_and_stage_loop_agree(self, name, monkeypatch):
        # STEP_OPERATOR_STRINGS = 0 sends every reached set to the stage loop,
        # 2**8 (every string at N <= 8) to the precomputed step operator.
        model, rho0, T, dt = master_case(name)
        expected = classic_rk4(model, rho0, T, dt)
        paths = []
        for limit in (0, 2**8):
            monkeypatch.setattr(dynamics, "STEP_OPERATOR_STRINGS", limit)
            paths.append(integrate_master(model, rho0, T, dt).matrix)
            assert np.abs(paths[-1] - expected).max() <= 1e-14
        assert np.abs(paths[0] - paths[1]).max() <= 1e-14

    @pytest.mark.parametrize("name, steps, operator", [
        ("benchmark", 1000, True), ("benchmark", 50, False),
        ("every-string", 500, True), ("every-string", 100, False),
    ])
    def test_step_count_chooses_the_step_operator(self, name, steps, operator, monkeypatch):
        # Building R costs about (|C|/4)^4 stage steps: 57 at |C| = 11 (the
        # benchmark), 256 at 16 (every string). The stage loop's bits are
        # those with STEP_OPERATOR_STRINGS = 0; the operator's differ.
        model, rho0, _, dt = master_case(name)
        chosen = integrate_master(model, rho0, steps * dt, dt).matrix
        monkeypatch.setattr(dynamics, "STEP_OPERATOR_STRINGS", 0)
        stages = integrate_master(model, rho0, steps * dt, dt).matrix
        assert (chosen.tobytes() != stages.tobytes()) == operator
        assert np.abs(chosen - stages).max() <= 1e-14

    def test_large_reached_sets_take_the_stage_loop(self):
        # The N = 6 code state reaches 42 strings: a step operator would hold
        # 42**4 reals (25 MB), and the 163 of an N = 8 code state 5.6 GB.
        model, rho0, T, dt = master_case("code-n6")
        tracemalloc.start()
        try:
            integrate_master(model, rho0, T, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.parametrize("name", ["benchmark", "two-sectors", "code-n6"])
    def test_entries_outside_the_reached_strings_are_zero(self, name):
        # A code state's (or a weight <= 2 start's) reachable strings are
        # those of weight <= N/2; each of them fills by T, and no other does.
        model, rho0, T, dt = master_case(name)
        rho = integrate_master(model, rho0, T, dt).matrix
        weight = np.array([bin(x).count("1") for x in range(len(rho))])
        reached = weight <= model.n_qubits // 2
        assert (rho.diagonal()[reached].real > 0).all()
        assert not rho[~reached].any() and not rho[:, ~reached].any()
        assert np.array_equal(rho, rho.conj().T)

    @pytest.mark.parametrize("c", [1e-200, 1e-15, 1e-12, 1e-3, 1e3, 1e200])
    def test_does_not_depend_on_the_time_unit(self, c):
        # (kappa, T, dt) -> (kappa / c, c T, c dt) is the same evolution in
        # another unit of time. The end test was once an absolute 1e-15: at
        # c = 1e-15 the loop stopped at e^-1, and at c = 1e-200 it never ran.
        rho0 = pure_density(basis_ket("1"))
        expected = integrate_master(memory_model(1, 1.0), rho0, 2.0, 1e-3).matrix
        rho = integrate_master(memory_model(1, 1.0 / c), rho0, 2.0 * c, 1e-3 * c).matrix
        assert np.abs(rho - expected).max() <= 1e-12

    @pytest.mark.parametrize("dt", [5e-324, 1e-15], ids=["subnormal", "1e15-steps"])
    def test_rejects_more_steps_than_the_limit(self, dt):
        # dt = 5e-324 raised OverflowError from int(T / dt); T / dt = 1e15
        # steps would run for days.
        with pytest.raises(ValueError, match="exceeds"):
            integrate_master(memory_model(1, 1.0), pure_density(basis_ket("1")), 1.0, dt)

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
        H_eff = effective_hamiltonian(model)
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
        H = (LocalOperator((1,), omega * SIGMA_X),)
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
        H = (LocalOperator((1,), omega * SIGMA_X),)
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
        H = tuple(LocalOperator((a,), 0.7 * SIGMA_X) for a in range(1, 5))
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

    @pytest.mark.parametrize("name", ["code-n8", "driven-e23-f23", "count-1100"])
    def test_does_not_depend_on_the_trajectory_chunk(self, name, monkeypatch):
        """The same bytes with TRAJECTORY_CHUNK 7 as with 1024; count-1100
        spans two ensemble blocks. On these cases each round's rows already
        arrive in id order, so this test alone does not require the id sort."""
        results = []
        for chunk in (1024, 7):
            monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", chunk)
            results.append(average_trajectories(*projector_case(name)).matrix.tobytes())
        assert results[0] == results[1]

    @pytest.mark.parametrize("name, T", [("code-n8", None), ("count-1100", None), ("code-n8", 0.0)])
    def test_chunk_sizes_give_the_same_bytes(self, name, T, monkeypatch):
        """Shared states merge across chunks by content and are summed in
        first-id order, so any chunking gives one sum. In count-1100 rounds
        0 and 1 mix rates (unshared rows) and round 2 takes the scalar flow."""
        model, psi0, T_case, count, seed = projector_case(name)
        results = set()
        for chunk in (1, 3, 7, 1024):
            monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", chunk)
            rho = average_trajectories(model, psi0, T_case if T is None else T, count, seed)
            results.add(rho.matrix.tobytes())
        assert len(results) == 1

    def test_each_round_sums_its_distinct_states_once(self, monkeypatch):
        model, psi0, T, count, seed = memory_model(8, 1.0), code_state(8, 2), 0.5, 1024, 5
        ends = dynamics._sample(model, psi0, T, seed, range(count))[3]
        distinct = [len({row.tobytes() for j, _, _, table, which, *_ in ends if j == k
                         for row in table[which]}) for k in sorted({e[0] for e in ends})]
        seen, einsum = [], np.einsum

        def spy(subscripts, a, *operands, **kwargs):
            seen.append(a.shape[1])
            return einsum(subscripts, a, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        average_trajectories(model, psi0, T, count, seed)
        assert len(seen) == len(distinct)
        assert all(s <= d for s, d in zip(seen, distinct))
        assert sum(seen) < count / 4

    @pytest.mark.parametrize("name", ["driven-e23-f23", "driven-sigma-x"])
    def test_driven_rows_are_summed_one_by_one_in_id_order(self, name):
        """Under a drive no two rows share a state: each round's rows are
        added as the unweighted V^T V^* of table[which] in id order."""
        model, psi0, T, count, seed = projector_case(name)
        ends = dynamics._sample(model, psi0, T, seed, range(count))[3]
        assert not any(shared for *_, shared in ends)
        total = np.zeros((psi0.dim, psi0.dim), dtype=complex)
        for k in sorted({e[0] for e in ends}):
            parts = [e for e in ends if e[0] == k]
            order = np.concatenate([rows for _, _, rows, *_ in parts]).argsort()
            V = np.concatenate([table[which] for *_, table, which, _ in parts])[order].T.copy()
            cols = parts[0][1]
            total[np.ix_(cols, cols)] += np.einsum("ir,jr->ij", V, V.conj())
        total /= count
        total = 0.5 * (total + total.conj().T)
        expected = total / np.trace(total).real
        got = average_trajectories(model, psi0, T, count, seed).matrix
        assert got.tobytes() == expected.tobytes()

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
    def test_positivity_is_checked_on_the_nonzero_rows(self):
        # A PSD matrix on strings {1, 4, 6} of 8, zero elsewhere, is accepted;
        # one eigenvalue of -10 eig_tol inside that block is refused.
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        support = np.array([1, 4, 6])
        for eigs, accepted in (([0.7, 0.3, 0.0], True), ([0.6, 0.4 + 1e-7, -1e-7], False)):
            block = (Q * eigs) @ Q.conj().T
            matrix = np.zeros((8, 8), dtype=complex)
            matrix[np.ix_(support, support)] = 0.5 * (block + block.conj().T)
            if accepted:
                assert np.array_equal(DensityMatrix(matrix).matrix, matrix)
            else:
                with pytest.raises(ValueError, match="negative eigenvalue -"):
                    DensityMatrix(matrix)

    def test_non_hermitian_matrix_with_zero_rows_is_refused(self):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 0], matrix[2, 2], matrix[0, 2] = 0.5, 0.5, 1e-3
        with pytest.raises(ValueError, match="not hermitian"):
            DensityMatrix(matrix)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(2.0 * np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("eig_tol", [dynamics.EIG_TOL, 1e-7])
    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
    def test_smallest_eigenvalue_bound_is_eig_tol(self, eig_tol, factor, accepted):
        # Eigenvalues (0.5 + f tol, 0.3, 0.2, -f tol) in a random basis.
        eigs = np.array([0.5 + factor * eig_tol, 0.3, 0.2, -factor * eig_tol])
        Q, _ = np.linalg.qr(random_state(4, 3).amplitudes.reshape(4, 4))
        matrix = (Q * eigs) @ Q.conj().T
        matrix = 0.5 * (matrix + matrix.conj().T)
        if accepted:
            DensityMatrix(matrix, eig_tol=eig_tol)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue -"):
                DensityMatrix(matrix, eig_tol=eig_tol)

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
    H_eff = effective_hamiltonian(model)
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


class TestJumpCountOracle:
    """With H = 0 every no-jump and jump operator maps basis strings to
    distinct strings, so record probabilities add over psi0's strings x:
    P(n jumps by T) = sum_x |psi_x|^2 PB_x(n), PB_x the Poisson-binomial of
    p_a = 1 - exp(-kappa_a T) over the qubits a set in x, and qubit a jumps
    with probability p_a sum_x |psi_x|^2 [bit a of x] (Dalibard, Castin &
    Molmer, PRL 68, 580 (1992))."""

    @staticmethod
    def exact(n, rates, T, psi0):
        weights = np.abs(psi0.amplitudes) ** 2
        p = 1.0 - np.exp(-np.asarray(rates, dtype=float) * T)
        counts, marginals = np.zeros(n + 1), np.zeros(n)
        for x in np.flatnonzero(weights):
            set_bits = (x >> np.arange(n)) & 1 == 1
            pb = np.ones(1)
            for p_a in p[set_bits]:
                pb = np.convolve(pb, [1.0 - p_a, p_a])
            counts[: len(pb)] += weights[x] * pb
            marginals += weights[x] * p * set_bits
        return counts, marginals

    @pytest.mark.parametrize("n, rates, T, count", [
        (4, [1.3, 0.7, 1.0, 1.0], 1.5, 4000),
        (6, [1.2, 0.8, 1.0, 1.1, 0.9, 1.0], 1.5, 4000),
        (8, [1.2, 0.8, 1.0, 1.1, 0.9, 1.0, 1.0, 1.05], 1.5, 4000),
        (8, [1.0] * 8, 1.0, 16000),
    ], ids=["N4-mismatch", "N6-mismatch", "N8-mismatch", "N8-equal"])
    def test_jump_counts_match_the_poisson_binomial(self, n, rates, T, count):
        code, rng = jump_code(n, 0.3), np.random.default_rng(n)
        logical = rng.normal(size=code.count) + 1j * rng.normal(size=code.count)
        psi0 = encode(code, logical / np.linalg.norm(logical))
        batch = run_trajectories(memory_model(n, rates), psi0, T, 5, range(count))
        probs, marginals = self.exact(n, rates, T, psi0)
        jumps = np.arange(n + 1)
        mean, var = probs @ jumps, probs @ jumps**2 - (probs @ jumps) ** 2
        z = [(batch.jump_counts.mean() - mean) / np.sqrt(var / count)]
        hits = (batch.jump_qubits[:, :, None] == np.arange(1, n + 1)).any(axis=1).sum(axis=0)
        z += list((hits - count * marginals) / np.sqrt(count * marginals * (1 - marginals)))
        bins = np.bincount(batch.jump_counts, minlength=n + 1)
        big = count * probs >= 20
        z += list((bins - count * probs)[big] / np.sqrt(count * probs * (1 - probs))[big])
        assert np.abs(z).max() <= 5.0


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


@pytest.mark.parametrize("case", ["sampled", "extreme times", "no jumps"])
def test_records_csv_matches_one_formatted_line_per_jump(case):
    # The one-% log against the f-string form, line by line.
    if case == "sampled":
        batch = run_trajectories(memory_model(3, [1.0, 0.6, 1.7]), excited(3), 2.0, 8, range(25))
    elif case == "extreme times":
        times = np.array([[1e-300, 3.0, np.nan], [5e-324, 1 / 3, 2.5e10], [np.nan] * 3])
        qubits = np.array([[2, 1, 0], [1, 3, 2], [0, 0, 0]])
        batch = dynamics.TrajectoryBatch(3, np.tile(times, (5, 1)), np.tile(qubits, (5, 1)),
                                         np.zeros((15, 8)), np.zeros(15, dtype=bool))
    else:
        batch = run_trajectories(memory_model(3, 1.0), excited(3), 0.0, 8, range(12))
    rows, cols = np.nonzero(batch.jump_qubits)
    times = batch.jump_times[rows, cols].tolist()
    qubits = batch.jump_qubits[rows, cols].tolist()
    lines = "".join(f"{r},{t:.17g},{a}\n" for r, t, a in zip(rows.tolist(), times, qubits))
    assert records_to_csv(batch) == "trajectory_id,t,alpha\n" + lines
    assert rows.size == 0 if case == "no jumps" else rows.max() >= 10


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
        H = (LocalOperator((1,), 0.8 * SIGMA_X),)
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

    @pytest.mark.parametrize("n", [4, 8])
    def test_shared_state_rows_are_their_one_row_batches(self, n, monkeypatch):
        # A code state at equal rates: rows with one ordered jump record share
        # one state, which the full-support states above never do.
        model, psi, ids = memory_model(n, 1.0), code_state(n, n), range(120)
        batch = run_trajectories(model, psi, 1.0, 19, ids)
        records = [tuple(q[:m]) for q, m in zip(batch.jump_qubits, batch.jump_counts) if m]
        assert len(set(records)) < len(records) and batch.jump_counts.max() >= 2
        for row in ids:
            rec = run_trajectory(model, psi, 1.0, 19, trajectory_id=row)
            m = batch.jump_counts[row]
            assert rec.jump_times[0].tobytes() == batch.jump_times[row, :m].tobytes()
            assert np.array_equal(rec.jump_qubits[0], batch.jump_qubits[row, :m])
            assert rec.final_states[0].tobytes() == batch.final_states[row].tobytes()
            assert rec.absorbed[0] == batch.absorbed[row]
        monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", 7)
        small = run_trajectories(model, psi, 1.0, 19, ids)
        for field in ("jump_times", "jump_qubits", "final_states", "absorbed"):
            assert getattr(small, field).tobytes() == getattr(batch, field).tobytes()

    @pytest.mark.parametrize("name", ["driven", "code-mismatch", "code-equal"])
    def test_rows_past_the_horizon_leave_the_others_their_states(self, name, monkeypatch):
        # Rounding can put a jump at or past T. Such a row ends on its jumped
        # state, and the rows that go on keep their own table rows. Here every
        # row whose threshold is below 0.3 crosses one ulp past its horizon.
        search = dynamics._jump_times

        def late(flow, rows, horizon, u):
            return np.where(u < 0.3, np.nextafter(horizon, np.inf), search(flow, rows, horizon, u))

        monkeypatch.setattr(dynamics, "_jump_times", late)
        model, psi0, T = round_case(name)
        batch = run_trajectories(model, psi0, T, 31, range(60))
        assert 0 < (batch.jump_times >= T).any(axis=1).sum() < 50
        for row in range(60):
            rec = run_trajectory(model, psi0, T, 31, trajectory_id=row)
            m = rec.jump_times.shape[1]
            assert rec.jump_times[0].tobytes() == batch.jump_times[row, :m].tobytes()
            assert rec.final_states[0].tobytes() == batch.final_states[row].tobytes()

    def test_each_round_weighs_its_distinct_states_once(self, monkeypatch):
        # Under the scalar flow a row's state after k jumps is fixed by its
        # ordered jump qubits, so round k weighs at most one row per distinct
        # prefix of k jumps, and round 0 weighs the start state alone.
        weighed, channel_weights = [], dynamics._channel_weights

        def counting_weights(model, psi, columns):
            weighed.append(len(psi))
            return channel_weights(model, psi, columns)

        monkeypatch.setattr(dynamics, "_channel_weights", counting_weights)
        batch = run_trajectories(memory_model(8, 1.0), code_state(8, 3), 1.0, 23, range(1024))
        prefixes = [
            {tuple(q[:k]) for q, m in zip(batch.jump_qubits, batch.jump_counts) if m >= k}
            for k in range(len(weighed))
        ]
        assert len(weighed) >= 3 and weighed[0] == 1
        assert all(w <= len(p) for w, p in zip(weighed, prefixes))
        assert sum(weighed) < batch.jump_counts.sum() / 4

    @pytest.mark.parametrize("name", ["driven", "code-mismatch", "code-equal"])
    def test_every_flow_starts_each_chunk_on_one_row(self, name, monkeypatch):
        # Every flow starts each chunk on psi0's one row. Under a drive or
        # mixed rates rows that jump never share a state, so each later
        # round's table holds one row per live trajectory.
        model, psi0, T = round_case(name)
        rounds, first = [], []  # per round: [first of its chunk, table rows, live rows]
        start, norm_slope = dynamics._NoJumpRows.start, dynamics._NoJumpRows.norm_slope
        philox = dynamics._philox_uniforms

        def spy_philox(keys, blocks):
            first.append(blocks[0] == 1)  # round 0's draws open a chunk
            return philox(keys, blocks)

        def spy_start(flow, psi, columns=slice(None)):
            rounds.append([any(first), len(psi), None])
            first.clear()
            return start(flow, psi, columns)

        def spy_norm_slope(flow, rows, t):  # a round's first evaluation covers its live rows
            if rounds[-1][2] is None:
                rounds[-1][2] = len(rows)
            return norm_slope(flow, rows, t)

        monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", 100)
        monkeypatch.setattr(dynamics, "_philox_uniforms", spy_philox)
        monkeypatch.setattr(dynamics._NoJumpRows, "start", spy_start)
        monkeypatch.setattr(dynamics._NoJumpRows, "norm_slope", spy_norm_slope)
        run_trajectories(model, psi0, T, 29, range(250))
        opening = [(table, live) for chunk, table, live in rounds if chunk]
        later = [(table, live) for chunk, table, live in rounds if not chunk]
        assert opening == [(1, 100), (1, 100), (1, 50)]
        assert len(later) >= 3
        if name != "code-equal":
            assert all(table == live for table, live in later)


def round_case(name: str):
    """(model, psi0, T) of one sampler case, by name."""
    if name == "code-mismatch":
        return memory_model(8, [1.2, 0.8, 1.0, 1.1, 0.9, 1.0, 1.0, 1.05]), code_state(8, 4), 1.5
    if name == "code-equal":
        return memory_model(8, 1.0), code_state(8, 4), 1.5
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
        if u == 0 or flow.norm_slope(one, remaining)[0][0] > u:
            return times, qubits, flow.unit_state(one, remaining)[0]
        s = dynamics._jump_times(flow, one, remaining, np.array([u]))
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
            u = flow.norm_slope(one, np.array([T]))[0][0]
            monkeypatch.setattr(
                dynamics, "_philox_uniforms",
                lambda keys, blocks: np.tile([u, 0.5, 0.5, 0.5], (len(keys), len(blocks))),
            )
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


def general_flow(monkeypatch):
    """Turn off the equal-rate scalar flow: every round takes the per-string path."""
    start = dynamics._NoJumpRows.start

    def general_start(flow, psi, *columns):
        start(flow, psi, *columns)
        flow.rate = None

    monkeypatch.setattr(dynamics._NoJumpRows, "start", general_start)


class TestScalarFlow:
    """Under H = 0, a round whose strings all decay at one finite rate takes
    the scalar flow; with its detection off, the per-string flow agrees."""

    @pytest.mark.parametrize("case", ["code-n8", "kappa-0", "kappa-1e-3", "kappa-1", "kappa-1e3"])
    def test_agrees_with_the_per_string_flow(self, case, monkeypatch):
        if case == "code-n8":
            model, psi0, T, count, seed = projector_case("code-n8")
        else:
            kappa = float(case.split("-", 1)[1])
            model, psi0, T, count, seed = memory_model(4, kappa), code_state(4, 1), 2.0 / (kappa or 1.0), 200, 9
        scalar = run_trajectories(model, psi0, T, seed, range(count))
        rounds = []
        norm_slope = dynamics._NoJumpRows.norm_slope
        monkeypatch.setattr(dynamics._NoJumpRows, "norm_slope",
                            lambda flow, *a: rounds.append(flow.rate) or norm_slope(flow, *a))
        run_trajectories(model, psi0, T, seed, range(count))
        assert None not in rounds  # every round of a code state at equal rates
        general_flow(monkeypatch)
        general = run_trajectories(model, psi0, T, seed, range(count))
        assert np.array_equal(scalar.jump_qubits, general.jump_qubits)
        assert (scalar.jump_counts > 0).any() == (case != "kappa-0")
        jumped = general.jump_qubits > 0
        times, expected = scalar.jump_times[jumped], general.jump_times[jumped]
        assert (np.abs(times - expected) <= 1e-14 * expected).all()
        assert np.abs(scalar.final_states - general.final_states).max() <= 1e-15
        assert np.array_equal(scalar.absorbed, general.absorbed)

    def test_infinite_rates_take_the_per_string_flow(self):
        flow = dynamics._NoJumpRows(memory_model(4, 1.0))
        flow.string_rates = np.full(16, np.inf)
        flow.start(code_state(4, 1).amplitudes[None, :])
        assert flow.rate is None
        flow.string_rates = np.full(16, 2.0)
        flow.start(code_state(4, 1).amplitudes[None, :])
        assert flow.rate == 2.0

    def test_zero_rate_replay_computes_no_flow(self, monkeypatch):
        # correct_trajectory replays under memory_model(N, 0): every string's
        # rate is 0, so each window normalizes its rows and evaluates no state.
        from jumpcodes.qec import correct_trajectory

        code = jump_code(4, 0.0)
        logical = np.array([0.6, 0.48j, 0.64])
        batch = run_trajectories(memory_model(4, 1.0), encode(code, logical), 3.0, 5, range(60))
        assert batch.jump_counts.max() >= 2
        calls = []
        state = dynamics._NoJumpRows.state
        monkeypatch.setattr(dynamics._NoJumpRows, "state",
                            lambda flow, *a, **k: calls.append(1) or state(flow, *a, **k))
        final, fidelity = correct_trajectory(batch, code, logical)
        assert not calls
        general_flow(monkeypatch)
        expected_final, expected_fidelity = correct_trajectory(batch, code, logical)
        assert calls
        assert final.tobytes() == expected_final.tobytes()
        assert fidelity.tobytes() == expected_fidelity.tobytes()

    def test_ensemble_peak_memory_is_below_the_full_width_average(self):
        # Scattered into (rows, 2^N) final states, the N = 8, 1024-row average
        # peaked at 10.1 MiB (tracemalloc); kept on C_k it peaks at 7.4 MiB.
        model, psi0 = memory_model(8, 1.0), code_state(8, 2)
        average_trajectories(model, psi0, 0.5, 16, 5)
        tracemalloc.start()
        try:
            average_trajectories(model, psi0, 0.5, 1024, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20


class TestNoJumpFlow:
    """The driven no-jump flow against exp(-i H_eff t) applied row by row."""

    def assert_matches_expm(self, model, eigenbasis):
        flow = dynamics._NoJumpRows(model)
        assert flow.eigenbasis == eigenbasis
        psi = np.array([random_state(model.n_qubits, seed).amplitudes for seed in range(6)])
        t = np.array([0.0, 1e-6, 0.3, 1.0, 2.2, 3.0])
        flow.start(psi)
        got = flow.state(np.arange(6), t)
        h_eff = effective_hamiltonian(model)
        for row, (tr, p) in enumerate(zip(t, psi)):
            assert np.abs(got[row] - expm(-1j * tr * h_eff) @ p).max() < 1e-12
        # A subset of the rows, at other times, as the jump-time search evaluates them.
        rows, times = np.array([4, 1]), np.array([0.7, 2.9])
        expected = [
            np.linalg.norm(expm(-1j * tr * h_eff) @ psi[r]) ** 2 for tr, r in zip(times, rows)
        ]
        assert np.abs(flow.norm_slope(rows, times)[0] - expected).max() < 1e-12

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
            H = (LocalOperator((1,), 250.0 * SIGMA_X),)
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
        H = (LocalOperator((1,), 0.25 * SIGMA_X),)
        self.assert_matches_expm(LindbladModel(1, H, ((1, 1.0),)), eigenbasis=False)


class TestJumpTimeBracket:
    """Jump times by safeguarded Newton on ln f, f the squared norm, from each
    row's decay-rate bracket; single-rate rows take the closed form."""

    # The documented contract, written out so that loosening the module's
    # JUMP_TIME_REL_TOL does not loosen the oracle tests with it.
    REL_TOL = 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    def test_equal_rate_code_rows_take_the_closed_form(self, n, monkeypatch):
        kappa = 0.7
        evals = {"end": 0, "search": 0}
        in_search = []
        rounds = []
        norm_slope, search = dynamics._NoJumpRows.norm_slope, dynamics._jump_times

        # Every norm evaluation, the end test's and the search's, goes
        # through ``norm_slope``.
        def counting_norm_slope(flow, rows, t):
            evals["search" if in_search else "end"] += 1
            return norm_slope(flow, rows, t)

        def recording_search(flow, rows, horizon, threshold):
            in_search.append(True)
            s = search(flow, rows, horizon, threshold)
            in_search.pop()
            rounds.append((flow.weights[rows], flow.rates, horizon, threshold, s))
            return s

        monkeypatch.setattr(dynamics._NoJumpRows, "norm_slope", counting_norm_slope)
        monkeypatch.setattr(dynamics, "_jump_times", recording_search)
        batch = run_trajectories(memory_model(n, kappa), code_state(n, 2), 3.0, 17, range(300))
        assert len(rounds) >= 2 and batch.jump_counts.max() == len(rounds)
        # The norm is evaluated once per round for the end test, never inside.
        assert evals["search"] == 0
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
        end = flow.norm_slope(rows, horizon)[0]
        u = end + (1.0 - end) * np.random.default_rng(5).uniform(0.05, 0.95, len(psi))
        s = dynamics._jump_times(flow, rows, horizon, u)
        weights = np.abs(psi) ** 2
        crossing = np.array([
            brentq(lambda t: weights[r] @ np.exp(-rates * t) - u[r], 0.0, 3.0,
                   xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for r in rows
        ])
        tol = self.REL_TOL * np.maximum(crossing, 1.0)
        assert (np.abs(s - crossing) <= tol).all()
        # Each bracket holds the crossing and is narrower than (0, horizon).
        lo, hi = flow.bracket(rows, horizon, u)
        assert (lo > 0).all() and (hi < horizon).any()
        assert ((lo <= crossing + tol) & (crossing - tol <= hi)).all()

    @pytest.mark.parametrize("case", ["eigenbasis", "expm"])
    def test_driven_rows_land_within_tolerance_of_the_crossing(self, case):
        from scipy.optimize import brentq

        from jumpcodes.gates import GateHamiltonian

        if case == "eigenbasis":  # the benchmark's drive and rates
            drive = GateHamiltonian((("E", (2, 3), 1.0), ("F", (2, 3), -1.0))).to_sum()
            model = LindbladModel(4, drive, ((1, 1.3), (2, 0.7), (3, 1.0), (4, 1.0)))
        else:  # the exceptional point: H_eff = 0.25 sigma_x - (i/2) n
            H = (LocalOperator((1,), 0.25 * SIGMA_X),)
            model = LindbladModel(1, H, ((1, 1.0),))
        psi = np.array([random_state(model.n_qubits, seed).amplitudes for seed in range(16)])
        flow = dynamics._NoJumpRows(model)
        assert flow.eigenbasis == (case == "eigenbasis")
        flow.start(psi)
        rows, horizon = np.arange(len(psi)), np.full(len(psi), 3.0)
        end = flow.norm_slope(rows, horizon)[0]
        u = end + (1.0 - end) * np.random.default_rng(7).uniform(0.05, 0.95, len(psi))
        s = dynamics._jump_times(flow, rows, horizon, u)
        h_eff = effective_hamiltonian(model)
        crossing = np.array([
            brentq(lambda t: np.linalg.norm(expm(-1j * t * h_eff) @ psi[r]) ** 2 - u[r],
                   0.0, 3.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for r in rows
        ])
        assert (np.abs(s - crossing) <= self.REL_TOL * crossing).all()

    def test_a_far_horizon_does_not_loosen_the_tolerance(self):
        # With the zero-rate string in its support a row's bracket ends at
        # the horizon, and Newton points approach the crossing from below, so
        # the bracket stays wide: a row ends on its step relative to its time.
        from scipy.optimize import brentq

        model = memory_model(4, [1.3, 0.7, 1.0, 0.4])
        rates = model.decay_rates()
        psi = np.array([random_state(4, seed).amplitudes for seed in range(24)])
        weights = np.abs(psi) ** 2
        floor = weights[:, 0]  # the zero-rate weight
        u = floor + (1 - floor) * np.random.default_rng(3).uniform(0.05, 0.95, len(psi))
        flow, rows, horizon = dynamics._NoJumpRows(model), np.arange(len(psi)), np.full(len(psi), 1e6)
        flow.start(psi)
        assert (flow.bracket(rows, horizon, u)[1] == horizon).all()
        s = dynamics._jump_times(flow, rows, horizon, u)
        crossing = np.array([
            brentq(lambda t: weights[r] @ np.exp(-rates * t) - u[r], 0.0, 100.0,
                   xtol=1e-15, rtol=4 * np.finfo(float).eps)
            for r in rows
        ])
        assert (np.abs(s - crossing) <= self.REL_TOL * crossing).all()

    @pytest.mark.parametrize("k", [3, 4, 6, 9, 12, 15])
    def test_thresholds_near_the_weight_land_within_tolerance(self, k):
        # u = S (1 - 10^-k) under mixed rates. f carries about 1e-16 of
        # rounding, which moved a crossing by about 2e-16 / ln(S/u) relative
        # (0.29 at k = 15); near S the search compares sum w expm1(-r t) with
        # the exact u - S. The reference is brentq on that difference.
        from scipy.optimize import brentq

        model = memory_model(4, [1.3, 0.7, 1.0, 0.4])
        rates = model.decay_rates()
        psi = np.array([random_state(4, seed).amplitudes for seed in range(12)])
        psi[::2, 0] = 0.0  # half the rows without the zero-rate ground state
        weights = np.abs(psi) ** 2
        S = np.add.reduce(weights, axis=1)
        u = S * (1 - 10.0**-k)
        flow, rows = dynamics._NoJumpRows(model), np.arange(len(psi))
        flow.start(psi)
        s = dynamics._jump_times(flow, rows, np.full(len(psi), 3.0), u)
        crossing = np.array([
            brentq(lambda t: weights[r] @ np.expm1(-rates * t) - (u[r] - S[r]), 0.0, 3.0,
                   xtol=1e-300, rtol=4 * np.finfo(float).eps)
            for r in rows
        ])
        assert (np.abs(s - crossing) <= self.REL_TOL * crossing).all()

    def test_rows_within_rounding_of_their_weight_end(self):
        # u = S (1 - 10^-k): for k >= 6 the crossing is known only to about
        # 1e-16 / (r t) relative, and rounding in f once made Newton points
        # cycle between two times for ever. Steps that must halve every two
        # evaluations end each row with f at u to rounding.
        model = memory_model(4, [1.3, 0.7, 1.0, 0.4])
        rng = np.random.default_rng(11)
        psi = np.array([random_state(4, seed).amplitudes for seed in range(40)])
        psi[:, 0] = 0.0
        weight = np.add.reduce(np.abs(psi) ** 2, axis=1)
        u = weight * (1 - 10.0 ** -rng.integers(6, 16, len(psi)) * rng.uniform(0.5, 1, len(psi)))
        flow, rows = dynamics._NoJumpRows(model), np.arange(len(psi))
        flow.start(psi)
        evaluations = []
        norm_slope = flow.norm_slope

        def counting_norm_slope(rows, t):
            evaluations.append(rows)
            if len(evaluations) > 200:
                raise RuntimeError("the search does not end")
            return norm_slope(rows, t)

        flow.norm_slope = counting_norm_slope
        s = dynamics._jump_times(flow, rows, np.full(len(psi), 3.0), u)
        assert np.bincount(np.concatenate(evaluations)).max() <= 40
        assert (np.abs(flow.norm_slope(rows, s)[0] - u) <= 1e-15).all()

    @pytest.mark.parametrize("name", ["driven", "code-mismatch"])
    def test_searched_rows_take_few_evaluations(self, name, monkeypatch):
        # Bisection to 1e-10 of the bracket takes about 33 evaluations per
        # row; Newton steps converge in a few.
        model, psi0, T = round_case(name)
        evaluated, counts = [], []
        norm_slope, search = dynamics._NoJumpRows.norm_slope, dynamics._jump_times

        def counting_norm_slope(flow, rows, t):
            evaluated.append(rows)
            return norm_slope(flow, rows, t)

        # Each evaluation covers every unfinished row of its search, so a
        # search's evaluation count is the most any of its rows takes, and its
        # first evaluation holds every row it searches.
        def counting_search(flow, rows, horizon, threshold):
            evaluated.clear()
            s = search(flow, rows, horizon, threshold)
            counts.append((len(evaluated), len(evaluated[0]) if evaluated else 0))
            return s

        monkeypatch.setattr(dynamics._NoJumpRows, "norm_slope", counting_norm_slope)
        monkeypatch.setattr(dynamics, "_jump_times", counting_search)
        run_trajectories(model, psi0, T, 41, range(300))
        evaluations, searched = np.array(counts).T
        assert searched.sum() >= 300
        assert evaluations.max() <= 12

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

    @pytest.mark.parametrize("driven", [False, True], ids=["memory", "driven"])
    def test_row_starting_below_its_threshold_jumps_at_once(self, driven):
        # Row 0's squared norm 1 - 1e-10 starts below u = 1 - 2^-40, so it
        # crosses at 0: once bisected from the horizon down to the
        # two-subnormal floor (about 1075 norm evaluations), now bracketed
        # there by its weight (its norm at 0 under a drive). Row 1 crosses
        # later, and is searched as it would be alone.
        from jumpcodes.gates import GateHamiltonian

        drive = GateHamiltonian((("E", (2, 3), 1.0), ("F", (2, 3), -1.0))).to_sum()
        model = LindbladModel(4, drive if driven else None, ((1, 1.0), (2, 1.0), (3, 1.0), (4, 1.1)))
        psi = code_state(4, 1).amplitudes
        flow = dynamics._NoJumpRows(model)
        flow.start(np.array([psi * np.sqrt(1 - 1e-10), psi]))
        evaluations = []
        norm_slope = flow.norm_slope

        def counting_norm_slope(rows, t):
            evaluations.append(len(t))
            return norm_slope(rows, t)

        flow.norm_slope = counting_norm_slope
        horizon, u = np.full(2, 3.0), np.array([1 - 2.0**-40, 0.5])
        s = dynamics._jump_times(flow, np.arange(1), horizon[:1], u[:1])
        assert s[0] == np.finfo(float).smallest_subnormal and not evaluations
        both = dynamics._jump_times(flow, np.arange(2), horizon, u)
        alone = dynamics._jump_times(flow, np.arange(1, 2), horizon[1:], u[1:])
        assert both[0] == s[0] and both[1] == alone[0] and 0 < alone[0] < 3.0

    def test_threshold_at_the_end_norm_stays_within_horizon(self):
        # u equal to the squared norm at the horizon jumps; ln(S/u)/r may
        # round past the horizon, and the time must not.
        flow = dynamics._NoJumpRows(memory_model(4, 1.0))
        horizon = np.linspace(0.05, 3.0, 400)
        flow.start(np.tile(code_state(4, 1).amplitudes, (len(horizon), 1)))
        rows = np.arange(len(horizon))
        u = flow.norm_slope(rows, horizon)[0]
        assert (np.log(np.add.reduce(flow.weights, axis=1) / u) / 2.0 > horizon).any()
        s = dynamics._jump_times(flow, rows, horizon, u)
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
        # u = 0 is crossed only where the norm underflows to 0, and every
        # Newton point is infinite, so the search bisects. The search alone:
        # run_trajectories never searches a zero threshold.
        flow = dynamics._NoJumpRows(memory_model(4, 1000.0))
        flow.start(code_state(4, 1).amplitudes[None, :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = flow.bracket(np.arange(1), np.ones(1), np.zeros(1))
            s = dynamics._jump_times(flow, np.arange(1), np.ones(1), np.zeros(1))
        assert (lo, hi) == (0.0, 1.0)
        assert 0 < s[0] <= 1.0 and flow.norm_slope(np.arange(1), s)[0][0] < 1e-300


def test_a_pick_equal_to_a_cumulative_weight_takes_the_next_channel(monkeypatch):
    # Generator.choice searches the normalized cumulative weights with
    # side="right", so a uniform equal to one of them picks the next channel.
    # Qubits 1 and 2 excited at equal rates: cumulative weights 0.5, 1, 1, 1,
    # so a pick of 0.5 must take qubit 2 first.
    monkeypatch.setattr(dynamics, "_philox_uniforms",
                        lambda keys, blocks: np.tile([0.9, 0.5], (len(keys), 2 * len(blocks))))
    psi0 = Ket(4, np.eye(16)[0b0011])
    batch = run_trajectories(memory_model(4, 1.0), psi0, 3.0, 3, range(2))
    assert batch.jump_qubits.tolist() == [[2, 1], [2, 1]]


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
@example(seed=2**1000, extra=[5], stream=2**70, first=6, count=5)
@given(
    seed=st.integers(0, 2**80),
    extra=st.lists(st.integers(0, 2**64 - 1), max_size=4),
    stream=st.integers(0, 2**70),
    first=st.integers(0, 10),
    count=st.integers(1, 9),
)
def test_batch_streams_match_numpy_bit_for_bit(seed, extra, stream, first, count):
    """Keys and draws computed for a batch of ids, whose ids take one or two
    32-bit entropy words and whose seed and stream take one or more, are
    SeedSequence -> Philox -> random(), and no unsigned overflow warning
    escapes. An empty id list gives no keys and no draws."""
    from jumpcodes.dynamics import _philox_uniforms, _stream_keys

    ids = [0, 2**32 - 1, 2**32, *extra]
    keys = _stream_keys(seed, ids, stream)
    blocks = range(first // 4 + 1, (first + count - 1) // 4 + 2)
    draws = _philox_uniforms(keys, blocks)[:, first % 4 : first % 4 + count]
    none = _stream_keys(seed, [], stream)
    assert none.shape == (0, 2) and _philox_uniforms(none, blocks).shape == (0, 4 * len(blocks))
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

    for seed, ids, stream in ((-1, [0], 0), (0, [-1], 0), (0, [2**64], 0), (0, [1], -1),
                              (0, range(-1, 3), 0), (0, range(2**64 - 1, 2**64 + 1), 0)):
        with pytest.raises(ValueError, match="trajectory ids"):
            _stream_keys(seed, ids, stream)


@pytest.mark.parametrize("ids", [
    range(0), range(1, 1025), range(2**32 - 2, 2**32 + 2), range(2**64 - 3, 2**64),
    range(2**64 - 1, 2**63, -2**62), range(9, -1, -4),
], ids=repr)
def test_stream_keys_of_a_range_are_those_of_its_list(ids):
    from jumpcodes.dynamics import _stream_keys

    keys = _stream_keys(11, ids, 1)
    assert keys.dtype == np.uint64 and keys.tobytes() == _stream_keys(11, list(ids), 1).tobytes()


def assert_rounds_follow_streams(rates, seed, ids, T):
    """Round k of trajectory i uses draws 2k and 2k + 1 of trajectory_rng(seed, i):
    a threshold, then a channel pick. From |1...1> under pure decay, each
    round's jump time and channel follow from those two draws in closed form."""
    from jumpcodes.dynamics import trajectory_rng

    rates = np.array(rates)
    n = len(rates)
    batch = run_trajectories(memory_model(n, list(rates)), basis_ket("1" * n), T, seed, ids)
    for row, traj_id in enumerate(ids):
        rng = trajectory_rng(seed, traj_id)
        excited, t = np.ones(n, dtype=bool), 0.0
        for k in range(n):
            threshold, pick = rng.random(2)
            t += -np.log(threshold) / rates[excited].sum()
            cdf = np.cumsum(rates[excited] / rates[excited].sum())
            qubit = np.flatnonzero(excited)[np.count_nonzero(cdf / cdf[-1] <= pick)]
            excited[qubit] = False
            assert batch.jump_qubits[row, k] == qubit + 1
            assert abs(batch.jump_times[row, k] - t) <= 1e-8 * t
        assert batch.jump_counts[row] == n


def test_rounds_read_each_rows_stream_in_order():
    assert_rounds_follow_streams([1.0, 0.7, 0.4], 21, [0, 3, 2**32 + 5, 99], 50.0)


def test_rounds_past_the_fourth_read_the_next_philox_blocks():
    # Rounds 4 and 5 read blocks 3 and 4, drawn after the first four rounds.
    rates = [1.0, 0.7, 0.4, 1.3, 0.55, 0.85]
    assert_rounds_follow_streams(rates, 21, [0, 3, 2**32 + 5, 99, 10**12], 500.0)

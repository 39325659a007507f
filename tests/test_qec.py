import numpy as np
import pytest

from jumpcodes.codes import JumpCode, codeword_ket, dfs_basis, dfs_projector, encode, jump_code, projector
from jumpcodes.dynamics import (
    KrausSet,
    TrajectoryBatch,
    memory_model,
    no_jump_kraus,
    run_trajectories,
    run_trajectory,
    trajectory_rng,
)
from jumpcodes.qec import (
    ExperimentConfig,
    apply_recovery,
    correct_trajectory,
    dfs_check,
    kl_check,
    recovery_map,
    recovery_unitary,
    replay_records,
    run_experiment,
    verify_dfs,
    verify_kl,
)
from jumpcodes.states import LOWER, LocalOperator, local_to_dense


def jump_matrix(alpha: int, n: int, kappa: float = 1.0) -> np.ndarray:
    return np.sqrt(kappa) * local_to_dense(LocalOperator((alpha,), LOWER), n)


def petz_recovery_exact(ks: KrausSet, P: np.ndarray, tol: float = 1e-8) -> bool:
    """Independent reversibility oracle: does the transpose-channel recovery
    restore every code-space state?

    Builds R_l = P K_l^+ sigma^{-1/2} with sigma the channel output of the
    maximally mixed code state, then checks R(E(rho)) = c * rho with one
    common constant c on a basis of code-space operators. The transpose
    channel recovers exactly precisely when the operation is reversible, so
    the proportionality test decides the verdict without touching Lambda.
    """
    rank = int(round(np.trace(P).real))
    sigma = sum(K @ (P / rank) @ K.conj().T for K in ks.operators)
    w, V = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[w > 1e-12] = 1.0 / np.sqrt(w[w > 1e-12])
    sigma_inv_sqrt = V @ np.diag(inv_sqrt) @ V.conj().T
    recovery = [P @ K.conj().T @ sigma_inv_sqrt for K in ks.operators]
    # orthonormal code basis from the projector
    wp, Vp = np.linalg.eigh(P)
    basis = [Vp[:, j] for j in range(len(wp)) if wp[j] > 0.5]

    def recover(rho: np.ndarray) -> np.ndarray:
        out = sum(K @ rho @ K.conj().T for K in ks.operators)
        return sum(R @ out @ R.conj().T for R in recovery)

    scale = np.trace(recover(np.outer(basis[0], basis[0].conj()))).real
    if scale <= tol:
        return False
    for a in basis:
        for b in basis:
            rho = np.outer(a, b.conj())
            if np.linalg.norm(recover(rho) - scale * rho) > tol * scale:
                return False
    return True


class TestKLCheck:
    def test_known_position_reversible(self):
        kappa = 1.0
        P = projector(jump_code(4, 0.0))
        for alpha in range(1, 5):
            r = kl_check(KrausSet((jump_matrix(alpha, 4, kappa),)), P)
            assert r.reversible
            assert abs(r.lam[0, 0] - kappa / 2.0) < 1e-12
            assert r.residual < 1e-12

    def test_unknown_position_pair_fails(self):
        P = projector(jump_code(4, 0.0))
        L1, L2 = jump_matrix(1, 4), jump_matrix(2, 4)
        r = kl_check(KrausSet((L1, L2)), P)
        assert not r.reversible
        # a code word maps into another's jump support: nonzero cross element
        assert np.abs(P @ L1.conj().T @ L2 @ P).max() > 0.1

    def test_identity_trivially_reversible(self):
        P = projector(jump_code(4, 0.3))
        r = kl_check(KrausSet((np.eye(16),)), P)
        assert r.reversible and abs(r.lam[0, 0] - 1.0) < 1e-12

    def test_zero_rank_projector_rejected(self):
        with pytest.raises(ValueError):
            kl_check(KrausSet((np.eye(4),)), np.zeros((4, 4)))

    def test_nan_projector_rejected(self):
        with pytest.raises(ValueError, match="orthogonal projector"):
            kl_check(KrausSet((np.eye(4),)), np.full((4, 4), np.nan))


class TestDFSCheck:
    def test_no_jump_family_passes(self):
        kappa, t = 1.0, 0.8
        P = dfs_projector(dfs_basis(4, 2))
        K0 = no_jump_kraus(memory_model(4, kappa), t)
        r = dfs_check(KrausSet((K0,)), P)
        assert r.passed
        assert abs(r.lambdas[0] - np.exp(-kappa * t)) < 1e-12
        assert r.residuals[0] < 1e-12

    def test_jump_operator_fails(self):
        P = dfs_projector(dfs_basis(4, 2))
        r = dfs_check(KrausSet((jump_matrix(1, 4),)), P)
        assert not r.passed

    def test_identity(self):
        P = dfs_projector(dfs_basis(3, 1))
        r = dfs_check(KrausSet((np.eye(8),)), P)
        assert r.passed and abs(r.lambdas[0] - 1.0) < 1e-12

    def test_factorization_when_dfs_holds(self):
        model = memory_model(4, 1.0)
        P = dfs_projector(dfs_basis(4, 2))
        ks = KrausSet((no_jump_kraus(model, 0.3), no_jump_kraus(model, 0.9)))
        dfs = dfs_check(ks, P)
        assert dfs.passed
        predicted = np.outer(dfs.lambdas.conj(), dfs.lambdas)
        assert np.linalg.norm(kl_check(ks, P).lam - predicted) < 1e-9


class TestRecoveryUnitary:
    def test_unitary(self):
        U = recovery_unitary(jump_code(4, 0.0), 2)
        assert np.linalg.norm(U.conj().T @ U - np.eye(16)) < 1e-10

    def test_inverts_each_codeword_jump(self):
        code = jump_code(4, 0.0)
        for alpha in range(1, 5):
            U = recovery_unitary(code, alpha)
            L = jump_matrix(alpha, 4)
            for i in range(code.count):
                c = codeword_ket(code, i).amplitudes
                image = L @ c
                image /= np.linalg.norm(image)
                fid = abs(np.vdot(c, U @ image)) ** 2
                assert fid > 1.0 - 1e-10

    def test_preserves_logical_superpositions(self):
        code = jump_code(4, 0.0)
        U = recovery_unitary(code, 3)
        L = jump_matrix(3, 4)
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            a /= np.linalg.norm(a)
            psi = encode(code, a).amplitudes
            out = L @ psi
            out /= np.linalg.norm(out)
            assert abs(np.vdot(psi, U @ out)) ** 2 >= 1.0 - 1e-10

    def test_deterministic(self):
        code = jump_code(4, 0.0)
        assert np.array_equal(recovery_unitary(code, 1), recovery_unitary(code, 1))

    def test_kl_failure_raises(self):
        # deliberately non-complementary pairing: diagonal KL entries differ
        broken = JumpCode(4, 0.0, [(0b0011, 0b0101), (0b0110, 0b1001)])
        with pytest.raises(ValueError):
            recovery_unitary(broken, 1)


def gram_schmidt_completion(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend an orthonormal list to a full basis, sweeping e_0, e_1, ... in order.

    A basis vector whose support is disjoint from the candidate's is skipped:
    its projection is exactly zero. The candidate's support is tracked as the
    union of the supports subtracted from it, a superset of its nonzeros.
    """
    basis = [v.copy() for v in vectors]
    supports = [set(np.flatnonzero(v).tolist()) for v in basis]
    for j in range(dim):
        if len(basis) == dim:
            break
        cand = np.zeros(dim, dtype=complex)
        cand[j] = 1.0
        support = {j}
        for _ in range(2):  # re-orthogonalize for stability
            for b, b_support in zip(basis, supports):
                if support.isdisjoint(b_support):
                    continue
                cand = cand - np.vdot(b, cand) * b
                support |= b_support
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
            supports.append(set(np.flatnonzero(basis[-1]).tolist()))
    if len(basis) != dim:
        raise ValueError("failed to complete orthonormal basis")
    return basis


def gram_schmidt_recovery(code: JumpCode, alpha: int, out_basis: list[np.ndarray]) -> np.ndarray:
    """Oracle: map the normalized jump images onto the code words and complete
    both lists by Gram-Schmidt over the whole computational basis.

    ``out_basis`` is ``gram_schmidt_completion`` of the code words; it does not
    depend on alpha, so callers build it once per code.
    """
    L = jump_matrix(alpha, code.N)
    images = []
    for i in range(code.count):
        v = L @ codeword_ket(code, i).amplitudes
        images.append(v / np.linalg.norm(v))
    in_basis = gram_schmidt_completion(images, 2**code.N)
    U = np.zeros((2**code.N, 2**code.N), dtype=complex)
    for out_v, in_v in zip(out_basis, in_basis):
        U += np.outer(out_v, in_v.conj())
    return U


SWAPPED_REPRESENTATIVES = [(0b1100, 0b0011), (0b0101, 0b1010), (0b0110, 0b1001)]


class TestClosedFormRecovery:
    @pytest.mark.parametrize("phase", [0.0, 0.3, np.pi])
    @pytest.mark.parametrize("code_of", [
        lambda phase: jump_code(2, phase),
        lambda phase: jump_code(4, phase),
        lambda phase: jump_code(6, phase),
        lambda phase: jump_code(8, phase),
        lambda phase: JumpCode(4, phase, SWAPPED_REPRESENTATIVES),
    ], ids=["n2", "n4", "n6", "n8", "n4-swapped"])
    def test_matches_gram_schmidt_oracle(self, code_of, phase):
        code = code_of(phase)
        codewords = [codeword_ket(code, i).amplitudes for i in range(code.count)]
        out_basis = gram_schmidt_completion(codewords, 2**code.N)
        for alpha in range(1, code.N + 1):
            want = gram_schmidt_recovery(code, alpha, out_basis)
            assert np.abs(recovery_unitary(code, alpha) - want).max() <= 2e-16

    def test_non_complementary_pair_is_rejected(self):
        # A one-word code passes kl_check for any jump (its projector has
        # rank one), and Gram-Schmidt would complete its two-string jump
        # image; the closed form needs complementary pairs.
        code = JumpCode(4, 0.0, [(0b0011, 0b0101)])
        assert kl_check(KrausSet((jump_matrix(1, 4),)), projector(code)).reversible
        with pytest.raises(ValueError, match="not complementary"):
            recovery_unitary(code, 1)

    # The pair check replaces a dense Knill-Laflamme guard: complementary
    # pairs of distinct strings give P L^+ L P = P/2 for every jump.
    @pytest.mark.parametrize("phase", [0.0, 0.3, np.pi])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_every_single_jump_is_reversible_with_lambda_one_half(self, n, phase):
        code = jump_code(n, phase)
        P = projector(code)
        for alpha in range(1, n + 1):
            report = kl_check(KrausSet((jump_matrix(alpha, n),)), P)
            assert report.reversible
            assert abs(report.lam[0, 0] - 0.5) <= 1e-12
            assert report.residual <= 1e-12

    @pytest.mark.parametrize("words", [
        [(0b0011, 0b1100), (0b0011, 0b1100)],
        [(0b0011, 0b1100), (0b1100, 0b0011), (0b0101, 0b1010)],
    ], ids=["repeated", "swapped"])
    def test_shared_basis_string_is_rejected(self, words):
        with pytest.raises(ValueError, match="share a basis string"):
            recovery_unitary(JumpCode(4, 0.3, words), 1)

    def test_empty_code_is_rejected(self):
        with pytest.raises(ValueError, match="no code words"):
            recovery_unitary(JumpCode(4, 0.0, words=[]), 1)

    @pytest.mark.parametrize("phase", [0.0, 0.3, np.pi])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_map_application_matches_dense_product(self, n, phase):
        code = jump_code(n, phase)
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(16, 2**n)) + 1j * rng.normal(size=(16, 2**n))
        for alpha in range(1, n + 1):
            got = apply_recovery(rows, recovery_map(code, alpha))
            want = rows @ recovery_unitary(code, alpha).T
            err = np.linalg.norm(got - want, axis=1)
            assert (err <= 1e-15 * np.linalg.norm(rows, axis=1)).all()


class TestCorrectTrajectory:
    def setup_method(self):
        self.code = jump_code(4, 0.0)
        self.model = memory_model(4, 1.0)
        rng = np.random.default_rng(8)
        self.logical = rng.normal(size=3) + 1j * rng.normal(size=3)
        self.logical /= np.linalg.norm(self.logical)
        self.psi = encode(self.code, self.logical)

    def test_zero_jump_full_fidelity(self):
        rec = run_trajectory(self.model, self.psi, 0.05, 2, trajectory_id=0)
        if not rec.jump_counts[0]:
            _, fid = correct_trajectory(rec, self.code, self.logical)
            assert fid[0] > 1.0 - 1e-12

    def test_every_trajectory_recovers(self):
        batch = run_trajectories(self.model, self.psi, 3.0, 5, range(60))
        _, fids = correct_trajectory(batch, self.code, self.logical)
        for traj, fid in enumerate(fids):
            assert fid >= 1.0 - 1e-9, (traj, batch.jump_counts[traj], fid)
        assert batch.jump_counts.sum() > 60  # multi-jump records exercised

    def test_record_code_mismatch(self):
        rec = run_trajectory(memory_model(2, 1.0), encode(jump_code(2), [1.0]), 1.0, 3)
        with pytest.raises(ValueError):
            correct_trajectory(rec, self.code, self.logical)

    # 0 pads a batch row, so the qubits below and above 1..N are -1 and N + 1.
    @pytest.mark.parametrize("alpha", [-1, 5])
    def test_jump_qubit_out_of_range(self, alpha):
        batch = TrajectoryBatch(
            4, np.array([[0.1]]), np.array([[alpha]]), self.psi.amplitudes[None, :],
            np.zeros(1, dtype=bool),
        )
        with pytest.raises(ValueError, match="must lie in 0..4"):
            correct_trajectory(batch, self.code, self.logical)

    # At N = 8 only qubits 1 and 5 decay, so two recoveries are built, not eight.
    @pytest.mark.parametrize("n, kappas", [(4, 1.0), (8, [1.0, 0, 0, 0, 0.7, 0, 0, 0])])
    def test_is_one_row_of_the_batch_replay(self, n, kappas):
        code = jump_code(n, 0.0)
        rng = np.random.default_rng(n)
        logical = rng.normal(size=code.count) + 1j * rng.normal(size=code.count)
        psi = encode(code, logical).normalized()
        T = 2.0
        batch = run_trajectories(memory_model(n, kappas), psi, T, 11, range(40))
        assert batch.jump_counts.max() >= 2
        states, fidelities = replay_records(
            code,
            psi.amplitudes,
            batch.jump_times,
            batch.jump_qubits,
            np.ones(batch.jump_qubits.shape, dtype=bool),
            memory_model(n, 0.0),
            delay=0.0,
            horizon=T,
        )
        for row in range(40):
            one_row = run_trajectory(memory_model(n, kappas), psi, T, 11, trajectory_id=row)
            state, fidelity = correct_trajectory(one_row, code, logical)
            assert state[0].tobytes() == states[row].tobytes()
            assert fidelity[0] == fidelities[row]
        all_states, all_fidelities = correct_trajectory(batch, code, logical)
        assert all_states.tobytes() == states.tobytes()
        assert all_fidelities.tobytes() == fidelities.tobytes()


class TestReplayAgainstEventLoop:
    """``run_experiment``'s replay against a one-row reference written from
    ``replay_records``' docstring: a loop over each record's time-ordered jumps
    and recoveries, with dense operators and the diagonal no-jump flow, that
    normalizes after every event."""

    MISMATCH = {4: [1.3, 0.7, 1.0, 1.0], 6: [1.3, 0.7, 0.0, 1.0, 1.2, 0.9]}

    @staticmethod
    def reference(code, psi_enc, rates, times, qubits, detected, delay, T):
        lower = {a: jump_matrix(a, code.N) for a in range(1, code.N + 1)}

        def unit(v):
            return v / np.linalg.norm(v)

        psi, now = psi_enc, 0.0
        for k, (t, alpha) in enumerate(zip(times, qubits)):
            psi = unit(np.exp(-0.5 * rates * (t - now)) * psi)
            psi = lower[alpha] @ psi
            if np.linalg.norm(psi) < 1e-150:
                return 0.0  # the record has no weight under the replayed state
            psi, now = unit(psi), t
            if detected[k]:
                fire = min(t + delay, times[k + 1] if k + 1 < len(times) else np.inf, T)
                psi = unit(np.exp(-0.5 * rates * (fire - now)) * psi)
                psi, now = unit(recovery_unitary(code, alpha) @ psi), fire
        psi = unit(np.exp(-0.5 * rates * (T - now)) * psi)
        return abs(np.vdot(psi_enc, psi)) ** 2

    @pytest.mark.parametrize("delay", [0.0, 0.2, 5.0], ids=["no-delay", "delay", "past-T"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_each_row_matches_the_event_loop(self, n, delay):
        T, seed, p_miss = 3.0, 3, 0.3
        config = ExperimentConfig(n, 0.3, [1.0], T, 150, seed, delay, self.MISMATCH[n], p_miss)
        batch, fidelities, _ = run_experiment(config)
        code = jump_code(n, 0.3)
        rng = trajectory_rng(seed, 0)  # the logical state's stream
        logical = rng.normal(size=code.count) + 1j * rng.normal(size=code.count)
        psi_enc = encode(code, logical / np.linalg.norm(logical)).normalized().amplitudes
        index = np.arange(2**n)
        rates = sum(m * ((index >> a) & 1) for a, m in enumerate(self.MISMATCH[n]))
        inside = 0  # detected jumps whose next jump falls inside the recovery window
        for row in range(len(fidelities)):
            count = batch.jump_counts[row]
            times, qubits = batch.jump_times[row, :count], batch.jump_qubits[row, :count]
            # Row r's detection coins are the first draws of stream (seed, r + 1, 1).
            detected = trajectory_rng(seed, row + 1, 1).random(count) >= p_miss
            inside += np.count_nonzero(detected[:-1] & (times[1:] < times[:-1] + delay))
            expected = self.reference(code, psi_enc, rates, times, qubits, detected, delay, T)
            assert abs(fidelities[row] - expected) <= 1e-12, (row, times, qubits, detected)
        assert (inside > 0) == (delay > 0)

    def test_a_coin_equal_to_p_miss_detects_its_jump(self):
        """A jump is detected when its coin is >= p_miss, ties included: with
        p_miss set to the smallest coin of the first row that jumps, every
        jump of that row is detected and recovered, so its fidelity is 1."""
        batch = run_experiment(ExperimentConfig(4, 0.0, [1.0], 3.0, 20, 7))[0]
        row = int(np.flatnonzero(batch.jump_counts)[0])
        coins = trajectory_rng(7, row + 1, 1).random(batch.jump_counts[row])
        config = ExperimentConfig(4, 0.0, [1.0], 3.0, 20, 7, p_miss=float(coins.min()))
        fidelities = run_experiment(config)[1]
        assert fidelities[row] >= 1.0 - 1e-12, (row, coins, fidelities[row])


class TestBruteForceAgreement:
    """kl_check verdicts vs the independent transpose-channel recovery oracle."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_known_position_agrees(self, n):
        code = jump_code(n, 0.0)
        P = projector(code)
        for alpha in (1, n // 2, n):
            ks = KrausSet((jump_matrix(alpha, n),))
            verdict = kl_check(ks, P).reversible
            assert verdict == petz_recovery_exact(ks, P)
            assert verdict

    @pytest.mark.parametrize("n", [4, 6])
    def test_unknown_position_agrees(self, n):
        code = jump_code(n, 0.0)
        P = projector(code)
        ks = KrausSet((jump_matrix(1, n), jump_matrix(2, n)))
        verdict = kl_check(ks, P).reversible
        assert verdict == petz_recovery_exact(ks, P)
        assert not verdict

    def test_identity_agrees(self):
        P = projector(jump_code(4, 0.0))
        ks = KrausSet((np.eye(16),))
        assert kl_check(ks, P).reversible
        assert petz_recovery_exact(ks, P)



def test_verify_kl_rejects_an_unknown_check():
    with pytest.raises(ValueError, match="unknown KL check"):
        verify_kl("sideways")


@pytest.mark.parametrize("kappa", [1e-20, 1e-10, 1e-6, 1.0, 1e4, 1e8])
def test_verify_verdicts_do_not_depend_on_kappa(kappa):
    """The code's reversibility does not depend on the decay rate: every
    check passes with the same verdicts, and the report is in physical units."""
    kl = verify_kl(kappa=kappa)
    assert kl["pass"] is True
    for a in range(1, 5):
        entry = kl["checks"][f"L{a}"]
        assert entry["verdict"] == "reversible"
        assert entry["expected_lambda"] == kappa / 2
        assert abs(entry["lambda"] - kappa / 2) <= 1e-12 * kappa
    pair = kl["checks"]["L1,L2"]
    assert pair["verdict"] == "not reversible"
    assert abs(pair["offdiagonal_witness"] - kappa / 4) <= 1e-12 * kappa
    dfs = verify_dfs(kappa=kappa)
    assert dfs["pass"] is True
    assert all(entry["pass"] for entry in dfs["checks"].values())
    assert abs(dfs["checks"]["L1"]["residual"] - np.sqrt(kappa)) <= 1e-12 * np.sqrt(kappa)

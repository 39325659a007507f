import numpy as np
import pytest

from jumpcodes.codes import JumpCode, codeword_ket, dfs_basis, dfs_projector, encode, jump_code, projector
from jumpcodes.dynamics import (
    KrausSet,
    TrajectoryRecord,
    memory_model,
    no_jump_kraus,
    run_trajectories,
    run_trajectory,
)
from jumpcodes.qec import (
    apply_recovery,
    correct_trajectory,
    dfs_check,
    kl_check,
    recovery_map,
    recovery_unitary,
    replay_records,
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


class TestDFSCheck:
    def test_no_jump_family_passes(self):
        kappa, t = 1.0, 0.8
        P = dfs_projector(dfs_basis(4, 2))
        K0 = no_jump_kraus(memory_model(4, kappa), t).matrix
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
        ks = KrausSet((no_jump_kraus(model, 0.3).matrix, no_jump_kraus(model, 0.9).matrix))
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
        broken = JumpCode(4, 0.0, [("0011", "0101"), ("0110", "1001")])
        with pytest.raises(ValueError):
            recovery_unitary(broken, 1)


def gram_schmidt_completion(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extend an orthonormal list to a full basis, sweeping e_0, e_1, ... in order."""
    basis = [v.copy() for v in vectors]
    for j in range(dim):
        if len(basis) == dim:
            break
        cand = np.zeros(dim, dtype=complex)
        cand[j] = 1.0
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis:
                cand = cand - np.vdot(b, cand) * b
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            basis.append(cand / norm)
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


SWAPPED_REPRESENTATIVES = [("1100", "0011"), ("0101", "1010"), ("0110", "1001")]


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
        code = JumpCode(4, 0.0, [("0011", "0101")])
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

    @pytest.mark.parametrize("pairs", [
        [("0011", "1100"), ("0011", "1100")],
        [("0011", "1100"), ("1100", "0011"), ("0101", "1010")],
    ], ids=["repeated", "swapped"])
    def test_shared_basis_string_is_rejected(self, pairs):
        with pytest.raises(ValueError, match="share a basis string"):
            recovery_unitary(JumpCode(4, 0.3, pairs), 1)

    def test_empty_code_is_rejected(self):
        with pytest.raises(ValueError, match="no code words"):
            recovery_unitary(JumpCode(4, 0.0, []), 1)

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
        if not rec.jumps:
            _, fid = correct_trajectory(rec, self.code, self.logical)
            assert fid > 1.0 - 1e-12

    def test_every_trajectory_recovers(self):
        total_jumps = 0
        for traj in range(60):
            rec = run_trajectory(self.model, self.psi, 3.0, 5, trajectory_id=traj)
            _, fid = correct_trajectory(rec, self.code, self.logical)
            assert fid >= 1.0 - 1e-9, (traj, len(rec.jumps), fid)
            total_jumps += len(rec.jumps)
        assert total_jumps > 60  # multi-jump records exercised

    def test_record_code_mismatch(self):
        rec = run_trajectory(memory_model(2, 1.0), encode(jump_code(2), [1.0]), 1.0, 3)
        with pytest.raises(ValueError):
            correct_trajectory(rec, self.code, self.logical)

    @pytest.mark.parametrize("alpha", [0, 5])
    def test_jump_qubit_out_of_range(self, alpha):
        rec = TrajectoryRecord([(0.1, alpha)], self.psi)
        with pytest.raises(ValueError, match="out of range"):
            correct_trajectory(rec, self.code, self.logical)

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
            np.zeros(psi.dim),
            delay=0.0,
            horizon=T,
        )
        for row, rec in enumerate(batch.records()):
            state, fidelity = correct_trajectory(rec, code, logical)
            assert state.amplitudes.tobytes() == states[row].tobytes()
            assert fidelity == fidelities[row]


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

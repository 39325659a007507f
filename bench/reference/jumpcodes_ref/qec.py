"""Channel-level verification and recovery synthesis for detected jumps.

The reversibility criterion: a Kraus set {K_l} is reversible on the subspace
with projector P iff P K_l^+ K_l' P = Lambda_{ll'} P for a positive
semidefinite matrix Lambda. The stricter one-sided condition
K_l P = lambda_l P marks a decoherence-free subspace, in which case
Lambda factorizes as lambda_l^* lambda_l'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import JumpCode, codeword_ket, encode, projector
from .dynamics import KrausSet, TrajectoryRecord
from .states import Ket, LOWER, LocalOperator, apply_local, local_to_dense

DEFAULT_TOL = 1e-9


@dataclass
class KLReport:
    lam: np.ndarray
    residual: float
    psd_ok: bool
    reversible: bool

    @property
    def verdict(self) -> str:
        return "reversible" if self.reversible else "not reversible"


@dataclass
class DFSReport:
    lambdas: np.ndarray
    residuals: np.ndarray
    passed: bool


def _check_projector(P: np.ndarray) -> int:
    if np.linalg.norm(P @ P - P) > 1e-9 or np.linalg.norm(P - P.conj().T) > 1e-9:
        raise ValueError("P must be an orthogonal projector")
    rank = int(round(np.trace(P).real))
    if rank == 0:
        raise ValueError("projector has rank zero")
    return rank


def kl_check(ks: KrausSet, P: np.ndarray, tol: float = DEFAULT_TOL) -> KLReport:
    """Test P K_l^+ K_l' P = Lambda_{ll'} P with Lambda extracted by trace."""
    rank = _check_projector(P)
    m = len(ks.operators)
    lam = np.zeros((m, m), dtype=complex)
    residual = 0.0
    for l, Kl in enumerate(ks.operators):
        for lp, Klp in enumerate(ks.operators):
            M = P @ Kl.conj().T @ Klp @ P
            lam[l, lp] = np.trace(M) / rank
            residual = max(residual, float(np.linalg.norm(M - lam[l, lp] * P, 2)))
    lam = 0.5 * (lam + lam.conj().T)
    psd_ok = bool(np.linalg.eigvalsh(lam).min() >= -1e-9)
    return KLReport(lam, residual, psd_ok, residual <= tol and psd_ok)


def dfs_check(ks: KrausSet, P: np.ndarray, tol: float = DEFAULT_TOL) -> DFSReport:
    """Test the one-sided condition K_l P = lambda_l P per operator."""
    rank = _check_projector(P)
    lambdas = np.zeros(len(ks.operators), dtype=complex)
    residuals = np.zeros(len(ks.operators))
    for l, K in enumerate(ks.operators):
        lambdas[l] = np.trace(K @ P) / rank
        residuals[l] = np.linalg.norm(K @ P - lambdas[l] * P, 2)
    return DFSReport(lambdas, residuals, bool(residuals.max() <= tol))


def dfs_factorization_residual(ks: KrausSet, P: np.ndarray) -> float:
    """|Lambda - lambda^* lambda^T| consistency between the two criteria."""
    kl = kl_check(ks, P)
    dfs = dfs_check(ks, P)
    predicted = np.outer(dfs.lambdas.conj(), dfs.lambdas)
    return float(np.linalg.norm(kl.lam - predicted))


def choi_matrix(ks: KrausSet) -> np.ndarray:
    """Choi matrix via column-stacked vectorization: sum vec(K) vec(K)^+."""
    d = ks.dimension
    C = np.zeros((d * d, d * d), dtype=complex)
    for K in ks.operators:
        v = K.reshape(-1, order="F")
        C += np.outer(v, v.conj())
    return C


def kraus_equivalent(a: KrausSet, b: KrausSet, tol: float = DEFAULT_TOL) -> bool:
    """Same channel iff equal Choi matrices (the unitary-mixing freedom)."""
    if a.dimension != b.dimension:
        raise ValueError("Kraus sets act on different dimensions")
    return bool(np.linalg.norm(choi_matrix(a) - choi_matrix(b)) <= tol)


def _gram_schmidt_completion(vectors: list[np.ndarray], dim: int) -> list[np.ndarray]:
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


def recovery_unitary(code: JumpCode, alpha: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary mapping each normalized L_alpha|c_i> back to |c_i>.

    The partial isometry on the jump image is completed to a full unitary by
    deterministic Gram-Schmidt over the computational basis, so the operator
    is reproducible bit-for-bit across runs.
    """
    if not (1 <= alpha <= code.N):
        raise ValueError(f"qubit {alpha} out of range")
    dim = 2**code.N
    P = projector(code)
    L = local_to_dense(LocalOperator((alpha,), LOWER), code.N)
    report = kl_check(KrausSet((L,)), P, tol)
    if not report.reversible:
        raise ValueError(
            f"single jump on qubit {alpha} is not reversible on this code "
            f"(residual {report.residual:.3e})"
        )
    images = []
    codewords = []
    for i in range(code.count):
        c = codeword_ket(code, i).amplitudes
        v = L @ c
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise ValueError(f"jump image of code word {i} is degenerate")
        images.append(v / norm)
        codewords.append(c)
    in_basis = _gram_schmidt_completion(images, dim)
    out_basis = _gram_schmidt_completion(codewords, dim)
    U = np.zeros((dim, dim), dtype=complex)
    for out_v, in_v in zip(out_basis, in_basis):
        U += np.outer(out_v, in_v.conj())
    return U


_recovery_cache: dict[tuple, np.ndarray] = {}


def _cached_recovery(code: JumpCode, alpha: int) -> np.ndarray:
    key = (code.N, code.phase, tuple(code.pairs), alpha)
    if key not in _recovery_cache:
        _recovery_cache[key] = recovery_unitary(code, alpha)
    return _recovery_cache[key]


def correct_trajectory(
    record: TrajectoryRecord, code: JumpCode, logical: np.ndarray
) -> tuple[Ket, float]:
    """Replay a memory-model trajectory applying recovery after each jump.

    Between jumps the no-jump flow is a scalar on any equal-excitation sector,
    so renormalized replay only needs the jump/recovery operators. Returns the
    corrected final state and its overlap fidelity with the encoded input.
    """
    psi_enc = encode(code, np.asarray(logical, dtype=complex)).normalized()
    if record.final_state.n_qubits != code.N:
        raise ValueError("record and code qubit counts differ")
    psi = psi_enc
    for _, alpha in record.jumps:
        jumped = apply_local(LocalOperator((alpha,), LOWER), psi)
        norm = jumped.norm()
        if norm < 1e-12:
            raise ValueError(f"recorded jump on qubit {alpha} annihilates the state")
        psi = Ket(code.N, (_cached_recovery(code, alpha) @ jumped.amplitudes) / norm)
    fidelity = float(abs(psi_enc.overlap(psi)) ** 2)
    return psi, fidelity


def kl_report_to_json(report: KLReport) -> dict:
    return {
        "lambda": [[[float(x.real), float(x.imag)] for x in row] for row in report.lam],
        "residual": float(report.residual),
        "psd_ok": bool(report.psd_ok),
        "verdict": report.verdict,
    }


def petz_recovery_exact(ks: KrausSet, P: np.ndarray, tol: float = 1e-8) -> bool:
    """Independent reversibility oracle: does the transpose-channel recovery
    restore every code-space state?

    Builds R_l = P K_l^+ sigma^{-1/2} with sigma the channel output of the
    maximally mixed code state, then checks R(E(rho)) = c * rho with one
    common constant c on a basis of code-space operators. The transpose
    channel recovers exactly precisely when the operation is reversible, so
    the proportionality test decides the verdict without touching Lambda.
    """
    rank = _check_projector(P)
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

"""Spontaneous-decay dynamics: master-equation integration, the no-jump
Kraus family, and Monte-Carlo trajectory unraveling with jump records.

The master equation is used in the standard GKSL normalization

    drho/dt = -i[H, rho] + sum_a (L_a rho L_a^+ - 1/2 {L_a^+ L_a, rho})

with L_a = sqrt(kappa_a) |0_a><1_a|, so a lone excited qubit decays as
exp(-kappa t) and the no-jump generator is H - (i/2) sum_a kappa_a n_a.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as dense_expm

from .states import (
    DenseOperator,
    Ket,
    LocalOperator,
    LOWER,
    NUMBER,
    OperatorSum,
    apply_local,
    sum_to_dense,
)

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_TOL = 1e-8
JUMP_TIME_REL_TOL = 1e-10
_NORM_FLOOR = 1e-28  # squared-norm underflow guard


@dataclass
class LindbladModel:
    """Coherent Hamiltonian plus per-qubit decay channels (alpha, kappa_alpha)."""

    n_qubits: int
    hamiltonian: OperatorSum | LocalOperator | None
    channels: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if isinstance(self.hamiltonian, LocalOperator):
            self.hamiltonian = OperatorSum((self.hamiltonian,))
        self.channels = tuple((int(a), float(k)) for a, k in self.channels)
        qubits = [a for a, _ in self.channels]
        if len(set(qubits)) != len(qubits):
            raise ValueError("channel qubits must be distinct")
        if any(a < 1 or a > self.n_qubits for a in qubits):
            raise ValueError("channel qubit out of range")
        if any(k < 0 for _, k in self.channels):
            raise ValueError("decay rates must be non-negative")

    def decay_rates(self) -> np.ndarray:
        """Total decay rate of each basis state: sum of kappa over its excited channels."""
        dim = 2**self.n_qubits
        idx = np.arange(dim)
        rates = np.zeros(dim)
        for alpha, kappa in self.channels:
            rates += kappa * ((idx >> (alpha - 1)) & 1)
        return rates

    def jump_operator(self, alpha: int) -> LocalOperator:
        kappa = dict(self.channels)[alpha]
        return LocalOperator((alpha,), np.sqrt(kappa) * LOWER)


def memory_model(n_qubits: int, kappas: float | list[float]) -> LindbladModel:
    """Decay-only model (H = 0); scalar kappa means equal rates on all qubits."""
    if np.isscalar(kappas):
        kappas = [float(kappas)] * n_qubits
    channels = tuple((a + 1, k) for a, k in enumerate(kappas))
    return LindbladModel(n_qubits, None, channels)


@dataclass
class DensityMatrix:
    """Unit-trace hermitian matrix with validated positivity."""

    matrix: np.ndarray
    eig_tol: float = EIG_TOL

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or abs(np.trace(mat).imag) > TRACE_TOL:
            raise ValueError(f"trace {np.trace(mat)} is not 1")
        if np.linalg.norm(mat - mat.conj().T) > HERM_TOL:
            raise ValueError("density matrix is not hermitian")
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if eigs.min() < -self.eig_tol:
            raise ValueError(f"negative eigenvalue {eigs.min()}")
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def pure_density(psi: Ket) -> DensityMatrix:
    v = psi.normalized().amplitudes
    return DensityMatrix(np.outer(v, v.conj()))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eigs).sum())


@dataclass
class TrajectoryRecord:
    """One measurement record: jump times/positions plus the conditioned state."""

    jumps: list[tuple[float, int]]
    final_state: Ket
    weight: float = 1.0
    absorbed: bool = False

    def __post_init__(self):
        times = [t for t, _ in self.jumps]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("jump times must be strictly increasing")


def effective_hamiltonian(model: LindbladModel) -> OperatorSum:
    """No-jump generator H - (i/2) sum_a kappa_a |1_a><1_a|."""
    terms = list(model.hamiltonian.terms) if model.hamiltonian is not None else []
    for alpha, kappa in model.channels:
        if kappa > 0.0:
            terms.append(LocalOperator((alpha,), -0.5j * kappa * NUMBER))
    return OperatorSum(tuple(terms))


def no_jump_kraus(model: LindbladModel, t: float) -> DenseOperator:
    """exp(-sum_a kappa_a n_a t / 2): the zero-count Kraus family of the memory case."""
    if model.hamiltonian is not None and model.hamiltonian.terms:
        raise ValueError("no-jump Kraus family is defined for the H = 0 memory case")
    if t < 0:
        raise ValueError("time must be non-negative")
    return DenseOperator(np.diag(np.exp(-0.5 * model.decay_rates() * t)))


def _lindblad_rhs(model: LindbladModel, H: np.ndarray | None, Ls: list[np.ndarray]):
    LdL = [L.conj().T @ L for L in Ls]

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        if H is not None:
            out += -1j * (H @ rho - rho @ H)
        for L, ldl in zip(Ls, LdL):
            out += L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        return out

    return rhs


def integrate_master(
    model: LindbladModel, rho0: DensityMatrix, T: float, dt: float
) -> DensityMatrix:
    """Fixed-step RK4 integration of the master equation (dense, N <= 8)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be non-negative")
    if model.n_qubits > 8:
        raise ValueError("dense master integration limited to 8 qubits")
    dim = 2**model.n_qubits
    if rho0.dimension != dim:
        raise ValueError("state dimension does not match model")
    H = (
        sum_to_dense(model.hamiltonian, model.n_qubits)
        if model.hamiltonian is not None and model.hamiltonian.terms
        else None
    )
    Ls = [
        local_to_dense_jump(model, alpha)
        for alpha, kappa in model.channels
        if kappa > 0.0
    ]
    rhs = _lindblad_rhs(model, H, Ls)
    rho = rho0.matrix.copy()
    t = 0.0
    while t < T - 1e-15:
        h = min(dt, T - t)
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho / np.trace(rho).real, eig_tol=1e-7)


def local_to_dense_jump(model: LindbladModel, alpha: int) -> np.ndarray:
    from .states import local_to_dense

    return local_to_dense(model.jump_operator(alpha), model.n_qubits)


def trajectory_rng(seed: int, trajectory_id: int, stream: int = 0) -> np.random.Generator:
    """Counter-based per-trajectory stream: Philox keyed by (seed, id, stream)."""
    key = np.random.SeedSequence((seed, trajectory_id, stream)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _NoJumpFlow:
    """Unnormalized no-jump propagation from a fixed start state."""

    def __init__(self, model: LindbladModel, psi: np.ndarray):
        self.model = model
        self.psi0 = psi
        self.diagonal = model.hamiltonian is None or not model.hamiltonian.terms
        if self.diagonal:
            self.rates = model.decay_rates()
            self.weights = np.abs(psi) ** 2
        else:
            self.h_eff = sum_to_dense(effective_hamiltonian(model), model.n_qubits)

    def state(self, t: float) -> np.ndarray:
        if self.diagonal:
            return self.psi0 * np.exp(-0.5 * self.rates * t)
        return dense_expm(-1j * t * self.h_eff) @ self.psi0

    def norm_sq(self, t: float) -> float:
        if self.diagonal:
            return float(np.sum(self.weights * np.exp(-self.rates * t)))
        return float(np.linalg.norm(self.state(t)) ** 2)


def _bisect_jump_time(flow: _NoJumpFlow, horizon: float, threshold: float) -> float:
    """Time where the squared norm crosses ``threshold``; norm is monotone."""
    lo, hi = 0.0, horizon
    while hi - lo > JUMP_TIME_REL_TOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if flow.norm_sq(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def jump_channel_weights(model: LindbladModel, psi: Ket) -> np.ndarray:
    """||L_alpha psi||^2 for each channel: unnormalized jump-channel weights."""
    probs = np.abs(psi.amplitudes) ** 2
    idx = np.arange(psi.dim)
    out = np.zeros(len(model.channels))
    for j, (alpha, kappa) in enumerate(model.channels):
        out[j] = kappa * probs[((idx >> (alpha - 1)) & 1) == 1].sum()
    return out


def run_trajectory(
    model: LindbladModel, psi0: Ket, T: float, rng_seed: int, trajectory_id: int = 0
) -> TrajectoryRecord:
    """Simulate one quantum trajectory up to horizon T.

    Between jumps the state follows exp(-i H_eff t); a jump fires when the
    squared norm crosses a uniform threshold (bisection to relative time
    tolerance 1e-10), the channel is drawn with probability proportional to
    ||L_alpha psi||^2, and the state is replaced by the normalized L_alpha psi.
    """
    if not psi0.is_normalized(1e-9):
        raise ValueError("initial state must be normalized")
    rng = trajectory_rng(rng_seed, trajectory_id)
    psi = psi0.amplitudes.copy()
    t = 0.0
    jumps: list[tuple[float, int]] = []
    weight = 1.0
    while t < T:
        flow = _NoJumpFlow(model, psi)
        threshold = rng.uniform()
        remaining = T - t
        end_sq = flow.norm_sq(remaining)
        if end_sq > threshold:
            final = flow.state(remaining)
            weight *= end_sq
            norm = np.linalg.norm(final)
            return TrajectoryRecord(jumps, Ket(psi0.n_qubits, final / norm), weight)
        if end_sq < _NORM_FLOOR and flow.norm_sq(0.0) < _NORM_FLOOR:
            return TrajectoryRecord(
                jumps, Ket(psi0.n_qubits, psi), weight, absorbed=True
            )
        s = _bisect_jump_time(flow, remaining, threshold)
        pre_jump = flow.state(s)
        weight *= threshold  # squared norm at the crossing
        pre_ket = Ket(psi0.n_qubits, pre_jump / np.linalg.norm(pre_jump))
        channel_w = jump_channel_weights(model, pre_ket)
        total = channel_w.sum()
        if total <= 0.0:
            return TrajectoryRecord(jumps, pre_ket, weight, absorbed=True)
        j = int(rng.choice(len(channel_w), p=channel_w / total))
        alpha = model.channels[j][0]
        jumped = apply_local(model.jump_operator(alpha), pre_ket)
        jump_sq = jumped.norm() ** 2
        weight *= jump_sq
        psi = jumped.amplitudes / np.sqrt(jump_sq)
        t += s
        jumps.append((t, alpha))
    return TrajectoryRecord(jumps, Ket(psi0.n_qubits, psi), weight)


def average_trajectories(
    model: LindbladModel, psi0: Ket, T: float, count: int, seed: int
) -> DensityMatrix:
    """Mean projector over ``count`` trajectories, deterministically reduced.

    Per-trajectory streams derive from (seed, trajectory_id); the reduction is
    a chunked pairwise sum so the result is independent of scheduling.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = psi0.dim
    chunk = 1024
    partials = []
    for start in range(0, count, chunk):
        ids = range(start, min(start + chunk, count))
        block = np.empty((len(ids), dim, dim), dtype=complex)
        for row, traj_id in enumerate(ids):
            v = run_trajectory(model, psi0, T, seed, traj_id).final_state.amplitudes
            block[row] = np.outer(v, v.conj())
        partials.append(block.sum(axis=0))
    total = np.sum(np.stack(partials), axis=0) / count
    total = 0.5 * (total + total.conj().T)
    return DensityMatrix(total / np.trace(total).real, eig_tol=1e-7)


@dataclass
class KrausSet:
    """Finite set of error operators; ``complete`` asserts sum K^+ K = 1."""

    operators: tuple[np.ndarray, ...]
    complete: bool = False

    def __post_init__(self):
        ops = tuple(np.asarray(K, dtype=complex) for K in self.operators)
        if not ops:
            raise ValueError("need at least one operator")
        d = ops[0].shape[0]
        if any(K.shape != (d, d) for K in ops):
            raise ValueError("all operators must be square with equal dimension")
        self.operators = ops
        if self.complete:
            total = sum(K.conj().T @ K for K in ops)
            if np.linalg.norm(total - np.eye(d)) > TRACE_TOL:
                raise ValueError("operators flagged complete do not sum to identity")

    @property
    def dimension(self) -> int:
        return self.operators[0].shape[0]


def apply_operation(ks: KrausSet, rho: DensityMatrix) -> list[tuple[float, DensityMatrix]]:
    """Outcome probabilities and normalized post-measurement states.

    Outcomes below probability 1e-14 are omitted. For a complete set the
    probabilities sum to 1 within 1e-9.
    """
    if ks.dimension != rho.dimension:
        raise ValueError("operator and state dimensions differ")
    outcomes = []
    for K in ks.operators:
        out = K @ rho.matrix @ K.conj().T
        p = float(np.trace(out).real)
        if p < 1e-14:
            continue
        out = 0.5 * (out + out.conj().T) / p
        outcomes.append((p, DensityMatrix(out, eig_tol=1e-7)))
    if ks.complete:
        total = sum(p for p, _ in outcomes)
        if abs(total - 1.0) > TRACE_TOL:
            raise ValueError(f"complete set produced total probability {total}")
    return outcomes


def records_to_csv(records: list[TrajectoryRecord]) -> str:
    """Jump log with columns (trajectory_id, t, alpha)."""
    buf = io.StringIO()
    buf.write("trajectory_id,t,alpha\n")
    for traj_id, rec in enumerate(records):
        for t, alpha in rec.jumps:
            buf.write(f"{traj_id},{t:.17g},{alpha}\n")
    return buf.getvalue()


def density_to_json(rho: DensityMatrix) -> list[list[list[float]]]:
    return [[[float(x.real), float(x.imag)] for x in row] for row in rho.matrix]

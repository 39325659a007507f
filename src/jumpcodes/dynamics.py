"""Spontaneous-decay dynamics: master-equation integration, the no-jump
Kraus family, and Monte-Carlo trajectory unraveling with jump records.

The master equation is used in the standard GKSL normalization

    drho/dt = -i[H, rho] + sum_a (L_a rho L_a^+ - 1/2 {L_a^+ L_a, rho})

with L_a = sqrt(kappa_a) |0_a><1_a|, so a lone excited qubit decays as
exp(-kappa t) and the no-jump generator is H - (i/2) sum_a kappa_a n_a.
"""

from __future__ import annotations

import io
import itertools
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
    apply_local,  # noqa: F401  bench/test_tracing.py expects every module to bind it
    lower_rows,
    row_norms,
    sum_to_dense,
)

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_TOL = 1e-8
JUMP_TIME_REL_TOL = 1e-10


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
    """Counter-based per-trajectory stream: Philox keyed by (seed, id, stream).

    Philox takes its key as ``generate_state(2, np.uint64)`` of the given
    SeedSequence, with the counter at zero.
    """
    seq = np.random.SeedSequence((seed, trajectory_id, stream))
    return np.random.Generator(np.random.Philox(seq))


# Rows that run_trajectories advances together. Bounds its working memory to
# a few (rows, 2^N) arrays for any number of trajectories.
TRAJECTORY_CHUNK = 1024
# average_trajectories sums the projectors of this many consecutive ids per
# partial. Fixed apart from TRAJECTORY_CHUNK so the sum has one order.
_ENSEMBLE_BLOCK = 1024


class _NoJumpRows:
    """Unnormalized no-jump propagation of start rows, each to its own time."""

    def __init__(self, model: LindbladModel):
        self.diagonal = model.hamiltonian is None or not model.hamiltonian.terms
        if self.diagonal:
            self.rates = model.decay_rates()
        else:
            self.h_eff = sum_to_dense(effective_hamiltonian(model), model.n_qubits)

    def start(self, psi: np.ndarray) -> None:
        self.psi = psi
        if self.diagonal:
            self.weights = np.abs(psi) ** 2

    def state(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        if self.diagonal:
            return self.psi[rows] * np.exp(-0.5 * self.rates * t[:, None])
        propagators = dense_expm((-1j * t)[:, None, None] * self.h_eff)
        return (propagators @ self.psi[rows][:, :, None])[:, :, 0]

    def norm_sq(self, rows: np.ndarray):
        """The squared norm of start rows ``rows`` as a function of their times."""
        if self.diagonal:
            weights, neg_rates = self.weights[rows], -self.rates
            return lambda t: np.add.reduce(weights * np.exp(neg_rates * t[:, None]), axis=1)
        return lambda t: row_norms(self.state(rows, t)) ** 2


def _bisect_jump_times(
    flow: _NoJumpRows, rows: np.ndarray, horizon: np.ndarray, threshold: np.ndarray
) -> np.ndarray:
    """For each of the flow's ``rows``, the time where its squared norm
    crosses its threshold.

    The norm is monotone in time. Each row stops once its bracket is within
    the relative tolerance, so its result does not depend on the other rows.
    """
    out = np.empty_like(horizon)
    if not out.size:
        return out
    pos = np.arange(len(horizon))
    lo, hi = np.zeros_like(horizon), horizon.copy()
    norm_sq = flow.norm_sq(rows)
    # Each step halves a bracket (to within rounding), so with the factor 2
    # margin in ``limit`` no row can meet its tolerance in the first
    # ``unchecked`` steps: they skip the test.
    limit = 2.0 * JUMP_TIME_REL_TOL * np.maximum(horizon, 1.0)
    unchecked = int(np.log2(horizon / limit).min())
    for step in itertools.count():
        if step >= unchecked:
            done = hi - lo <= JUMP_TIME_REL_TOL * np.maximum(hi, 1.0)
            if done.any():
                out[pos[done]] = 0.5 * (lo[done] + hi[done])
                go = ~done
                pos, lo, hi, rows, threshold = pos[go], lo[go], hi[go], rows[go], threshold[go]
                if not pos.size:
                    return out
                norm_sq = flow.norm_sq(rows)
        mid = 0.5 * (lo + hi)
        above = norm_sq(mid) > threshold
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)


def _channel_weights(model: LindbladModel, psi: np.ndarray) -> np.ndarray:
    """||L_alpha psi_r||^2 for each row r of ``psi`` and each channel."""
    probs = np.abs(psi) ** 2
    idx = np.arange(psi.shape[1])
    out = np.zeros((psi.shape[0], len(model.channels)))
    for j, (alpha, kappa) in enumerate(model.channels):
        # Contiguous rows, so each row is summed pairwise like a 1-D array.
        excited = np.ascontiguousarray(probs[:, ((idx >> (alpha - 1)) & 1) == 1])
        out[:, j] = kappa * excited.sum(axis=1)
    return out


def jump_channel_weights(model: LindbladModel, psi: Ket) -> np.ndarray:
    """||L_alpha psi||^2 for each channel: unnormalized jump-channel weights."""
    return _channel_weights(model, psi.amplitudes[None, :])[0]


@dataclass
class TrajectoryBatch:
    """Trajectories sampled together; row r holds the r-th requested id.

    Row r jumped ``jump_counts[r]`` times; its jumps fill the first columns of
    ``jump_times`` and ``jump_qubits`` (padding: NaN and 0).
    """

    n_qubits: int
    jump_times: np.ndarray
    jump_qubits: np.ndarray
    final_states: np.ndarray
    weights: np.ndarray
    absorbed: np.ndarray

    @property
    def jump_counts(self) -> np.ndarray:
        return np.count_nonzero(self.jump_qubits, axis=1)

    def records(self) -> list[TrajectoryRecord]:
        """One TrajectoryRecord per row, in row order."""
        times, qubits = self.jump_times.tolist(), self.jump_qubits.tolist()
        rows = zip(self.jump_counts.tolist(), self.weights.tolist(), self.absorbed.tolist())
        return [
            TrajectoryRecord(
                list(zip(times[r][:n], qubits[r][:n])),
                Ket(self.n_qubits, self.final_states[r]),
                weight,
                absorbed,
            )
            for r, (n, weight, absorbed) in enumerate(rows)
        ]


def run_trajectories(
    model: LindbladModel, psi0: Ket, T: float, seed: int, ids
) -> TrajectoryBatch:
    """Simulate the trajectories ``ids`` up to horizon T, batched over rows.

    Between jumps each row follows exp(-i H_eff t); a jump fires when the
    row's squared norm crosses a uniform threshold (bisection to relative
    time tolerance 1e-10), the channel is drawn with probability proportional
    to ||L_alpha psi||^2, and the row is replaced by the normalized
    L_alpha psi. Trajectory i draws from ``trajectory_rng(seed, i)``: one
    threshold, then (if it jumps) one channel draw, per round. Each row's
    arithmetic is independent of the other rows, so a trajectory comes out
    bit for bit the same in any batch. Rows advance TRAJECTORY_CHUNK at a time.
    """
    if not psi0.is_normalized(1e-9):
        raise ValueError("initial state must be normalized")
    if not np.isfinite(T):
        raise ValueError("horizon must be finite")
    ids = [int(i) for i in ids]
    count = len(ids)
    flow = _NoJumpRows(model)
    qubits = np.array([a for a, _ in model.channels], dtype=int)
    sqrt_kappas = np.sqrt([k for _, k in model.channels])
    final = np.tile(psi0.amplitudes, (count, 1))
    weight = np.ones(count)
    absorbed = np.zeros(count, dtype=bool)
    jump_times: list[np.ndarray] = []  # per round of jumps, one entry per row
    jump_qubits: list[np.ndarray] = []
    for start in range(0, count if T > 0 else 0, TRAJECTORY_CHUNK):
        # Views of this chunk's rows; ``live`` indexes within the chunk.
        chunk = slice(start, start + TRAJECTORY_CHUNK)
        final_c, weight_c, absorbed_c = final[chunk], weight[chunk], absorbed[chunk]
        rngs = [trajectory_rng(seed, i) for i in ids[chunk]]
        psi = final_c.copy()
        t = np.zeros(len(psi))
        live = np.arange(len(psi))
        for k in itertools.count():
            draws = np.array([rngs[r].random(2) for r in live])
            flow.start(psi[live])
            remaining = T - t[live]
            end_sq = flow.norm_sq(np.arange(live.size))(remaining)
            stays = end_sq > draws[:, 0]
            if stays.any():
                end = flow.state(np.flatnonzero(stays), remaining[stays])
                weight_c[live[stays]] *= end_sq[stays]
                final_c[live[stays]] = end / row_norms(end)[:, None]
                if stays.all():
                    break

            jumping = np.flatnonzero(~stays)
            rows, (threshold, pick) = live[jumping], draws[jumping].T
            s = _bisect_jump_times(flow, jumping, remaining[jumping], threshold)
            pre = flow.state(jumping, s)
            weight_c[rows] *= threshold  # squared norm at the crossing
            pre = pre / row_norms(pre)[:, None]
            channel_w = _channel_weights(model, pre)
            total = channel_w.sum(axis=1)
            dark = total <= 0.0
            if dark.any():
                absorbed_c[rows[dark]] = True
                final_c[rows[dark]] = pre[dark]
                lit = ~dark
                rows, s, pre, pick = rows[lit], s[lit], pre[lit], pick[lit]
                channel_w, total = channel_w[lit], total[lit]
            # Generator.choice(p=w / total), bit for bit: normalized cumulative
            # weights searched (side="right") with one uniform draw.
            cdf = np.cumsum(channel_w / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
            j = np.count_nonzero(cdf <= pick[:, None], axis=1)
            jumped = lower_rows(pre, qubits[j]) * sqrt_kappas[j][:, None]
            jump_sq = row_norms(jumped) ** 2
            weight_c[rows] *= jump_sq
            psi[rows] = jumped / np.sqrt(jump_sq)[:, None]
            t[rows] += s
            if k == len(jump_times):
                jump_times.append(np.full(count, np.nan))
                jump_qubits.append(np.zeros(count, dtype=int))
            jump_times[k][chunk][rows] = t[rows]
            jump_qubits[k][chunk][rows] = qubits[j]
            over = t[rows] >= T
            final_c[rows[over]] = psi[rows[over]]
            live = rows[~over]
            if not live.size:
                break
    return TrajectoryBatch(
        psi0.n_qubits,
        np.array(jump_times, dtype=float).reshape(len(jump_times), count).T,
        np.array(jump_qubits, dtype=int).reshape(len(jump_qubits), count).T,
        final,
        weight,
        absorbed,
    )


def run_trajectory(
    model: LindbladModel, psi0: Ket, T: float, rng_seed: int, trajectory_id: int = 0
) -> TrajectoryRecord:
    """Simulate one quantum trajectory: the one-id case of run_trajectories."""
    return run_trajectories(model, psi0, T, rng_seed, [trajectory_id]).records()[0]


def average_trajectories(
    model: LindbladModel, psi0: Ket, T: float, count: int, seed: int
) -> DensityMatrix:
    """Mean projector over ``count`` trajectories, deterministically reduced.

    Per-trajectory streams derive from (seed, trajectory_id). Each block of
    consecutive ids adds its final states V as V^T V^* to the total in id
    order. The product is numpy's own loop rather than BLAS, so the result
    depends neither on batching nor on the BLAS thread count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    total = np.zeros((psi0.dim, psi0.dim), dtype=complex)
    for start in range(0, count, _ENSEMBLE_BLOCK):
        ids = range(start, min(start + _ENSEMBLE_BLOCK, count))
        V = run_trajectories(model, psi0, T, seed, ids).final_states.T.copy()
        total += np.einsum("ir,jr->ij", V, V.conj())
    total /= count
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

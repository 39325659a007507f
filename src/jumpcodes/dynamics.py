"""Spontaneous-decay dynamics: master-equation integration, the no-jump
Kraus family, and Monte-Carlo trajectory unraveling with jump records.

The master equation is used in the standard GKSL normalization

    drho/dt = -i[H, rho] + sum_a (L_a rho L_a^+ - 1/2 {L_a^+ L_a, rho})

with L_a = sqrt(kappa_a) |0_a><1_a|, so a lone excited qubit decays as
exp(-kappa t) and the no-jump generator is H - (i/2) sum_a kappa_a n_a.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .states import (
    Ket,
    LocalOperator,
    LOWER,
    apply_local,  # noqa: F401  bench/test_tracing.py expects every module to bind it
    row_norms,
    sum_to_dense,
)

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_TOL = 1e-8
JUMP_TIME_REL_TOL = 1e-10
# Most steps integrate_master takes. Past 1e6 RK4 steps the rounding they add
# (about 1e-16 each) outweighs their truncation error for kappa T up to about
# 600, so more steps only cost time (about 7 ms each at N = 8).
MASTER_STEP_LIMIT = 10**6
# Largest reached set C on which integrate_master iterates one precomputed RK4 step
# operator (|C|^4 reals), built at the cost of about (|C|/4)^4 stage steps. Over 1000
# steps (ms, one BLAS thread): 4.5-6.3 vs the stages' 28 at |C| = 11, 12-22 vs 34 at 16.
STEP_OPERATOR_STRINGS = 16


@dataclass
class LindbladModel:
    """Coherent Hamiltonian plus per-qubit decay channels (alpha, kappa_alpha).

    The drive is a tuple of LocalOperator terms; None or () is no drive.
    """

    n_qubits: int
    hamiltonian: tuple[LocalOperator, ...] | None
    channels: tuple[tuple[int, float], ...]

    def __post_init__(self):
        self.hamiltonian = () if self.hamiltonian is None else tuple(self.hamiltonian)
        self.channels = tuple((int(a), float(k)) for a, k in self.channels)
        qubits = [a for a, _ in self.channels]
        if len(set(qubits)) != len(qubits):
            raise ValueError("channel qubits must be distinct")
        if any(a < 1 or a > self.n_qubits for a in qubits):
            raise ValueError("channel qubit out of range")
        if not np.isfinite(sum(k for _, k in self.channels)):  # also each rate
            raise ValueError("decay rates and their sum must be finite")
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
    """Unit-trace hermitian matrix with validated positivity (on its nonzero rows)."""

    matrix: np.ndarray
    eig_tol: float = EIG_TOL

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        # Guards are written as `not ok`, so a NaN residual fails them too.
        tr = np.trace(mat)
        if not (abs(tr.real - 1.0) <= TRACE_TOL and abs(tr.imag) <= TRACE_TOL):
            raise ValueError(f"trace {tr} is not 1")
        if not np.linalg.norm(mat - mat.conj().T) <= HERM_TOL:
            raise ValueError("density matrix is not hermitian")
        # min eig >= -eig_tol iff the nonzero rows' block + eig_tol I has a Cholesky factor.
        herm = 0.5 * (mat + mat.conj().T)
        support = np.flatnonzero(herm.any(axis=1))
        block = herm[np.ix_(support, support)]
        block.reshape(-1)[:: len(block) + 1] += self.eig_tol
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            eig = np.linalg.eigvalsh(block).min() - self.eig_tol
            raise ValueError(f"negative eigenvalue {eig}") from None
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


def effective_hamiltonian(model: LindbladModel) -> np.ndarray:
    """Dense no-jump generator H - (i/2) sum_a kappa_a |1_a><1_a|, whose
    diagonal decay part is the strings' ``decay_rates``."""
    return sum_to_dense(model.hamiltonian, model.n_qubits) - 0.5j * np.diag(model.decay_rates())


def no_jump_kraus(model: LindbladModel, t: float) -> np.ndarray:
    """exp(-sum_a kappa_a n_a t / 2): the zero-count Kraus family of the memory case."""
    if model.hamiltonian:
        raise ValueError("no-jump Kraus family is defined for the H = 0 memory case")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and non-negative")
    return np.diag(np.exp(-0.5 * model.decay_rates() * t))


def integrate_master(
    model: LindbladModel, rho0: DensityMatrix, T: float, dt: float
) -> DensityMatrix:
    """Fixed-step RK4 integration of the master equation (dense, N <= 8).

    The generator is L(y) = -i(H_eff y - y H_eff^+) plus the jump terms
    L_a y L_a^+, which move kappa_a y[x | b, y | b] to [x, y] for every x, y
    with bit b = 2**(a-1) clear. rho fills only C x C, C the strings that
    rho0's support reaches through H_eff's nonzero couplings and the
    lowering of each channel with kappa > 0 (a code state's weight <= N/2
    strings; all 2^N under a drive that couples every string), so the loop
    runs on C alone. A step is rho + hL(rho + h/2 L(rho + h/3 L(rho + h/4
    L rho))), the RK4 polynomial in Horner form. Each stage's y is exactly
    hermitian, so c L(y) = X + X^+ with X = -i c H_eff y plus the jump terms
    at half rate: one matmul and one flat-index scatter-add on C x C. Up to
    STEP_OPERATOR_STRINGS strings, a step of dt is one product with its real
    matrix R on W = Re y + Im y, built by stepping the |C|^2 basis matrices
    at once, if there are (|C|/4)^4 steps or more. Steps of dt run to T, the
    last one shorter (by the stages); a remainder below 1e-15 T is dropped.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (np.isfinite(T) and T >= 0):
        raise ValueError("T must be finite and non-negative")
    if T > MASTER_STEP_LIMIT * dt:
        raise ValueError(f"T / dt exceeds {MASTER_STEP_LIMIT:.0e} steps")
    if model.n_qubits > 8:
        raise ValueError("dense master integration limited to 8 qubits")
    dim = 2**model.n_qubits
    if rho0.dimension != dim:
        raise ValueError("state dimension does not match model")
    h_eff = effective_hamiltonian(model)
    bits = np.array([1 << (a - 1) for a, k in model.channels if k > 0.0], dtype=int)
    kappas = np.array([k for _, k in model.channels if k > 0.0])
    strings = np.arange(dim)
    link = h_eff != 0  # column x reaches row y
    for bit in bits:
        excited = strings[strings & bit != 0]
        link[excited ^ bit, excited] = True
    rho = 0.5 * (rho0.matrix + rho0.matrix.conj().T)
    reach, front = np.zeros(dim, dtype=bool), (rho != 0).any(axis=0)
    while front.any():
        reach |= front
        front = link[:, front].any(axis=1) & ~reach
    C = np.flatnonzero(reach)
    position = np.zeros(dim, dtype=int)
    position[C] = np.arange(C.size)
    row, col = np.repeat(C, C.size), np.tile(C, C.size)
    channel, src = np.nonzero((row & col & bits[:, None]) != 0)
    dst = position[row[src] ^ bits[channel]] * C.size + position[col[src] ^ bits[channel]]
    h_c, rates = h_eff[np.ix_(C, C)], 0.5 * kappas[channel]  # the jump terms at half rate

    def rk4_step(h: float, count: int = 1):  # one step of length h on ``count`` stacked C x C
        stages = [(-1j * c * h_c, np.tile(c * rates, count)) for c in (h / 4, h / 3, h / 2, h)]
        at_src, at_dst = ((i + h_c.size * np.arange(count)[:, None]).ravel() for i in (src, dst))
        def step(rho: np.ndarray) -> np.ndarray:
            y = rho
            for a, half_rates in stages:
                x = a @ y
                np.add.at(x.reshape(-1), at_dst, half_rates * y.reshape(-1)[at_src])
                x += x.conj().swapaxes(-1, -2)
                y = x + rho
            return y
        return step

    def matrices(w: np.ndarray) -> np.ndarray:  # y of W = Re y + Im y: W's (anti)symmetric parts
        return 0.5 * ((1 + 1j) * w + (1 - 1j) * w.swapaxes(-1, -2))

    rho, (steps, last) = rho[np.ix_(C, C)], divmod(T, dt)
    if C.size <= STEP_OPERATOR_STRINGS and steps >= (C.size / 4) ** 4:  # R's row k: basis k's step
        R = rk4_step(dt, C.size**2)(matrices(np.eye(C.size**2).reshape(-1, C.size, C.size)))
        R, w = (R.real + R.imag).reshape(len(R), -1), (rho.real + rho.imag).reshape(-1)
        for _ in range(int(steps)):
            w = w @ R
        rho, steps = matrices(w.reshape(C.size, C.size)), 0  # the steps of dt are taken
    for h, count in ((dt, int(steps)), (last, int(last > 1e-15 * T))):
        step = rk4_step(h)
        for _ in range(count):
            rho = step(rho)
    full = np.zeros((dim, dim), dtype=complex)
    full[np.ix_(C, C)] = rho
    return DensityMatrix(full / np.trace(full).real, eig_tol=1e-7)


def trajectory_rng(seed: int, trajectory_id: int, stream: int = 0) -> np.random.Generator:
    """Counter-based per-trajectory stream: Philox keyed by (seed, id, stream).

    Philox takes its key as ``generate_state(2, np.uint64)`` of the given
    SeedSequence, with the counter at zero. ``run_trajectories`` and the
    detection coins of ``qec.run_experiment`` draw the same bits for all
    rows at once (``_stream_keys``, ``_philox_uniforms``), with no Generator.
    """
    seq = np.random.SeedSequence((seed, trajectory_id, stream))
    return np.random.Generator(np.random.Philox(seq))


_MASK32 = 0xFFFFFFFF
# Philox4x64-10's two multipliers, and the sums of r key bumps for rounds r.
_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None]
_PHILOX_BUMPS = np.array([[[r * w & 2**64 - 1] for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)]
                          for r in range(10)], dtype=np.uint64)


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants for ``count`` hashes, (count + 1, 1) uint32."""
    return np.array([const * pow(mult, j, 2**32) & _MASK32 for j in range(count + 1)],
                    dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words, hash j xoring constant j and
    multiplying by constant j + 1: one hash per row of ``consts[:-1]``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * 0xCA01F9DD - y * 0x4973F715
    return out ^ out >> 16


def _stream_keys(seed: int, ids, stream: int = 0) -> np.ndarray:
    """``SeedSequence((seed, i, stream)).generate_state(2, np.uint64)`` for
    each id i, as (rows, 2) uint64: the Philox keys of ``trajectory_rng``.

    The entropy words are seed's, then i's (one below 2**32, else two), then
    stream's. ``mix_entropy`` hashes the first four (zero-padded) into a pool,
    one (4, rows) array; mixes each pool word's three hashes into the other
    three words at once; then each further word's four hashes into all four.
    ``generate_state`` hashes the pool once more.
    """
    seed, stream = int(seed), int(stream)
    ends = (ids[0], ids[-1]) if isinstance(ids, range) and ids else ids  # a range's bounds
    if seed < 0 or stream < 0 or (len(ends) and (int(min(ends)) < 0 or int(max(ends)) >> 64)):
        raise ValueError("seed and stream must be >= 0 and trajectory ids in [0, 2**64)")
    ids = np.asarray(ids, dtype=np.uint64)
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    wide = ids >> 32 != 0
    head, tail = ([n >> 32 * j & _MASK32 for j in range(max(1, (n.bit_length() + 31) // 32))]
                  for n in (seed, stream))  # SeedSequence's 32-bit words of each int
    for sel, width in ((~wide, 1), (wide, 2)):
        if not sel.any():
            continue
        words = [*head, *(ids[sel] & _MASK32, ids[sel] >> 32)[:width], *tail]
        entropy = np.zeros((max(len(words), 4), np.count_nonzero(sel)), dtype=np.uint32)
        for j, word in enumerate(words):
            entropy[j] = word
        consts = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * len(entropy))
        pool = _hash(entropy[:4], consts[:5])
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hash(pool[src], consts[4 + 3 * src : 8 + 3 * src]))
        for j, word in enumerate(entropy[4:], start=4):
            pool = _mix(pool, _hash(word, consts[4 * j : 4 * j + 5]))
        out = _hash(pool, _hash_constants(0x8B51F9DD, 0x58F38DED, 4))
        keys[sel] = out.T.astype("<u4", order="C").view("<u8")
    return keys


def _philox_uniforms(keys: np.ndarray, blocks) -> np.ndarray:
    """Philox4x64-10 of each key row at each counter in ``blocks``, as the
    doubles of ``Generator.random``: (rows, 4 len(blocks)). numpy increments
    the counter before its first block, so counter b gives draws 4(b - 1) to
    4b - 1 of the stream.

    Counter words (c0, c2) and (c1, c3) are held as two (2, rows len(blocks))
    arrays, so each round's two 64x64 -> 128-bit multiplies are one set of
    operations on 32-bit halves.
    """
    rows, count = len(keys), len(blocks)
    round_keys = np.repeat(keys.T, count, axis=1) + _PHILOX_BUMPS  # (10, 2, rows count)
    x, y = np.zeros((2, rows * count), dtype=np.uint64), 0
    x[0] = np.tile(np.asarray(blocks, dtype=np.uint64), rows)
    m0, m1 = _PHILOX_MULT & _MASK32, _PHILOX_MULT >> 32
    for k in round_keys:
        x0, x1 = x & _MASK32, x >> 32
        low = x0 * m1 + (x0 * m0 >> 32)
        mid = (low & _MASK32) + x1 * m0
        hi = x1 * m1 + (low >> 32) + (mid >> 32)
        x, y = hi[::-1] ^ y ^ k, (x * _PHILOX_MULT)[::-1]
    bits = np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(rows, 4 * count)
    return (bits >> 11).astype(float) * 2.0**-53


# Rows that run_trajectories advances together. Bounds its working memory to
# a few (rows, 2^N) arrays for any number of trajectories.
TRAJECTORY_CHUNK = 1024
# average_trajectories sums the final states of this many consecutive ids
# per _sample call. Fixed apart from TRAJECTORY_CHUNK so the sum has one order.
_ENSEMBLE_BLOCK = 1024


# Largest condition number of H_eff's eigenvector matrix V for which the
# driven no-jump flow is evaluated in the eigenbasis. Its error against expm
# grows about as 1.4e-16 cond(V) (a driven decaying qubit near its
# exceptional point, t <= 3: 6e-15 at cond 70, 1e-12 at cond 7e3). At the
# exceptional point H_eff is not diagonalizable, cond(V) diverges, and each
# state is a stacked expm of H_eff instead.
EIGENBASIS_COND_LIMIT = 1e3
# Below this norm a row's squared amplitudes lose precision in ``row_norms``.
FADE_NORM = 1e-150
# Under H = 0, u - S > -NEAR_WEIGHT u takes ln(S/u) and ln(f/u) from the exact u - S:
# f's 1e-16 rounding moves a crossing at ln(S/u) = 1e-15 by 10 %, one at 2^-16 by 1.5e-11.
NEAR_WEIGHT = 2.0**-16


class _NoJumpRows:
    """Unnormalized no-jump propagation of start rows, each to its own time.

    With H = 0 the flow is diagonal, and ``start`` may pass rows that hold
    only some strings' amplitudes. Otherwise H_eff = V diag(lam) V^-1 is
    diagonalized once, ``start`` stores c = V^-1 psi per row, and a row at
    time t is V (c * exp(-i lam t)); past EIGENBASIS_COND_LIMIT it is
    exp(-i H_eff t) psi. Every product is a per-row stacked matmul, so a row's
    bits do not depend on the other rows. Under H = 0, strings that all decay at
    one finite rate r (a code state's sector at equal kappa) flow as e^(-rt/2).
    ``rows`` arguments index the start rows and may repeat one: ``_sample``
    starts each distinct state once, and each chunk's first round on one row.
    """

    def __init__(self, model: LindbladModel):
        self.diagonal = not model.hamiltonian
        self.string_rates = model.decay_rates()
        if self.diagonal:
            return
        self.h_eff = effective_hamiltonian(model)
        lam, V = np.linalg.eig(self.h_eff)
        self.neg_i_lam = -1j * lam
        self.eigenbasis = np.linalg.cond(V) <= EIGENBASIS_COND_LIMIT
        if self.eigenbasis:
            # Row forms: c^T = psi^T V^-T and state^T = (c * phase)^T V^T.
            self.to_eigen = np.linalg.inv(V).T
            self.from_eigen = V.T

    def start(self, psi: np.ndarray, columns=slice(None)) -> None:
        """Start from rows ``psi``. Under H = 0 their columns hold the
        strings ``columns`` (default: every string); otherwise every string."""
        self.psi, self.rates, self.rate = psi, self.string_rates[columns], None
        if self.diagonal:
            self.__dict__.pop("weights", None)  # the old rows' cached |psi|^2
            if np.isfinite(self.rates[0]) and (self.rates == self.rates[0]).all():
                self.rate, self.unit = self.rates[0], psi / row_norms(psi)[:, None]
        elif self.eigenbasis:
            self.coeffs = (psi[:, None, :] @ self.to_eigen)[:, 0]

    @functools.cached_property
    def weights(self) -> np.ndarray:  # under H = 0 only, and only once read
        return np.abs(self.psi) ** 2

    def state(self, rows: np.ndarray, t: np.ndarray, rescale: bool = False) -> np.ndarray:
        """Start rows ``rows`` at times ``t``. With ``rescale``, each row is
        multiplied by exp(g t), g its slowest amplitude decay rate, so that its
        norm cannot underflow."""
        if self.diagonal:
            coeffs, rates = self.psi[rows], -0.5 * self.rates
        elif self.eigenbasis:
            coeffs, rates = self.coeffs[rows], self.neg_i_lam
        else:
            from scipy.linalg import expm  # imported on first use: only this fallback loads scipy
            generator = (-1j * t)[:, None, None] * self.h_eff
            if rescale:
                slowest = self.neg_i_lam.real.max()
                generator -= (slowest * t)[:, None, None] * np.eye(len(self.h_eff))
            return (expm(generator) @ self.psi[rows][:, :, None])[:, :, 0]
        # No decay exponent has a positive real part, so one that overflows
        # reaches its exact limit, -inf, whose exp is 0.
        with np.errstate(over="ignore"):
            if rescale:  # rates relative to the slowest on the support: 0 there at equal rates
                support = coeffs != 0
                slowest = np.broadcast_to(rates.real, support.shape).max(
                    axis=1, initial=-np.inf, where=support)
                exponent = np.multiply(rates - slowest[:, None], t[:, None],
                                       out=np.zeros(coeffs.shape, rates.dtype), where=support)
                phased = coeffs * np.exp(exponent, out=np.zeros_like(exponent), where=support)
            else:
                phased = coeffs * np.exp(rates * t[:, None])
        return phased if self.diagonal else (phased[:, None, :] @ self.from_eigen)[:, 0]

    def unit_state(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Start rows ``rows`` at times ``t``, normalized. A row whose norm
        has fallen below FADE_NORM is rescaled first."""
        if self.rate is not None:  # the scalar flow: the start rows, normalized in ``start``
            return self.unit[rows]
        end = self.state(rows, t)
        norms = row_norms(end)
        faded = norms < FADE_NORM
        if faded.any():
            end[faded] = self.state(rows[faded], t[faded], rescale=True)
            norms[faded] = row_norms(end[faded])
        return end / norms[:, None]

    def norm_slope(self, rows: np.ndarray, t: np.ndarray):
        """The squared norm f of start rows ``rows`` at times ``t``, and its
        slope f' = -<psi(t)|Gamma|psi(t)>, Gamma the strings' decay rates."""
        if self.diagonal:
            with np.errstate(over="ignore"):  # to -inf, as in ``state``
                if self.rate is not None:
                    f = self.weights.sum(1)[rows] * np.exp(-self.rate * t)
                    return f, -self.rate * f
                probs = self.weights[rows] * np.exp(-self.rates * t[:, None])
        else:
            probs = np.abs(self.state(rows, t)) ** 2
        return np.add.reduce(probs, axis=1), -np.add.reduce(probs * self.rates, axis=1)

    def bracket(self, rows: np.ndarray, horizon: np.ndarray, u: np.ndarray):
        """Each row's crossing of u lies in [ln(S/u)/r_max, ln(S/u)/r_min] under H = 0,
        S its weight and [r_min, r_max] its support's decay rates; else in (0, horizon).
        A row with 0 < u and S <= u (with a drive, S its squared norm at 0)
        crosses at once: its bracket is [0, 2 subnormals]."""
        lo, hi = np.zeros_like(horizon), horizon.copy()
        if self.diagonal:
            weight, r_min, r_max = self.weights.sum(1)[rows], self.rate, self.rate
            if self.rate is None:
                support = self.weights[rows] > 0
                rates = np.broadcast_to(self.rates, support.shape)
                r_min = rates.min(axis=1, initial=np.inf, where=support)
                r_max = rates.max(axis=1, initial=0.0, where=support)
            ln_ratio = np.log(np.divide(weight, u, out=np.ones_like(lo), where=u > 0))
            near = u - weight > -NEAR_WEIGHT * u  # ln(S/u) from the exact u - S
            ln_ratio[near] = -np.log1p((u - weight)[near] / weight[near])
            np.divide(ln_ratio, r_max, out=lo, where=(ln_ratio > 0) & (r_max > 0))
            with np.errstate(over="ignore"):  # an infinite r_min * horizon bounds nothing
                inside = (ln_ratio > 0) & (ln_ratio < r_min * horizon)
            np.divide(ln_ratio, r_min, out=hi, where=inside)
        else:
            weight = row_norms(self.psi[rows]) ** 2
        hi[(u > 0) & (weight <= u)] = 2 * np.finfo(float).smallest_subnormal
        return np.minimum(lo, hi), hi


def _jump_times(
    flow: _NoJumpRows, rows: np.ndarray, horizon: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """For each of the flow's ``rows``, the time where its squared norm f
    crosses its threshold u.

    Safeguarded Newton on ln f (convex under H = 0) within ``flow.bracket``:
    a row starts at its lower end, and each evaluation of (f, f') moves lo or
    hi to its point by the sign of f - u. The next point is the Newton point
    t + ln(f/u) f / -f' (exact at one decay rate) if it lies in [lo, hi] and
    its step is at most half the step before last, else the midpoint. A row
    ends at a Newton step below JUMP_TIME_REL_TOL times that point (and two
    subnormals), or at the midpoint of a bracket within JUMP_TIME_REL_TOL *
    hi (a single-rate row at once), so its time depends neither on the other
    rows nor on the unit of time. A row whose squared norm starts at or below
    its threshold jumps one subnormal step after 0, with no evaluation. Under
    H = 0, u near the weight S takes f - u as sum w expm1(-r t) less u - S.
    """
    out = np.empty_like(horizon)
    pos = np.arange(len(horizon))
    lo, hi = flow.bracket(rows, horizon, u)
    excess = u - (flow.weights.sum(1)[rows] if flow.diagonal else np.inf)  # u - S
    t, steps = lo, np.full((2, len(lo)), np.inf)  # each row's last two steps

    def tolerance(t: np.ndarray) -> np.ndarray:
        return np.maximum(JUMP_TIME_REL_TOL * t, 2 * np.finfo(float).smallest_subnormal)

    while True:
        done = hi - lo <= tolerance(hi)
        out[pos[done]] = 0.5 * (lo[done] + hi[done])
        go = ~done
        pos, lo, hi, t, rows, u, excess = (a[go] for a in (pos, lo, hi, t, rows, u, excess))
        if not pos.size:
            return out
        steps = steps[:, go]
        f, slope = flow.norm_slope(rows, t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gap = np.log(f / u)
            near = excess > -NEAR_WEIGHT * u  # f - u: sum w expm1(-r t) less u - S
            if near.any():
                drop = (flow.weights[rows[near]] * np.expm1(-flow.rates * t[near, None])).sum(1)
                gap[near] = np.log1p((drop - excess[near]) / u[near])
            newton = t + gap * (f / -slope)
        above = gap > 0
        lo, hi = np.where(above, t, lo), np.where(above, hi, t)
        # Steps that halve every two evaluations: rounding cannot cycle them.
        step = np.abs(newton - t)
        inside = (lo <= newton) & (newton <= hi) & (step <= 0.5 * steps[0])
        last = inside & (step <= tolerance(newton))  # its bracket closes on it
        lo, hi = np.where(last, newton, lo), np.where(last, newton, hi)
        t, previous = np.where(inside, newton, 0.5 * (lo + hi)), t
        steps = np.stack([steps[1], np.abs(t - previous)])


def _channel_weights(model: LindbladModel, psi: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """||L_alpha psi_r||^2 for each row r of ``psi`` and each channel; the
    columns of ``psi`` hold the amplitudes of the strings ``columns``."""
    probs = np.abs(psi) ** 2
    out = np.zeros((psi.shape[0], len(model.channels)))
    for j, (alpha, kappa) in enumerate(model.channels):
        # Contiguous rows, so each row is summed pairwise like a 1-D array.
        excited = np.ascontiguousarray(probs[:, ((columns >> (alpha - 1)) & 1) == 1])
        out[:, j] = kappa * excited.sum(axis=1)
    return out


def jump_channel_weights(model: LindbladModel, psi: Ket) -> np.ndarray:
    """||L_alpha psi||^2 for each channel: unnormalized jump-channel weights."""
    return _channel_weights(model, psi.amplitudes[None, :], np.arange(psi.dim))[0]


def _lowered_columns(columns: np.ndarray, bits: np.ndarray, dim: int, every: bool):
    """The strings that one lowering of a channel bit in ``bits`` reaches
    from the strings ``columns`` (all ``dim`` strings if ``every``), and
    ``source``: for each channel and reached string, the position in
    ``columns`` of the string it is lowered from, or len(columns) if none.
    """
    if every:
        reached = np.arange(dim)
    else:
        mark = np.zeros(dim, dtype=bool)
        for bit in bits:
            mark[columns[columns & bit != 0] ^ bit] = True
        reached = np.flatnonzero(mark)
    position = np.full(dim, len(columns))
    position[columns] = np.arange(len(columns))
    source = np.where(reached & bits[:, None], len(columns), position[reached | bits[:, None]])
    return reached, source


def _lower(psi: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Row r of ``psi`` gathered through ``source[r]``, one channel's row of a
    ``_lowered_columns`` map: |0><1| on that qubit (L_alpha without its
    sqrt(kappa_alpha)), where a string with no source reads the zero pad."""
    padded = np.concatenate((psi, np.zeros((len(psi), 1))), axis=1)
    return padded[np.arange(len(psi))[:, None], source]


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
    absorbed: np.ndarray

    @property
    def jump_counts(self) -> np.ndarray:
        return np.count_nonzero(self.jump_qubits, axis=1)


def run_trajectories(
    model: LindbladModel, psi0: Ket, T: float, seed: int, ids
) -> TrajectoryBatch:
    """Simulate the trajectories ``ids`` up to horizon T, batched over rows.

    Between jumps each row follows exp(-i H_eff t); a jump fires when the
    row's squared norm crosses a uniform threshold u > 0 (``_jump_times``:
    safeguarded Newton steps on its logarithm within ``_NoJumpRows.bracket``,
    to JUMP_TIME_REL_TOL = 1e-10 relative at any time scale; ln(S/u)/r for
    weight S at one decay rate r, Dalibard, Castin & Molmer, PRL 68, 580
    (1992)), the channel is drawn with probability proportional to
    ||L_alpha psi||^2, and the row is replaced by the normalized L_alpha psi,
    one gather through ``_lower``. Trajectory i draws from ``trajectory_rng(seed, i)``: one
    threshold, then (if it jumps) one channel draw, per round, so round k
    reads draws 2k and 2k + 1. Those bits are computed for all rows at once
    (``_stream_keys``, then one ``_philox_uniforms`` call of two blocks per
    four rounds), not through a Generator per row.

    Every row in round k has jumped k times. Under H = 0 a jump maps each
    string to one string and the flow keeps every string, so round k works
    on C_k alone: the strings that k lowerings reach from psi0's support
    (C_0). A code state's C_k is its weight N/2 - k sector (Alber et al.,
    PRL 86, 4402 (2001)). With a drive, C_k is all 2^N strings. C_k depends
    on psi0 and k only, and each row's arithmetic is independent of the
    other rows, so a trajectory comes out bit for bit the same in any batch.
    ``_sample`` keeps each round's distinct states once (a table, one index per
    row): a chunk starts on psi0's one row, and rows that jump from one table row
    on one channel share their new row. Each finished row (it
    stays to T, goes dark, or jumps past T) leaves ``_sample`` on its C_k and is
    scattered into its full 2^N row. Rows advance TRAJECTORY_CHUNK at a time. A
    row whose squared norm is not finite raises ValueError.
    """
    times, qubits, absorbed, ends = _sample(model, psi0, T, seed, ids)
    final = np.zeros((len(absorbed), psi0.dim), dtype=complex)
    for _, cols, rows, table, which in ends:
        final[rows[:, None], cols] = table[which]
    return TrajectoryBatch(psi0.n_qubits, times, qubits, final, absorbed)


def _sample(model: LindbladModel, psi0: Ket, T: float, seed: int, ids):
    """``run_trajectories``' loop: jump times, jump qubits, absorbed, and ``ends``: one
    (k, C_k, rows, table, which) per group of rows (positions in ``ids``) that end on
    C_k: row rows[i] ends in table[which[i]]. Live rows are held so too: each chunk starts
    on psi0's one row, and after each round rows of one (table row, channel) pair share
    their new row, found by marking pairs (np.unique adds RSS)."""
    if not psi0.is_normalized(1e-9):
        raise ValueError("initial state must be normalized")
    if not (np.isfinite(T) and T >= 0):
        raise ValueError("horizon must be finite and non-negative")
    keys = _stream_keys(seed, ids)
    count = len(keys)
    flow = _NoJumpRows(model)
    qubits = np.array([a for a, _ in model.channels], dtype=int)
    bits = 1 << (qubits - 1)
    # Round k's strings and the gather that lowers them into round k + 1's,
    # built once for all chunks as the rounds are first reached.
    columns = [np.flatnonzero(psi0.amplitudes) if flow.diagonal else np.arange(psi0.dim)]
    sources: list[np.ndarray] = []
    ends = []
    if T == 0:  # no round runs
        ends.append((0, columns[0], np.arange(count), psi0.amplitudes[None, columns[0]],
                     np.zeros(count, dtype=int)))

    def unit_table(rows, t):  # unit states at t: a table, and each row's index in it
        if flow.rate is not None:  # the scalar flow's table: its start rows
            return flow.unit, rows
        return flow.unit_state(rows, t), np.arange(len(rows))
    absorbed = np.zeros(count, dtype=bool)
    jump_times, jump_qubits = [], []  # per round of jumps, one entry per row
    for start in range(0, count if T > 0 else 0, TRAJECTORY_CHUNK):
        # ``live`` indexes within the chunk; live row i's amplitudes on round k's
        # strings are ``table`` row which[i]. Every row starts on psi0's one row.
        chunk = slice(start, start + TRAJECTORY_CHUNK)
        keys_c = keys[chunk]
        block = np.empty((len(keys_c), 8))  # the Philox blocks of rounds k to k + 3
        t = np.zeros(len(keys_c))
        live = np.arange(len(keys_c))
        which, table = np.zeros_like(live), psi0.amplitudes[None, columns[0]]
        for k in itertools.count():
            cols = columns[k]
            if k % 4 == 0:
                block[live] = _philox_uniforms(keys_c[live], [k // 2 + 1, k // 2 + 2])
            draws = block[live, 2 * (k % 4) : 2 * (k % 4) + 2]
            flow.start(table, cols)
            remaining = T - t[live]
            end_sq = flow.norm_slope(which, remaining)[0]
            if not np.isfinite(end_sq).all():  # a NaN state would creep on forever
                raise ValueError("trajectory norms must be finite")
            # Threshold 0 is never crossed: its waiting time is infinite.
            stays = (end_sq > draws[:, 0]) | (draws[:, 0] == 0)
            if stays.any():
                ends.append((k, cols, start + live[stays],
                             *unit_table(which[stays], remaining[stays])))
                if stays.all():
                    break

            jumping = np.flatnonzero(~stays)
            rows, (threshold, pick) = live[jumping], draws[jumping].T
            s = _jump_times(flow, which[jumping], remaining[jumping], threshold)
            pre, at = unit_table(which[jumping], s)
            channel_w = _channel_weights(model, pre, cols)[at]
            total = channel_w.sum(axis=1)
            dark = total <= 0.0
            if dark.any():
                absorbed[start + rows[dark]] = True
                ends.append((k, cols, start + rows[dark], pre, at[dark]))
                lit = ~dark
                rows, s, at, pick = rows[lit], s[lit], at[lit], pick[lit]
                channel_w, total = channel_w[lit], total[lit]
            # Generator.choice(p=w / total), bit for bit: normalized cumulative
            # weights searched (side="right") with one uniform draw.
            cdf = np.cumsum(channel_w / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
            j = np.count_nonzero(cdf <= pick[:, None], axis=1)
            if k == len(sources):
                reached, source = _lowered_columns(cols, bits, psi0.dim, not flow.diagonal)
                columns.append(reached)
                sources.append(source)
            # Rows of one (table row, channel) pair share one new table row.
            pair, marks = at * len(qubits) + j, np.zeros(len(pre) * len(qubits), dtype=bool)
            marks[pair] = True
            parent, channel = np.divmod(np.flatnonzero(marks), len(qubits))
            which = np.cumsum(marks)[pair] - 1
            jumped = _lower(pre[parent], sources[k][channel])
            table = jumped / row_norms(jumped)[:, None]
            t[rows] += s
            if k == len(jump_times):
                jump_times.append(np.full(count, np.nan))
                jump_qubits.append(np.zeros(count, dtype=int))
            jump_times[k][chunk][rows] = t[rows]
            jump_qubits[k][chunk][rows] = qubits[j]
            over = t[rows] >= T
            ends.append((k + 1, columns[k + 1], start + rows[over], table, which[over]))
            live, which = rows[~over], which[~over]
            if not live.size:
                break
    return (np.array(jump_times, dtype=float).reshape(len(jump_times), count).T,
            np.array(jump_qubits, dtype=int).reshape(len(jump_qubits), count).T, absorbed, ends)


def run_trajectory(
    model: LindbladModel, psi0: Ket, T: float, rng_seed: int, trajectory_id: int = 0
) -> TrajectoryBatch:
    """Simulate one quantum trajectory: the one-row batch of run_trajectories."""
    return run_trajectories(model, psi0, T, rng_seed, [trajectory_id])


def average_trajectories(
    model: LindbladModel, psi0: Ket, T: float, count: int, seed: int
) -> DensityMatrix:
    """Mean projector over ``count`` trajectories, deterministically reduced.

    Streams derive from (seed, trajectory_id). Each block of consecutive ids
    gathers its rows (``table[which]``) from ``_sample`` on C_k, the strings of the
    round each ends in. Rounds ascending, it adds each round's rows V, in id order,
    as V^T V^* to total[C_k, C_k]: numpy's own loop, not BLAS, so BLAS threads change
    no bit. Rows that pass T by rounding, and dark rows, join their round out of id
    order; the sort keeps the sum's order the same for any TRAJECTORY_CHUNK.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    total = np.zeros((psi0.dim, psi0.dim), dtype=complex)
    for start in range(0, count, _ENSEMBLE_BLOCK):
        ends = _sample(model, psi0, T, seed, range(start, min(start + _ENSEMBLE_BLOCK, count)))[3]
        for k, cols in sorted({k: cols for k, cols, *_ in ends}.items()):
            parts = [(rows, table[which]) for j, _, rows, table, which in ends if j == k]
            order = np.concatenate([rows for rows, _ in parts]).argsort()  # id order
            V = np.concatenate([states for _, states in parts])[order].T.copy()
            total[np.ix_(cols, cols)] += np.einsum("ir,jr->ij", V, V.conj())
    total /= count
    total = 0.5 * (total + total.conj().T)
    return DensityMatrix(total / np.trace(total).real, eig_tol=1e-7)


@dataclass
class KrausSet:
    """Finite set of square error operators of one dimension."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(K, dtype=complex) for K in self.operators)
        if not ops:
            raise ValueError("need at least one operator")
        d = ops[0].shape[0]
        if any(K.shape != (d, d) for K in ops):
            raise ValueError("all operators must be square with equal dimension")
        self.operators = ops


def records_to_csv(batch: TrajectoryBatch) -> str:
    """Jump log with columns (trajectory_id, t, alpha); the id is the batch row."""
    rows, cols = np.nonzero(batch.jump_qubits)
    times, qubits = batch.jump_times[rows, cols].tolist(), batch.jump_qubits[rows, cols].tolist()
    fields = tuple(itertools.chain.from_iterable(zip(rows.tolist(), times, qubits)))
    return "trajectory_id,t,alpha\n" + "%d,%.17g,%d\n" * len(rows) % fields

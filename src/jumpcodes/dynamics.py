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
    NUMBER,
    OperatorSum,
    apply_local,  # noqa: F401  bench/test_tracing.py expects every module to bind it
    row_norms,
    sum_to_dense,
)

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_TOL = 1e-8
JUMP_TIME_REL_TOL = 1e-10


@dataclass
class LindbladModel:
    """Coherent Hamiltonian plus per-qubit decay channels (alpha, kappa_alpha).

    No drive is the empty OperatorSum; None is accepted for it.
    """

    n_qubits: int
    hamiltonian: OperatorSum | LocalOperator | None
    channels: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.hamiltonian is None:
            self.hamiltonian = OperatorSum(())
        elif isinstance(self.hamiltonian, LocalOperator):
            self.hamiltonian = OperatorSum((self.hamiltonian,))
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
    """Unit-trace hermitian matrix with validated positivity."""

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
        eigs = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
        if not eigs.min() >= -self.eig_tol:
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


def effective_hamiltonian(model: LindbladModel) -> OperatorSum:
    """No-jump generator H - (i/2) sum_a kappa_a |1_a><1_a|."""
    terms = list(model.hamiltonian.terms)
    for alpha, kappa in model.channels:
        if kappa > 0.0:
            terms.append(LocalOperator((alpha,), -0.5j * kappa * NUMBER))
    return OperatorSum(tuple(terms))


def no_jump_kraus(model: LindbladModel, t: float) -> np.ndarray:
    """exp(-sum_a kappa_a n_a t / 2): the zero-count Kraus family of the memory case."""
    if model.hamiltonian.terms:
        raise ValueError("no-jump Kraus family is defined for the H = 0 memory case")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and non-negative")
    return np.diag(np.exp(-0.5 * model.decay_rates() * t))


def integrate_master(
    model: LindbladModel, rho0: DensityMatrix, T: float, dt: float
) -> DensityMatrix:
    """Fixed-step RK4 integration of the master equation (dense, N <= 8).

    The right-hand side is -i(H_eff rho - rho H_eff^+) plus the jump terms
    L_a rho L_a^+, which move kappa_a rho[x | b, y | b] to [x, y] for every
    x, y with bit b = 2**(a-1) clear. Those are one scatter-add of flat index
    gathers, built once per call.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    if not (np.isfinite(T) and T >= 0):
        raise ValueError("T must be finite and non-negative")
    if model.n_qubits > 8:
        raise ValueError("dense master integration limited to 8 qubits")
    dim = 2**model.n_qubits
    if rho0.dimension != dim:
        raise ValueError("state dimension does not match model")
    h_eff = sum_to_dense(effective_hamiltonian(model), model.n_qubits)
    h_eff_dag = h_eff.conj().T
    bits = np.array([1 << (a - 1) for a, k in model.channels if k > 0.0], dtype=int)
    kappas = np.array([k for _, k in model.channels if k > 0.0])
    x, y = np.divmod(np.arange(dim * dim), dim)
    channel, dst = np.nonzero(((x | y) & bits[:, None]) == 0)
    src = dst + bits[channel] * (dim + 1)
    rates = kappas[channel]

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = h_eff @ rho
        out -= rho @ h_eff_dag
        out *= -1j
        np.add.at(out.reshape(-1), dst, rates * rho.reshape(-1)[src])
        return out

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


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 word arrays, advancing its constant."""

    def hash32(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hash32


def _stream_keys(seed: int, ids, stream: int = 0) -> np.ndarray:
    """``SeedSequence((seed, i, stream)).generate_state(2, np.uint64)`` for
    each id i, as (rows, 2) uint64: the Philox keys of ``trajectory_rng``.

    The entropy words are seed's, then i's (one below 2**32, else two), then
    stream's. ``mix_entropy`` hashes the first four (zero-padded) into a pool,
    mixes each pool word into the others, then each further word into all
    four; ``generate_state`` hashes the pool once more.
    """
    seed, stream, ids = int(seed), int(stream), [int(i) for i in ids]
    if seed < 0 or stream < 0 or (ids and (min(ids) < 0 or max(ids) >> 64)):
        raise ValueError("seed and stream must be >= 0 and trajectory ids in [0, 2**64)")
    ids = np.array(ids, dtype=np.uint64)
    keys = np.empty((ids.size, 2), dtype=np.uint64)
    wide = ids >> 32 != 0

    def mix(x, y):
        out = x * 0xCA01F9DD - y * 0x4973F715
        return out ^ out >> 16

    def word_count(n: int) -> int:  # SeedSequence splits an int into 32-bit words
        return max(1, (n.bit_length() + 31) // 32)

    for sel, id_words in ((~wide, 1), (wide, 2)):
        rows = ids[sel]
        parts = ((seed, word_count(seed)), (rows, id_words), (stream, word_count(stream)))
        entropy = [np.full(rows.size, n >> 32 * j & _MASK32, dtype=np.uint32)
                   for n, count in parts for j in range(count)]
        entropy += [np.zeros(rows.size, dtype=np.uint32)] * (4 - len(entropy))
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(word) for word in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        out = [w.astype(np.uint64) for w in map(_hasher(0x8B51F9DD, 0x58F38DED), pool)]
        keys[sel] = np.column_stack([out[0] | out[1] << 32, out[2] | out[3] << 32])
    return keys


def _mulhilo64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the 128-bit products a * b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32), a * b


def _philox_uniforms(keys: np.ndarray, blocks) -> np.ndarray:
    """Philox4x64-10 of each key row at each counter in ``blocks``, as the
    doubles of ``Generator.random``: (rows, 4 len(blocks)). numpy increments
    the counter before its first block, so counter b gives draws 4(b - 1) to
    4b - 1 of the stream.
    """
    k0, k1 = keys[:, :1], keys[:, 1:]
    zero = np.zeros((1, 1), dtype=np.uint64)
    c0, c1, c2, c3 = np.asarray(blocks, dtype=np.uint64)[None, :], zero, zero, zero
    for r in range(10):  # every word is (rows, len(blocks)) from round 3 on
        if r:
            k0, k1 = k0 + 0x9E3779B97F4A7C15, k1 + 0xBB67AE8584CAA73B
        hi0, lo0 = _mulhilo64(c0, 0xD2E7470EE14C6C93)
        hi1, lo1 = _mulhilo64(c2, 0xCA5A826395121157)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    bits = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), -1)
    return (bits >> 11).astype(float) * 2.0**-53


# Rows that run_trajectories advances together. Bounds its working memory to
# a few (rows, 2^N) arrays for any number of trajectories.
TRAJECTORY_CHUNK = 1024
# average_trajectories groups and sums the final states of this many
# consecutive ids. Fixed apart from TRAJECTORY_CHUNK so the sum has one order.
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


def _dense_expm(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on first use: only this fallback loads scipy."""
    from scipy.linalg import expm

    return expm(A)


class _NoJumpRows:
    """Unnormalized no-jump propagation of start rows, each to its own time.

    With H = 0 the flow is diagonal, and ``start`` may pass rows that hold
    only some strings' amplitudes. Otherwise H_eff = V diag(lam) V^-1 is
    diagonalized once, ``start`` stores c = V^-1 psi per row, and a row at
    time t is V (c * exp(-i lam t)); past EIGENBASIS_COND_LIMIT it is
    exp(-i H_eff t) psi. Every product is a per-row stacked matmul, so a row's
    bits do not depend on the other rows.
    """

    def __init__(self, model: LindbladModel):
        self.diagonal = not model.hamiltonian.terms
        if self.diagonal:
            self.string_rates = model.decay_rates()
            return
        self.h_eff = sum_to_dense(effective_hamiltonian(model), model.n_qubits)
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
        self.psi = psi
        if self.diagonal:
            self.rates = self.string_rates[columns]
            self.__dict__.pop("weights", None)  # the old rows' cached |psi|^2
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
            generator = (-1j * t)[:, None, None] * self.h_eff
            if rescale:
                slowest = self.neg_i_lam.real.max()
                generator -= (slowest * t)[:, None, None] * np.eye(len(self.h_eff))
            propagators = _dense_expm(generator)
            return (propagators @ self.psi[rows][:, :, None])[:, :, 0]
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
        end = self.state(rows, t)
        norms = row_norms(end)
        faded = norms < FADE_NORM
        if faded.any():
            end[faded] = self.state(rows[faded], t[faded], rescale=True)
            norms[faded] = row_norms(end[faded])
        return end / norms[:, None]

    def norm_sq(self, rows: np.ndarray):
        """The squared norm of start rows ``rows`` as a function of their times."""
        if not self.diagonal:
            return lambda t: row_norms(self.state(rows, t)) ** 2
        weights, neg_rates = self.weights[rows], -self.rates

        def norm_sq(t: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):  # to -inf, as in ``state``
                exponent = neg_rates * t[:, None]
            return np.add.reduce(weights * np.exp(exponent), axis=1)

        return norm_sq

    def bracket(self, rows: np.ndarray, horizon: np.ndarray, u: np.ndarray):
        """Each row's crossing of u lies in [ln(S/u)/r_max, ln(S/u)/r_min] under H = 0,
        S its weight and [r_min, r_max] its support's decay rates; else in (0, horizon)."""
        lo, hi = np.zeros_like(horizon), horizon.copy()
        if self.diagonal:
            w = self.weights[rows]
            rates, support = np.broadcast_to(self.rates, w.shape), w > 0
            r_min = rates.min(axis=1, initial=np.inf, where=support)
            r_max = rates.max(axis=1, initial=0.0, where=support)
            ln_ratio = np.log(np.divide(w.sum(1), u, out=np.ones_like(lo), where=u > 0))
            np.divide(ln_ratio, r_max, out=lo, where=(ln_ratio > 0) & (r_max > 0))
            with np.errstate(over="ignore"):  # an infinite r_min * horizon bounds nothing
                inside = (ln_ratio > 0) & (ln_ratio < r_min * horizon)
            np.divide(ln_ratio, r_min, out=hi, where=inside)
        return np.minimum(lo, hi), hi


def _bisect_jump_times(
    flow: _NoJumpRows, rows: np.ndarray, horizon: np.ndarray, threshold: np.ndarray
) -> np.ndarray:
    """For each of the flow's ``rows``, the time where its squared norm
    crosses its threshold.

    The norm is monotone in time, and bisection starts from ``flow.bracket``.
    Each row stops once its bracket [lo, hi] is within JUMP_TIME_REL_TOL * hi,
    but at least two subnormal steps (a single-rate row at once), so its
    result depends neither on the other rows nor on the unit of time, and a
    row whose squared norm starts below its threshold jumps one step after 0.
    """
    out = np.empty_like(horizon)
    if not out.size:
        return out
    pos = np.arange(len(horizon))
    lo, hi = flow.bracket(rows, horizon, threshold)
    norm_sq = None

    def tolerance(hi: np.ndarray) -> np.ndarray:
        return np.maximum(JUMP_TIME_REL_TOL * hi, 2 * np.finfo(float).smallest_subnormal)

    # Each step halves a bracket (to within rounding) and hi only falls, so
    # with the factor 2 margin in ``limit`` no row can meet its tolerance in
    # the first ``unchecked`` steps: they skip the test.
    limit = 2.0 * tolerance(hi)
    unchecked = int(np.log2(np.maximum(hi - lo, limit) / limit).min())
    for step in itertools.count():
        if step >= unchecked:
            done = hi - lo <= tolerance(hi)
            if done.any():
                out[pos[done]] = 0.5 * (lo[done] + hi[done])
                go = ~done
                pos, lo, hi, rows, threshold = pos[go], lo[go], hi[go], rows[go], threshold[go]
                if not pos.size:
                    return out
                norm_sq = None
        norm_sq = norm_sq or flow.norm_sq(rows)
        mid = 0.5 * (lo + hi)
        above = norm_sq(mid) > threshold
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)


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
    row's squared norm crosses a uniform threshold u > 0 (bisection within
    ``_NoJumpRows.bracket`` until the bracket is within JUMP_TIME_REL_TOL =
    1e-10 relative to its upper end, at any time scale: ln(S/u)/r for weight
    S at one decay rate r, Dalibard, Castin & Molmer, PRL 68, 580 (1992)), the
    channel is drawn with probability proportional to ||L_alpha psi||^2, and
    the row is replaced by the normalized L_alpha psi, one gather through
    ``_lower``. Trajectory i draws from ``trajectory_rng(seed, i)``: one
    threshold, then (if it jumps) one channel draw, per round, so round k
    reads draws 2k and 2k + 1. Those bits are computed for all rows at once
    (``_stream_keys``, then one Philox block per two rounds), not through a
    Generator per row.

    Every row in round k has jumped k times. Under H = 0 a jump maps each
    string to one string and the flow keeps every string, so round k works
    on C_k alone: the strings that k lowerings reach from psi0's support
    (C_0). A code state's C_k is its weight N/2 - k sector (Alber et al.,
    PRL 86, 4402 (2001)). With a drive, C_k is all 2^N strings. C_k depends
    on psi0 and k only, and each row's arithmetic is independent of the
    other rows, so a trajectory comes out bit for bit the same in any batch.
    A row's final state is scattered from C_k into its full 2^N row. Rows
    advance TRAJECTORY_CHUNK at a time. A row whose squared norm is not
    finite raises ValueError.
    """
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
    final = np.zeros((count, psi0.dim), dtype=complex)
    if T == 0:  # no round runs
        final[:] = psi0.amplitudes
    absorbed = np.zeros(count, dtype=bool)
    jump_times: list[np.ndarray] = []  # per round of jumps, one entry per row
    jump_qubits: list[np.ndarray] = []
    for start in range(0, count if T > 0 else 0, TRAJECTORY_CHUNK):
        # Views of this chunk's rows; ``live`` indexes within the chunk, and
        # row i of ``psi`` holds live row i's amplitudes on round k's strings.
        chunk = slice(start, start + TRAJECTORY_CHUNK)
        final_c, absorbed_c = final[chunk], absorbed[chunk]
        keys_c = keys[chunk]
        block = np.empty((len(keys_c), 4))  # the Philox block of rounds k and k + 1
        t = np.zeros(len(keys_c))
        live = np.arange(len(keys_c))
        psi = np.tile(psi0.amplitudes[columns[0]], (live.size, 1))
        for k in itertools.count():
            cols = columns[k]
            if k % 2 == 0:
                block[live] = _philox_uniforms(keys_c[live], [k // 2 + 1])
            draws = block[live, 2 * (k % 2) : 2 * (k % 2) + 2]
            flow.start(psi, cols)
            remaining = T - t[live]
            end_sq = flow.norm_sq(np.arange(live.size))(remaining)
            if not np.isfinite(end_sq).all():  # a NaN state would creep on forever
                raise ValueError("trajectory norms must be finite")
            # Threshold 0 is never crossed: its waiting time is infinite.
            stays = (end_sq > draws[:, 0]) | (draws[:, 0] == 0)
            if stays.any():
                final_c[live[stays, None], cols] = flow.unit_state(
                    np.flatnonzero(stays), remaining[stays])
                if stays.all():
                    break

            jumping = np.flatnonzero(~stays)
            rows, (threshold, pick) = live[jumping], draws[jumping].T
            s = _bisect_jump_times(flow, jumping, remaining[jumping], threshold)
            pre = flow.unit_state(jumping, s)
            channel_w = _channel_weights(model, pre, cols)
            total = channel_w.sum(axis=1)
            dark = total <= 0.0
            if dark.any():
                absorbed_c[rows[dark]] = True
                final_c[rows[dark, None], cols] = pre[dark]
                lit = ~dark
                rows, s, pre, pick = rows[lit], s[lit], pre[lit], pick[lit]
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
            jumped = _lower(pre, sources[k][j])
            psi = jumped / row_norms(jumped)[:, None]
            t[rows] += s
            if k == len(jump_times):
                jump_times.append(np.full(count, np.nan))
                jump_qubits.append(np.zeros(count, dtype=int))
            jump_times[k][chunk][rows] = t[rows]
            jump_qubits[k][chunk][rows] = qubits[j]
            over = t[rows] >= T
            final_c[rows[over, None], columns[k + 1]] = psi[over]
            live, psi = rows[~over], psi[~over]
            if not live.size:
                break
    return TrajectoryBatch(
        psi0.n_qubits,
        np.array(jump_times, dtype=float).reshape(len(jump_times), count).T,
        np.array(jump_qubits, dtype=int).reshape(len(jump_qubits), count).T,
        final,
        absorbed,
    )


def run_trajectory(
    model: LindbladModel, psi0: Ket, T: float, rng_seed: int, trajectory_id: int = 0
) -> TrajectoryBatch:
    """Simulate one quantum trajectory: the one-row batch of run_trajectories."""
    return run_trajectories(model, psi0, T, rng_seed, [trajectory_id])


def average_trajectories(
    model: LindbladModel, psi0: Ket, T: float, count: int, seed: int
) -> DensityMatrix:
    """Mean projector over ``count`` trajectories, deterministically reduced.

    Per-trajectory streams derive from (seed, trajectory_id). Each block of
    consecutive ids groups its final states by exact nonzero pattern S (few
    under decay: a jump zeroes half the amplitudes) and, in sorted pattern
    order, adds each group's rows V on S, in id order, as V^T V^* to
    total[S, S]. The product is numpy's own loop rather than BLAS, so the
    result depends neither on batching nor on the BLAS thread count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    total = np.zeros((psi0.dim, psi0.dim), dtype=complex)
    for start in range(0, count, _ENSEMBLE_BLOCK):
        ids = range(start, min(start + _ENSEMBLE_BLOCK, count))
        states = run_trajectories(model, psi0, T, seed, ids).final_states
        nonzero = states != 0
        packed = np.packbits(nonzero, axis=1)  # one byte string per row's pattern
        keys = packed.view(f"V{packed.shape[1]}")[:, 0]
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        for g, support in enumerate(nonzero[first]):
            V = states[group == g][:, support].T.copy()
            total[np.ix_(support, support)] += np.einsum("ir,jr->ij", V, V.conj())
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
    times = batch.jump_times[rows, cols].tolist()
    qubits = batch.jump_qubits[rows, cols].tolist()
    lines = (f"{r},{t:.17g},{a}\n" for r, t, a in zip(rows.tolist(), times, qubits))
    return "trajectory_id,t,alpha\n" + "".join(lines)

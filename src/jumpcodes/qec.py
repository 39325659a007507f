"""Channel-level verification and recovery synthesis for detected jumps.

The reversibility criterion: a Kraus set {K_l} is reversible on the subspace
with projector P iff P K_l^+ K_l' P = Lambda_{ll'} P for a positive
semidefinite matrix Lambda. The stricter one-sided condition
K_l P = lambda_l P marks a decoherence-free subspace, in which case
Lambda factorizes as lambda_l^* lambda_l'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codes import JumpCode, dfs_basis, dfs_projector, encode, jump_code, projector
from .codes import word_amplitudes
from .dynamics import (
    FADE_NORM,
    KrausSet,
    LindbladModel,
    TrajectoryBatch,
    _NoJumpRows,
    _lower,
    _lowered_columns,
    _philox_uniforms,
    _stream_keys,
    memory_model,
    no_jump_kraus,
    run_trajectories,
    trajectory_rng,
)
from .states import DENSE_QUBIT_LIMIT, local_to_dense, row_norms
from .states import apply_local  # noqa: F401  bench/test_tracing.py expects it bound here

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
    if not (np.linalg.norm(P @ P - P) <= 1e-9 and np.linalg.norm(P - P.conj().T) <= 1e-9):
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


def verify_kl(which: str = "both", kappa: float = 1.0, tol: float = DEFAULT_TOL) -> dict:
    """The ``verify kl`` report: Knill-Laflamme checks on the 4-qubit code.

    A jump at a known position (``which="known-position"``) must be
    reversible with Lambda = kappa/2. L1 and L2 together (position unknown,
    ``"unknown-position"``) must not be, with a nonzero witness |P L1^+ L2 P|.
    Residuals, Lambda and the witness are products L^+ L, homogeneous in
    kappa, so the checks run at unit rate against their thresholds and the
    report scales them by kappa: any finite kappa > 0 gets the same verdicts.
    """
    if which not in ("known-position", "unknown-position", "both"):
        raise ValueError(f"unknown KL check {which!r}")
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and positive")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    P = projector(jump_code(4, 0.0))
    model = memory_model(4, 1.0)
    L = {a: local_to_dense(model.jump_operator(a), 4) for a in range(1, 5)}
    checks = {}
    if which != "unknown-position":
        for a in range(1, 5):
            r = kl_check(KrausSet((L[a],)), P, tol)
            lam = float(r.lam[0, 0].real)
            checks[f"L{a}"] = {
                "verdict": r.verdict,
                "lambda": lam * kappa,
                "expected_lambda": kappa / 2.0,
                "residual": r.residual * kappa,
                "pass": r.reversible and abs(lam - 0.5) < 1e-9,
            }
    if which != "known-position":
        r = kl_check(KrausSet((L[1], L[2])), P, tol)
        witness = float(np.abs(P @ L[1].conj().T @ L[2] @ P).max())
        checks["L1,L2"] = {
            "verdict": r.verdict,
            "offdiagonal_witness": witness * kappa,
            "residual": r.residual * kappa,
            "pass": not r.reversible and witness > 1e-6,
        }
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def verify_dfs(kappa: float = 1.0, tol: float = DEFAULT_TOL) -> dict:
    """The ``verify dfs`` report: K0(t) acts as e^{-kappa t} on the weight-2
    sector of 4 qubits at three times, and the jump L1 does not act as a scalar.
    K0(t) has norm at most 1, so its residual is judged against ``tol``; L1
    scales as sqrt(kappa), so its residual is judged against tol sqrt(kappa).
    """
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError("kappa must be finite and positive")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    P = dfs_projector(dfs_basis(4, 2))
    model = memory_model(4, kappa)
    checks = {}
    for t in (0.3, 1.0, 2.5):
        r = dfs_check(KrausSet((no_jump_kraus(model, t),)), P, tol)
        lam, expected = float(r.lambdas[0].real), float(np.exp(-kappa * t))
        checks[f"K0(t={t})"] = {
            "lambda": lam,
            "expected_lambda": expected,
            "residual": float(r.residuals[0]),
            "pass": r.passed and abs(lam - expected) < 1e-9,
        }
    L1 = local_to_dense(model.jump_operator(1), 4)
    r = dfs_check(KrausSet((L1,)), P, tol * np.sqrt(kappa))
    checks["L1"] = {"residual": float(r.residuals[0]), "pass": not r.passed}
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def recovery_map(code: JumpCode, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Recovery after a jump on qubit alpha, as two entries per output row.

    Entry x of the recovered state is psi[cols[x, 0]] vals[x, 0] +
    psi[cols[x, 1]] vals[x, 1]; ``recovery_unitary`` is the same map as a
    dense matrix. The map sends each normalized L_alpha|c_i> back to |c_i>.
    Qubit alpha is excited in exactly one string t_i of pair i, so
    L_alpha|c_i> is a multiple of |t_i - 2^(alpha-1)>, which maps onto c_i
    times the conjugate of c_i's phase on t_i. The other input indices map in
    ascending order onto the output indices that are not the larger index of
    a pair: the smaller index lo of pair i stands for e_lo - conj(c_i[lo]) c_i,
    normalized, any other index for its basis vector (with a second entry of
    0). This is the completion that Gram-Schmidt over e_0, e_1, ... would
    give, up to rounding.

    For complementary pairs whose strings are all distinct, every L_alpha|c_i>
    has norm^2 1/2 and the images are orthogonal, so P L_alpha^+ L_alpha P =
    P/2: the jump is reversible on the code. A pair that is not complementary,
    or a basis string shared by two code words, raises ValueError.
    """
    if not (1 <= alpha <= code.N):
        raise ValueError(f"qubit {alpha} out of range")
    if not code.words:
        raise ValueError("code has no code words")
    dim = 2**code.N
    s, sbar = np.array(code.words).T
    lo, hi = np.minimum(s, sbar), np.maximum(s, sbar)
    for i in np.flatnonzero(lo + hi != dim - 1):  # complementary strings sum to 2^N - 1
        raise ValueError("pair ({},{}) is not complementary".format(*code.pairs[i]))
    if np.bincount(lo).max() > 1:  # lo < 2^(N-1) <= hi, so a shared string repeats a lo
        raise ValueError("two code words share a basis string")
    bit = 1 << (alpha - 1)
    image = np.where(lo & bit, lo, hi) - bit  # index of L_alpha|c_i>
    # Masks rather than np.setdiff1d, which imports numpy.ma (17 ms) on first use.
    free_out, free_in = np.ones((2, dim), dtype=bool)
    free_out[hi] = free_in[image] = False
    out_idx, in_idx = np.flatnonzero(free_out), np.flatnonzero(free_in)
    cols = np.empty((dim, 2), dtype=np.intp)
    vals = np.zeros((dim, 2), dtype=complex)
    cols[out_idx] = in_idx[:, None]
    vals[out_idx, 0] = 1.0
    amps = word_amplitudes(code.phase)  # c_i's amplitudes on (s_i, sbar_i)
    c = np.where((s < sbar)[:, None], amps, amps[::-1])  # ... and on (lo, hi)
    ct = np.where(lo & bit, c[:, 0], c[:, 1])
    w = -c[:, :1].conjugate() * c
    w[:, 0] += 1.0
    pair_rows = np.column_stack([lo, hi])
    cols[pair_rows] = np.column_stack([cols[lo, 0], image])[:, None, :]
    vals[pair_rows, 0] = w / row_norms(w)[:, None]
    vals[pair_rows, 1] = c * (ct / abs(ct)).conjugate()[:, None]
    return cols, vals


def recovery_unitary(code: JumpCode, alpha: int) -> np.ndarray:
    """``recovery_map`` as a dense unitary: the same entries, scattered."""
    cols, vals = recovery_map(code, alpha)
    rows = np.arange(len(cols))
    U = np.zeros((len(cols), len(cols)), dtype=complex)
    U[rows, cols[:, 0]] = vals[:, 0]
    U[rows, cols[:, 1]] += vals[:, 1]
    return U


def apply_recovery(psi: np.ndarray, recovery: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Each row of ``psi`` through a ``recovery_map``: two gathers per row."""
    cols, vals = recovery
    return psi[:, cols[:, 0]] * vals[:, 0] + psi[:, cols[:, 1]] * vals[:, 1]


_recovery_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _cached_recovery(code: JumpCode, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    key = (code.N, code.phase, tuple(code.words), alpha)
    if key not in _recovery_cache:
        _recovery_cache[key] = recovery_map(code, alpha)
    return _recovery_cache[key]


def correct_trajectory(
    batch: TrajectoryBatch, code: JumpCode, logical: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replay memory-model trajectories applying recovery after each jump.

    Between jumps the no-jump flow is a scalar on any equal-excitation sector,
    so renormalized replay only needs the jump/recovery operators: this is
    ``replay_records`` under the zero-rate model ``memory_model(N, 0)`` (whose
    flow is 1 over any time, so the horizon is the batch's latest jump), every
    jump detected and no delay. Returns each row's corrected final state and
    its overlap fidelity with the encoded input.
    """
    psi_enc = encode(code, np.asarray(logical, dtype=complex)).normalized()
    if batch.n_qubits != code.N:
        raise ValueError("batch and code qubit counts differ")
    return replay_records(
        code,
        psi_enc.amplitudes,
        batch.jump_times,
        batch.jump_qubits,
        np.ones(batch.jump_qubits.shape, dtype=bool),
        memory_model(code.N, 0.0),
        delay=0.0,
        horizon=batch.jump_times[batch.jump_qubits > 0].max(initial=0.0),
    )


def replay_records(
    code: JumpCode,
    psi_enc: np.ndarray,
    jump_times: np.ndarray,
    jump_qubits: np.ndarray,
    detected: np.ndarray,
    model: LindbladModel,
    delay: float,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay recorded jumps of the encoded state ``psi_enc`` with recovery.

    Row r of ``jump_times``/``jump_qubits`` holds one record, padded with
    qubit 0; ``detected`` marks the jumps that get a recovery. Between events
    each row follows ``model``'s normalized no-jump flow, as the sampler's
    rows do (``_NoJumpRows.unit_state``), and a jump on qubit alpha is the
    sampler's gather (``dynamics._lower``) through row alpha - 1 of the
    full-width ``_lowered_columns`` map. A detected jump at t is recovered
    at min(t + delay, the record's next jump, horizon). With equal decay rates
    the flow is a scalar on each excitation sector, so the delay alone keeps
    fidelity 1; rate mismatch or missed detections degrade it. A recovery is
    two gathers per row (``apply_recovery``), so a row's result depends
    neither on the other rows nor on the BLAS thread count. The windows are
    timed by the record, whose times ``run_trajectories`` finds to 1e-10
    relative, so rates c kappa with times and delay over c replay alike at any c.

    Returns each row's final state and its fidelity with ``psi_enc``. A row
    that a jump leaves with norm below FADE_NORM is lost, with fidelity 0:
    its record has no weight under the replayed state.
    """
    if ((jump_qubits < 0) | (jump_qubits > code.N)).any():
        raise ValueError(f"jump qubits must lie in 0..{code.N} (0 pads a record)")
    rows, width = jump_qubits.shape
    psi = np.tile(psi_enc, (rows, 1))
    strings = np.arange(psi_enc.size)  # row alpha - 1 lowers qubit alpha
    _, lowering = _lowered_columns(strings, 1 << np.arange(code.N), strings.size, True)
    now = np.zeros(rows)
    alive = np.ones(rows, dtype=bool)
    flow = _NoJumpRows(model)

    def flow_to(sel: np.ndarray, t: np.ndarray) -> None:
        moving = t > now[sel]  # a zero-length window computes no flow
        sel, t = sel[moving], t[moving]
        flow.start(psi[sel])
        psi[sel] = flow.unit_state(np.arange(sel.size), t - now[sel])
        now[sel] = t

    # A recovery fires by its record's next jump and by the horizon.
    following = np.where(jump_qubits[:, 1:] > 0, jump_times[:, 1:], np.inf)
    latest = np.minimum(np.column_stack([following, np.full(rows, np.inf)]), horizon)
    for k in range(width):
        alpha = jump_qubits[:, k]
        sel = np.flatnonzero(alive & (alpha > 0))
        flow_to(sel, jump_times[sel, k])
        psi[sel] = _lower(psi[sel], lowering[alpha[sel] - 1])
        norms = row_norms(psi[sel])
        alive[sel[norms < FADE_NORM]] = False
        psi[sel[alive[sel]]] /= norms[alive[sel], None]
        sel = sel[alive[sel] & detected[sel, k]]
        flow_to(sel, np.minimum(jump_times[sel, k] + delay, latest[sel, k]))
        for a in np.flatnonzero(np.bincount(alpha[sel])):  # every alpha[sel] > 0
            group = sel[alpha[sel] == a]
            psi[group] = apply_recovery(psi[group], _cached_recovery(code, a))
    sel = np.flatnonzero(alive)
    flow.start(psi[sel])  # every row, even at zero length: this normalizes each recovery
    psi[sel] = flow.unit_state(np.arange(sel.size), horizon - now[sel])
    overlaps = np.abs(np.einsum("rj,j->r", psi, psi_enc.conj())) ** 2
    return psi, np.where(alive, overlaps, 0.0)


@dataclass
class ExperimentConfig:
    """Validated knobs for a decay-and-recovery simulation run."""

    n_qubits: int
    phase: float
    kappas: list[float]
    t_final: float
    trajectories: int
    seed: int
    delay: float = 0.0
    mismatch: list[float] = field(default_factory=list)
    p_miss: float = 0.0

    def __post_init__(self):
        if self.n_qubits % 2 != 0 or self.n_qubits < 2:
            raise ValueError("n must be even and >= 2")
        if self.n_qubits > DENSE_QUBIT_LIMIT:  # states are dense (rows, 2^n) arrays
            raise ValueError(f"n must be at most {DENSE_QUBIT_LIMIT}")
        if len(self.kappas) == 1:
            self.kappas = self.kappas * self.n_qubits
        if len(self.kappas) != self.n_qubits:
            raise ValueError("kappa list must have 1 or n entries")
        if any(k < 0 for k in self.kappas):
            raise ValueError("decay rates must be non-negative")
        if not self.mismatch:
            self.mismatch = [1.0] * self.n_qubits
        if len(self.mismatch) != self.n_qubits:
            raise ValueError("mismatch list must have n entries")
        if any(m < 0 for m in self.mismatch):
            raise ValueError("mismatch factors must be non-negative")
        if self.t_final < 0:
            raise ValueError("t-final must be non-negative")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        # A run's tracemalloc peak is 6.5 to 7.1 (rows, 2^n) complex arrays at
        # n = 4 to 12, so 1/8 of 1 GiB per array keeps the run within 1 GiB.
        largest = 2**26 >> self.n_qubits >> 3
        if self.trajectories > largest:
            raise ValueError(f"trajectories must be at most {largest} at n = {self.n_qubits}")
        if not (np.isfinite(self.delay) and self.delay >= 0):  # >= t-final recovers at T
            raise ValueError("delay must be finite and non-negative")
        if not (0.0 <= self.p_miss <= 1.0):
            raise ValueError("p-miss must be within [0, 1]")
        if self.seed is None:
            raise ValueError("seed is mandatory for simulation commands")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def true_rates(self) -> list[float]:
        return [k * m for k, m in zip(self.kappas, self.mismatch)]


def run_experiment(config: ExperimentConfig):
    """Simulate decay trajectories of an encoded logical state and correct them.

    Returns (batch, fidelities, summary dict): the sampled TrajectoryBatch
    and each row's fidelity after replay. The logical state is drawn from
    stream (seed, 0); trajectory i uses stream (seed, i + 1) and its
    detection coins stream (seed, i + 1, 1).
    """
    code = jump_code(config.n_qubits, config.phase)
    rng_logical = trajectory_rng(config.seed, 0)
    logical = rng_logical.normal(size=code.count) + 1j * rng_logical.normal(size=code.count)
    logical /= np.linalg.norm(logical)
    psi_enc = encode(code, logical).normalized()
    model = memory_model(config.n_qubits, config.true_rates())
    ids = range(1, config.trajectories + 1)
    batch = run_trajectories(model, psi_enc, config.t_final, config.seed, ids)
    # The coins decide nothing when p_miss is 0 or 1, so their streams are
    # only drawn in between. Row r's coins are the first draws of its stream,
    # computed for all rows at once; uniform(0, 1) is random() bit for bit.
    detected = np.full(batch.jump_qubits.shape, config.p_miss == 0.0)
    if 0.0 < config.p_miss < 1.0:
        width = detected.shape[1]
        keys = _stream_keys(config.seed, ids, stream=1)
        coins = _philox_uniforms(keys, range(1, (width + 3) // 4 + 1))[:, :width]
        detected = (coins >= config.p_miss) & (np.arange(width) < batch.jump_counts[:, None])
    _, fidelities = replay_records(code, psi_enc.amplitudes, batch.jump_times, batch.jump_qubits,
                                   detected, model, config.delay, config.t_final)
    std_error = (float(fidelities.std(ddof=1) / np.sqrt(config.trajectories))
                 if config.trajectories > 1 else 0.0)
    summary = {
        "mean_fidelity": float(fidelities.mean()),
        "std_error": std_error,
        "trajectory_count": config.trajectories,
        "total_jumps": int(batch.jump_counts.sum()),
        "config": {
            "n": config.n_qubits,
            "phase": config.phase,
            "kappa": config.kappas,
            "mismatch": config.mismatch,
            "t_final": config.t_final,
            "seed": config.seed,
            "delay": config.delay,
            "p_miss": config.p_miss,
        },
    }
    return batch, fidelities, summary

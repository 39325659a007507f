"""Universal gates acting inside the code space.

Physical building blocks are two classes of two-qubit Hamiltonians,

    E_ab = 1/2 (1 + XX + YY + ZZ)   (the SWAP of qubits a, b)
    F_ab = 1/2 (1 + ZZ)             (projector onto equal bits of a, b)

whose restrictions to the three code words of the 4-qubit code are
permutation matrices and diagonal projectors. Timed sequences of their
exponentials (with product-formula slicing where a target generator is only
reachable through commutators) realize arbitrary logical qutrit unitaries
without ever leaving the code space.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as dense_expm, schur

from .codes import JumpCode, codeword_ket, jump_code, product_code_basis
from .states import (
    Ket,
    LocalOperator,
    OperatorSum,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    local_to_dense,
    sum_to_dense,
)

INVARIANCE_TOL = 1e-12


class LeakageError(Exception):
    """A Hamiltonian or unitary maps code-space states outside the code space."""


class SynthesisError(Exception):
    """Target accuracy unreachable within the slice cap."""

    def __init__(self, message: str, program: "HamiltonianProgram", achieved_error: float):
        super().__init__(message)
        self.program = program
        self.achieved_error = achieved_error


_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_EQUAL_BITS = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)


def e_op(alpha: int, beta: int) -> LocalOperator:
    """Heisenberg-type pair Hamiltonian; equals the SWAP of the two qubits."""
    if alpha == beta:
        raise ValueError("pair indices must differ")
    block = 0.5 * (
        np.eye(4)
        + np.kron(SIGMA_X, SIGMA_X)
        + np.kron(SIGMA_Y, SIGMA_Y)
        + np.kron(SIGMA_Z, SIGMA_Z)
    )
    assert np.allclose(block, _SWAP)
    return LocalOperator((alpha, beta), block)


def f_op(alpha: int, beta: int) -> LocalOperator:
    """Ising-type pair Hamiltonian; projects onto the equal-bits subspace."""
    if alpha == beta:
        raise ValueError("pair indices must differ")
    block = 0.5 * (np.eye(4) + np.kron(SIGMA_Z, SIGMA_Z))
    assert np.allclose(block, _EQUAL_BITS)
    return LocalOperator((alpha, beta), block)


# (kind, pair, n_qubits) -> read-only dense matrix of the unit-coefficient term
_PAIR_UNITS: dict[tuple[str, tuple[int, int], int], np.ndarray] = {}


def _pair_unit(kind: str, pair: tuple[int, int], n_qubits: int) -> np.ndarray:
    key = (kind, pair, n_qubits)
    unit = _PAIR_UNITS.get(key)
    if unit is None:
        unit = local_to_dense(e_op(*pair) if kind == "E" else f_op(*pair), n_qubits)
        unit.setflags(write=False)
        _PAIR_UNITS[key] = unit
    return unit


@dataclass
class GateHamiltonian:
    """Weighted sum of E/F pair terms: (kind, (alpha, beta), coefficient)."""

    terms: tuple[tuple[str, tuple[int, int], float], ...]

    def __post_init__(self):
        cleaned = []
        for kind, (a, b), coeff in self.terms:
            if kind not in ("E", "F"):
                raise ValueError(f"unknown term kind {kind!r}")
            if a == b:
                raise ValueError("pair indices must differ")
            cleaned.append((kind, (int(a), int(b)), float(coeff)))
        self.terms = tuple(cleaned)

    def to_sum(self) -> OperatorSum:
        locals_ = []
        for kind, (a, b), coeff in self.terms:
            op = e_op(a, b) if kind == "E" else f_op(a, b)
            locals_.append(op.scaled(coeff))
        return OperatorSum(tuple(locals_))

    def matrix(self, n_qubits: int) -> np.ndarray:
        """Dense 2^n x 2^n matrix; equal bit for bit to ``sum_to_dense(to_sum(), n)``."""
        total = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
        for kind, pair, coeff in self.terms:
            total += coeff * _pair_unit(kind, pair, n_qubits)
        return total

    def scaled(self, factor: float) -> "GateHamiltonian":
        return GateHamiltonian(
            tuple((kind, pair, coeff * factor) for kind, pair, coeff in self.terms)
        )


def _leakage(UC: np.ndarray, C: np.ndarray) -> np.ndarray:
    """||UC - C (C^dagger UC)||_2 for one matrix UC or each of a stack.

    With C an isometry onto the allowed output span and UC = U C_in, this is
    ||(1 - C C^dagger) U C_in C_in^dagger||_2, the leakage of span(C_in) under
    U, taken from the singular values of a 2^N x rank matrix.
    """
    return np.linalg.svd(UC - C @ (C.conj().T @ UC), compute_uv=False)[..., 0]


def logical_matrix(
    hamiltonian, basis: list[Ket], tol: float = INVARIANCE_TOL
) -> np.ndarray:
    """Matrix elements <b_i|H|b_j>; raises LeakageError if H leaks out of span(basis)."""
    n = basis[0].n_qubits
    if isinstance(hamiltonian, GateHamiltonian):
        H = hamiltonian.matrix(n)
    elif isinstance(hamiltonian, (LocalOperator, OperatorSum)):
        H = sum_to_dense(hamiltonian, n)
    else:
        H = np.asarray(hamiltonian, dtype=complex)
    C = np.column_stack([b.amplitudes for b in basis])
    HC = H @ C
    M = C.conj().T @ HC
    leakage = float(_leakage(HC, C))
    if leakage > tol:
        raise LeakageError(f"leakage {leakage:.3e} exceeds tolerance {tol:.1e}")
    return M


@dataclass
class LogicalGenerator:
    """A hermitian logical operator together with its physical construction."""

    name: str
    logical: np.ndarray
    hamiltonian: GateHamiltonian | None = None
    commutator_of: tuple[str, str] | None = None


def _pair_hamiltonians() -> dict[str, GateHamiltonian]:
    out = {}
    for a, b in [(1, 2), (2, 3), (1, 3)]:
        out[f"E{a}{b}"] = GateHamiltonian((("E", (a, b), 1.0),))
        out[f"F{a}{b}"] = GateHamiltonian((("F", (a, b), 1.0),))
    return out


def table1_matrices(phase: float = 0.0) -> dict[str, np.ndarray]:
    """Logical 3x3 matrices of the six pair Hamiltonians on the 4-qubit code."""
    code = jump_code(4, phase)
    basis = [codeword_ket(code, i) for i in range(code.count)]
    out = {}
    for name, gh in _pair_hamiltonians().items():
        out[name] = logical_matrix(gh, basis)
    return out


def su3_generators() -> list[LogicalGenerator]:
    """The eight logical generators with their physical realizations.

    The C+ operators are direct E - F combinations; the C- operators are
    i times commutators of two C+ operators.
    """
    code = jump_code(4, 0.0)
    basis = [codeword_ket(code, i) for i in range(code.count)]

    def combo(e_name: str, f_name: str) -> GateHamiltonian:
        pair = (int(e_name[1]), int(e_name[2]))
        return GateHamiltonian((("E", pair, 1.0), ("F", pair, -1.0)))

    plus = {
        "C12+": combo("E23", "F23"),
        "C13+": combo("E13", "F13"),
        "C23+": combo("E12", "F12"),
    }
    gens = []
    for name, gh in plus.items():
        gens.append(LogicalGenerator(name, logical_matrix(gh, basis), hamiltonian=gh))
    by_name = {g.name: g for g in gens}
    for name, (a, b) in [
        ("C12-", ("C13+", "C23+")),
        ("C13-", ("C12+", "C23+")),
        ("C23-", ("C12+", "C13+")),
    ]:
        A, B = by_name[a].logical, by_name[b].logical
        gens.append(LogicalGenerator(name, 1j * (A @ B - B @ A), commutator_of=(a, b)))
    for name, pair in [("F12", (1, 2)), ("F13", (1, 3))]:
        gh = GateHamiltonian((("F", pair, 1.0),))
        gens.append(LogicalGenerator(name, logical_matrix(gh, basis), hamiltonian=gh))
    return gens


def _herm_to_real_vec(M: np.ndarray) -> np.ndarray:
    return np.concatenate([M.real.reshape(-1), M.imag.reshape(-1)])


@dataclass
class LieClosure:
    dimension: int
    traceless_dimension: int
    basis: list[np.ndarray]


def lie_closure(generators: list[np.ndarray], tol: float = 1e-10) -> LieClosure:
    """Real span of the generators closed under M, N -> i[M, N]."""
    basis: list[np.ndarray] = []
    vecs: list[np.ndarray] = []

    def try_add(M: np.ndarray) -> bool:
        v = _herm_to_real_vec(M)
        for u in vecs:
            v = v - np.dot(u, v) * u
        norm = np.linalg.norm(v)
        if norm <= tol * max(1.0, np.linalg.norm(_herm_to_real_vec(M))):
            return False
        vecs.append(v / norm)
        basis.append(M)
        return True

    queue = [np.asarray(g, dtype=complex) for g in generators]
    for g in queue:
        try_add(g)
    frontier = list(basis)
    while frontier:
        new = []
        for A in frontier:
            for B in basis:
                C = 1j * (A @ B - B @ A)
                if np.linalg.norm(C) > tol and try_add(C):
                    new.append(C)
        frontier = new
    d = basis[0].shape[0] if basis else 0
    traceless = [M - np.trace(M) / d * np.eye(d) for M in basis]
    tvecs: list[np.ndarray] = []
    tdim = 0
    for M in traceless:
        v = _herm_to_real_vec(M)
        for u in tvecs:
            v = v - np.dot(u, v) * u
        if np.linalg.norm(v) > tol:
            tvecs.append(v / np.linalg.norm(v))
            tdim += 1
    return LieClosure(len(basis), tdim, basis)


def lie_closure_dimension(generators: list[np.ndarray]) -> tuple[int, int]:
    closure = lie_closure(generators)
    return closure.dimension, closure.traceless_dimension


def span_residual(basis: list[np.ndarray], target: np.ndarray) -> float:
    """Distance from ``target`` to the real span of ``basis`` (hermitian matrices)."""
    A = np.column_stack([_herm_to_real_vec(M) for M in basis])
    b = _herm_to_real_vec(np.asarray(target, dtype=complex))
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ coeffs - b))


def gell_mann_matrices() -> list[np.ndarray]:
    """The standard eight traceless hermitian 3x3 generators."""
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    l3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    l8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0)
    return [l1, l2, l3, l4, l5, l6, l7, l8]


# --- timed Hamiltonian programs -------------------------------------------

Hamiltonian = GateHamiltonian | np.ndarray


@dataclass
class ProgramSegment:
    """One timed segment; realizes exp(-i * H * duration)."""

    hamiltonian: Hamiltonian
    duration: float

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("segment durations must be non-negative")


@dataclass
class HamiltonianProgram:
    """Ordered segments, applied first-to-last in time."""

    segments: list[ProgramSegment]
    target_error: float | None = None
    achieved_error: float | None = None
    trotter_steps: int | None = None


def _scaled(h: Hamiltonian, factor: float) -> Hamiltonian:
    if isinstance(h, GateHamiltonian):
        return h.scaled(factor)
    return factor * np.asarray(h, dtype=complex)


def _signed_segment(h: Hamiltonian, signed_time: float) -> ProgramSegment:
    # exp(+i * tau * H) == exp(-i * |tau| * (-sign(tau) H))
    if signed_time >= 0:
        return ProgramSegment(_scaled(h, -1.0), signed_time)
    return ProgramSegment(h, -signed_time)


def trotter_sum(
    h1: Hamiltonian, h2: Hamiltonian, t1: float, t2: float, n: int
) -> HamiltonianProgram:
    """n-slice product approximation of exp(i (t1 H1 + t2 H2)); error O(1/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    segments = []
    for _ in range(n):
        segments.append(_signed_segment(h2, t2 / n))
        segments.append(_signed_segment(h1, t1 / n))
    return HamiltonianProgram(segments, trotter_steps=n)


def trotter_commutator(
    h1: Hamiltonian, h2: Hamiltonian, t1: float, t2: float, n: int
) -> HamiltonianProgram:
    """n-cycle group-commutator approximation of exp(i * i[t1 H1, t2 H2]).

    Each cycle is exp(i a H1) exp(i b H2) exp(-i a H1) exp(-i b H2) with
    a = t1/sqrt(n), b = t2/sqrt(n); the error decreases as O(1/sqrt(n)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = t1 / np.sqrt(n)
    b = t2 / np.sqrt(n)
    segments = []
    for _ in range(n):
        segments.extend(_commutator_cycle(h1, h2, a, b))
    return HamiltonianProgram(segments, trotter_steps=n)


def _commutator_cycle(h1, h2, a: float, b: float) -> list[ProgramSegment]:
    # product e^{iaH1} e^{ibH2} e^{-iaH1} e^{-ibH2}, listed in temporal order
    return [
        _signed_segment(h2, -b),
        _signed_segment(h1, -a),
        _signed_segment(h2, b),
        _signed_segment(h1, a),
    ]


def sum_formula_target(h1: np.ndarray, h2: np.ndarray, t1: float, t2: float) -> np.ndarray:
    M1, M2 = np.asarray(h1, dtype=complex), np.asarray(h2, dtype=complex)
    return dense_expm(1j * (t1 * M1 + t2 * M2))


def commutator_formula_target(
    h1: np.ndarray, h2: np.ndarray, t1: float, t2: float
) -> np.ndarray:
    M1, M2 = np.asarray(h1, dtype=complex), np.asarray(h2, dtype=complex)
    return dense_expm(-(t1 * M1 @ (t2 * M2) - t2 * M2 @ (t1 * M1)))


def _running_products(
    program: HamiltonianProgram,
    n_qubits: int | None = None,
    basis: list[Ket] | None = None,
) -> Iterator[np.ndarray]:
    """Yield U_k ... U_1 after each segment k, with U_k = exp(-i H_k t_k).

    Segments act physically on ``n_qubits`` qubits, or logically on
    span(basis) when a basis is given. Each distinct (Hamiltonian value,
    duration) pair is exponentiated once per call.
    """
    cache: dict[tuple, np.ndarray] = {}
    U = None
    for seg in program.segments:
        h = seg.hamiltonian
        if isinstance(h, GateHamiltonian):
            key = (h.terms, seg.duration)
        else:
            h = np.asarray(h, dtype=complex)
            key = (h.shape, h.tobytes(), seg.duration)
        if key not in cache:
            if isinstance(h, np.ndarray):
                if basis is not None and h.shape != (len(basis), len(basis)):
                    raise ValueError("abstract segment dimension does not match basis size")
                M = h
            elif basis is not None:
                M = logical_matrix(h, basis)
            elif n_qubits is None:
                raise ValueError("n_qubits required to evaluate physical segments")
            else:
                M = h.matrix(n_qubits)
            cache[key] = dense_expm(-1j * seg.duration * M)
        U = cache[key] if U is None else cache[key] @ U
        yield U


def program_unitary(program: HamiltonianProgram, n_qubits: int | None = None) -> np.ndarray:
    """Full product of segment exponentials (first segment acts first)."""
    if not program.segments:
        raise ValueError("empty program has no defined dimension")
    for U in _running_products(program, n_qubits=n_qubits):
        pass
    return U


def program_logical_unitary(program: HamiltonianProgram, basis: list[Ket]) -> np.ndarray:
    """Restriction of the program unitary to span(basis), segment by segment."""
    U = np.eye(len(basis), dtype=complex)
    for U in _running_products(program, basis=basis):
        pass
    return U


def phase_aligned_distance(A: np.ndarray, B: np.ndarray) -> float:
    """min over gamma of ||A - e^{i gamma} B|| (Frobenius; gamma from trace alignment)."""
    tr = np.trace(B.conj().T @ A)
    if abs(tr) < 1e-300:
        return float(np.linalg.norm(A - B))
    return float(np.linalg.norm(A - (tr / abs(tr)) * B))


# Running products stacked per batched SVD in leakage_certificate (4 MiB).
_CERT_BLOCK_BYTES = 4 * 2**20


def leakage_certificate(program: HamiltonianProgram, code: JumpCode) -> float:
    """Max of ||(1-P) U_k P||_2 over every segment boundary k; 0.0 for no segments.

    U_k is the running product after segment k and P = C C^dagger the code
    projector, C the 2^N x count isometry of code words. Since C^dagger is a
    co-isometry, ||(1-P) U P||_2 = ||(1-P) U C||_2 = ||U C - C (C^dagger U C)||_2,
    so each boundary costs the singular values of one 2^N x count matrix,
    taken in batches over blocks of running products.
    """
    C = np.column_stack([codeword_ket(code, i).amplitudes for i in range(code.count)])
    dim = C.shape[0]
    per_row = dim * dim * np.dtype(complex).itemsize
    rows = max(1, min(len(program.segments), _CERT_BLOCK_BYTES // per_row))
    block = np.empty((rows, dim, dim), dtype=complex)

    def block_worst(m: int) -> float:
        UC = (block[:m].reshape(m * dim, dim) @ C).reshape(m, dim, -1)
        return float(_leakage(UC, C).max())

    worst, m = 0.0, 0
    for U in _running_products(program, n_qubits=code.N):
        block[m] = U
        m += 1
        if m == rows:
            worst, m = max(worst, block_worst(m)), 0
    if m:
        worst = max(worst, block_worst(m))
    return worst


# --- logical qutrit synthesis ----------------------------------------------

_SYNTH_N_CAP = 2**16


def principal_log_hamiltonian(U: np.ndarray) -> np.ndarray:
    """Hermitian H with U = exp(-i H), eigenphases in (-pi, pi]."""
    T, Z = schur(np.asarray(U, dtype=complex), output="complex")
    phases = np.angle(np.diag(T))
    return Z @ np.diag(-phases) @ Z.conj().T


def symmetric_to_gate_hamiltonian(S: np.ndarray) -> GateHamiltonian:
    """Unique E/F expansion of a real-symmetric logical 3x3 matrix.

    Off-diagonal entries come from E12/E23/E13 (whose logical images are the
    three transpositions), diagonals are then completed with F terms.
    """
    S = np.asarray(S)
    if np.linalg.norm(S - S.T) > 1e-12 or np.linalg.norm(S.imag) > 1e-12:
        raise ValueError("matrix must be real symmetric")
    S = S.real
    x_e12, x_e23, x_e13 = S[1, 2], S[0, 1], S[0, 2]
    terms = [
        ("E", (1, 2), x_e12),
        ("E", (2, 3), x_e23),
        ("E", (1, 3), x_e13),
        ("F", (1, 2), S[0, 0] - x_e12),
        ("F", (1, 3), S[1, 1] - x_e13),
        ("F", (2, 3), S[2, 2] - x_e23),
    ]
    return GateHamiltonian(tuple(t for t in terms if abs(t[2]) > 1e-15))


def _rotation_frame(K: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """For real antisymmetric K return (S1, S2, theta) with [S1, S2] = K/theta.

    K generates a rotation about some axis; in a rotated frame the unit
    generator is [diag(0,1,0), offdiag(0,1)], and both factors stay real
    symmetric after rotating back.
    """
    w = np.array([K[2, 1], K[0, 2], K[1, 0]])
    theta = float(np.linalg.norm(w))
    if theta == 0.0:
        raise ValueError("zero antisymmetric part")
    axis = w / theta
    e3 = np.array([0.0, 0.0, 1.0])
    v = np.cross(e3, axis)
    c = float(np.dot(e3, axis))
    if np.linalg.norm(v) < 1e-12:
        O = np.eye(3) if c > 0 else np.diag([1.0, -1.0, -1.0])
    else:
        vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
        O = np.eye(3) + vx + vx @ vx / (1.0 + c)
    D = np.diag([0.0, 1.0, 0.0])
    M = np.zeros((3, 3))
    M[0, 1] = M[1, 0] = 1.0
    return O @ D @ O.T, O @ M @ O.T, theta


def synthesize_qutrit(
    U: np.ndarray,
    code: JumpCode,
    epsilon: float,
    n_cap: int = _SYNTH_N_CAP,
) -> HamiltonianProgram:
    """Emit a physical E/F program realizing U on the code space up to phase.

    The principal log splits into a real-symmetric part S (one exact segment
    per slice) and an antisymmetric part, reachable only through commutators.
    The latter is realized as i[t1 S1, t2 S2] with S1, S2 real symmetric and
    exactly code-preserving; each slice pairs one commutator cycle with its
    negated-time twin, which cancels the leading error term. Slice count
    doubles until the measured phase-aligned error is below ``epsilon``.
    Every segment Hamiltonian is evaluated through ``logical_matrix``, which
    raises ``LeakageError`` if it leaks from the code space.
    """
    if not epsilon > 0:  # also rejects NaN, for which slices would double to the cap
        raise ValueError("epsilon must be positive")
    U = np.asarray(U, dtype=complex)
    if U.shape != (3, 3) or np.linalg.norm(U.conj().T @ U - np.eye(3)) > 1e-10:
        raise ValueError("target must be a 3x3 unitary")
    if code.N != 4:
        raise ValueError("synthesis targets the 4-qubit code register")
    basis = [codeword_ket(code, i) for i in range(code.count)]
    H = principal_log_hamiltonian(U)
    H = H - np.trace(H) / 3.0 * np.eye(3)
    if np.linalg.norm(H) < 1e-13:
        return HamiltonianProgram([], target_error=epsilon, achieved_error=0.0, trotter_steps=0)
    S = 0.5 * (H.real + H.real.T)
    K = 0.5 * (H.imag - H.imag.T)
    if np.linalg.norm(K) < 1e-13:
        gh = symmetric_to_gate_hamiltonian(S)
        program = HamiltonianProgram(
            [ProgramSegment(gh, 1.0)], target_error=epsilon, trotter_steps=0
        )
        program.achieved_error = phase_aligned_distance(
            program_logical_unitary(program, basis), U
        )
        return program
    S1, S2, theta = _rotation_frame(K)
    gh_s = symmetric_to_gate_hamiltonian(S) if np.linalg.norm(S) > 1e-14 else None
    gh_s1 = symmetric_to_gate_hamiltonian(S1)
    gh_s2 = symmetric_to_gate_hamiltonian(S2)
    gh_s1_neg = gh_s1.scaled(-1.0)
    gh_s2_neg = gh_s2.scaled(-1.0)

    def build(n: int) -> HamiltonianProgram:
        # exp(-i(S + iK)) ~ [ e^{-iS/2n} C+ C- e^{-iS/2n} ]^n with adjacent
        # S-halves merged; C+/- are commutator cycles at times +-sqrt(theta/2n)
        # realizing exp(theta G / n) together.
        tau = np.sqrt(theta / (2.0 * n))
        cyc_plus = [  # e^{-ia S1} e^{+ia S2} e^{+ia S1} e^{-ia S2}, temporal order
            ProgramSegment(gh_s2, tau),
            ProgramSegment(gh_s1_neg, tau),
            ProgramSegment(gh_s2_neg, tau),
            ProgramSegment(gh_s1, tau),
        ]
        cyc_minus = [
            ProgramSegment(gh_s2_neg, tau),
            ProgramSegment(gh_s1, tau),
            ProgramSegment(gh_s2, tau),
            ProgramSegment(gh_s1_neg, tau),
        ]
        segments: list[ProgramSegment] = []
        if gh_s is None:
            for _ in range(n):
                segments.extend(cyc_minus)
                segments.extend(cyc_plus)
            return HamiltonianProgram(segments, target_error=epsilon, trotter_steps=n)
        half = ProgramSegment(gh_s, 0.5 / n)
        full = ProgramSegment(gh_s, 1.0 / n)
        segments.append(half)
        for j in range(n):
            segments.extend(cyc_minus)
            segments.extend(cyc_plus)
            segments.append(full if j < n - 1 else half)
        return HamiltonianProgram(segments, target_error=epsilon, trotter_steps=n)

    n = 4
    best = None
    best_err = np.inf
    while True:
        program = build(n)
        err = phase_aligned_distance(program_logical_unitary(program, basis), U)
        if err < best_err:
            best, best_err = program, err
        if err <= epsilon:
            program.achieved_error = err
            return program
        if n >= n_cap:
            best.achieved_error = best_err
            raise SynthesisError(
                f"error {best_err:.3e} above target {epsilon:.1e} at slice cap {n_cap}",
                best,
                best_err,
            )
        n *= 2


# --- the two-register entanglement gate -------------------------------------

def h_ent() -> GateHamiltonian:
    """Coupling 1/2 (F26 + F36 + F27 + F37) between two 4-qubit registers."""
    gh = GateHamiltonian(
        (
            ("F", (2, 6), 0.5),
            ("F", (3, 6), 0.5),
            ("F", (2, 7), 0.5),
            ("F", (3, 7), 0.5),
        )
    )
    _verify_block_form(gh)
    return gh


def _ent_states() -> tuple[list[Ket], Ket, Ket]:
    code = jump_code(4, 0.0)
    states = product_code_basis(code, code)
    plus = _string_pair_ket("01100110", "10011001")
    minus = _string_pair_ket("01101001", "10010110")
    return states, plus, minus


def _string_pair_ket(s1: str, s2: str) -> Ket:
    from .states import basis_ket

    amps = (basis_ket(s1).amplitudes + basis_ket(s2).amplitudes) / np.sqrt(2.0)
    return Ket(len(s1), amps)


def _verify_block_form(gh: GateHamiltonian) -> None:
    # block action: eigenvalue 1 on the eight A-states, 2 on |22+>, 0 on |22->
    H = gh.matrix(8)
    states, plus, minus = _ent_states()
    for idx, psi in enumerate(states[:8]):
        if np.linalg.norm(H @ psi.amplitudes - psi.amplitudes) > 1e-12:
            raise AssertionError(f"A-state {idx} is not an eigenvector of eigenvalue 1")
    if np.linalg.norm(H @ plus.amplitudes - 2.0 * plus.amplitudes) > 1e-12:
        raise AssertionError("|22+> is not an eigenvector of eigenvalue 2")
    if np.linalg.norm(H @ minus.amplitudes) > 1e-12:
        raise AssertionError("|22-> is not annihilated")


def ent_unitary(tau: float) -> np.ndarray:
    """exp(-i H_ent tau) on the full two-register space (diagonal, exact)."""
    H = h_ent().matrix(8)
    diag = np.diag(H).copy()
    assert np.linalg.norm(H - np.diag(diag)) < 1e-14
    return np.diag(np.exp(-1j * tau * diag))


def v_gate() -> np.ndarray:
    """Conditional phase gate: -exp(-i pi H_ent); diag(1,...,1,-1) on |ij>_L."""
    return -ent_unitary(np.pi)


# --- primitivity of diagonal two-qudit gates --------------------------------

@dataclass
class ThetaMatrix:
    """Phase table theta[j, k] of a diagonal two-qudit gate, entries in [0, 2pi)."""

    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.ndim != 2 or th.shape[0] != th.shape[1]:
            raise ValueError("theta must be a square real matrix")
        self.theta = np.mod(th, 2.0 * np.pi)


def gate_theta_matrix(U: np.ndarray, states: list[Ket], d: int) -> ThetaMatrix:
    """Extract phases of a gate diagonal in the given d*d product basis."""
    C = np.column_stack([s.amplitudes for s in states])
    M = C.conj().T @ U @ C
    off = M - np.diag(np.diag(M))
    if np.linalg.norm(off) > 1e-10:
        raise ValueError("gate is not diagonal in the provided basis")
    mags = np.abs(np.diag(M))
    if np.any(np.abs(mags - 1.0) > 1e-10):
        raise ValueError("gate does not act unitarily within the provided basis")
    return ThetaMatrix(np.angle(np.diag(M)).reshape(d, d))


def is_primitive_diagonal(
    theta: ThetaMatrix, tol: float = 1e-8
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Check theta[j,k] + theta[p,q] = theta[j,q] + theta[p,k] (mod 2pi).

    Returns (True, None) when every quadruple passes, otherwise
    (False, (j, k, p, q)) with the first violating quadruple.
    """
    th = theta.theta
    d = th.shape[0]
    for j in range(d):
        for k in range(d):
            for p in range(d):
                for q in range(d):
                    delta = th[j, k] + th[p, q] - th[j, q] - th[p, k]
                    wrapped = np.mod(delta + np.pi, 2.0 * np.pi) - np.pi
                    if abs(wrapped) > tol:
                        return False, (j, k, p, q)
    return True, None


def schmidt_rank(psi: Ket, low_qubits: int, tol: float = 1e-10) -> int:
    """Schmidt rank across the cut qubits (1..low) | (low+1..N)."""
    high = psi.n_qubits - low_qubits
    M = psi.amplitudes.reshape(2**high, 2**low_qubits)
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol))


# --- program serialization ---------------------------------------------------

def program_to_json(program: HamiltonianProgram) -> dict:
    segments = []
    for seg in program.segments:
        if not isinstance(seg.hamiltonian, GateHamiltonian):
            raise ValueError("only physical E/F programs are serializable")
        segments.append(
            {
                "terms": [
                    [kind, pair[0], pair[1], coeff]
                    for kind, pair, coeff in seg.hamiltonian.terms
                ],
                "duration": float(seg.duration),
            }
        )
    out: dict = {"segments": segments}
    if program.achieved_error is not None:
        out["achieved_error"] = program.achieved_error
    if program.trotter_steps is not None:
        out["trotter_steps"] = program.trotter_steps
    return out


def program_from_json(data: dict) -> HamiltonianProgram:
    segments = []
    for seg in data["segments"]:
        terms = tuple(
            (kind, (int(a), int(b)), float(coeff)) for kind, a, b, coeff in seg["terms"]
        )
        segments.append(ProgramSegment(GateHamiltonian(terms), float(seg["duration"])))
    return HamiltonianProgram(
        segments,
        achieved_error=data.get("achieved_error"),
        trotter_steps=data.get("trotter_steps"),
    )

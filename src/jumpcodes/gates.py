"""Universal gates acting inside the code space.

Physical building blocks are two classes of two-qubit Hamiltonians,

    E_ab = 1/2 (1 + XX + YY + ZZ)   (the SWAP of qubits a, b)
    F_ab = 1/2 (1 + ZZ)             (projector onto equal bits of a, b)

whose restrictions to the three code words of the 4-qubit code are
permutation matrices and diagonal projectors. At most three timed
exponentials of their real combinations realize any logical qutrit unitary
exactly, without ever leaving the code space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codes import JumpCode, isometry, jump_code, product_code_basis
from .states import Ket, LocalOperator, sum_to_dense

INVARIANCE_TOL = 1e-12


class LeakageError(Exception):
    """A Hamiltonian or unitary maps code-space states outside the code space."""


# Unit pair blocks: E = 1/2 (1 + XX + YY + ZZ) = SWAP, F = 1/2 (1 + ZZ).
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_EQUAL_BITS = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)


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
            if min(a, b) < 1:
                raise ValueError(f"pair indices must be >= 1, got {(a, b)}")
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient {coeff} is not finite")
            cleaned.append((kind, (int(a), int(b)), float(coeff)))
        self.terms = tuple(cleaned)

    def to_sum(self) -> tuple[LocalOperator, ...]:
        return tuple(
            LocalOperator(pair, coeff * (_SWAP if kind == "E" else _EQUAL_BITS))
            for kind, pair, coeff in self.terms
        )

    def matrix(self, n_qubits: int) -> np.ndarray:
        """Dense 2^n x 2^n matrix of the weighted sum."""
        return sum_to_dense(self.to_sum(), n_qubits)


def _leakage(HC: np.ndarray, C: np.ndarray) -> float:
    """||HC - C (C^dagger HC)||_2 = ||(1 - P) H P||_2 for P = C C^dagger, C an
    isometry: how strongly H drives span(C) out of itself."""
    return float(np.linalg.svd(HC - C @ (C.conj().T @ HC), compute_uv=False)[0])


def _segment_matrix(h: Hamiltonian, n_qubits: int) -> np.ndarray:
    """The 2^n matrix of a segment Hamiltonian: a GateHamiltonian's, or a
    finite hermitian 2^n array itself."""
    H = h.matrix(n_qubits) if isinstance(h, GateHamiltonian) else np.asarray(h, dtype=complex)
    if H.shape != (2**n_qubits, 2**n_qubits):
        raise ValueError(f"Hamiltonian must be {2**n_qubits} x {2**n_qubits}, got {H.shape}")
    if not np.isfinite(H).all():  # before any SVD, which fails to converge on NaN
        raise ValueError("Hamiltonian entries must be finite")
    return H if isinstance(h, GateHamiltonian) else _hermitian(H)


def logical_matrix(hamiltonian: Hamiltonian, code: JumpCode) -> np.ndarray:
    """Matrix elements <c_i|H|c_j> between code words; raises LeakageError if H
    leaks out of the code space."""
    C = isometry(code)
    HC = _segment_matrix(hamiltonian, code.N) @ C
    # Judged relative to ||HC||_F, so the verdict does not change with H's scale.
    leakage, scale = _leakage(HC, C), np.linalg.norm(HC)
    if leakage > INVARIANCE_TOL * scale:
        raise LeakageError(f"leakage {leakage:.3e} exceeds {INVARIANCE_TOL:.1e} ||HC||")
    return C.conj().T @ HC


@dataclass
class LogicalGenerator:
    """A hermitian logical operator together with its physical construction."""

    name: str
    logical: np.ndarray
    hamiltonian: GateHamiltonian | None = None
    commutator_of: tuple[str, str] | None = None


def table1_matrices(phase: float = 0.0) -> dict[str, np.ndarray]:
    """Logical 3x3 matrices of the six pair Hamiltonians on the 4-qubit code."""
    code = jump_code(4, phase)
    out = {}
    for a, b in [(1, 2), (2, 3), (1, 3)]:
        for kind in "EF":
            out[f"{kind}{a}{b}"] = logical_matrix(GateHamiltonian(((kind, (a, b), 1.0),)), code)
    return out


def verify_table1(tol: float = 1e-12) -> dict:
    """The ``verify table1`` report: each pair Hamiltonian's logical matrix."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    expected = {
        "E12": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        "E23": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "E13": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "F12": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        "F13": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        "F23": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    }
    got = table1_matrices(0.0)
    checks = {}
    for name, mat in expected.items():
        residual = float(np.abs(got[name] - np.array(mat)).max())
        checks[name] = {"residual": residual, "pass": residual < tol}
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def su3_generators() -> list[LogicalGenerator]:
    """The eight logical generators with their physical realizations.

    The C+ operators are direct E - F combinations; the C- operators are
    i times commutators of two C+ operators.
    """
    code = jump_code(4, 0.0)

    def combo(pair: tuple[int, int]) -> GateHamiltonian:
        """E_ab - F_ab on the pair (a, b)."""
        return GateHamiltonian((("E", pair, 1.0), ("F", pair, -1.0)))

    plus = {"C12+": combo((2, 3)), "C13+": combo((1, 3)), "C23+": combo((1, 2))}
    gens = []
    for name, gh in plus.items():
        gens.append(LogicalGenerator(name, logical_matrix(gh, code), hamiltonian=gh))
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
        gens.append(LogicalGenerator(name, logical_matrix(gh, code), hamiltonian=gh))
    return gens


@dataclass
class LieClosure:
    dimension: int
    traceless_dimension: int
    basis: list[np.ndarray]


SPAN_TOL = 1e-10  # residual, relative to max(1, norm), at which a matrix is in the span
BRACKET_BLOCK = 2**20  # complex entries of the bracket candidates projected at once (16 MiB)


def _real_rows(Ms: np.ndarray) -> np.ndarray:
    """Each of a stack of matrices as one real row: real parts, then imaginary."""
    flat = Ms.reshape(len(Ms), np.prod(Ms.shape[1:], dtype=int))
    return np.concatenate([flat.real, flat.imag], axis=1)


def _extend_span(Q: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend the orthonormal rows ``Q`` by the rows ``W``, greedily in order.

    All rows are projected off span(Q) twice, as matrix products; each one
    that is left is projected twice off the rows kept before it in ``W`` and
    kept, as a unit row, if its residual exceeds SPAN_TOL * max(1, ||w||).
    Returns the extended Q and the mask of kept rows.
    """
    R = W - (W @ Q.T) @ Q
    R -= (R @ Q.T) @ Q
    limit = SPAN_TOL * np.maximum(1.0, np.linalg.norm(W, axis=1))
    new = np.empty_like(W)
    kept = np.zeros(len(W), dtype=bool)
    k = 0
    for i in np.flatnonzero(np.linalg.norm(R, axis=1) > limit):
        v = R[i]
        for _ in range(2):
            v = v - (new[:k] @ v) @ new[:k]
        norm = np.linalg.norm(v)
        if norm > limit[i]:
            new[k] = v / norm
            kept[i] = True
            k += 1
    return np.concatenate([Q, new[:k]]), kept


def lie_closure(generators: list[np.ndarray]) -> LieClosure:
    """Real span of the generators closed under M, N -> i[M, N].

    Nested brackets i[g, i[g', ...]] of the generators span the closure, so
    each round brackets only the previous round's new elements with the
    generators, as one stacked product, and keeps the brackets that extend
    the span. ``basis`` holds the generators and brackets kept.
    """
    if not len(generators):
        return LieClosure(0, 0, [])
    gens = np.array(generators, dtype=complex)
    d = gens.shape[-1]
    Q, kept = _extend_span(np.empty((0, 2 * d * d)), _real_rows(gens))
    gens = frontier = basis = gens[kept]
    while len(frontier):
        block = max(1, BRACKET_BLOCK // gens.size)  # frontier elements per product
        new = []
        for start in range(0, len(frontier), block):
            F = frontier[start : start + block, None]
            C = (1j * (F @ gens - gens @ F)).reshape(-1, d, d)
            Q, kept = _extend_span(Q, _real_rows(C))
            new.append(C[kept])
        frontier = np.concatenate(new)
        basis = np.concatenate([basis, frontier])
    traceless = basis - np.trace(basis, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
    _, kept = _extend_span(np.empty((0, 2 * d * d)), _real_rows(traceless))
    return LieClosure(len(basis), int(kept.sum()), list(basis))


def span_residual(basis: list[np.ndarray], target: np.ndarray) -> float:
    """Distance from ``target`` to the real span of ``basis`` (hermitian matrices)."""
    # One column per matrix, in C order: lstsq's last bits depend on the layout.
    A = np.ascontiguousarray(_real_rows(np.array(basis, dtype=complex)).T)
    b = _real_rows(np.array([target], dtype=complex))[0]
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


def verify_closure(tol: float = 1e-10) -> dict:
    """The ``verify closure`` report: the eight logical generators close to
    u(3), whose traceless part spans every Gell-Mann matrix to within ``tol``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    closure = lie_closure([g.logical for g in su3_generators()])
    traceless = [M - np.trace(M) / 3.0 * np.eye(3) for M in closure.basis]
    worst = max(span_residual(traceless, gm) for gm in gell_mann_matrices())
    return {
        "dimension": closure.dimension,
        "traceless_dimension": closure.traceless_dimension,
        "gell_mann_inclusion_residual": worst,
        "pass": closure.dimension == 9 and closure.traceless_dimension == 8 and worst < tol,
    }


# --- timed Hamiltonian programs -------------------------------------------

Hamiltonian = GateHamiltonian | np.ndarray


@dataclass
class ProgramSegment:
    """One timed segment; realizes exp(-i * H * duration)."""

    hamiltonian: Hamiltonian
    duration: float

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration >= 0):
            raise ValueError("segment durations must be finite and non-negative")


@dataclass
class HamiltonianProgram:
    """Ordered segments, applied first-to-last in time."""

    segments: list[ProgramSegment]
    achieved_error: float | None = None
    trotter_steps: int | None = None


def _signed_segment(h: Hamiltonian, signed_time: float) -> ProgramSegment:
    # exp(+i * tau * H) == exp(-i * |tau| * (-sign(tau) H)), negated as a product
    # with -1.0: unary minus would also flip the sign of zero imaginary parts
    if signed_time < 0:
        return ProgramSegment(h, -signed_time)
    if isinstance(h, GateHamiltonian):
        negated = tuple((kind, pair, coeff * -1.0) for kind, pair, coeff in h.terms)
        return ProgramSegment(GateHamiltonian(negated), signed_time)
    return ProgramSegment(-1.0 * np.asarray(h, dtype=complex), signed_time)


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
        # product e^{iaH1} e^{ibH2} e^{-iaH1} e^{-ibH2}, listed in temporal order
        for h, signed_time in ((h2, -b), (h1, -a), (h2, b), (h1, a)):
            segments.append(_signed_segment(h, signed_time))
    return HamiltonianProgram(segments, trotter_steps=n)


def _hermitian(M: np.ndarray) -> np.ndarray:
    """M itself; raises ValueError unless M is hermitian to 1e-12 of its norm."""
    if not np.linalg.norm(M - M.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(M)):
        raise ValueError("Hamiltonian must be hermitian")
    return M


def _hermitian_expm(M: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t M) for hermitian M: V diag(exp(-i t lam)) V^dagger from one
    eigh, so the result is unitary to rounding at any t ||M||."""
    lam, V = np.linalg.eigh(_hermitian(M))
    return (V * np.exp(-1j * t * lam)) @ V.conj().T


def sum_formula_target(h1: np.ndarray, h2: np.ndarray, t1: float, t2: float) -> np.ndarray:
    """exp(i (t1 H1 + t2 H2))."""
    M1, M2 = np.asarray(h1, dtype=complex), np.asarray(h2, dtype=complex)
    return _hermitian_expm(t1 * M1 + t2 * M2, -1.0)


def commutator_formula_target(
    h1: np.ndarray, h2: np.ndarray, t1: float, t2: float
) -> np.ndarray:
    """exp(i * i[t1 H1, t2 H2]) = exp(-i C) with C = -i[t1 H1, t2 H2] hermitian."""
    A, B = t1 * np.asarray(h1, dtype=complex), t2 * np.asarray(h2, dtype=complex)
    return _hermitian_expm(-1j * (A @ B - B @ A), 1.0)


def _value_key(h: Hamiltonian) -> tuple:
    """A segment Hamiltonian by value: its terms, or an array's shape and bytes."""
    if isinstance(h, GateHamiltonian):
        return h.terms
    return (np.shape(h), np.asarray(h, dtype=complex).tobytes())


def _program_product(
    program: HamiltonianProgram, n_qubits: int | None = None, code: JumpCode | None = None
) -> np.ndarray | None:
    """U_K ... U_1 with U_k = exp(-i H_k t_k), physical on ``n_qubits`` qubits or
    logical on the code words, each segment read by ``_segment_matrix``; with
    neither, an array is used at its own size. None for no segments. Each
    distinct (Hamiltonian value, duration) pair is exponentiated once per call.
    """
    cache: dict[tuple, np.ndarray] = {}
    U = None
    for seg in program.segments:
        h = seg.hamiltonian
        key = (_value_key(h), seg.duration)
        if key not in cache:
            if code is not None:
                M = logical_matrix(h, code)
            elif n_qubits is not None:
                M = _segment_matrix(h, n_qubits)
            elif isinstance(h, GateHamiltonian):
                raise ValueError("n_qubits required to evaluate physical segments")
            else:
                M = np.asarray(h, dtype=complex)
            cache[key] = _hermitian_expm(M, seg.duration)
        U = cache[key] if U is None else cache[key] @ U
    return U


def program_unitary(program: HamiltonianProgram, n_qubits: int | None = None) -> np.ndarray:
    """Full product of segment exponentials (first segment acts first)."""
    if not program.segments:
        raise ValueError("empty program has no defined dimension")
    return _program_product(program, n_qubits=n_qubits)


def program_logical_unitary(program: HamiltonianProgram, code: JumpCode) -> np.ndarray:
    """Restriction of the program unitary to the code space, segment by segment."""
    U = _program_product(program, code=code)
    return np.eye(code.count, dtype=complex) if U is None else U


def phase_aligned_distance(A: np.ndarray, B: np.ndarray) -> float:
    """min over gamma of ||A - e^{i gamma} B|| (Frobenius; gamma from trace alignment)."""
    tr = np.trace(B.conj().T @ A)
    if abs(tr) < 1e-300:
        return float(np.linalg.norm(A - B))
    return float(np.linalg.norm(A - (tr / abs(tr)) * B))


def leakage_certificate(program: HamiltonianProgram, code: JumpCode) -> float:
    """Sum of t_k ||(1-P) H_k P||_2 over the segments (0.0 for none), P the code
    projector. By Duhamel's formula ||(1-P) e^{-iHs} P|| <= s ||(1-P) H P|| for
    hermitian H and s >= 0, so the sum bounds the leakage at every instant. It
    takes one ``_leakage`` per distinct segment Hamiltonian and no exponential."""
    return _certificate(program, code)[0]


def _certificate(program: HamiltonianProgram, code: JumpCode) -> tuple[float, bool]:
    """``leakage_certificate`` and whether it is at most INVARIANCE_TOL times the
    action sum t_k ||H_k C||_F, C the code isometry: like ``logical_matrix``'s
    rule, a verdict that does not change with the scale of H or t."""
    C = isometry(code)
    seen: dict[tuple, tuple[float, float]] = {}
    bound = action = 0.0
    for seg in program.segments:
        key = _value_key(seg.hamiltonian)
        if key not in seen:
            HC = _segment_matrix(seg.hamiltonian, code.N) @ C
            seen[key] = _leakage(HC, C), np.linalg.norm(HC)
        bound += seg.duration * seen[key][0]
        action += seg.duration * seen[key][1]
    return bound, bound <= INVARIANCE_TOL * action


# --- logical qutrit synthesis ----------------------------------------------

# Directions (cos a, sin a) of the hermitian combinations of a unitary W's
# commuting hermitian parts (W + W^dagger)/2 and (W - W^dagger)/2i whose
# eigenvectors are tried as W's eigenbasis. Eigenphases phi project onto a
# direction as cos(phi - a), so one direction fails when two of them project
# equally, and for any W some global phase puts them there. Of four
# directions pi/4 apart, one keeps each of the three pairs' projected gaps
# above sin(pi/8) of their true gaps.
_CARTAN_ANGLES = 1.0 + np.pi / 4.0 * np.arange(4)


def _unitary_eigenbasis(
    W: np.ndarray, re: np.ndarray, im: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal V and d with W ~ V diag(d) V^dagger, for W unitary with
    hermitian parts ``re`` and ``im`` (see ``_CARTAN_ANGLES``): of the
    eigenbases of cos(a) re + sin(a) im, the one leaving V^dagger W V most
    nearly diagonal. Real parts give a real orthogonal V."""
    best = np.inf
    for a in _CARTAN_ANGLES:
        _, V = np.linalg.eigh(np.cos(a) * re + np.sin(a) * im)
        M = V.conj().T @ W @ V
        off = np.linalg.norm(M - np.diag(np.diag(M)))
        if off < best:
            best, basis, d = off, V, np.diag(M)
    return basis, d


def principal_log_hamiltonian(U: np.ndarray) -> np.ndarray:
    """Hermitian H with U = exp(-i H), eigenvalues in [-pi, pi]."""
    U = np.asarray(U, dtype=complex)
    V, d = _unitary_eigenbasis(U, 0.5 * (U + U.conj().T), -0.5j * (U - U.conj().T))
    return (V * -np.angle(d)) @ V.conj().T


def symmetric_to_gate_hamiltonian(S: np.ndarray) -> GateHamiltonian:
    """Unique E/F expansion of a real-symmetric logical 3x3 matrix.

    Off-diagonal entries come from E12/E23/E13 (whose logical images are the
    three transpositions), diagonals are then completed with F terms.
    """
    S = np.asarray(S)
    if not (np.linalg.norm(S - S.T) <= 1e-12 and np.linalg.norm(S.imag) <= 1e-12):
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


def _cartan_factors(U: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Real symmetric (S_k, t_k) in time order; U = prod exp(-i t_k S_k) up to phase.

    AI-type Cartan decomposition U = O1 D O2: W = U U^T is a symmetric
    unitary, so its real and imaginary parts are its hermitian parts and
    share a real orthogonal eigenbasis O1 (``_unitary_eigenbasis``). With
    D^2 = O1^T W O1, O2 = D* O1^T U is real orthogonal, and U = exp(-i S) O with
    S = O1 diag(-arg D) O1^T and O = O1 O2. Up to the global phase -1, O is a
    rotation R, the product of two reflections I - 2 v v^T = exp(-i pi v v^T).
    """
    W = U @ U.T
    O1, d2 = _unitary_eigenbasis(W, W.real, W.imag)
    d = np.sqrt(d2)
    O = O1 @ (d.conj()[:, None] * (O1.T @ U)).real
    R = O if np.linalg.det(O) > 0 else -O
    S = O1 @ np.diag(-np.angle(d)) @ O1.T
    # R = (I - 2ww^T)(I - 2uu^T) for u orthogonal to the axis of R and w on
    # the bisector of u and Ru. The null and first right singular vectors of
    # R - I give the axis and u at every angle; w comes from whichever of
    # u + Ru and axis x (Ru - u) is longer, so neither cancels near 0 or pi.
    _, _, Vt = np.linalg.svd(R - np.eye(3))
    u, axis = Vt[0], Vt[2]
    Ru = R @ u
    w = max(u + Ru, np.cross(axis, Ru - u), key=np.linalg.norm)
    w = w / np.linalg.norm(w)
    return [(np.outer(u, u), np.pi), (np.outer(w, w), np.pi), (S, 1.0)]


def synthesize_qutrit(U: np.ndarray, code: JumpCode) -> HamiltonianProgram:
    """Emit a physical E/F program of at most three segments realizing U up to phase.

    A target whose traceless principal log has norm below 1e-13 is the
    empty program, and one whose principal log is real symmetric is one
    segment. Any other target is a real-symmetric segment after two
    reflections (``_cartan_factors``), so the program is exact. Every
    program's phase-aligned error, the empty one's too, is measured into
    ``achieved_error``. Every segment Hamiltonian is evaluated through
    ``logical_matrix``, which raises ``LeakageError`` if it leaks from the
    code space.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (3, 3) or not (
        np.isfinite(U).all()  # entries first: |u_ij| <= 1 keeps U^dagger U finite
        and np.abs(U).max() <= 1 + 1e-10
        and np.linalg.norm(U.conj().T @ U - np.eye(3)) <= 1e-10
    ):
        raise ValueError("target must be a 3x3 unitary")
    if code.N != 4:
        raise ValueError("synthesis targets the 4-qubit code register")
    H = principal_log_hamiltonian(U)
    H = H - np.trace(H) / 3.0 * np.eye(3)
    if np.linalg.norm(H) < 1e-13:
        factors = []
    elif np.linalg.norm(0.5 * (H.imag - H.imag.T)) < 1e-13:
        factors = [(0.5 * (H.real + H.real.T), 1.0)]
    else:
        factors = _cartan_factors(U)
    program = HamiltonianProgram(
        [ProgramSegment(symmetric_to_gate_hamiltonian(S), t) for S, t in factors],
        trotter_steps=0,
    )
    program.achieved_error = phase_aligned_distance(program_logical_unitary(program, code), U)
    return program


def synthesis_report(U: np.ndarray, epsilon: float) -> dict:
    """The ``gates synthesize`` report: U's program on the 4-qubit code, its leakage
    certificate, and whether error <= ``epsilon`` and ``_certificate`` passes."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    code = jump_code(4, 0.0)
    program = synthesize_qutrit(U, code)
    leakage, sealed = _certificate(program, code)
    report = program_to_json(program)
    report["leakage"] = leakage
    report["epsilon"] = epsilon
    report["segment_count"] = len(program.segments)
    report["pass"] = bool(program.achieved_error <= epsilon and sealed)
    return report


# --- the two-register entanglement gate -------------------------------------

def h_ent() -> GateHamiltonian:
    """Coupling 1/2 (F26 + F36 + F27 + F37) between two 4-qubit registers.

    It is diagonal in the computational basis and acts blockwise on the
    product code space: eigenvalue 1 on the eight states other than |22>_L,
    2 on |22+> and 0 on |22->.
    """
    return GateHamiltonian(
        (
            ("F", (2, 6), 0.5),
            ("F", (3, 6), 0.5),
            ("F", (2, 7), 0.5),
            ("F", (3, 7), 0.5),
        )
    )


@functools.cache
def _h_ent_diagonal() -> np.ndarray:
    """Read-only diagonal of H_ent, built once."""
    diag = np.diag(h_ent().matrix(8)).copy()
    diag.setflags(write=False)
    return diag


def ent_unitary(tau: float) -> np.ndarray:
    """exp(-i H_ent tau) on the full two-register space (diagonal, exact)."""
    return np.diag(np.exp(-1j * tau * _h_ent_diagonal()))


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
        if th.ndim != 2 or th.shape[0] != th.shape[1] or not np.isfinite(th).all():
            raise ValueError("theta must be a square matrix of finite reals")
        self.theta = np.mod(th, 2.0 * np.pi)


def gate_theta_matrix(U: np.ndarray, C: np.ndarray) -> ThetaMatrix:
    """Extract phases of a gate diagonal in the d*d product basis of C's columns."""
    d = math.isqrt(C.shape[1])
    if d * d != C.shape[1]:
        raise ValueError(f"product basis must have d*d columns, got {C.shape[1]}")
    M = C.conj().T @ U @ C
    off = M - np.diag(np.diag(M))
    if not np.linalg.norm(off) <= 1e-10:
        raise ValueError("gate is not diagonal in the provided basis")
    mags = np.abs(np.diag(M))
    if not np.all(np.abs(mags - 1.0) <= 1e-10):
        raise ValueError("gate does not act unitarily within the provided basis")
    return ThetaMatrix(np.angle(np.diag(M)).reshape(d, d))


PHASE_TOL = 1e-8  # wrapped phase residual (radians) still counted as zero


def is_primitive_diagonal(theta: ThetaMatrix) -> tuple[bool, tuple[int, int, int, int] | None]:
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
                    if abs(wrapped) > PHASE_TOL:
                        return False, (j, k, p, q)
    return True, None


SCHMIDT_TOL = 1e-10  # singular values at or below this are not counted


def schmidt_rank(psi: Ket, low_qubits: int) -> int:
    """Schmidt rank across the cut qubits (1..low) | (low+1..N)."""
    high = psi.n_qubits - low_qubits
    M = psi.amplitudes.reshape(2**high, 2**low_qubits)
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > SCHMIDT_TOL))


def verify_entangle(tol: float = 1e-12) -> dict:
    """The ``verify entangle`` report. 2 pi ||(1-P) H_ent P||, P the projector of
    the 8-qubit code (which holds the product code), bounds its leakage at every
    tau in [0, 2 pi] and is within ``tol``. V is diag(1, ..., 1, -1) on |ij>_L,
    not primitive, and of Schmidt rank 2 on the uniform logical state.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    C35 = isometry(jump_code(8, 0.0))
    code4 = jump_code(4, 0.0)
    C9 = product_code_basis(code4, code4)
    leakage = 2.0 * np.pi * _leakage(_h_ent_diagonal()[:, None] * C35, C35)
    V = v_gate()
    v_residual = float(np.abs(C9.conj().T @ V @ C9 - np.diag([1] * 8 + [-1])).max())
    theta = gate_theta_matrix(V, C9)
    primitive, witness = is_primitive_diagonal(theta)
    th = theta.theta
    named_gap = (th[1, 1] + th[2, 2] - (th[1, 2] + th[2, 1])) % (2 * np.pi)
    rank = schmidt_rank(Ket(8, V @ (C9.sum(axis=1) / 3.0)), 4)
    return {
        "leakage": leakage,
        "v_gate_residual": v_residual,
        "primitive": primitive,
        "witness": list(witness) if witness else None,
        "theta": th.tolist(),
        "schmidt_rank": rank,
        "pass": bool(
            leakage <= tol
            and v_residual <= 1e-10
            and not primitive
            and witness is not None
            and abs(named_gap - np.pi) < 1e-9
            and rank == 2
        ),
    }


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

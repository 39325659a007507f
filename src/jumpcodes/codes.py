"""Excitation-preserving subspaces, complementary-pair codes, and the
four-point design that indexes the smallest code's words.

A DFS-(N, k) is spanned by all N-qubit basis states with exactly k excited
qubits. For even N, pairing each weight-N/2 string s with its bitwise
complement gives the code words |s> + e^{i phi} |complement(s)>; there are
C(N-1, N/2-1) such pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite, log2

import numpy as np

from .states import Ket, label_to_index, tensor


def _weight_strings(n: int, k: int) -> list[str]:
    out = []
    for positions in combinations(range(n), k):
        chars = ["0"] * n
        for p in positions:
            chars[p] = "1"
        out.append("".join(chars))
    return sorted(out)


@dataclass
class DFSBasis:
    """Basis of the weight-k excitation sector of N qubits."""

    N: int
    k: int
    basis: list[str]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class JumpCode:
    """One-error-correcting code from complementary pairs of weight-N/2 strings.

    Code word i is (|s_i> + e^{i phase} |s_i complement>) / sqrt(2); the
    canonical representative s_i has qubit N (leftmost printed bit) in state 0.
    """

    N: int
    phase: float
    pairs: list[tuple[str, str]]

    @property
    def k(self) -> int:
        return self.N // 2

    @property
    def count(self) -> int:
        return len(self.pairs)

    @property
    def redundancy(self) -> int:
        return 2**self.N - self.count


@dataclass
class DesignPlane:
    """Four points, six lines, three parallel classes."""

    points: tuple[int, int, int, int]
    lines: list[tuple[int, int]]
    parallel_classes: list[tuple[tuple[int, int], tuple[int, int]]]


def dfs_basis(N: int, k: int) -> DFSBasis:
    """All weight-k strings of length N, lexicographically sorted."""
    if not (0 <= k <= N):
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
    if N > 12:
        raise ValueError("basis enumeration limited to N <= 12")
    return DFSBasis(N, k, _weight_strings(N, k))


def _complement(s: str) -> str:
    return "".join("1" if c == "0" else "0" for c in s)


def jump_code(N: int, phase: float = 0.0) -> JumpCode:
    """Pair each weight-N/2 string with its complement; one code word per pair."""
    if N % 2 != 0 or N < 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    if not isfinite(phase):
        raise ValueError(f"phase {phase} is not finite")
    reps = [s for s in _weight_strings(N, N // 2) if s[0] == "0"]
    pairs = [(s, _complement(s)) for s in reps]
    return JumpCode(N, phase, pairs)


def logical_qubits(N: int) -> float:
    """log2 of the code word count of the N-qubit jump code."""
    if N % 2 != 0 or N < 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    return log2(comb(N - 1, N // 2 - 1))


def codeword_ket(code: JumpCode, i: int) -> Ket:
    """Normalized code word (|s> + e^{i phase}|s_bar>) / sqrt(2)."""
    if not (0 <= i < code.count):
        raise IndexError(f"code word index {i} out of range 0..{code.count - 1}")
    s, sbar = code.pairs[i]
    amps = np.zeros(2**code.N, dtype=complex)
    amps[label_to_index(s)] = 1.0 / np.sqrt(2.0)
    amps[label_to_index(sbar)] = np.exp(1j * code.phase) / np.sqrt(2.0)
    return Ket(code.N, amps)


def encode(code: JumpCode, logical: np.ndarray) -> Ket:
    """Embed a logical amplitude vector (length = code.count) into the code space."""
    logical = np.asarray(logical, dtype=complex)
    if logical.shape != (code.count,):
        raise ValueError(f"logical vector must have length {code.count}")
    amps = np.zeros(2**code.N, dtype=complex)
    for i, a in enumerate(logical):
        amps += a * codeword_ket(code, i).amplitudes
    return Ket(code.N, amps)


def projector(code: JumpCode) -> np.ndarray:
    """Rank-``count`` projector onto the code space."""
    dim = 2**code.N
    P = np.zeros((dim, dim), dtype=complex)
    for i in range(code.count):
        v = codeword_ket(code, i).amplitudes
        P += np.outer(v, v.conj())
    return P


def dfs_projector(basis: DFSBasis) -> np.ndarray:
    dim = 2**basis.N
    P = np.zeros((dim, dim), dtype=complex)
    for s in basis.basis:
        idx = label_to_index(s)
        P[idx, idx] = 1.0
    return P


def affine_plane_4() -> DesignPlane:
    """The four-point plane: every 2-subset is a line, three parallel classes."""
    points = (1, 2, 3, 4)
    lines = [tuple(sorted(pair)) for pair in combinations(points, 2)]
    classes = []
    for line in [(1, 2), (1, 3), (1, 4)]:
        other = tuple(sorted(set(points) - set(line)))
        classes.append((line, other))
    return DesignPlane(points, sorted(lines), classes)


def verify_plane_axioms(plane: DesignPlane) -> None:
    """Raise if the incidence axioms or the parallel-class partition fail."""
    pts = set(plane.points)
    if len(pts) != 4:
        raise ValueError("plane must have four distinct points")
    for a, b in combinations(pts, 2):
        matching = [ln for ln in plane.lines if {a, b} <= set(ln)]
        if len(matching) != 1:
            raise ValueError(f"points {a},{b} lie on {len(matching)} lines, expected 1")
    if any(len(set(ln)) < 2 for ln in plane.lines):
        raise ValueError("each line needs at least two points")
    for g, h in plane.parallel_classes:
        if set(g) | set(h) != pts or set(g) & set(h):
            raise ValueError(f"class ({g},{h}) does not partition the point set")


def parallelism_to_code(plane: DesignPlane, phase: float = 0.0) -> JumpCode:
    """Map each parallel class {g, h} to the code word exciting g's and h's points."""
    verify_plane_axioms(plane)
    n = 4

    def line_string(line: tuple[int, int]) -> str:
        chars = ["0"] * n
        for p in line:
            chars[n - p] = "1"  # qubit p prints at position n - p
        return "".join(chars)

    pairs = []
    for g, h in plane.parallel_classes:
        s, sbar = line_string(g), line_string(h)
        if s[0] == "1":
            s, sbar = sbar, s
        pairs.append((s, sbar))
    return JumpCode(n, phase, sorted(pairs))


def product_code_basis(code_a: JumpCode, code_b: JumpCode) -> list[Ket]:
    """Nine two-register states |ij>_L with register A on qubits 5-8, B on 1-4."""
    if code_a.N != 4 or code_b.N != 4:
        raise ValueError("product basis is defined for two 4-qubit codes")
    if code_a.phase != code_b.phase:
        raise ValueError("register codes must share the same phase")
    states = []
    for i in range(code_a.count):
        for j in range(code_b.count):
            states.append(tensor(codeword_ket(code_a, i), codeword_ket(code_b, j)))
    return states


def code_to_json(code: JumpCode) -> dict:
    return {
        "N": code.N,
        "k": code.k,
        "phase": float(code.phase),
        "pairs": [[s, sbar] for s, sbar in code.pairs],
    }


def code_report(code: JumpCode) -> dict:
    """The ``code inspect`` report: size, rate, redundancy and DFS dimension."""
    return {
        "N": code.N,
        "k": code.k,
        "phase": code.phase,
        "codewords": code.count,
        "logical_qubits": log2(code.count),
        "redundancy": code.redundancy,
        "dfs_dimension": comb(code.N, code.k),
    }


def code_from_json(data: dict) -> JumpCode:
    """The code of a ``code_to_json`` document; ValueError names what is malformed."""
    if not isinstance(data, dict):
        raise ValueError("code file must hold a JSON object")
    missing = [key for key in ("N", "phase", "pairs") if key not in data]
    if missing:
        raise ValueError(f"code file lacks {', '.join(missing)}")
    if type(data["N"]) is not int:
        raise ValueError(f"N must be an integer, not {data['N']!r}")
    if type(data["phase"]) not in (int, float):
        raise ValueError(f"phase must be a number, not {data['phase']!r}")
    raw = data["pairs"]
    if not isinstance(raw, list) or any(
        not isinstance(p, list) or len(p) != 2 or not all(isinstance(s, str) for s in p)
        for p in raw
    ):
        raise ValueError("pairs must be a list of [string, string] pairs")
    pairs = [(s, sbar) for s, sbar in raw]
    code = JumpCode(data["N"], float(data["phase"]), pairs)
    if not pairs:
        raise ValueError("code has no pairs")
    if "k" in data and data["k"] != code.k:
        raise ValueError(f"k must be N/2 = {code.k}, not {data['k']}")
    if not isfinite(code.phase):
        raise ValueError(f"phase {code.phase} is not finite")
    seen: set[str] = set()
    for s, sbar in code.pairs:
        if len(s) != code.N or set(s) - {"0", "1"}:
            raise ValueError(f"pair ({s},{sbar}) is not of {code.N}-bit strings")
        if _complement(s) != sbar:
            raise ValueError(f"pair ({s},{sbar}) is not complementary")
        if 2 * s.count("1") != code.N:
            raise ValueError(f"pair ({s},{sbar}) is not of weight {code.N}/2")
        if s in seen or sbar in seen:
            raise ValueError(f"pair ({s},{sbar}) repeats a code word")
        seen.update((s, sbar))
    return code

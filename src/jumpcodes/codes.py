"""Excitation-preserving subspaces, complementary-pair codes, and the
four-point design that indexes the smallest code's words.

A DFS-(N, k) is spanned by all N-qubit basis states with exactly k excited
qubits. For even N, pairing each weight-N/2 string s with its bitwise
complement gives the code words |s> + e^{i phi} |complement(s)>; there are
C(N-1, N/2-1) such pairs. Strings are amplitude indices; labels are for JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite, log2, sqrt

import numpy as np

from .states import Ket


def _weight_indices(n: int, k: int) -> list[int]:
    """The amplitude indices of n qubits with exactly k bits set, ascending."""
    return sorted(map(sum, combinations([1 << p for p in range(n)], k)))


@dataclass
class DFSBasis:
    """Basis of the weight-k excitation sector of N qubits."""

    N: int
    k: int
    indices: list[int]

    @property
    def basis(self) -> list[str]:
        return [f"{s:0{self.N}b}" for s in self.indices]

    @property
    def dimension(self) -> int:
        return len(self.indices)


@dataclass
class JumpCode:
    """One-error-correcting code from complementary pairs of weight-N/2 strings.

    Code word i is (|s> + e^{i phase} |s_bar>) / sqrt(2) for (s, s_bar) = ``words[i]``,
    amplitude indices as Python ints; the representative s has qubit N clear.
    """

    N: int
    phase: float
    words: list[tuple[int, int]]

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """The words as printed labels b_N...b_1."""
        return [(f"{s:0{self.N}b}", f"{sbar:0{self.N}b}") for s, sbar in self.words]

    @property
    def k(self) -> int:
        return self.N // 2

    @property
    def count(self) -> int:
        return len(self.words)

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
    """All weight-k strings of length N, in ascending order."""
    if not (0 <= k <= N):
        raise ValueError(f"need 0 <= k <= N, got k={k}, N={N}")
    if N > 12:
        raise ValueError("basis enumeration limited to N <= 12")
    return DFSBasis(N, k, _weight_indices(N, k))


def jump_code(N: int, phase: float = 0.0) -> JumpCode:
    """One code word per weight-N/2 string with qubit N clear, paired with its complement."""
    if N % 2 != 0 or N < 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    if not isfinite(phase):
        raise ValueError(f"phase {phase} is not finite")
    return JumpCode(N, phase, [(s, s ^ (2**N - 1)) for s in _weight_indices(N - 1, N // 2)])


def logical_qubits(N: int) -> float:
    """log2 of the code word count of the N-qubit jump code."""
    if N % 2 != 0 or N < 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    return log2(comb(N - 1, N // 2 - 1))


def word_amplitudes(phase: float) -> np.ndarray:
    """A code word's amplitudes on its strings (s, s_bar): [1, e^{i phase}] / sqrt(2)."""
    return np.array([1.0 / sqrt(2.0), np.exp(1j * phase) / sqrt(2.0)])


def codeword_ket(code: JumpCode, i: int) -> Ket:
    """Normalized code word (|s> + e^{i phase}|s_bar>) / sqrt(2)."""
    if not (0 <= i < code.count):
        raise IndexError(f"code word index {i} out of range 0..{code.count - 1}")
    amps = np.zeros(2**code.N, dtype=complex)
    amps[list(code.words[i])] = word_amplitudes(code.phase)
    return Ket(code.N, amps)


def isometry(code: JumpCode) -> np.ndarray:
    """The (2^N, count) array whose column i is code word i."""
    C = np.zeros((2**code.N, code.count), dtype=complex)
    C[np.array(code.words), np.arange(code.count)[:, None]] = word_amplitudes(code.phase)
    return C


def encode(code: JumpCode, logical: np.ndarray) -> Ket:
    """Embed a logical amplitude vector (length = code.count) into the code space."""
    logical = np.asarray(logical, dtype=complex)
    if logical.shape != (code.count,):
        raise ValueError(f"logical vector must have length {code.count}")
    amps = np.zeros(2**code.N, dtype=complex)
    amps[np.array(code.words)] = logical[:, None] * word_amplitudes(code.phase)
    return Ket(code.N, amps)


def projector(code: JumpCode) -> np.ndarray:
    """Rank-``count`` projector onto the code space: one 2x2 block per word."""
    amps = word_amplitudes(code.phase)
    words = np.array(code.words)
    P = np.zeros((2**code.N, 2**code.N), dtype=complex)
    P[words[:, :, None], words[:, None, :]] = np.outer(amps, amps.conj())
    return P


def dfs_projector(basis: DFSBasis) -> np.ndarray:
    P = np.zeros((2**basis.N, 2**basis.N), dtype=complex)
    P[basis.indices, basis.indices] = 1.0
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
    # Qubit p owns bit 2^(p-1); the smaller index, the representative, keeps qubit 4 clear.
    bits = [sorted(sum(1 << (p - 1) for p in ln) for ln in c) for c in plane.parallel_classes]
    return JumpCode(4, phase, sorted(map(tuple, bits)))


def product_code_basis(code_a: JumpCode, code_b: JumpCode) -> np.ndarray:
    """The (256, 9) isometry whose column 3i + j is |i>_A |j>_B, register A on
    qubits 5-8 and B on 1-4."""
    if code_a.N != 4 or code_b.N != 4:
        raise ValueError("product basis is defined for two 4-qubit codes")
    if code_a.phase != code_b.phase:
        raise ValueError("register codes must share the same phase")
    return np.kron(isometry(code_a), isometry(code_b))


def code_to_json(code: JumpCode) -> dict:
    return {
        "N": code.N,
        "k": code.k,
        "phase": float(code.phase),
        "pairs": [list(pair) for pair in code.pairs],
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
    N = data["N"]
    if N % 2 != 0 or N < 2:
        raise ValueError(f"N must be even and >= 2, got {N}")
    if type(data["phase"]) not in (int, float):
        raise ValueError(f"phase must be a number, not {data['phase']!r}")
    raw = data["pairs"]
    if not isinstance(raw, list) or any(
        not isinstance(p, list) or len(p) != 2 or not all(isinstance(s, str) for s in p)
        for p in raw
    ):
        raise ValueError("pairs must be a list of [string, string] pairs")
    try:
        phase = float(data["phase"])
    except OverflowError:  # an integer beyond float range
        raise ValueError("phase must lie within float range") from None
    if not raw:
        raise ValueError("code has no pairs")
    if "k" in data and data["k"] != N // 2:
        raise ValueError(f"k must be N/2 = {N // 2}, not {data['k']}")
    if not isfinite(phase):
        raise ValueError(f"phase {phase} is not finite")
    words: dict[int, int] = {}  # first string -> second, in file order
    for s, sbar in raw:
        if len(s) != N or set(s) - {"0", "1"}:
            raise ValueError(f"pair ({s},{sbar}) is not of {N}-bit strings")
        word, bar = int(s, 2), int(s, 2) ^ (2**N - 1)
        if f"{bar:0{N}b}" != sbar:
            raise ValueError(f"pair ({s},{sbar}) is not complementary")
        if 2 * s.count("1") != N:
            raise ValueError(f"pair ({s},{sbar}) is not of weight {N}/2")
        if word in words or bar in words:  # a repeat, as given or swapped
            raise ValueError(f"pair ({s},{sbar}) repeats a code word")
        words[word] = bar
    return JumpCode(N, phase, list(words.items()))

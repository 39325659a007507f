"""Dense pure states and local operators on N distinguishable qubits.

Index convention: qubit alpha (1-based) owns bit weight 2**(alpha-1), so the
amplitude of basis state |b_N ... b_1> sits at integer index sum(b_a * 2**(a-1)).
Printed labels read b_N...b_1, i.e. ``int(label, 2)`` is the array index.
|1> is the excited level; sigma_z |0> = +|0>, sigma_z |1> = -|1>.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Pauli matrices in the |0>, |1> basis.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1><1|

# Above this qubit count no global 2^N x 2^N matrix is materialized.
DENSE_QUBIT_LIMIT = 12


def label_to_index(label: str) -> int:
    """Map a printed bitstring b_N...b_1 to its amplitude index."""
    if not label or any(c not in "01" for c in label):
        raise ValueError(f"label must be a nonempty 0/1 string, got {label!r}")
    return int(label, 2)


@dataclass
class Ket:
    """Pure state of ``n_qubits`` qubits as a dense complex amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected 2**{self.n_qubits}"
            )
        amps.setflags(write=False)
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol

    def normalized(self) -> "Ket":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.n_qubits, self.amplitudes / n)


def basis_ket(label: str) -> Ket:
    """Computational basis state for a printed label b_N...b_1."""
    idx = label_to_index(label)
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[idx] = 1.0
    return Ket(len(label), amps)


@dataclass
class LocalOperator:
    """Operator acting on ``support`` qubits, identity elsewhere.

    Block index convention is little-endian in the support list:
    ``support[j]`` owns bit weight 2**j of the block row/column index.
    """

    support: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        self.support = tuple(int(q) for q in self.support)
        if len(set(self.support)) != len(self.support) or any(q < 1 for q in self.support):
            raise ValueError(f"support must be distinct indices >= 1, got {self.support}")
        block = np.asarray(self.block, dtype=complex)
        d = 2 ** len(self.support)
        if block.shape != (d, d):
            raise ValueError(f"block shape {block.shape} does not match support size")
        block.setflags(write=False)
        self.block = block


def apply_local(op: LocalOperator, psi: Ket) -> Ket:
    """Apply (op x identity) without materializing the global matrix."""
    rows, at = _index_map(op.support, psi.n_qubits)
    return Ket(psi.n_qubits, (op.block[rows] * psi.amplitudes[at % psi.dim]).sum(axis=1))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: the same BLAS dot per row."""
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    return np.sqrt(
        (re @ re.transpose(0, 2, 1))[:, 0, 0] + (im @ im.transpose(0, 2, 1))[:, 0, 0]
    )


@functools.lru_cache(maxsize=None)
def _index_map(support: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where (block x identity) on n qubits is nonzero, as flat matrix indices.

    Row x of that 2^n x 2^n matrix is row ``rows[x]`` of the block, the block
    index that x's support bits read (``support[b]`` is bit b of a block
    index). Its entry j lies in column c = x with the bits of j written over
    its support bits, at flat index ``at[x, j] = x * 2^n + c``.
    """
    if any(q > n for q in support):
        raise ValueError(f"support {support} exceeds qubit count {n}")
    placed = [
        sum(((j >> b) & 1) << (q - 1) for b, q in enumerate(support))
        for j in range(2 ** len(support))
    ]
    x = np.arange(2**n)[:, None]
    cols = (x & ~placed[-1]) | placed  # placed[-1] sets every support bit
    rows = (cols == x).argmax(axis=1)
    at = (x << n) | cols
    rows.setflags(write=False)
    at.setflags(write=False)
    return rows, at


def local_to_dense(op: LocalOperator, n_qubits: int) -> np.ndarray:
    """Embed a local operator into the full 2^n x 2^n matrix."""
    return sum_to_dense((op,), n_qubits)


def sum_to_dense(terms: tuple[LocalOperator, ...], n_qubits: int) -> np.ndarray:
    """Add every term's embedding (see ``_index_map``) into one 2^n x 2^n matrix."""
    if n_qubits > DENSE_QUBIT_LIMIT:
        raise ValueError(f"refusing dense embedding beyond {DENSE_QUBIT_LIMIT} qubits")
    # Zeros written up front: np.zeros leaves a large matrix unmapped, and the
    # scattered adds below would then fault each page twice (read, then write).
    total = np.full((2**n_qubits, 2**n_qubits), 0j)
    flat = total.reshape(-1)
    for term in terms:
        rows, at = _index_map(term.support, n_qubits)
        flat[at] += term.block[rows]
    return total

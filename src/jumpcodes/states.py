"""Dense pure states and local operators on N distinguishable qubits.

Index convention: qubit alpha (1-based) owns bit weight 2**(alpha-1), so the
amplitude of basis state |b_N ... b_1> sits at integer index sum(b_a * 2**(a-1)).
Printed labels read b_N...b_1, i.e. ``int(label, 2)`` is the array index.
|1> is the excited level; sigma_z |0> = +|0>, sigma_z |1> = -|1>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12

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

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
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


def tensor(high: Ket, low: Ket) -> Ket:
    """Combine registers; ``low`` keeps qubits 1..n_low, ``high`` is shifted above.

    The printed label of a product of basis states is (high label)(low label).
    """
    return Ket(high.n_qubits + low.n_qubits, np.kron(high.amplitudes, low.amplitudes))


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

    def scaled(self, factor: complex) -> "LocalOperator":
        return LocalOperator(self.support, factor * self.block)


@dataclass
class OperatorSum:
    """Sum of local operators, kept unassembled until needed."""

    terms: tuple[LocalOperator, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.terms = tuple(self.terms)

    def scaled(self, factor: complex) -> "OperatorSum":
        return OperatorSum(tuple(t.scaled(factor) for t in self.terms))


def apply_local(op: LocalOperator, psi: Ket) -> Ket:
    """Apply (op x identity) without materializing the global matrix.

    The state is viewed as a rank-N tensor (axis n-a holds qubit a) and the
    block is contracted onto the support axes.
    """
    n = psi.n_qubits
    if any(q > n for q in op.support):
        raise ValueError(f"support {op.support} exceeds qubit count {n}")
    k = len(op.support)
    block = op.block.reshape((2,) * (2 * k))
    state = psi.amplitudes.reshape((2,) * n)
    # Block axes run msb->lsb, i.e. support[k-1], ..., support[0].
    axes = [n - q for q in reversed(op.support)]
    out = np.tensordot(block, state, axes=(list(range(k, 2 * k)), axes))
    out = np.moveaxis(out, range(k), axes)
    return Ket(n, out.reshape(-1))


def lower_rows(psi: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Apply |0><1| on qubit ``alpha[r]`` to row r of ``psi`` (unnormalized).

    L_alpha|x> = |x - 2**(alpha-1)> when bit alpha of x is set, so entry x of
    the result is psi[r, x | 2**(alpha-1)] where that bit of x is clear and
    zero where it is set.
    """
    bit = (1 << (np.asarray(alpha) - 1))[:, None]
    idx = np.arange(psi.shape[1])
    out = psi[np.arange(len(psi))[:, None], idx | bit]
    out[(idx & bit) != 0] = 0.0
    return out


def row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: the same BLAS dot per row."""
    re, im = rows.real[:, None, :], rows.imag[:, None, :]
    return np.sqrt(
        (re @ re.transpose(0, 2, 1))[:, 0, 0] + (im @ im.transpose(0, 2, 1))[:, 0, 0]
    )


def _axis_permutation(support: tuple[int, ...], n: int) -> list[int]:
    # Axis order of kron(block, I_rest), msb->lsb: support reversed, then the
    # remaining qubits in descending order. Target order: qubit n-j at axis j.
    current = list(reversed(support)) + sorted(
        set(range(1, n + 1)) - set(support), reverse=True
    )
    return [current.index(n - j) for j in range(n)]


def local_to_dense(op: LocalOperator, n_qubits: int) -> np.ndarray:
    """Embed a local operator into the full 2^n x 2^n matrix."""
    n = n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise ValueError(f"refusing dense embedding beyond {DENSE_QUBIT_LIMIT} qubits")
    if any(q > n for q in op.support):
        raise ValueError(f"support {op.support} exceeds qubit count {n}")
    k = len(op.support)
    full = np.kron(op.block, np.eye(2 ** (n - k), dtype=complex))
    perm = _axis_permutation(op.support, n)
    tensor_form = full.reshape((2,) * (2 * n))
    tensor_form = tensor_form.transpose(perm + [n + p for p in perm])
    return np.ascontiguousarray(tensor_form.reshape(2**n, 2**n))


def sum_to_dense(ops: OperatorSum | LocalOperator, n_qubits: int) -> np.ndarray:
    if isinstance(ops, LocalOperator):
        ops = OperatorSum((ops,))
    total = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in ops.terms:
        total += local_to_dense(term, n_qubits)
    return total

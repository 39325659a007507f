"""Dense pure states and local operators on N distinguishable qubits.

Index convention: qubit alpha (1-based) owns bit weight 2**(alpha-1), so the
amplitude of basis state |b_N ... b_1> sits at integer index sum(b_a * 2**(a-1)).
Printed labels read b_N...b_1, i.e. ``int(label, 2)`` is the array index.
|1> is the excited level; sigma_z |0> = +|0>, sigma_z |1> = -|1>.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

NORM_TOL = 1e-12
HERM_TOL = 1e-10

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


def index_to_label(index: int, n_qubits: int) -> str:
    return format(index, f"0{n_qubits}b")


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

    def overlap(self, other: "Ket") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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


def ket_to_json(psi: Ket) -> list[list[float]]:
    """Amplitudes as [re, im] pairs (the serialization wire format)."""
    return [[float(a.real), float(a.imag)] for a in psi.amplitudes]


def ket_from_json(pairs: list[list[float]]) -> Ket:
    amps = np.array([complex(re, im) for re, im in pairs])
    n = int(round(np.log2(amps.size)))
    if 2**n != amps.size:
        raise ValueError(f"amplitude count {amps.size} is not a power of two")
    return Ket(n, amps)


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

    def dagger(self) -> "LocalOperator":
        return LocalOperator(self.support, self.block.conj().T)


@dataclass
class OperatorSum:
    """Sum of local operators, kept unassembled until needed."""

    terms: tuple[LocalOperator, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.terms = tuple(self.terms)

    def __add__(self, other: "OperatorSum") -> "OperatorSum":
        return OperatorSum(self.terms + other.terms)

    def scaled(self, factor: complex) -> "OperatorSum":
        return OperatorSum(tuple(t.scaled(factor) for t in self.terms))

    def max_support(self) -> int:
        return max((max(t.support) for t in self.terms), default=0)


@dataclass
class DenseOperator:
    """Explicit matrix on a small space (full spaces up to ~2**12, or logical bases)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        mat.setflags(write=False)
        self.matrix = mat

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self, tol: float = HERM_TOL) -> bool:
        return bool(np.linalg.norm(self.matrix - self.matrix.conj().T) <= tol)

    def is_unitary(self, tol: float = HERM_TOL) -> bool:
        d = self.dimension
        return bool(np.linalg.norm(self.matrix.conj().T @ self.matrix - np.eye(d)) <= tol)


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


def apply_sum(ops: OperatorSum, psi: Ket) -> Ket:
    total = np.zeros_like(psi.amplitudes)
    for term in ops.terms:
        total = total + apply_local(term, psi).amplitudes
    return Ket(psi.n_qubits, total)


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


def local_to_sparse(op: LocalOperator, n_qubits: int) -> sparse.csr_matrix:
    """Sparse embedding of a local operator (for Krylov exponential action)."""
    n = n_qubits
    k = len(op.support)
    rest = sorted(set(range(1, n + 1)) - set(op.support))
    full = sparse.kron(
        sparse.csr_matrix(op.block), sparse.identity(2 ** (n - k), format="csr")
    ).tocsr()
    # kron layout: support[j] at bit weight 2**(n-k) * 2**j ... rest bits low,
    # rest[m] (ascending) at bit weight 2**m within the low part.
    idx = np.arange(2**n)
    src = np.zeros(2**n, dtype=np.int64)
    for j, q in enumerate(op.support):
        src |= ((idx >> (q - 1)) & 1) << (n - k + j)
    for m, q in enumerate(rest):
        src |= ((idx >> (q - 1)) & 1) << m
    return full[src][:, src]


def sum_to_dense(ops: OperatorSum | LocalOperator, n_qubits: int) -> np.ndarray:
    if isinstance(ops, LocalOperator):
        ops = OperatorSum((ops,))
    total = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in ops.terms:
        total += local_to_dense(term, n_qubits)
    return total


def sum_to_sparse(ops: OperatorSum | LocalOperator, n_qubits: int) -> sparse.csr_matrix:
    if isinstance(ops, LocalOperator):
        ops = OperatorSum((ops,))
    total = sparse.csr_matrix((2**n_qubits, 2**n_qubits), dtype=complex)
    for term in ops.terms:
        total = total + local_to_sparse(term, n_qubits)
    return total


# Dense exponentiation is cheap up to this dimension; above it the
# Taylor/Krylov action of scipy's expm_multiply avoids the dense matrix.
_DENSE_EXPM_DIM = 2**8


def expm_apply(
    hamiltonian: LocalOperator | OperatorSum | DenseOperator | np.ndarray,
    t: float,
    psi: Ket,
    method: str = "auto",
) -> Ket:
    """Return exp(-i * H * t) |psi> (hbar = 1). H may be non-hermitian."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    if method not in ("auto", "dense", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    dim = psi.dim
    if isinstance(hamiltonian, DenseOperator):
        mat: np.ndarray | None = hamiltonian.matrix
    elif isinstance(hamiltonian, np.ndarray):
        mat = np.asarray(hamiltonian, dtype=complex)
    else:
        mat = None
    if mat is not None:
        if mat.shape != (dim, dim):
            raise ValueError(f"operator dimension {mat.shape[0]} != state dimension {dim}")
        if t == 0.0:
            return Ket(psi.n_qubits, psi.amplitudes.copy())
        return Ket(psi.n_qubits, dense_expm(-1j * t * mat) @ psi.amplitudes)
    # sum of local operators
    ops = hamiltonian if isinstance(hamiltonian, OperatorSum) else OperatorSum((hamiltonian,))
    if ops.max_support() > psi.n_qubits:
        raise ValueError("operator support exceeds state qubit count")
    if t == 0.0:
        return Ket(psi.n_qubits, psi.amplitudes.copy())
    if method == "dense" or (method == "auto" and dim <= _DENSE_EXPM_DIM):
        full = sum_to_dense(ops, psi.n_qubits)
        return Ket(psi.n_qubits, dense_expm(-1j * t * full) @ psi.amplitudes)
    full_sparse = sum_to_sparse(ops, psi.n_qubits)
    out = expm_multiply(-1j * t * full_sparse, psi.amplitudes)
    return Ket(psi.n_qubits, out)

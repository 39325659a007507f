import numpy as np
import pytest

from jumpcodes.states import (
    Ket,
    LOWER,
    LocalOperator,
    OperatorSum,
    SIGMA_Z,
    apply_local,
    basis_ket,
    label_to_index,
    local_to_dense,
    sum_to_dense,
    tensor,
)


def random_ket(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return Ket(n, amps / np.linalg.norm(amps))


def dense_oracle(op: LocalOperator, n: int) -> np.ndarray:
    """Element-wise embedding, independent of the library's kron/permute path."""
    dim = 2**n
    M = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(1, n + 1) if q not in op.support]
    for i in range(dim):
        for j in range(dim):
            if any((i >> (q - 1)) & 1 != (j >> (q - 1)) & 1 for q in rest):
                continue
            bi = sum(((i >> (q - 1)) & 1) << pos for pos, q in enumerate(op.support))
            bj = sum(((j >> (q - 1)) & 1) << pos for pos, q in enumerate(op.support))
            M[i, j] = op.block[bi, bj]
    return M


class TestBasisKet:
    def test_single_qubit_ground(self):
        assert np.array_equal(basis_ket("0").amplitudes, [1.0, 0.0])

    def test_little_endian_index(self):
        assert basis_ket("0011").amplitudes[3] == 1.0
        assert basis_ket("1100").amplitudes[12] == 1.0

    @pytest.mark.parametrize("bad", ["", "01x", "2"])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            basis_ket(bad)


class TestTensor:
    def test_printed_label_composition(self):
        t = tensor(basis_ket("0011"), basis_ket("0101"))
        assert t.amplitudes[label_to_index("00110101")] == 1.0
        assert t.n_qubits == 8

    def test_vacuum_low_register_shifts_high(self):
        rng = np.random.default_rng(1)
        x = random_ket(rng, 3)
        t = tensor(x, basis_ket("00"))
        assert np.allclose(t.amplitudes[::4], x.amplitudes)
        mask = np.ones(t.dim, dtype=bool)
        mask[::4] = False
        assert np.all(t.amplitudes[mask] == 0)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(2)
        a, b = random_ket(rng, 2), random_ket(rng, 3)
        assert abs(tensor(a, b).norm() - 1.0) < 1e-12


class TestApplyLocal:
    def test_identity_block(self):
        rng = np.random.default_rng(3)
        psi = random_ket(rng, 4)
        out = apply_local(LocalOperator((2,), np.eye(2)), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_sigma_z_sign_convention(self):
        # qubit 1 of "0011" is excited, so sigma_z flips the sign
        out = apply_local(LocalOperator((1,), SIGMA_Z), basis_ket("0011"))
        assert np.allclose(out.amplitudes, -basis_ket("0011").amplitudes)
        out = apply_local(LocalOperator((1,), SIGMA_Z), basis_ket("0010"))
        assert np.allclose(out.amplitudes, basis_ket("0010").amplitudes)

    def test_lowering_annihilates_ground_qubit(self):
        out = apply_local(LocalOperator((1,), LOWER), basis_ket("1100"))
        assert np.all(out.amplitudes == 0)

    def test_out_of_range_support(self):
        with pytest.raises(ValueError):
            apply_local(LocalOperator((5,), np.eye(2)), basis_ket("0011"))

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(3, n) + 1))
            support = tuple(rng.choice(np.arange(1, n + 1), k, replace=False).tolist())
            block = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            op = LocalOperator(support, block)
            psi = random_ket(rng, n)
            oracle = dense_oracle(op, n)
            assert np.linalg.norm(apply_local(op, psi).amplitudes - oracle @ psi.amplitudes) < 1e-12
            assert np.linalg.norm(local_to_dense(op, n) - oracle) < 1e-12


def rand_herm(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (M + M.conj().T)


def test_ket_validation():
    with pytest.raises(ValueError):
        Ket(2, np.zeros(3))


def test_sum_to_dense_adds_terms():
    rng = np.random.default_rng(10)
    ops = OperatorSum(
        (LocalOperator((1,), rand_herm(rng, 2)), LocalOperator((2,), rand_herm(rng, 2)))
    )
    total = sum_to_dense(ops, 3)
    expected = local_to_dense(ops.terms[0], 3) + local_to_dense(ops.terms[1], 3)
    assert np.allclose(total, expected)


class TestRowKernels:
    def test_lower_rows_matches_apply_local(self):
        from jumpcodes.states import lower_rows

        rng = np.random.default_rng(12)
        n = 4
        kets = [random_ket(rng, n) for _ in range(8)]
        alpha = np.array([1, 2, 3, 4, 4, 3, 2, 1])
        got = lower_rows(np.array([k.amplitudes for k in kets]), alpha)
        for row, ket, a in zip(got, kets, alpha):
            expected = apply_local(LocalOperator((int(a),), LOWER), ket).amplitudes
            assert np.array_equal(row, expected)

    def test_row_norms_are_linalg_norms_bit_for_bit(self):
        from jumpcodes.states import row_norms

        rng = np.random.default_rng(13)
        for dim in (2, 16, 256):
            rows = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
            expected = [np.linalg.norm(r) for r in rows]
            assert row_norms(rows).tolist() == expected

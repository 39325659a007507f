from itertools import product
from math import comb, log2

import numpy as np
import pytest

from jumpcodes.codes import (
    JumpCode,
    affine_plane_4,
    code_from_json,
    code_to_json,
    codeword_ket,
    dfs_basis,
    dfs_projector,
    encode,
    isometry,
    jump_code,
    logical_qubits,
    parallelism_to_code,
    product_code_basis,
    projector,
    verify_plane_axioms,
)
from jumpcodes.states import NUMBER, LocalOperator, label_to_index, sum_to_dense


def printed_labels(n: int, k: int) -> list[str]:
    """Oracle: every n-character 0/1 label with k ones, sorted as strings."""
    return sorted(s for s in map("".join, product("01", repeat=n)) if s.count("1") == k)


class TestDFSBasis:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_basis_matches_string_enumeration(self, n):
        for k in range(n + 1):
            assert dfs_basis(n, k).basis == printed_labels(n, k)

    def test_four_two_sector(self):
        assert dfs_basis(4, 2).basis == ["0011", "0101", "0110", "1001", "1010", "1100"]

    def test_zero_excitations(self):
        assert dfs_basis(5, 0).basis == ["00000"]

    def test_dimension_is_binomial(self):
        assert dfs_basis(8, 4).dimension == 70
        for n in range(1, 13):
            for k in range(n + 1):
                assert dfs_basis(n, k).dimension == comb(n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dfs_basis(4, 5)


class TestJumpCode:
    def test_four_qubit_pairs(self):
        code = jump_code(4, 0.0)
        assert code.pairs == [("0011", "1100"), ("0101", "1010"), ("0110", "1001")]
        assert code.redundancy == 13

    def test_eight_qubit_count(self):
        assert jump_code(8).count == 35

    def test_two_qubit_single_pair(self):
        code = jump_code(2, 0.7)
        assert code.pairs == [("01", "10")]
        assert code.phase == 0.7

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_pairs_match_string_enumeration(self, n):
        # Word order fixes which logical amplitude each word carries in `sim run`.
        reps = [s for s in printed_labels(n, n // 2) if s[0] == "0"]
        want = [(s, s.translate(str.maketrans("01", "10"))) for s in reps]
        code = jump_code(n)
        assert code.pairs == want
        assert code.words == [(int(s, 2), int(sbar, 2)) for s, sbar in want]

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            jump_code(5)

    def test_count_identity_up_to_24(self):
        for n in range(2, 25, 2):
            assert comb(n, n // 2) // 2 == comb(n - 1, n // 2 - 1)
            # construction itself only enumerated for moderate sizes
            if n <= 12:
                assert jump_code(n).count == comb(n - 1, n // 2 - 1)


class TestLogicalQubits:
    def test_known_values(self):
        assert abs(logical_qubits(4) - log2(3)) < 1e-12
        assert abs(logical_qubits(8) - log2(35)) < 1e-12

    def test_asymptotic_bound(self):
        for n in range(4, 25, 2):
            assert abs(logical_qubits(n) - (n - log2(n) / 2.0)) <= 2.0


class TestCodewordKet:
    def test_first_codeword(self):
        v = codeword_ket(jump_code(4, 0.0), 0).amplitudes
        expected = np.zeros(16)
        expected[label_to_index("0011")] = expected[label_to_index("1100")] = 1 / np.sqrt(2)
        assert np.allclose(v, expected)

    def test_orthonormal(self):
        code = jump_code(6, 0.3)
        vs = [codeword_ket(code, i).amplitudes for i in range(code.count)]
        G = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.allclose(G, np.eye(code.count), atol=1e-12)

    def test_phase_pi_flips_sign(self):
        plus = codeword_ket(jump_code(4, 0.0), 0).amplitudes
        minus = codeword_ket(jump_code(4, np.pi), 0).amplitudes
        i1, i2 = label_to_index("0011"), label_to_index("1100")
        assert np.isclose(minus[i1], plus[i1])
        assert np.isclose(minus[i2], -plus[i2])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            codeword_ket(jump_code(4), 3)


class TestProjectors:
    def test_rank_and_idempotence(self):
        P = projector(jump_code(4, 0.0))
        assert abs(np.trace(P).real - 3.0) < 1e-12
        assert np.linalg.norm(P @ P - P) < 1e-12
        assert np.linalg.norm(P - P.conj().T) < 1e-12

    def test_commutes_with_excitation_number(self):
        P = projector(jump_code(4, 0.4))
        N_op = sum_to_dense(tuple(LocalOperator((a,), NUMBER) for a in range(1, 5)), 4)
        assert np.linalg.norm(P @ N_op - N_op @ P) < 1e-12

    def test_code_inside_dfs(self):
        code = jump_code(6, 1.1)
        P_dfs = dfs_projector(dfs_basis(6, 3))
        for i in range(code.count):
            v = codeword_ket(code, i).amplitudes
            assert np.linalg.norm(P_dfs @ v - v) < 1e-12

    def test_decay_operator_scalar_on_dfs(self):
        # with equal rates, sum L^+L restricted to DFS-(N,k) is kappa*k times identity
        kappa = 0.9
        for n, k in [(4, 2), (5, 3), (6, 3)]:
            total = sum_to_dense(
                tuple(LocalOperator((a,), kappa * NUMBER) for a in range(1, n + 1)), n
            )
            P = dfs_projector(dfs_basis(n, k))
            assert np.linalg.norm(P @ total @ P - kappa * k * P) < 1e-12


class TestAffinePlane:
    def test_structure(self):
        plane = affine_plane_4()
        verify_plane_axioms(plane)
        assert len(plane.lines) == 6
        assert len(plane.parallel_classes) == 3
        for p in plane.points:
            assert sum(1 for ln in plane.lines if p in ln) == 3

    def test_parallelism_reproduces_code(self):
        code = parallelism_to_code(affine_plane_4())
        assert set(code.pairs) == set(jump_code(4, 0.0).pairs)


class TestProductBasis:
    def test_printed_expansion_of_00(self):
        code = jump_code(4, 0.0)
        v = product_code_basis(code, code)[:, 0]
        printed = ["00110011", "11001100", "00111100", "11000011"]
        for label in printed:
            assert np.isclose(v[label_to_index(label)], 0.5)
        assert np.isclose(np.linalg.norm(v), 1.0)

    def test_orthonormal_nine(self):
        code = jump_code(4, 0.0)
        C = product_code_basis(code, code)
        assert np.allclose(C.conj().T @ C, np.eye(9), atol=1e-12)

    def test_inside_35_dim_code(self):
        code = jump_code(4, 0.0)
        P35 = projector(jump_code(8, 0.0))
        for s in product_code_basis(code, code).T:
            assert np.linalg.norm(P35 @ s - s) < 1e-12

    def test_phase_mismatch_rejected(self):
        with pytest.raises(ValueError):
            product_code_basis(jump_code(4, 0.0), jump_code(4, 0.5))

    @pytest.mark.parametrize("phase", [0.0, 0.3, np.pi, -2.1])
    def test_columns_are_outer_products_of_code_words(self, phase):
        # Column 3i + j is |i>_A |j>_B, register A on the high qubits 5-8; B
        # lists its words in reverse, so swapped registers would not match.
        a = jump_code(4, phase)
        b = JumpCode(4, phase, a.words[::-1])
        C = product_code_basis(a, b)
        assert C.shape == (256, 9)
        for i in range(3):
            for j in range(3):
                want = np.outer(codeword_ket(a, i).amplitudes, codeword_ket(b, j).amplitudes)
                assert C[:, 3 * i + j].tobytes() == want.ravel().tobytes()


@pytest.mark.parametrize("phase", [0.0, 0.3, np.pi, -2.1])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_isometry_columns_are_the_code_words(n, phase):
    code = jump_code(n, phase)
    want = np.column_stack([codeword_ket(code, i).amplitudes for i in range(code.count)])
    assert isometry(code).tobytes() == want.tobytes()


@pytest.mark.parametrize("phase", [0.0, 0.3, np.pi])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_encode_and_projector_are_sums_over_code_words(n, phase):
    code = jump_code(n, phase)
    rng = np.random.default_rng(n)
    a = rng.normal(size=code.count) + 1j * rng.normal(size=code.count)
    psi = np.zeros(2**n, dtype=complex)
    P = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(code.count):
        v = codeword_ket(code, i).amplitudes
        psi += a[i] * v
        P += np.outer(v, v.conj())
    assert np.array_equal(encode(code, a).amplitudes, psi)
    assert np.array_equal(projector(code), P)


def test_encode_unit_norm():
    code = jump_code(4, 0.0)
    rng = np.random.default_rng(11)
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    psi = encode(code, a)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_json_round_trip_and_format():
    code = jump_code(4, 0.0)
    data = code_to_json(code)
    assert data == {
        "N": 4,
        "k": 2,
        "phase": 0.0,
        "pairs": [["0011", "1100"], ["0101", "1010"], ["0110", "1001"]],
    }
    again = code_from_json(data)
    assert again.pairs == code.pairs

    bad = dict(data, pairs=[["0011", "1010"]])
    with pytest.raises(ValueError):
        code_from_json(bad)

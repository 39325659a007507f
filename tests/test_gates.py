import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

from jumpcodes import gates as gates_module
from jumpcodes.codes import JumpCode, isometry, jump_code, product_code_basis, projector
from jumpcodes.gates import (
    GateHamiltonian,
    LeakageError,
    ThetaMatrix,
    commutator_formula_target,
    ent_unitary,
    gate_theta_matrix,
    gell_mann_matrices,
    h_ent,
    is_primitive_diagonal,
    leakage_certificate,
    lie_closure,
    logical_matrix,
    phase_aligned_distance,
    program_from_json,
    program_logical_unitary,
    program_to_json,
    program_unitary,
    schmidt_rank,
    span_residual,
    su3_generators,
    sum_formula_target,
    symmetric_to_gate_hamiltonian,
    synthesis_report,
    synthesize_qutrit,
    table1_matrices,
    trotter_commutator,
    trotter_sum,
    v_gate,
    verify_entangle,
)
from jumpcodes.states import (
    Ket,
    NUMBER,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    LocalOperator,
    apply_local,
    basis_ket,
    local_to_dense,
    sum_to_dense,
)

TABLE1 = {
    "E12": np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float),
    "E23": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
    "E13": np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float),
    "F12": np.diag([1.0, 0.0, 0.0]),
    "F13": np.diag([0.0, 1.0, 0.0]),
    "F23": np.diag([0.0, 0.0, 1.0]),
}


def rand_herm(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (M + M.conj().T)


def pair_term(kind: str, alpha: int, beta: int) -> LocalOperator:
    """The one local operator of the unit-weight E or F term on (alpha, beta)."""
    (term,) = GateHamiltonian(((kind, (alpha, beta), 1.0),)).to_sum()
    return term


class TestPairOperators:
    def test_swap_fixes_equal_bits(self):
        out = apply_local(pair_term("E", 1, 2), basis_ket("0011"))
        assert np.allclose(out.amplitudes, basis_ket("0011").amplitudes)

    def test_swap_exchanges_bits(self):
        out = apply_local(pair_term("E", 1, 2), basis_ket("0101"))
        assert np.allclose(out.amplitudes, basis_ket("0110").amplitudes)

    def test_projector_kills_unequal_bits(self):
        out = apply_local(pair_term("F", 1, 2), basis_ket("0110"))
        assert np.all(out.amplitudes == 0)
        kept = apply_local(pair_term("F", 1, 2), basis_ket("0011"))
        assert np.allclose(kept.amplitudes, basis_ket("0011").amplitudes)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            pair_term("E", 2, 2)

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf")])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="not finite"):
            GateHamiltonian((("E", (1, 2), coeff),))

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_duration_rejected(self, duration):
        from jumpcodes.gates import ProgramSegment

        with pytest.raises(ValueError, match="finite and non-negative"):
            ProgramSegment(GateHamiltonian((("E", (1, 2), 1.0),)), duration)

    def test_blocks_are_the_pauli_forms(self):
        XX, YY, ZZ = (np.kron(P, P) for P in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        E, F = pair_term("E", 1, 2), pair_term("F", 1, 2)
        assert E.block.tobytes() == (0.5 * (np.eye(4) + XX + YY + ZZ)).tobytes()
        assert F.block.tobytes() == (0.5 * (np.eye(4) + ZZ)).tobytes()


class TestLogicalMatrix:
    def test_table1_exact(self):
        got = table1_matrices(0.0)
        for name, expected in TABLE1.items():
            assert np.abs(got[name] - expected).max() < 1e-12, name

    def test_leakage_raises(self):
        code = jump_code(4, 0.0)
        flip = local_to_dense(LocalOperator((1,), SIGMA_X), 4)  # changes excitation count
        with pytest.raises(LeakageError):
            logical_matrix(flip, code)

    @pytest.mark.parametrize("form", ["sum", "local"])
    def test_non_finite_hamiltonian_raises_value_error(self, form):
        # A NaN block used to reach _leakage's SVD and raise LinAlgError.
        code = jump_code(4, 0.0)
        term = LocalOperator((1, 2), np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="finite"):
            logical_matrix(sum_to_dense((term,), 4) if form == "sum"
                           else local_to_dense(term, 4), code)

    @pytest.mark.parametrize("phase", [0.0, 0.3])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e4, 1e6, 1e9])
    def test_verdict_does_not_depend_on_the_scale(self, phase, scale):
        # The residual grows with H; at 1e4 and above this sum's (2e-12 to
        # 3e-7) once exceeded an absolute 1e-12, though it is 2e-16 of ||HC||.
        code = jump_code(4, phase)
        terms = (("E", (1, 2), 0.7), ("F", (2, 3), -0.4), ("E", (1, 3), 0.31), ("F", (1, 3), 0.77))
        gh = GateHamiltonian(tuple((kind, pair, scale * c) for kind, pair, c in terms))
        want = scale * logical_matrix(GateHamiltonian(terms), code)
        assert np.abs(logical_matrix(gh, code) - want).max() <= 1e-14 * scale
        flip = local_to_dense(LocalOperator((1,), scale * SIGMA_X), 4)
        with pytest.raises(LeakageError):
            logical_matrix(flip, code)

    def test_zero_hamiltonian_is_invariant(self):
        zero = GateHamiltonian((("E", (1, 2), 0.0),))
        assert np.all(logical_matrix(zero, jump_code(4, 0.0)) == 0)

    def test_all_pair_hamiltonians_leave_code_invariant(self):
        code = jump_code(4, 0.0)
        P = projector(code)
        one = np.eye(16)
        for name, gh in [
            (k, GateHamiltonian(((k[0], (int(k[1]), int(k[2])), 1.0),)))
            for k in TABLE1
        ]:
            H = gh.matrix(4)
            assert np.linalg.norm((one - P) @ H @ P, 2) < 1e-12, name


class TestSU3Generators:
    def test_c12_plus_matrix(self):
        gens = {g.name: g for g in su3_generators()}
        assert np.allclose(
            gens["C12+"].logical, [[0, 1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-12
        )

    def test_c12_minus_pattern(self):
        gens = {g.name: g for g in su3_generators()}
        M = gens["C12-"].logical
        assert np.linalg.norm(M - M.conj().T) < 1e-12
        nonzero = np.abs(M) > 1e-12
        assert np.all(np.isclose(np.abs(M[nonzero]), 1.0))
        assert np.all(np.isclose(M[nonzero].real, 0.0))

    def test_all_hermitian_with_realizations(self):
        for g in su3_generators():
            assert np.linalg.norm(g.logical - g.logical.conj().T) < 1e-12
            assert (g.hamiltonian is not None) != (g.commutator_of is not None)

    def test_plus_realizations_are_e_minus_f_on_one_pair(self):
        gens = {g.name: g for g in su3_generators()}
        for name, pair in (("C12+", (2, 3)), ("C13+", (1, 3)), ("C23+", (1, 2))):
            assert gens[name].hamiltonian.terms == (("E", pair, 1.0), ("F", pair, -1.0))

    def test_commutator_realizations_consistent(self):
        gens = {g.name: g for g in su3_generators()}
        for name in ("C12-", "C13-", "C23-"):
            a, b = gens[name].commutator_of
            A, B = gens[a].logical, gens[b].logical
            assert np.allclose(gens[name].logical, 1j * (A @ B - B @ A))


class TestLieClosure:
    def test_paper_generators_close_to_u3(self):
        closure = lie_closure([g.logical for g in su3_generators()])
        assert (closure.dimension, closure.traceless_dimension) == (9, 8)

    def test_single_diagonal_is_abelian(self):
        closure = lie_closure([np.diag([1.0, -1.0, 0.0])])
        assert (closure.dimension, closure.traceless_dimension) == (1, 1)

    @pytest.mark.parametrize("generators", [[], [np.zeros((3, 3))]])
    def test_no_generators_close_to_nothing(self, generators):
        closure = lie_closure(generators)
        assert (closure.dimension, closure.traceless_dimension, closure.basis) == (0, 0, [])

    def test_gell_mann_closure(self):
        closure = lie_closure(gell_mann_matrices())
        assert (closure.dimension, closure.traceless_dimension) == (8, 8)

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_dimensions_do_not_depend_on_scale(self, scale):
        # Both spans are rank-tested relative to each matrix's norm; with an
        # absolute tolerance the identity direction's round-off counted as a
        # ninth traceless dimension.
        closure = lie_closure([scale * g.logical for g in su3_generators()])
        assert (closure.dimension, closure.traceless_dimension) == (9, 8)

    def test_traceless_part_contains_gell_mann(self):
        closure = lie_closure([g.logical for g in su3_generators()])
        traceless = [M - np.trace(M) / 3.0 * np.eye(3) for M in closure.basis]
        for gm in gell_mann_matrices():
            assert span_residual(traceless, gm) < 1e-10

    def test_six_qubit_pair_terms_close_to_u10_within_a_second(self):
        code = jump_code(6, 0.0)
        terms = [
            logical_matrix(GateHamiltonian(((kind, (a, b), 1.0),)), code)
            for a in range(1, 7) for b in range(a + 1, 7) for kind in "EF"
        ]
        start = time.perf_counter()
        closure = lie_closure(terms)
        elapsed = time.perf_counter() - start
        assert len(terms) == 30
        assert (closure.dimension, closure.traceless_dimension) == (100, 99)
        assert elapsed <= 1.0

    @pytest.mark.parametrize("d, kind, count, seed", [
        (3, "hermitian", 2, 1),
        (3, "hermitian", 3, 2),
        (4, "hermitian", 2, 3),
        (3, "real antisymmetric", 2, 4),  # i A with A real antisymmetric: so(3)
        (4, "real antisymmetric", 2, 5),  # so(4)
        (4, "two blocks", 2, 6),  # u(2) + u(2)
        (4, "diagonal", 3, 7),  # abelian
    ])
    def test_dimensions_match_rank_oracle(self, d, kind, count, seed):
        rng = np.random.default_rng(seed)
        gens = []
        for _ in range(count):
            A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            if kind == "real antisymmetric":
                A = 1j * A.real
            elif kind == "two blocks":
                A[:2, 2:] = A[2:, :2] = 0
            elif kind == "diagonal":
                A = np.diag(np.diag(A))
            gens.append(A + A.conj().T)
        oracle = closure_oracle(gens)
        dimension = np.linalg.matrix_rank(real_rows(oracle), rtol=1e-9)
        traceless = [M - np.trace(M) / d * np.eye(d) for M in oracle]
        closure = lie_closure(gens)
        assert (closure.dimension, closure.traceless_dimension) == (
            dimension, np.linalg.matrix_rank(real_rows(traceless), rtol=1e-9)
        )
        assert (dimension == d * d) == (kind == "hermitian")  # else a proper subalgebra
        # The basis spans the oracle's span: together they add no rank.
        unit_basis = [M / np.linalg.norm(M) for M in closure.basis]  # nested brackets grow
        assert np.linalg.matrix_rank(real_rows(oracle + unit_basis), rtol=1e-9) == dimension


def real_rows(matrices: list[np.ndarray]) -> np.ndarray:
    return np.array([np.concatenate([M.real.ravel(), M.imag.ravel()]) for M in matrices])


def closure_oracle(generators: list[np.ndarray]) -> list[np.ndarray]:
    """Matrices spanning every nested commutator of the generators up to depth
    d^2, each depth reduced to a spanning set by matrix_rank and an SVD.

    The span grows at each depth until it is closed, so the loop stops at the
    first depth that adds no rank. Brackets amplify round-off outside the
    closure about tenfold per depth, hence matrix_rank's relative tolerance
    of 1e-9 rather than its default (about 1e-14 here).
    """
    d = generators[0].shape[0]
    mats, rank = list(generators), 0
    for _ in range(d * d):
        span = real_rows(mats)
        rank, previous = np.linalg.matrix_rank(span, rtol=1e-9), rank
        if rank == previous:
            break
        spanning = np.linalg.svd(span)[2][:rank]
        mats = [(v[: d * d] + 1j * v[d * d :]).reshape(d, d) for v in spanning]
        mats += [1j * (g @ M - M @ g) for g in generators for M in mats]
    return mats


class TestTrotterFormulas:
    def test_commuting_pair_exact(self):
        d1 = np.diag([0.3, -1.0, 0.7]).astype(complex)
        d2 = np.diag([1.1, 0.2, -0.4]).astype(complex)
        target = sum_formula_target(d1, d2, 1.3, 0.8)
        for n in (1, 3, 10):
            prog = trotter_sum(d1, d2, 1.3, 0.8, n)
            assert np.linalg.norm(program_unitary(prog) - target) < 1e-12

    def test_sum_formula_error_halves(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            H1, H2 = rand_herm(rng, 3), rand_herm(rng, 3)
            target = sum_formula_target(H1, H2, 1.0, 1.0)
            errs = []
            for n in (64, 128):
                U = program_unitary(trotter_sum(H1, H2, 1.0, 1.0, n))
                errs.append(np.linalg.norm(U - target, 2))
            ratio = errs[0] / errs[1]
            assert 1.6 <= ratio <= 2.4, ratio

    def test_commutator_formula_sqrt_scaling(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            H1, H2 = rand_herm(rng, 3), rand_herm(rng, 3)
            target = commutator_formula_target(H1, H2, 1.0, 1.0)
            errs = []
            for n in (256, 512):
                U = program_unitary(trotter_commutator(H1, H2, 1.0, 1.0, n))
                errs.append(np.linalg.norm(U - target, 2))
            ratio = errs[0] / errs[1]
            assert np.sqrt(2.0) * 0.8 <= ratio <= np.sqrt(2.0) * 1.2, ratio

    def test_rejects_bad_n(self):
        for formula in (trotter_sum, trotter_commutator):
            with pytest.raises(ValueError):
                formula(np.eye(3), np.eye(3), 1.0, 1.0, 0)

    @pytest.mark.parametrize("t1, t2", [(1.3, -0.8), (-0.4, 0.9)])
    def test_commuting_gate_hamiltonians_match_the_exact_target(self, t1, t2):
        # Physical E/F programs against the logical oracle, on both signs of time.
        code = jump_code(4, 0.0)
        h1 = GateHamiltonian((("F", (1, 2), 1.0),))
        h2 = GateHamiltonian((("F", (1, 3), 0.7),))
        target = sum_formula_target(
            logical_matrix(h1, code), logical_matrix(h2, code), t1, t2
        )
        for n in (1, 3):
            got = program_logical_unitary(trotter_sum(h1, h2, t1, t2, n), code)
            assert np.linalg.norm(got - target) < 1e-12

    def test_non_hermitian_segment_is_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            program_unitary(trotter_sum(np.triu(np.ones((3, 3))), np.eye(3), 1.0, 1.0, 1))

    def test_nan_hamiltonian_is_rejected(self):
        with pytest.raises(ValueError, match="hermitian"):
            sum_formula_target(np.full((3, 3), np.nan), np.eye(3), 1.0, 1.0)


def eigenphase_target(phases, seed):
    """Q diag(exp(i phases)) Q^dagger for a Haar Q."""
    Q = unitary_group.rvs(3, random_state=seed)
    return (Q * np.exp(1j * np.asarray(phases))) @ Q.conj().T


class TestEighExponentials:
    """The eigh-based exponential and principal log against scipy."""

    HERMITIAN = {
        "E logical": TABLE1["E12"],  # spectrum {+-1}
        "F logical": TABLE1["F12"],  # spectrum {0, 1}
        "E physical": GateHamiltonian((("E", (1, 2), 1.0),)).matrix(4),
        "F physical": GateHamiltonian((("F", (2, 3), 1.0),)).matrix(4),
        "random 3x3": rand_herm(np.random.default_rng(40), 3),
        "random 16x16": rand_herm(np.random.default_rng(41), 16),
    }

    @pytest.mark.parametrize("name", sorted(HERMITIAN))
    @pytest.mark.parametrize("scale", [0.0, 0.3, 1.0, -4.0, 10.0])
    def test_hermitian_expm_matches_scipy(self, name, scale):
        # scale is t ||M||_2
        M = np.asarray(self.HERMITIAN[name], dtype=complex)
        t = scale / np.linalg.norm(M, 2)
        got = gates_module._hermitian_expm(M, t)
        assert np.abs(got - expm(-1j * t * M)).max() <= 1e-13

    LOG_TARGETS = {
        **{f"haar {seed}": unitary_group.rvs(3, random_state=seed) for seed in range(1, 21)},
        "identity": np.eye(3),
        "minus identity": -np.eye(3),
        "diag(1, 1, -1)": np.diag([1.0, 1.0, -1.0]),
        "diag(-1, -1, i)": np.diag([-1.0, -1.0, 1j]),
        "transposition": TABLE1["E12"],
        "3-cycle": TABLE1["E12"] @ TABLE1["E23"],
        "phases 1e-9 apart": eigenphase_target([0.4, 0.4 + 1e-9, -2.0], 7),
        # a pair whose mean phase is the first tried direction, where that
        # direction's combination cannot separate it
        "pair degenerate at a direction": eigenphase_target(
            [gates_module._CARTAN_ANGLES[0] + 0.8, gates_module._CARTAN_ANGLES[0] - 0.8, -2.5], 8
        ),
    }

    @pytest.mark.parametrize("name", sorted(LOG_TARGETS))
    def test_principal_log(self, name):
        U = np.asarray(self.LOG_TARGETS[name], dtype=complex)
        H = gates_module.principal_log_hamiltonian(U)
        assert np.abs(H - H.conj().T).max() <= 1e-14
        # eigvalsh of an eigenvalue at exactly +-pi may round past it
        assert np.abs(np.linalg.eigvalsh(H)).max() <= np.pi + 1e-14
        assert np.abs(expm(-1j * H) - U).max() <= 1e-13


class TestSynthesis:
    def setup_method(self):
        self.code = jump_code(4, 0.0)

    def test_identity_target_empty_program(self):
        prog = synthesize_qutrit(np.eye(3), self.code)
        assert prog.segments == []
        assert prog.achieved_error == 0.0

    def test_near_identity_target_measures_its_error(self):
        # The traceless log has norm 4.1e-14, so the program is empty, but
        # its error against the target is measured, not taken as 0.
        target = np.diag([np.exp(5e-14j), 1.0, 1.0])
        report = synthesis_report(target, 1e-15)
        assert report["segments"] == [] and report["pass"] is False
        assert report["achieved_error"] > 1e-15

    def test_real_symmetric_target_single_segment(self):
        tau = np.pi / 3.0
        target = expm(-1j * tau * TABLE1["E12"])
        prog = synthesize_qutrit(target, self.code)
        assert len(prog.segments) == 1
        assert prog.achieved_error < 1e-10
        U = program_logical_unitary(prog, self.code)
        assert phase_aligned_distance(U, target) < 1e-10

    def test_random_targets_reach_tolerance(self):
        for k in range(4):
            U = unitary_group.rvs(3, random_state=300 + k)
            prog = synthesize_qutrit(U, self.code)
            assert prog.achieved_error <= 1e-2
            got = program_logical_unitary(prog, self.code)
            assert phase_aligned_distance(got, U) <= 1e-2
            assert leakage_certificate(prog, self.code) <= 1e-12

    def test_soundness_against_physical_product(self):
        U = unitary_group.rvs(3, random_state=77)
        prog = synthesize_qutrit(U, self.code)
        assert prog.achieved_error <= 1e-2
        full = program_unitary(prog, n_qubits=4)
        C = isometry(self.code)
        restricted = C.conj().T @ full @ C
        assert phase_aligned_distance(restricted, U) <= 1e-2

    def test_unreachable_epsilon_raises_with_partial_program(self):
        # Synthesis is exact, so only a bound below rounding is unreachable.
        report = synthesis_report(unitary_group.rvs(3, random_state=42), 1e-17)
        assert report["pass"] is False
        assert report["segments"]
        assert report["achieved_error"] > 1e-17

    def check_exact(self, U):
        prog = synthesize_qutrit(U, self.code)
        assert len(prog.segments) <= 3
        assert prog.trotter_steps == 0
        got = program_logical_unitary(prog, self.code)
        assert phase_aligned_distance(got, U) <= 1e-12
        assert prog.achieved_error <= 1e-12
        assert leakage_certificate(prog, self.code) <= 1e-12

    def test_haar_targets_exact_in_three_segments(self):
        for seed in range(9000, 9200):
            self.check_exact(unitary_group.rvs(3, random_state=seed))

    @pytest.mark.parametrize("s", [1e-3, 1e-6, 1e-9, 1e-12, 0.0])
    def test_near_degenerate_targets(self, s):
        # Repeated or nearly repeated eigenvalues of U U^T, and rotations
        # near 0 and pi, where a bisector or an axis can cancel.
        rng = np.random.default_rng(17)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = 0.5 * (A + A.conj().T)
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        K = np.cross(np.eye(3), axis)  # K @ x == axis x x
        bases = [
            np.eye(3),
            TABLE1["E12"],
            TABLE1["E12"] @ TABLE1["E23"],
            np.diag([1.0, 1.0, -1.0]),
            np.diag([-1.0, -1.0, 1.0]),
            expm(np.pi * (1.0 - 1e-6) * K),
            np.diag(np.exp(1j * np.array([0.7, 0.7, -1.3]))),
        ]
        for B in bases:
            self.check_exact(B @ expm(-1j * s * H))

    @pytest.mark.parametrize("seed", range(6))
    def test_degenerate_eigenbasis_directions(self, seed):
        # U = O1 diag(e^{i theta}) O2 has U U^T = O1 diag(e^{2i theta}) O1^T.
        # With theta_1 + theta_2 = a, its first two eigenvalues project
        # equally onto the direction (cos a, sin a), so that direction's
        # combination of Re and Im cannot separate them. For any target, some
        # global phase puts it at such a point for a given direction.
        O1 = expm(np.cross(np.eye(3), np.random.default_rng(seed).normal(size=3)))
        O2 = expm(np.cross(np.eye(3), np.random.default_rng(100 + seed).normal(size=3)))
        for a in gates_module._CARTAN_ANGLES:
            for half_gap in (0.3, 1e-7):
                theta = np.array([a / 2 + half_gap, a / 2 - half_gap, 2.1])
                self.check_exact(O1 @ np.diag(np.exp(1j * theta)) @ O2)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            synthesize_qutrit(np.ones((3, 3)), self.code)

    @pytest.mark.parametrize("epsilon", [float("nan"), 0.0, -1.0, float("inf")])
    def test_rejects_non_positive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            synthesis_report(unitary_group.rvs(3, random_state=42), epsilon)

    def test_leaking_segment_hamiltonian_raises(self):
        # With a nonzero phase, swapping the first pair's representatives
        # changes that code word's relative phase, so the E/F segments leak
        # (about 0.24).
        code = JumpCode(4, 0.3, [(0b1100, 0b0011), (0b0101, 0b1010), (0b0110, 0b1001)])
        with pytest.raises(LeakageError):
            synthesize_qutrit(unitary_group.rvs(3, random_state=3), code)

    def test_symmetric_expansion_unique_and_exact(self):
        rng = np.random.default_rng(31)
        S = rng.normal(size=(3, 3))
        S = 0.5 * (S + S.T)
        gh = symmetric_to_gate_hamiltonian(S)
        got = logical_matrix(gh, self.code)
        assert np.abs(got - S).max() < 1e-12

    def test_nan_matrix_is_not_expanded(self):
        with pytest.raises(ValueError, match="real symmetric"):
            symmetric_to_gate_hamiltonian(np.full((3, 3), np.nan))


class TestEntanglementGate:
    def setup_method(self):
        self.code4 = jump_code(4, 0.0)
        self.C9 = product_code_basis(self.code4, self.code4)

    def test_h_ent_eigenvalues(self):
        H = h_ent().matrix(8)
        for label in ("00110011", "11001100", "00111100", "11000011"):
            v = basis_ket(label).amplitudes
            assert np.allclose(H @ v, v)
        plus = (basis_ket("01100110").amplitudes + basis_ket("10011001").amplitudes) / np.sqrt(2)
        minus = (basis_ket("01101001").amplitudes + basis_ket("10010110").amplitudes) / np.sqrt(2)
        assert np.allclose(H @ plus, 2.0 * plus)
        assert np.linalg.norm(H @ minus) < 1e-14
        # Block form on the product code space: eigenvalue 1 on the eight
        # states other than |22>_L (the last), 2 on |22+>, 0 on |22->.
        for psi in self.C9.T[:8]:
            assert np.linalg.norm(H @ psi - psi) <= 1e-12
        assert np.linalg.norm(H @ plus - 2.0 * plus) <= 1e-12
        assert np.count_nonzero(H - np.diag(np.diag(H))) == 0

    def test_h_ent_hermitian_and_number_conserving(self):
        H = h_ent().matrix(8)
        assert np.linalg.norm(H - H.conj().T) < 1e-14
        N_op = sum_to_dense(
            tuple(LocalOperator((a,), NUMBER) for a in range(1, 9)), 8
        )
        assert np.linalg.norm(H @ N_op - N_op @ H) < 1e-12

    def test_h_ent_leaves_35_word_code_invariant(self):
        H = h_ent().matrix(8)
        P35 = projector(jump_code(8, 0.0))
        assert np.linalg.norm((np.eye(256) - P35) @ H @ P35, 2) < 1e-12

    def test_no_leakage_on_tau_grid(self):
        P35 = projector(jump_code(8, 0.0))
        P9 = self.C9 @ self.C9.conj().T
        one = np.eye(256)
        for tau in (0.0, np.pi / 7.0, np.pi / 2.0, np.pi, 2.0 * np.pi):
            U = ent_unitary(tau)
            assert np.linalg.norm((one - P35) @ U @ P9, 2) < 1e-12

    def test_verify_leakage_bounds_every_sampled_tau(self):
        # The reported leakage is 2 pi ||(1-P35) H_ent P35||, which bounds the
        # leakage of the product code at every tau in [0, 2 pi].
        P35 = projector(jump_code(8, 0.0))
        one = np.eye(256)
        bound = verify_entangle()["leakage"]
        assert bound <= 1e-14
        for tau in np.linspace(0.0, 2.0 * np.pi, 9):
            U = ent_unitary(tau)
            assert np.linalg.norm((one - P35) @ U @ self.C9, 2) <= bound

    def test_ent_unitary_is_bitwise_the_diagonal_exponential(self):
        for tau in (0.0, np.pi / 7.0, np.pi, -2.5):
            want = np.diag(np.exp(-1j * tau * np.diag(h_ent().matrix(8))))
            assert ent_unitary(tau).tobytes() == want.tobytes()

    def test_v_gate_diagonal_action(self):
        V = v_gate()
        logical = self.C9.conj().T @ V @ self.C9
        assert np.abs(logical - np.diag([1.0] * 8 + [-1.0])).max() < 1e-10

    def test_v_gate_entangles_uniform_product(self):
        V = v_gate()
        uniform = self.C9.sum(axis=1) / 3.0
        assert schmidt_rank(Ket(8, uniform), 4) == 1
        assert schmidt_rank(Ket(8, V @ uniform), 4) == 2


class TestPrimitivity:
    def test_v_gate_theta_fails_criterion(self):
        theta = gate_theta_matrix(
            v_gate(), product_code_basis(jump_code(4, 0.0), jump_code(4, 0.0))
        )
        primitive, witness = is_primitive_diagonal(theta)
        assert not primitive
        assert witness is not None
        j, k, p, q = witness
        th = theta.theta
        delta = th[j, k] + th[p, q] - th[j, q] - th[p, k]
        assert abs(np.mod(delta + np.pi, 2 * np.pi) - np.pi) > 1e-8
        # the named inequality: theta_11 + theta_22 = pi while theta_12 + theta_21 = 0
        assert abs((th[1, 1] + th[2, 2]) - np.pi) < 1e-9
        assert abs(th[1, 2] + th[2, 1]) < 1e-9

    @given(
        st.lists(st.floats(0, 2 * np.pi), min_size=3, max_size=3),
        st.lists(st.floats(0, 2 * np.pi), min_size=3, max_size=3),
    )
    def test_separable_phases_primitive(self, a, b):
        theta = ThetaMatrix(np.add.outer(np.array(a), np.array(b)))
        primitive, witness = is_primitive_diagonal(theta)
        assert primitive and witness is None

    def test_zero_phases_primitive(self):
        assert is_primitive_diagonal(ThetaMatrix(np.zeros((3, 3))))[0]

    def test_nan_phases_are_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ThetaMatrix(np.full((3, 3), np.nan))

    def test_nan_gate_is_rejected(self):
        C9 = product_code_basis(jump_code(4, 0.0), jump_code(4, 0.0))
        with pytest.raises(ValueError, match="not diagonal"):
            gate_theta_matrix(np.full((256, 256), np.nan), C9)


def dense_leakage(program, code, points=200):
    """Oracle: max of ||(1-P) U(s) P||_2 over every segment's end and ``points``
    interior instants of it, propagated with one eigh per distinct segment."""
    C = isometry(code)
    d, k = C.shape
    leak = np.eye(d) - C @ C.conj().T
    UC, steps, starts = C.astype(complex), {}, {}
    for seg in program.segments:
        h = seg.hamiltonian
        H = h.matrix(code.N) if isinstance(h, GateHamiltonian) else h
        key = (H.tobytes(), seg.duration)
        if key not in steps:
            lam, V = np.linalg.eigh(H)
            s = seg.duration * np.arange(1, points + 2) / (points + 1)  # interior, then the end
            steps[key] = (V * np.exp(-1j * np.outer(s, lam))[:, None, :]) @ V.conj().T
            starts[key] = []
        starts[key].append(UC)
        UC = steps[key][-1] @ UC

    def leaks(key):
        """(1-P) U(s) U_start C for the segments of this value; axes: instant,
        row, segment, column."""
        out = (leak @ steps[key]).reshape(-1, d) @ np.concatenate(starts[key], axis=1)
        return out.reshape(points + 1, d, -1, k)

    # ||A||_2 >= ||A||_F / sqrt(k) for a d x k matrix, so only the instants whose
    # Frobenius norm reaches this floor can hold the largest spectral norm.
    frob = {key: np.linalg.norm(leaks(key), axis=(1, 3)) for key in steps}
    floor = max(f.max() for f in frob.values()) / np.sqrt(k)
    worst = 0.0
    for key, f in frob.items():
        if f.max() >= floor:
            top = leaks(key).transpose(0, 2, 1, 3)[f >= floor]
            worst = max(worst, np.linalg.svd(top, compute_uv=False)[:, 0].max())
    return float(worst)


class TestLeakageCertificate:
    """The certificate bounds the leakage at every instant, not only at the
    segment boundaries: it is at least the dense oracle above."""

    code = jump_code(4, 0.0)
    # sigma_x on qubit 1 maps every code word out of the code space
    flip = local_to_dense(LocalOperator((1,), SIGMA_X), 4)
    swap = GateHamiltonian((("E", (1, 2), 0.7), ("F", (2, 3), -0.4)))

    def program(self, length):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        segments = [ProgramSegment(self.swap, 0.01 * (k % 7)) for k in range(length - 1)]
        return HamiltonianProgram(segments + [ProgramSegment(self.flip, 0.3)])

    @pytest.mark.parametrize("seed", [5, 77, 123])
    def test_matches_dense_oracle_on_synthesized_programs(self, seed):
        prog = synthesize_qutrit(unitary_group.rvs(3, random_state=seed), self.code)
        assert prog.achieved_error <= 1e-2
        bound = leakage_certificate(prog, self.code)
        assert dense_leakage(prog, self.code) <= bound <= 4e-15

    def test_catches_a_leaking_array_segment(self):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        prog = synthesize_qutrit(unitary_group.rvs(3, random_state=5), self.code)
        assert prog.achieved_error <= 1e-2
        middle = len(prog.segments) // 2
        prog.segments.insert(middle, ProgramSegment(self.flip, 0.3))
        want = dense_leakage(prog, self.code)
        assert want > 0.2
        assert leakage_certificate(prog, self.code) >= want

    def test_leak_in_the_last_of_many_repeated_segments_counts(self):
        # 1024 segments of seven cached values, then one that leaks.
        prog = self.program(1025)
        want = dense_leakage(prog, self.code)
        assert want > 0.2  # only the last segment leaks
        assert leakage_certificate(prog, self.code) >= want

    def test_leak_undone_by_a_later_segment_still_counts(self):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        # exp(-i pi/2 X_1) maps every code word out of the code; twice it is -1
        half_flip = ProgramSegment(self.flip, np.pi / 2)
        segments = self.program(4).segments[:-1]
        prog = HamiltonianProgram(segments[:2] + [half_flip, half_flip] + segments[2:])
        want = dense_leakage(prog, self.code)
        assert want > 0.99
        assert leakage_certificate(prog, self.code) >= want

    @pytest.mark.parametrize("duration", [np.pi, np.pi / 2])
    def test_leak_inside_one_segment_counts(self, duration):
        # exp(-i pi Z_1) is -1, so every boundary is in the code; halfway
        # through, exp(-i pi/2 Z_1) = -i Z_1 maps each code word out of it.
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        sigma_z = local_to_dense(LocalOperator((1,), SIGMA_Z), 4)
        prog = HamiltonianProgram([ProgramSegment(sigma_z, duration)])
        assert dense_leakage(prog, self.code) > 0.99
        assert leakage_certificate(prog, self.code) >= 1.0

    def test_bounds_a_stray_field_at_every_instant(self):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        stray = local_to_dense(LocalOperator((1,), SIGMA_Z), 4)
        for seed in range(20):
            prog = synthesize_qutrit(unitary_group.rvs(3, random_state=600 + seed), self.code)
            for eps in (1e-4, 1e-3, 1e-2):
                perturbed = HamiltonianProgram([
                    ProgramSegment(seg.hamiltonian.matrix(4) + eps * stray, seg.duration)
                    for seg in prog.segments
                ])
                want = dense_leakage(perturbed, self.code)
                assert want > 0.1 * eps
                assert leakage_certificate(perturbed, self.code) >= want, (seed, eps)

    def test_empty_program_is_zero(self):
        from jumpcodes.gates import HamiltonianProgram

        assert leakage_certificate(HamiltonianProgram([]), self.code) == 0.0

    @pytest.mark.parametrize("t", [1.0, 100.0, 1e4])
    def test_a_long_program_that_does_not_leak_passes(self, t):
        # Its bound grows with the action sum t_k ||H_k C||_F (to about 4e-12
        # at t = 1e4), so the rule judges it relative to that action.
        prog = trotter_sum(self.swap, GateHamiltonian((("E", (2, 3), 1.1),)), t, t, 4)
        bound, sealed = gates_module._certificate(prog, self.code)
        assert bound == leakage_certificate(prog, self.code)
        assert sealed

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_pass_rule_does_not_depend_on_the_scale(self, c):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        def sealed(segments):
            return gates_module._certificate(HamiltonianProgram(segments), self.code)[1]

        prog = synthesize_qutrit(unitary_group.rvs(3, random_state=5), self.code)
        scaled = [
            GateHamiltonian(tuple((kind, pair, c * x) for kind, pair, x in seg.hamiltonian.terms))
            for seg in prog.segments
        ]
        assert sealed([ProgramSegment(h, seg.duration) for h, seg in zip(scaled, prog.segments)])
        assert sealed([ProgramSegment(seg.hamiltonian, c * seg.duration) for seg in prog.segments])
        sigma_z = local_to_dense(LocalOperator((1,), SIGMA_Z), 4)
        assert not sealed([ProgramSegment(c * sigma_z, 1.0)])
        assert not sealed([ProgramSegment(sigma_z, c)])


class TestSegmentReader:
    """A segment Hamiltonian is a GateHamiltonian or a hermitian 2^N array,
    read one way by every gate function that takes a code."""

    @pytest.mark.parametrize("phase", [0.0, 0.3])
    def test_array_segments_read_as_their_gate_hamiltonians(self, phase):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        code = jump_code(4, phase)
        synthesized = synthesize_qutrit(unitary_group.rvs(3, random_state=11), code)
        product = trotter_sum(
            GateHamiltonian((("E", (1, 2), 0.7), ("F", (2, 3), -0.4))),
            GateHamiltonian((("E", (2, 3), 1.1),)), 0.3, -0.5, 3,
        )
        for prog in (synthesized, product):
            as_arrays = HamiltonianProgram([
                ProgramSegment(seg.hamiltonian.matrix(4), seg.duration) for seg in prog.segments
            ])
            assert program_logical_unitary(as_arrays, code).tobytes() == (
                program_logical_unitary(prog, code).tobytes()
            )
            assert leakage_certificate(as_arrays, code) == leakage_certificate(prog, code)
            U = program_unitary(prog, 4).tobytes()
            assert program_unitary(as_arrays, 4).tobytes() == U
            assert program_unitary(as_arrays).tobytes() == U

    def test_a_code_sized_array_names_the_expected_shape(self):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        code = jump_code(4, 0.0)
        prog = HamiltonianProgram([ProgramSegment(TABLE1["E12"], 1.0)])
        for evaluate in (program_logical_unitary, leakage_certificate):
            with pytest.raises(ValueError, match=r"must be 16 x 16, got \(3, 3\)"):
                evaluate(prog, code)
        with pytest.raises(ValueError, match="must be 16 x 16"):
            logical_matrix(TABLE1["E12"], code)

    def test_program_unitary_reads_arrays_at_the_qubit_count(self):
        with pytest.raises(ValueError, match=r"must be 16 x 16, got \(3, 3\)"):
            program_unitary(trotter_sum(np.eye(3), np.eye(3), 1.0, 1.0, 1), 4)

    def test_a_small_array_beside_a_pair_segment_names_the_shape(self):
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        mixed = HamiltonianProgram([
            ProgramSegment(GateHamiltonian((("E", (1, 2), 1.0),)), 1.0),
            ProgramSegment(TABLE1["E12"], 1.0),
        ])
        with pytest.raises(ValueError, match=r"must be 16 x 16, got \(3, 3\)"):
            program_unitary(mixed, n_qubits=4)

    def test_a_non_hermitian_array_is_refused(self):
        code = jump_code(4, 0.0)
        with pytest.raises(ValueError, match="hermitian"):
            logical_matrix(np.triu(np.ones((16, 16))), code)


class TestPairMatrixCache:
    @pytest.mark.parametrize("n", [4, 8])
    def test_bitwise_equal_to_dense_sum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            terms = []
            for _ in range(int(rng.integers(1, 8))):
                a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
                coeff = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-8, 3)
                terms.append((str(rng.choice(["E", "F"])), (int(a), int(b)), coeff))
            gh = GateHamiltonian(tuple(terms))
            assert gh.matrix(n).tobytes() == sum_to_dense(gh.to_sum(), n).tobytes()

    def test_returned_matrix_is_a_fresh_copy(self):
        gh = GateHamiltonian((("E", (1, 2), 1.0), ("F", (2, 4), -2.0)))
        first = gh.matrix(4)
        want = first.copy()
        first[:] = 7.0
        assert gh.matrix(4).tobytes() == want.tobytes()
        assert GateHamiltonian((("E", (1, 2), 1.0),)).matrix(4).tobytes() == (
            local_to_dense(pair_term("E", 1, 2), 4).tobytes()
        )


class TestProgramSerialization:
    def test_round_trip(self):
        prog = synthesize_qutrit(unitary_group.rvs(3, random_state=5), jump_code(4, 0.0))
        assert prog.achieved_error <= 1e-2
        data = program_to_json(prog)
        again = program_from_json(data)
        code = jump_code(4, 0.0)
        U1 = program_logical_unitary(prog, code)
        U2 = program_logical_unitary(again, code)
        assert np.linalg.norm(U1 - U2) < 1e-12

    def test_round_trip_is_bitwise_and_evaluates_each_segment_value_once(
        self, monkeypatch
    ):
        # A product formula repeats its segments; a synthesized program does not.
        code = jump_code(4, 0.0)
        prog = trotter_sum(
            GateHamiltonian((("E", (1, 2), 0.7), ("F", (2, 3), -0.4))),
            GateHamiltonian((("E", (2, 3), 1.1),)),
            0.3,
            -0.5,
            6,
        )
        again = program_from_json(program_to_json(prog))
        distinct = {(seg.hamiltonian.terms, seg.duration) for seg in again.segments}
        assert len(distinct) < len(again.segments)
        U, leak = program_unitary(prog, 4), leakage_certificate(prog, code)
        calls, matrices = [], []

        exponential, matrix = gates_module._hermitian_expm, GateHamiltonian.matrix

        def counting_exponential(M, t):
            calls.append(M)
            return exponential(M, t)

        def counting_matrix(gh, n_qubits):
            matrices.append(gh)
            return matrix(gh, n_qubits)

        monkeypatch.setattr(gates_module, "_hermitian_expm", counting_exponential)
        monkeypatch.setattr(GateHamiltonian, "matrix", counting_matrix)
        assert program_unitary(again, 4).tobytes() == U.tobytes()
        assert len(calls) == len(distinct)
        calls.clear()
        matrices.clear()
        assert leakage_certificate(again, code) == leak
        assert calls == []
        assert len(matrices) == len({seg.hamiltonian.terms for seg in again.segments})

    def test_wire_format(self):
        gh = GateHamiltonian((("F", (2, 6), 0.5),))
        from jumpcodes.gates import HamiltonianProgram, ProgramSegment

        data = program_to_json(HamiltonianProgram([ProgramSegment(gh, np.pi)]))
        assert data["segments"] == [{"terms": [["F", 2, 6, 0.5]], "duration": np.pi}]

    @pytest.mark.parametrize("kind", ["E", "F"])
    @pytest.mark.parametrize("a, b", [(0, 2), (2, 0), (-1, 3)])
    def test_qubit_index_below_one_is_rejected(self, kind, a, b):
        # an F term on (0, 2) would shift by -1 and read as "bit 2 is 0"
        with pytest.raises(ValueError):
            GateHamiltonian(((kind, (a, b), 1.0),))
        data = {"segments": [{"terms": [[kind, a, b, 1.0]], "duration": 1.0}]}
        with pytest.raises(ValueError):
            program_from_json(data)

    def test_abstract_programs_not_serializable(self):
        prog = trotter_sum(np.eye(3), np.eye(3), 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            program_to_json(prog)

"""Each input check of the library raises its own error, with its own
message; the ones that ``sim run`` and ``code inspect`` reach exit 2 there
with one ``error:`` line and nothing on stdout."""

import json

import numpy as np
import pytest

from jumpcodes.cli import main
from jumpcodes.codes import (
    DesignPlane,
    affine_plane_4,
    code_from_json,
    code_to_json,
    dfs_basis,
    encode,
    jump_code,
    logical_qubits,
    product_code_basis,
    verify_plane_axioms,
)
from jumpcodes.dynamics import (
    DensityMatrix,
    KrausSet,
    LindbladModel,
    average_trajectories,
    integrate_master,
    memory_model,
)
from jumpcodes.gates import (
    GateHamiltonian,
    HamiltonianProgram,
    ProgramSegment,
    gate_theta_matrix,
    phase_aligned_distance,
    program_unitary,
    synthesize_qutrit,
)
from jumpcodes.qec import ExperimentConfig, recovery_map
from jumpcodes.states import Ket, LocalOperator, basis_ket


def exits_2(capsys, argv: str, message: str) -> None:
    """``main(argv)`` exits 2 with one ``error:`` line holding ``message``."""
    status = main(argv.split())
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith("error: ") and message in captured.err


class TestCodes:
    def test_dfs_basis_beyond_12_qubits(self):
        with pytest.raises(ValueError, match="limited to N <= 12"):
            dfs_basis(13, 2)

    def test_logical_qubits_of_odd_n(self):
        with pytest.raises(ValueError, match="N must be even and >= 2, got 5"):
            logical_qubits(5)

    def test_encode_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="logical vector must have length 3"):
            encode(jump_code(4), [1.0, 0.0])

    def test_plane_with_a_repeated_point(self):
        plane = affine_plane_4()
        plane.points = (1, 2, 3, 3)
        with pytest.raises(ValueError, match="plane must have four distinct points"):
            verify_plane_axioms(plane)

    def test_plane_with_a_pair_on_two_lines(self):
        plane = affine_plane_4()
        plane.lines = plane.lines + [(1, 2)]
        with pytest.raises(ValueError, match="points 1,2 lie on 2 lines, expected 1"):
            verify_plane_axioms(plane)

    def test_plane_with_a_one_point_line(self):
        plane = affine_plane_4()
        plane.lines = plane.lines + [(1, 1)]
        with pytest.raises(ValueError, match="each line needs at least two points"):
            verify_plane_axioms(plane)

    def test_plane_with_a_class_that_does_not_partition(self):
        plane = DesignPlane((1, 2, 3, 4), affine_plane_4().lines, [((1, 2), (1, 3))])
        with pytest.raises(ValueError, match=r"class \(\(1, 2\),\(1, 3\)\) does not partition"):
            verify_plane_axioms(plane)

    def test_product_basis_of_a_six_qubit_code(self):
        with pytest.raises(ValueError, match="defined for two 4-qubit codes"):
            product_code_basis(jump_code(6), jump_code(4))

    def test_code_file_whose_phase_is_not_a_number(self, capsys, tmp_path):
        data = code_to_json(jump_code(4))
        data["phase"] = "0"
        with pytest.raises(ValueError, match="phase must be a number, not '0'"):
            code_from_json(data)
        path = tmp_path / "code.json"
        path.write_text(json.dumps(data))
        exits_2(capsys, f"code inspect --in {path}", "phase must be a number, not '0'")


class TestDynamics:
    @pytest.mark.parametrize("qubit", [0, 3])
    def test_channel_qubit_out_of_range(self, qubit):
        with pytest.raises(ValueError, match="channel qubit out of range"):
            LindbladModel(2, None, ((qubit, 1.0),))

    def test_density_matrix_that_is_not_square(self):
        with pytest.raises(ValueError, match="density matrix must be square"):
            DensityMatrix(np.ones((2, 3)))

    def test_master_integration_beyond_8_qubits(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="limited to 8 qubits"):
            integrate_master(memory_model(9, 1.0), rho, 1.0, 0.1)

    def test_master_integration_of_a_state_of_another_size(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="state dimension does not match model"):
            integrate_master(memory_model(2, 1.0), rho, 1.0, 0.1)

    def test_average_of_no_trajectories(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            average_trajectories(memory_model(2, 1.0), basis_ket("11"), 1.0, 0, 1)

    def test_empty_kraus_set(self):
        with pytest.raises(ValueError, match="need at least one operator"):
            KrausSet(())

    def test_kraus_set_of_unequal_shapes(self):
        with pytest.raises(ValueError, match="square with equal dimension"):
            KrausSet((np.eye(2), np.eye(3)))


class TestGates:
    def test_unknown_term_kind(self):
        with pytest.raises(ValueError, match="unknown term kind 'G'"):
            GateHamiltonian((("G", (1, 2), 1.0),))

    def test_physical_program_without_a_qubit_count(self):
        prog = HamiltonianProgram([ProgramSegment(GateHamiltonian((("E", (1, 2), 1.0),)), 1.0)])
        with pytest.raises(ValueError, match="n_qubits required"):
            program_unitary(prog)

    def test_empty_program_unitary(self):
        with pytest.raises(ValueError, match="empty program has no defined dimension"):
            program_unitary(HamiltonianProgram([]), 4)

    def test_synthesis_on_a_six_qubit_code(self):
        with pytest.raises(ValueError, match="targets the 4-qubit code register"):
            synthesize_qutrit(np.eye(3), jump_code(6))

    def test_theta_matrix_of_a_gate_that_is_not_unitary(self):
        with pytest.raises(ValueError, match="does not act unitarily"):
            gate_theta_matrix(np.diag([1.0, 1.0, 1.0, 0.5]), np.eye(4))

    def test_theta_matrix_needs_a_square_count_of_columns(self):
        with pytest.raises(ValueError, match="d\\*d columns, got 8"):
            gate_theta_matrix(np.eye(16), np.eye(16)[:, :8])

    def test_distance_of_orthogonal_matrices_takes_no_phase(self):
        # tr(B^dagger A) = 0: every phase is as good, and none is applied.
        A, B = np.diag([1.0, 0.0]), np.diag([0.0, 1.0j])
        assert phase_aligned_distance(A, B) == np.linalg.norm(A - B) == np.sqrt(2.0)


class TestRecoveryAndConfig:
    @pytest.mark.parametrize("qubit", [0, 5])
    def test_recovery_of_a_qubit_out_of_range(self, qubit):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range"):
            recovery_map(jump_code(4), qubit)

    @pytest.mark.parametrize("kwargs, flags, message", [
        ({"kappas": [-1.0]}, "--kappa -1", "decay rates must be non-negative"),
        ({"mismatch": [1.0, 1.0]}, "--mismatch 1 1", "mismatch list must have n entries"),
        ({"mismatch": [1.0, -0.5, 1.0, 1.0]}, "--mismatch 1 -0.5 1 1",
         "mismatch factors must be non-negative"),
        ({"t_final": -1.0}, "--t-final -1", "t-final must be non-negative"),
        ({"trajectories": 0}, "--trajectories 0", "trajectories must be >= 1"),
    ])
    def test_sim_run_rejections(self, capsys, tmp_path, kwargs, flags, message):
        config = {"n_qubits": 4, "phase": 0.0, "kappas": [1.0], "t_final": 1.0,
                  "trajectories": 10, "seed": 1} | kwargs
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**config)
        exits_2(capsys, f"sim run --seed 1 --out {tmp_path / 'out'} {flags}", message)
        assert not (tmp_path / "out").exists()

    def test_config_without_a_seed(self):
        # The CLI's --seed is required, so only a library caller can omit it.
        with pytest.raises(ValueError, match="seed is mandatory"):
            ExperimentConfig(4, 0.0, [1.0], 1.0, 10, None)


class TestStates:
    def test_normalizing_the_zero_vector(self):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            Ket(1, [0.0, 0.0]).normalized()

    @pytest.mark.parametrize("support", [(1, 1), (0, 2)])
    def test_local_operator_support_must_be_distinct_and_positive(self, support):
        with pytest.raises(ValueError, match="support must be distinct indices >= 1"):
            LocalOperator(support, np.eye(4))

    def test_local_operator_block_must_match_its_support(self):
        with pytest.raises(ValueError, match=r"block shape \(4, 4\) does not match support"):
            LocalOperator((1,), np.eye(4))

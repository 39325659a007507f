import json
import time
import tracemalloc
import warnings
from math import comb
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from jumpcodes import cli, codes, gates, qec
from jumpcodes.cli import ExperimentConfig, build_parser, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCodeCommand:
    def test_generate_matches_wire_format(self, capsys):
        status, data = run_cli(capsys, "code", "generate", "--n", "4")
        assert status == 0
        assert data == {
            "N": 4,
            "k": 2,
            "phase": 0.0,
            "pairs": [["0011", "1100"], ["0101", "1010"], ["0110", "1001"]],
        }
        jsonschema.validate(data, load_schema("code.schema.json"))

    def test_generate_eight_qubits(self, capsys):
        status, data = run_cli(capsys, "code", "generate", "--n", "8")
        assert status == 0
        assert len(data["pairs"]) == 35

    def test_inspect_two_qubits(self, capsys):
        status, data = run_cli(capsys, "code", "inspect", "--n", "2")
        assert status == 0
        assert data["codewords"] == 1
        assert data["logical_qubits"] == 0.0

    def test_inspect_redundancy(self, capsys):
        status, data = run_cli(capsys, "code", "inspect", "--n", "4")
        assert data["redundancy"] == 13

    def test_inspect_from_file(self, capsys, tmp_path):
        status, data = run_cli(capsys, "code", "generate", "--n", "4")
        f = tmp_path / "code.json"
        f.write_text(json.dumps(data))
        status, report = run_cli(capsys, "code", "inspect", "--in", str(f))
        assert status == 0 and report["N"] == 4

    def test_odd_n_fails(self, capsys):
        assert main(["code", "generate", "--n", "5"]) == 2

    @pytest.mark.parametrize("action", ["generate", "inspect"])
    @pytest.mark.parametrize("n", ["22", "30"])
    def test_n_above_limit_is_rejected(self, capsys, action, n):
        status = main(["code", action, "--n", n])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "n must be at most 20" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fields, word", [
        ({"pairs": [["0011", "1100"], ["0011", "1100"]]}, "repeats a code word"),
        ({"pairs": [["0011", "1100"], ["00111", "11000"]]}, "4-bit strings"),
        ({"pairs": [["0001", "1110"]]}, "weight 4/2"),
        ({"pairs": []}, "no pairs"),
        ({"k": 3}, "k must be N/2"),
        ({"phase": float("nan")}, "not finite"),
        ({"phase": 10**400}, "float range"),  # json writes it as 401 digits
        ({"N": 0, "k": 0, "pairs": [["", ""]]}, "N must be even and >= 2, got 0"),
        ({"N": 5}, "N must be even and >= 2, got 5"),
    ], ids=["repeated-pair", "wrong-length", "wrong-weight", "empty", "wrong-k", "nan-phase",
            "huge-phase", "zero-n", "odd-n"])
    def test_bad_code_file_is_rejected(self, capsys, tmp_path, fields, word):
        f = tmp_path / "code.json"
        data = {"N": 4, "k": 2, "phase": 0.0, "pairs": [["0011", "1100"]], **fields}
        f.write_text(json.dumps(data))  # a NaN phase is written as NaN, which json reads
        status = main(["code", "inspect", "--in", str(f)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert word in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("text, word", [
        ('{"N": 4, "phase": 0.0}', "lacks pairs"),
        ('{"N": 4, "pairs": [["0011", "1100"]]}', "lacks phase"),
        ("[1, 2]", "JSON object"),
        ('{"N": 4, "phase": 0.0, "pairs": [[3, 12]]}', "[string, string] pairs"),
        ('{"N": 4.7, "phase": 0.0, "pairs": [["0011", "1100"]]}', "N must be an integer"),
    ], ids=["no-pairs", "no-phase", "top-level-list", "numeric-pairs", "fractional-n"])
    def test_malformed_code_file_is_rejected(self, capsys, tmp_path, text, word):
        f = tmp_path / "code.json"
        f.write_text(text)
        status = main(["code", "inspect", "--in", str(f)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert word in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("action", ["generate", "inspect"])
    @pytest.mark.parametrize("phase", ["nan", "inf"])
    def test_non_finite_phase_is_rejected(self, capsys, action, phase):
        # json.dumps would print NaN or Infinity, which is not JSON
        status = main(["code", action, "--n", "4", "--phase", phase])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "is not finite" in captured.err and "Traceback" not in captured.err

    def test_inspect_reports_the_file_code(self, capsys, tmp_path):
        f = tmp_path / "code.json"
        pairs = [["0011", "1100"], ["0101", "1010"]]
        f.write_text(json.dumps({"N": 4, "k": 2, "phase": 0.0, "pairs": pairs}))
        status, report = run_cli(capsys, "code", "inspect", "--in", str(f))
        assert status == 0
        assert report["codewords"] == 2 and report["logical_qubits"] == 1.0
        assert report["dfs_dimension"] == 6

    def test_inspect_reports_dfs_dimension_above_twelve_qubits(self, capsys):
        status, report = run_cli(capsys, "code", "inspect", "--n", "14")
        assert status == 0 and report["dfs_dimension"] == comb(14, 7)

    def test_limit_does_not_apply_to_inspect_from_file(self, capsys, tmp_path):
        f = tmp_path / "code.json"
        word = "1" * 11 + "0" * 11
        f.write_text(json.dumps({"N": 22, "phase": 0.0, "pairs": [[word, word[::-1]]]}))
        status, report = run_cli(capsys, "code", "inspect", "--in", str(f))
        assert status == 0 and report["N"] == 22

    def test_inspect_from_file_past_int64(self, capsys, tmp_path):
        # Words are Python ints, so a file's N is not bound by numpy's integer width.
        word = "0" + "1" * 32 + "0" * 31
        back = word.translate(str.maketrans("01", "10"))
        f = tmp_path / "code.json"
        f.write_text(json.dumps({"N": 64, "phase": 0.0, "pairs": [[word, back]]}))
        status, report = run_cli(capsys, "code", "inspect", "--in", str(f))
        assert status == 0
        assert report["N"] == 64 and report["codewords"] == 1
        assert report["redundancy"] == 2**64 - 1

    def test_defaults_without_a_file(self, capsys):
        assert run_cli(capsys, "code", "generate") == run_cli(
            capsys, "code", "generate", "--n", "4", "--phase", "0"
        )

    @pytest.mark.parametrize("argv, word", [
        (["generate"], "--in is valid only with inspect"),
        (["inspect", "--n", "30", "--phase", "0.3"], "--n and --phase are not valid with --in"),
        (["inspect", "--n", "4"], "--n and --phase are not valid with --in"),
        (["inspect", "--phase", "0"], "--n and --phase are not valid with --in"),
    ], ids=["generate", "inspect-n-phase", "inspect-n", "inspect-phase"])
    def test_flags_the_action_does_not_read_are_rejected(self, capsys, tmp_path, argv, word):
        f = tmp_path / "code.json"
        f.write_text(json.dumps({"N": 4, "phase": 0.0, "pairs": [["0011", "1100"]]}))
        status = main(["code", argv[0], "--in", str(f), *argv[1:]])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {word}"]


class TestVerifyCommand:
    @pytest.mark.parametrize("check", ["table1", "kl", "dfs", "closure", "entangle"])
    def test_all_suites_pass(self, capsys, check):
        status, report = run_cli(capsys, "verify", check)
        assert status == 0, report
        assert report["pass"] is True
        jsonschema.validate(report, load_schema("verify_report.schema.json"))

    def test_kl_known_position_lambda(self, capsys):
        status, report = run_cli(capsys, "verify", "kl", "--known-position")
        assert status == 0
        for a in range(1, 5):
            entry = report["checks"][f"L{a}"]
            assert entry["verdict"] == "reversible"
            assert abs(entry["lambda"] - 0.5) < 1e-9

    def test_kl_unknown_position_witness(self, capsys):
        status, report = run_cli(capsys, "verify", "kl", "--unknown-position")
        assert status == 0
        entry = report["checks"]["L1,L2"]
        assert entry["verdict"] == "not reversible"
        assert entry["offdiagonal_witness"] > 0.1

    @pytest.mark.parametrize("kappa", ["1e-320", "1e308"])
    def test_kl_passes_at_the_ends_of_float_range(self, capsys, kappa):
        # 1e-9 kappa underflows to 0 at 1e-320, and four rates of 1e308
        # overflow their sum; the condition is homogeneous in kappa.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, report = run_cli(capsys, "verify", "kl", "--kappa", kappa)
        assert status == 0 and report["pass"] is True
        for a in range(1, 5):
            assert report["checks"][f"L{a}"]["lambda"] == pytest.approx(float(kappa) / 2)

    def test_entangle_report_fields(self, capsys):
        status, report = run_cli(capsys, "verify", "entangle")
        assert status == 0
        assert report["schmidt_rank"] == 2
        assert report["primitive"] is False
        assert report["leakage"] <= 1e-12

    @pytest.mark.parametrize("argv, word", [
        pytest.param(argv.split(), word, id=argv) for argv, word in [
            ("kl --kappa -1", "kappa must be finite and positive"),
            ("kl --kappa nan", "kappa must be finite and positive"),
            ("kl --kappa 0", "kappa must be finite and positive"),
            ("dfs --kappa 0", "kappa must be finite and positive"),
            ("dfs --kappa inf", "kappa must be finite and positive"),
            ("kl --tol nan", "tol must be positive"),
            ("dfs --tol -1", "tol must be positive"),
            ("table1 --tol nan", "tol must be positive"),
            ("closure --tol -1", "tol must be positive"),
            ("entangle --tol 0", "tol must be positive"),
            ("table1 --tol inf", "tol must be positive"),
            ("kl --tol inf", "tol must be positive"),
            ("dfs --tol inf", "tol must be positive"),
            ("closure --tol inf", "tol must be positive"),
            ("entangle --tol inf", "tol must be positive"),
            ("table1 --kappa 5 --known-position", "--kappa is valid only with kl and dfs"),
            ("closure --kappa 1", "--kappa is valid only with kl and dfs"),
            ("dfs --unknown-position", "are valid only with kl"),
            ("entangle --known-position", "are valid only with kl"),
        ]
    ])
    def test_bad_input_is_rejected(self, capsys, argv, word):
        status = main(["verify"] + argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert word in captured.err and "Traceback" not in captured.err

    def test_position_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "kl", "--known-position", "--unknown-position"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, suite, args", [
        pytest.param(argv.split(), suite, args, id=argv) for argv, suite, args in [
            ("table1", gates.verify_table1, ()),
            ("kl", qec.verify_kl, ()),
            ("kl --known-position", qec.verify_kl, ("known-position",)),
            ("kl --unknown-position", qec.verify_kl, ("unknown-position",)),
            ("kl --kappa 2 --tol 1e-6", qec.verify_kl, ("both", 2.0, 1e-6)),
            ("dfs", qec.verify_dfs, ()),
            ("dfs --kappa 0.5", qec.verify_dfs, (0.5,)),
            ("closure", gates.verify_closure, ()),
            ("entangle", gates.verify_entangle, ()),
        ]
    ])
    def test_stdout_is_the_library_report(self, capsys, argv, suite, args):
        """The command only prints: its stdout is the library's report, as is."""
        status = main(["verify"] + argv)
        report = suite(*args)
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert status == (0 if report["pass"] else 1)


class TestSimCommand:
    def test_ideal_recovery(self, capsys, tmp_path):
        status, summary = run_cli(
            capsys,
            "sim", "run", "--n", "4", "--kappa", "1.0", "--t-final", "3.0",
            "--trajectories", "64", "--seed", "7", "--out", str(tmp_path),
        )
        assert status == 0
        assert summary["mean_fidelity"] >= 1.0 - 1e-9
        jsonschema.validate(summary, load_schema("sim_summary.schema.json"))
        assert (tmp_path / "jumps.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_missed_detection_degrades_and_worsens_with_time(self, capsys, tmp_path):
        fids = []
        for t in ("1.0", "3.0"):
            _, summary = run_cli(
                capsys,
                "sim", "run", "--n", "4", "--t-final", t, "--trajectories", "128",
                "--seed", "11", "--p-miss", "1.0", "--out", str(tmp_path / t),
            )
            fids.append(summary["mean_fidelity"])
        assert fids[0] < 1.0
        assert fids[1] < fids[0]

    def test_seed_reproducibility_bytes(self, capsys, tmp_path):
        args = [
            "sim", "run", "--n", "4", "--t-final", "2.0", "--trajectories", "32",
            "--seed", "99",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a" / "jumps.csv").read_bytes() == (
            tmp_path / "b" / "jumps.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_delayed_recovery_still_exact_for_equal_rates(self, capsys, tmp_path):
        _, summary = run_cli(
            capsys,
            "sim", "run", "--n", "4", "--t-final", "2.0", "--trajectories", "64",
            "--seed", "13", "--delay", "0.2", "--out", str(tmp_path),
        )
        assert summary["mean_fidelity"] >= 1.0 - 1e-9

    def test_rate_mismatch_degrades(self, capsys, tmp_path):
        _, summary = run_cli(
            capsys,
            "sim", "run", "--n", "4", "--t-final", "2.0", "--trajectories", "128",
            "--seed", "17", "--delay", "0.5",
            "--mismatch", "1.0", "1.6", "0.5", "1.0", "--out", str(tmp_path),
        )
        assert summary["mean_fidelity"] < 1.0 - 1e-6

    def test_seed_required(self):
        with pytest.raises(SystemExit):
            main(["sim", "run", "--n", "4"])

    def test_env_var_default_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("JUMPCODES_OUT", str(tmp_path / "envout"))
        status, _ = run_cli(
            capsys,
            "sim", "run", "--n", "4", "--t-final", "0.5", "--trajectories", "8",
            "--seed", "3",
        )
        assert status == 0
        assert (tmp_path / "envout" / "jumps.csv").exists()
        assert (tmp_path / "envout" / "summary.json").exists()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(4, 0.0, [1.0], 1.0, 10, 1, p_miss=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(4, 0.0, [1.0, 1.0], 1.0, 10, 1)
        with pytest.raises(ValueError):
            ExperimentConfig(3, 0.0, [1.0], 1.0, 10, 1)

    @pytest.mark.parametrize("n, largest", [(12, 2_048), (4, 524_288)])
    def test_trajectories_are_bounded_by_the_state_array(self, n, largest):
        # one (trajectories, 2^n) complex array may take at most 1/8 GiB, as
        # the run holds about seven of them at its peak
        ExperimentConfig(n, 0.0, [1.0], 1.0, largest, 1)
        with pytest.raises(ValueError, match=f"trajectories must be at most {largest}"):
            ExperimentConfig(n, 0.0, [1.0], 1.0, largest + 1, 1)

    def test_a_run_at_the_cap_traces_at_most_1_gib(self):
        # 1/64 of the cap at n = 8; the peak grows at most linearly with the
        # rows, since run_trajectories works on chunks of at most 1024 rows.
        config = ExperimentConfig(
            8, 0.4, [1.0], 1.5, (2**26 >> 8 >> 3) // 64, 5, delay=0.05, p_miss=0.2,
            mismatch=[1.2, 0.9, 1, 1, 0.8, 1.1, 1, 1],
        )
        assert config.trajectories == 512
        with pytest.raises(ValueError, match="trajectories must be at most 32768"):
            ExperimentConfig(8, 0.0, [1.0], 1.0, 64 * 512 + 1, 1)
        tracemalloc.start()
        try:
            qec.run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 64 * peak <= 2**30


@pytest.mark.parametrize("argv", [
    "code inspect --in {dir}",
    "gates synthesize --target {dir}",
    "verify table1 --out {dir}",
    "sim run --trajectories 4 --seed 1 --out {file}",
])
def test_unusable_path_exits_2(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")
    status = main(argv.format(dir=tmp_path, file=tmp_path / "file").split())
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestGatesCommand:
    def _write_target(self, tmp_path, U):
        f = tmp_path / "target.json"
        f.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in U]))
        return str(f)

    def test_identity_target(self, capsys, tmp_path):
        status, report = run_cli(
            capsys, "gates", "synthesize", "--target",
            self._write_target(tmp_path, np.eye(3).astype(complex)),
        )
        assert status == 0
        assert report["segments"] == []
        assert report["pass"] is True
        jsonschema.validate(report, load_schema("program.schema.json"))

    def test_permutation_target_single_segment(self, capsys, tmp_path):
        from scipy.linalg import expm

        E12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
        U = expm(-1j * (np.pi / 3) * E12)
        status, report = run_cli(
            capsys, "gates", "synthesize", "--target", self._write_target(tmp_path, U)
        )
        assert status == 0
        assert report["segment_count"] == 1
        assert report["leakage"] <= 1e-12

    def test_random_target(self, capsys, tmp_path):
        from scipy.stats import unitary_group

        U = unitary_group.rvs(3, random_state=123)
        status, report = run_cli(
            capsys, "gates", "synthesize", "--target", self._write_target(tmp_path, U),
            "--epsilon", "1e-2",
        )
        assert status == 0
        assert report["achieved_error"] <= 1e-2
        assert report["leakage"] <= 1e-12
        jsonschema.validate(report, load_schema("program.schema.json"))

    def test_unreachable_epsilon_exits_nonzero(self, capsys, tmp_path):
        # Synthesis is exact, so only a bound below rounding is unreachable.
        from scipy.stats import unitary_group

        U = unitary_group.rvs(3, random_state=124)
        f = self._write_target(tmp_path, U)
        status = main(["gates", "synthesize", "--target", f, "--epsilon", "1e-17"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert status == 1
        assert report["pass"] is False
        assert report["achieved_error"] > 1e-17

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-17])
    def test_stdout_is_the_library_report(self, capsys, tmp_path, epsilon):
        from scipy.stats import unitary_group

        U = unitary_group.rvs(3, random_state=7)
        f = self._write_target(tmp_path, U)
        status = main(["gates", "synthesize", "--target", f, "--epsilon", str(epsilon)])
        report = gates.synthesis_report(U, epsilon)
        assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert status == (0 if report["pass"] else 1)

    def test_leakage_above_tolerance_fails(self, capsys, tmp_path, monkeypatch):
        from scipy.stats import unitary_group

        # The certificate and its verdict against the program's action.
        monkeypatch.setattr(gates, "_certificate", lambda program, code: (2e-12, False))
        U = unitary_group.rvs(3, random_state=7)
        report = gates.synthesis_report(U, 1e-2)
        assert report["achieved_error"] <= 1e-2
        assert report["leakage"] == 2e-12
        assert report["pass"] is False
        status, printed = run_cli(
            capsys, "gates", "synthesize", "--target", self._write_target(tmp_path, U)
        )
        assert status == 1
        assert printed == report and len(printed["segments"]) == 3

    @pytest.mark.parametrize("epsilon", ["nan", "0", "-1", "inf"])
    def test_bad_epsilon_is_rejected(self, capsys, tmp_path, epsilon):
        f = self._write_target(tmp_path, np.eye(3).astype(complex))
        status = main(["gates", "synthesize", "--target", f, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "epsilon must be positive" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("entry", [["a", 0], 1, [True, False], [10**400, 0]])
    def test_malformed_target_is_rejected(self, capsys, tmp_path, entry):
        rows = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]] for _ in range(3)]
        rows[1][2] = entry
        f = tmp_path / "target.json"
        f.write_text(json.dumps(rows))
        status = main(["gates", "synthesize", "--target", str(f)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "[re, im] number pairs" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("entry", [[1e308, 0.0], [float("nan"), 0.0]], ids=["huge", "nan"])
    def test_non_finite_or_overflowing_target_is_rejected(self, capsys, tmp_path, entry):
        # 1e308 entries overflow U^dagger U to NaN; json reads NaN as a number
        f = tmp_path / "target.json"
        f.write_text(json.dumps([[entry] * 3 for _ in range(3)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main(["gates", "synthesize", "--target", str(f)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "target must be a 3x3 unitary" in captured.err
        assert "Traceback" not in captured.err

    def test_ragged_target_is_rejected(self, capsys, tmp_path):
        f = tmp_path / "target.json"
        f.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0]]]))
        status = main(["gates", "synthesize", "--target", str(f)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "[re, im] number pairs" in captured.err
        assert "Traceback" not in captured.err


class TestReportText:
    """Emitted JSON is byte-identical to ``json.dumps(indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("target", ["random", "identity"])
    def test_gates_stdout_and_file(self, capsys, tmp_path, target):
        from scipy.stats import unitary_group

        U = unitary_group.rvs(3, random_state=5) if target == "random" else np.eye(3)
        f = tmp_path / "target.json"
        f.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in U]))
        out_file = tmp_path / "program.json"
        status = main(["gates", "synthesize", "--target", str(f), "--out", str(out_file)])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert status == 0
        assert (report["segments"] == []) == (target == "identity")
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert out_file.read_text() == out

    def test_verify_stdout(self, capsys):
        assert main(["verify", "entangle"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_items_that_print_differently_are_kept_apart(self, capsys):
        from jumpcodes.cli import _emit

        report = {
            "segments": [
                {"terms": [["E", 1, 2, 0.0]], "duration": 0.5},
                {"terms": [["E", 1, 2, -0.0]], "duration": 0.5},
                {"terms": [["E", 1, 2, 0.0]], "duration": 0.5},
                {"terms": [["E", 1, 2, 0]], "duration": np.float64(0.5)},
                {"terms": [["E", 1, 2, False]], "duration": 0.5},
            ],
            "nested": {"b": [1, [2.5, -0.0]], "a": {}},
            "empty": [],
            "scalars": [0.0, -0.0, 1, 1.0, True, None, "x"],
        }
        _emit(report, None)
        text = capsys.readouterr().out
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text.count("-0.0") == 3
        _emit({}, None)
        assert capsys.readouterr().out == json.dumps({}, indent=2, sort_keys=True) + "\n"


def sim_outputs(out_dir: Path) -> tuple[bytes, bytes]:
    return (out_dir / "jumps.csv").read_bytes(), (out_dir / "summary.json").read_bytes()


class TestSimBatching:
    IMPERFECT = [
        "sim", "run", "--n", "4", "--t-final", "2.0", "--trajectories", "40",
        "--seed", "21", "--delay", "0.2", "--p-miss", "0.3",
        "--mismatch", "1.0", "1.6", "0.5", "1.0",
    ]

    def test_chunk_size_does_not_change_outputs(self, capsys, tmp_path, monkeypatch):
        from jumpcodes import dynamics

        assert main(self.IMPERFECT + ["--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(dynamics, "TRAJECTORY_CHUNK", 3)
        assert main(self.IMPERFECT + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert sim_outputs(tmp_path / "a") == sim_outputs(tmp_path / "b")

    def test_fewer_trajectories_give_a_prefix_of_the_log(self, capsys, tmp_path):
        args = ["sim", "run", "--n", "4", "--t-final", "2.0", "--seed", "8"]
        main(args + ["--trajectories", "40", "--out", str(tmp_path / "a")])
        main(args + ["--trajectories", "100", "--out", str(tmp_path / "b")])
        capsys.readouterr()
        short = (tmp_path / "a" / "jumps.csv").read_text().splitlines()
        long = (tmp_path / "b" / "jumps.csv").read_text().splitlines()
        assert len(long) > len(short) > 1
        assert long[: len(short)] == short

    @pytest.mark.parametrize("n", ["4", "8", "10"])
    def test_blas_thread_count_does_not_change_outputs(self, tmp_path, n):
        import os
        import subprocess
        import sys

        import jumpcodes

        src = str(Path(jumpcodes.__file__).resolve().parent.parent)
        argv = [
            sys.executable, "-m", "jumpcodes.cli", "sim", "run", "--n", n,
            "--t-final", "1.0", "--trajectories", "60", "--seed", "5",
            "--delay", "0.1", "--p-miss", "0.2",
            "--mismatch", *(["1.3", "0.7"] * (int(n) // 2)),
        ]
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = {
            threads: subprocess.Popen(
                argv + ["--out", str(tmp_path / threads)],
                env=dict(os.environ, PYTHONPATH=path,
                         OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                stdout=subprocess.DEVNULL,
            )
            for threads in ("1", "2")
        }
        for proc in runs.values():
            assert proc.wait(timeout=300) == 0
        assert sim_outputs(tmp_path / "1") == sim_outputs(tmp_path / "2")


COLD_START = """
import contextlib, io, json, sys
from jumpcodes.cli import main

out, *targets = sys.argv[1:]
commands = [
    ["sim", "run", "--n", "4", "--trajectories", "5", "--seed", "1", "--out", out],
    *(["verify", check] for check in ("table1", "kl", "dfs", "closure", "entangle")),
    ["code", "generate", "--n", "4"],
    ["code", "inspect", "--n", "4"],
    *(["gates", "synthesize", "--target", target] for target in targets),
]
report = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        status = main(argv)
    segments = json.loads(text.getvalue())["segment_count"] if argv[0] == "gates" else None
    loaded = [m for m in ("scipy", "numpy.ma")
              if any(k == m or k.startswith(m + ".") for k in sys.modules)]
    report.append([argv[:2], status, loaded, segments])
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    """Every command once, in order, in one fresh interpreter: each command's
    exit status and the probed modules loaded after it."""
    import os
    import subprocess
    import sys

    from scipy.stats import unitary_group

    import jumpcodes

    # The permutation target is one segment, the Haar target takes the
    # three-segment Cartan branch.
    tmp_path = tmp_path_factory.mktemp("cold_start")
    targets = {
        "permutation": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "haar": unitary_group.rvs(3, random_state=3).tolist(),
    }
    for name, U in targets.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps([[[complex(z).real, complex(z).imag] for z in row] for row in U])
        )
    src = str(Path(jumpcodes.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "sim"),
         *(str(tmp_path / f"{name}.json") for name in targets)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert [segments for *_, segments in report[-2:]] == [1, 3]
    return report


def test_no_command_loads_scipy(cold_start):
    # scipy takes most of a cold start; only the exceptional-point fallback
    # of the no-jump flow needs it.
    report = [[status, "scipy" in loaded] for _, status, loaded, _ in cold_start]
    assert report == [[0, False]] * 10, cold_start


def test_no_command_loads_numpy_ma(cold_start):
    # np.unique without index flags and np.setdiff1d import numpy.ma (17 ms).
    report = [[status, "numpy.ma" in loaded] for _, status, loaded, _ in cold_start]
    assert report == [[0, False]] * 10, cold_start


class TestSimEdgeCases:
    def run_sim(self, capsys, tmp_path, *extra):
        status, summary = run_cli(
            capsys,
            "sim", "run", "--n", "4", "--t-final", "2.0", "--trajectories", "64",
            "--seed", "4", "--out", str(tmp_path), *extra,
        )
        assert status == 0
        rows = (tmp_path / "jumps.csv").read_text().splitlines()[1:]
        return summary, [line.split(",") for line in rows]

    @pytest.mark.parametrize("extra", [("--t-final", "0"), ("--kappa", "0")])
    def test_no_decay_means_no_jumps(self, capsys, tmp_path, extra):
        summary, rows = self.run_sim(capsys, tmp_path, *extra)
        assert rows == [] and summary["total_jumps"] == 0
        assert abs(summary["mean_fidelity"] - 1.0) <= 1e-12

    def test_all_missed_applies_no_recovery(self, capsys, tmp_path):
        # Without recovery every jump leaves the code's excitation sector, so
        # exactly the trajectories that never jumped keep fidelity 1.
        summary, rows = self.run_sim(capsys, tmp_path, "--p-miss", "1")
        jumped = {int(tid) for tid, _, _ in rows}
        assert 0 < len(jumped) < 64
        assert abs(summary["mean_fidelity"] - (1.0 - len(jumped) / 64)) <= 1e-12

    def test_zero_mismatch_qubit_never_jumps(self, capsys, tmp_path):
        summary, rows = self.run_sim(
            capsys, tmp_path, "--mismatch", "1.0", "0.0", "1.0", "1.0"
        )
        qubits = {int(alpha) for _, _, alpha in rows}
        assert summary["total_jumps"] > 0
        assert 2 not in qubits and qubits <= {1, 3, 4}

    def test_seed_beyond_64_bits_runs(self, capsys, tmp_path):
        # SeedSequence takes any non-negative int, so such seeds are kept.
        summary, rows = self.run_sim(capsys, tmp_path, "--seed", str(2**70))
        assert summary["config"]["seed"] == 2**70
        assert len(rows) == summary["total_jumps"] > 0
        assert abs(summary["mean_fidelity"] - 1.0) <= 1e-12

    def test_twelve_qubits_recover_exactly(self, capsys, tmp_path):
        status, summary = run_cli(
            capsys,
            "sim", "run", "--n", "12", "--t-final", "1.0", "--trajectories", "50",
            "--seed", "3", "--out", str(tmp_path),
        )
        assert status == 0
        assert summary["total_jumps"] > 0
        assert abs(summary["mean_fidelity"] - 1.0) <= 1e-12

    @pytest.mark.parametrize("flag, value, word", [
        ("--seed", "-1", "seed"), ("--t-final", "inf", "finite"),
        ("--kappa", "nan", "finite"), ("--kappa", "inf", "finite"),
        ("--delay", "nan", "delay"), ("--delay", "inf", "finite"), ("--n", "14", "n"), ("--phase", "nan", "phase"),
        ("--trajectories", "4194305", "trajectories"),
    ])
    def test_bad_input_is_rejected(self, capsys, flag, value, word):
        argv = ["sim", "run", "--n", "4", "--trajectories", "4", "--seed", "1"]
        status = main(argv + [flag, value])
        err = capsys.readouterr().err
        assert status == 2
        assert word in err and "Traceback" not in err

    def test_overflowing_decay_rate_sum_exits_2_at_once(self, capsys, tmp_path):
        # Each kappa is finite, but their sum overflows; the trajectory loop
        # used to run on NaN states without end.
        start = time.perf_counter()
        status = main(["sim", "run", "--n", "4", "--kappa", "1e308", "--seed", "1",
                       "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert status == 2 and captured.out == ""
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert elapsed <= 1.0


def _strict_json(text: str) -> dict:
    """``json.loads`` that refuses NaN and Infinity, as strict JSON does."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


# Physical scales from far below to far above 1/kappa: 1e-6 to 1e6 in kappa
# and T, so kappa T spans 1e-12 to 1e12.
SCALES = ["1e-6", "1", "1e3", "1e6"]
SETTINGS = {
    "plain": {4: [], 6: []},
    "mismatch": {4: ["--mismatch", "1.3", "0.7", "1", "1"],
                 6: ["--mismatch", "1.3", "0.7", "0", "1", "1.2", "0.9"]},
    "miss-delay": {4: ["--p-miss", "0.3", "--delay", "0.2"],
                   6: ["--p-miss", "0.3", "--delay", "0.2"]},
}


@pytest.mark.filterwarnings("error")
class TestSimScaleGrid:
    """Every ``sim run`` on the grid either prints strict JSON with a
    fidelity in [0, 1] or exits 2 with one ``error:`` line."""

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("t_final", SCALES)
    @pytest.mark.parametrize("kappa", SCALES)
    @pytest.mark.parametrize("n", [4, 6])
    def test_runs_or_exits_2(self, capsys, tmp_path, n, kappa, t_final, setting):
        status = main([
            "sim", "run", "--n", str(n), "--kappa", kappa, "--t-final", t_final,
            "--trajectories", "20", "--seed", "3", "--out", str(tmp_path),
            *SETTINGS[setting][n],
        ])
        captured = capsys.readouterr()
        if status == 0:
            summary = _strict_json(captured.out)
            assert 0.0 <= summary["mean_fidelity"] <= 1.0 + 1e-12
        else:
            assert status == 2 and captured.out == ""
            assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["--n", "4", "--t-final", "1000"], ["--n", "8", "--t-final", "1000"],
        ["--n", "4", "--kappa", "1e6"],
        ["--n", "4", "--t-final", "1e308"], ["--n", "8", "--t-final", "1e308"],
        ["--n", "4", "--kappa", "1e200", "--t-final", "1e-200"],
        ["--n", "4", "--kappa", "1e300", "--t-final", "1e6"],
    ], ids=["n4-T1000", "n8-T1000", "kappa1e6", "n4-T1e308", "n8-T1e308", "kappa1e200-T1e-200",
            "kappa1e300-T1e6"])
    def test_equal_rates_recover_exactly_at_any_kappa_t(self, capsys, tmp_path, argv):
        # The squared norm over the last window, e^(-kappa (N/2) (T - t)),
        # underflows long before kappa T = 1000; the flow must not. At
        # T = 1e308 the decay exponents themselves overflow to -inf. At
        # kappa 1e200 a product of kappa over two jumps would overflow.
        status = main(["sim", "run", *argv, "--trajectories", "20", "--seed", "3",
                       "--out", str(tmp_path)])
        summary = _strict_json(capsys.readouterr().out)
        assert status == 0 and summary["total_jumps"] > 0
        assert abs(summary["mean_fidelity"] - 1.0) <= 1e-12


def _jump_log(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(trajectory_id, alpha) pairs and times of a ``jumps.csv``."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, [0, 2]].astype(int), rows[:, 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-200, 1e-3, 1e3, 1e6, 1e200])
def test_sim_run_does_not_depend_on_the_time_unit(capsys, tmp_path, c):
    # (kappa, T, delay) -> (c kappa, T / c, delay / c) is a change of time
    # unit: the same jumps at times scaled by 1 / c, and the same fidelity.
    def run(scale: float, out: Path) -> float:
        status = main([
            "sim", "run", "--n", "4", "--kappa", repr(scale), "--t-final", repr(1.5 / scale),
            "--delay", repr(0.1 / scale), "--mismatch", "1.3", "0.7", "1", "1",
            "--p-miss", "0.3", "--trajectories", "200", "--seed", "3", "--out", str(out),
        ])
        assert status == 0
        return _strict_json(capsys.readouterr().out)["mean_fidelity"]

    fidelity = run(1.0, tmp_path / "unit")
    scaled = run(c, tmp_path / "scaled")
    events, times = _jump_log(tmp_path / "unit" / "jumps.csv")
    scaled_events, scaled_times = _jump_log(tmp_path / "scaled" / "jumps.csv")
    assert len(events) > 200 and np.array_equal(scaled_events, events)
    assert (np.abs(scaled_times * c - times) <= 1e-12 * times).all()
    assert abs(scaled - fidelity) <= 1e-12


@pytest.mark.parametrize("module, name, argv", [
    (qec, "verify_kl", "verify kl"),
    (codes, "code_report", "code inspect"),
    (gates, "synthesis_report", "gates synthesize --target {target}"),
    (cli, "run_experiment", "sim run --trajectories 4 --seed 1 --out {out}"),
], ids=["verify", "code", "gates", "sim"])
def test_non_finite_report_exits_2_with_empty_stdout(capsys, tmp_path, monkeypatch, module, name,
                                                     argv):
    # The library call a handler prints returns a NaN, which json would
    # print as NaN: not JSON.
    real = getattr(module, name)

    def with_nan(*args, **kwargs):
        result = real(*args, **kwargs)
        if isinstance(result, tuple):  # run_experiment: the summary comes last
            return (*result[:-1], {**result[-1], "mean_fidelity": np.nan})
        return {**result, "extra": np.nan}

    monkeypatch.setattr(module, name, with_nan)
    target = tmp_path / "target.json"
    target.write_text(json.dumps([[[float(i == j), 0.0] for j in range(3)] for i in range(3)]))
    status = main(argv.format(target=target, out=tmp_path / "out").split())
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out" / "summary.json").exists()


class TestParser:
    def test_parser_is_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over_between_calls(self, capsys, tmp_path):
        _, report = run_cli(capsys, "verify", "kl", "--kappa", "2")
        assert report["checks"]["L1"]["lambda"] == pytest.approx(1.0, abs=1e-12)
        _, report = run_cli(capsys, "verify", "kl")
        assert report["checks"]["L1"]["lambda"] == pytest.approx(0.5, abs=1e-12)
        sim = ["sim", "run", "--trajectories", "3", "--seed", "1", "--out", str(tmp_path)]
        _, summary = run_cli(capsys, *sim, "--mismatch", "1.3", "0.7", "1", "1", "--kappa", "2")
        assert summary["config"]["mismatch"] == [1.3, 0.7, 1.0, 1.0]
        _, summary = run_cli(capsys, *sim)
        assert summary["config"]["mismatch"] == [1.0] * 4
        assert summary["config"]["kappa"] == [1.0] * 4

    def test_handlers_are_looked_up_per_call(self, capsys, monkeypatch):
        # A wrapped handler (as a tracer installs) runs even after the parser
        # was built.
        build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(args.check) or 0)
        assert main(["verify", "dfs"]) == 0 and calls == ["dfs"]

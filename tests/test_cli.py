import json
from math import comb
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from jumpcodes import gates, qec
from jumpcodes.cli import ExperimentConfig, main

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
    ], ids=["repeated-pair", "wrong-length", "wrong-weight", "empty", "wrong-k", "nan-phase"])
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
        status, data = run_cli(capsys, "code", "generate", "--n", "4")
        f = tmp_path / "code.json"
        f.write_text(json.dumps(data))
        status, report = run_cli(capsys, "code", "inspect", "--in", str(f), "--n", "30")
        assert status == 0 and report["N"] == 4


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

    @pytest.mark.parametrize("epsilon", ["nan", "0", "-1"])
    def test_bad_epsilon_is_rejected(self, capsys, tmp_path, epsilon):
        f = self._write_target(tmp_path, np.eye(3).astype(complex))
        status = main(["gates", "synthesize", "--target", f, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "epsilon must be positive" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("entry", [["a", 0], 1])
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
        ("--delay", "nan", "delay"), ("--n", "14", "n"),
    ])
    def test_bad_input_is_rejected(self, capsys, flag, value, word):
        argv = ["sim", "run", "--n", "4", "--trajectories", "4", "--seed", "1"]
        status = main(argv + [flag, value])
        err = capsys.readouterr().err
        assert status == 2
        assert word in err and "Traceback" not in err

"""Rewrite the CLI's golden outputs in this directory.

Each case is one ``jumpcodes`` command run in process. Its stdout is kept as
printed, in ``<case>.stdout``. A ``sim run`` case writes into a fresh
directory, and each file it writes there is kept as ``<case>.<file>``.
``manifest.json`` holds each case's argv, exit code and kept files, the
absolute tolerance within which ``tests/test_golden.py`` accepts a float,
and the relative one for a jump time. The synthesis targets ``target_rs5.json`` and
``target_rs42.json`` are ``scipy.stats.unitary_group.rvs(3, random_state=5)``
and ``random_state=42`` as rows of [re, im] pairs; they are inputs and are
not rewritten. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from jumpcodes import cli

HERE = Path(__file__).resolve().parent
FLOAT_ABS_TOL = 1e-12
JUMP_TIME_REL_TOL = 1e-9
SIM = ["sim", "run", "--n", "4"]
CASES = {
    **{f"verify_{suite}": ["verify", suite] for suite in ("table1", "kl", "dfs", "closure", "entangle")},
    **{
        f"synthesize_rs{seed}": ["gates", "synthesize", "--target", f"target_rs{seed}.json", "--epsilon", "1e-2"]
        for seed in (5, 42)
    },
    # The two `sim run` commands of the README, without --out.
    "sim_run_1": [*SIM, "--kappa", "1.0", "--t-final", "3.0", "--trajectories", "1000", "--seed", "7"],
    "sim_run_2": [*SIM, "--t-final", "3.0", "--trajectories", "1000", "--seed", "7",
                  "--p-miss", "0.1", "--mismatch", "1.3", "0.7", "1.0", "1.0"],
    "sim_run_n8": ["sim", "run", "--n", "8", "--t-final", "1.0", "--trajectories", "100", "--seed", "7",
                   "--delay", "0.05", "--p-miss", "0.2",
                   "--mismatch", "1.05", "0.95", "1.1", "0.9", "1.0", "1.2", "0.8", "1.0"],
    "sim_run_n6": ["sim", "run", "--n", "6", "--t-final", "2.0", "--trajectories", "200", "--seed", "7",
                   "--kappa", "1.0", "0.5", "1.5", "0.8", "1.2", "1.0"],
    "code_inspect_n8": ["code", "inspect", "--n", "8"],
}
SIM_FILES = ["summary.json", "jumps.csv"]


def run(argv: list[str], out_dir: Path | None = None) -> tuple[int, str]:
    """Exit code and stdout of one command; a ``.json`` argument names a file
    here, and ``out_dir``, if given, is passed as ``--out``."""
    argv = [str(HERE / arg) if arg.endswith(".json") else arg for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--out", str(out_dir)] * (out_dir is not None))
    return code, out.getvalue()


def main() -> None:
    cases = {}
    for name, argv in CASES.items():
        files = SIM_FILES if argv[0] == "sim" else []
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout = run(argv, Path(tmp) if files else None)
            for file in files:
                (HERE / f"{name}.{file}").write_bytes((Path(tmp) / file).read_bytes())
        (HERE / f"{name}.stdout").write_text(stdout)
        cases[name] = {"argv": argv, "exit_code": code, "files": files}
    manifest = {"float_abs_tol": FLOAT_ABS_TOL, "jump_time_rel_tol": JUMP_TIME_REL_TOL, "cases": cases}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()

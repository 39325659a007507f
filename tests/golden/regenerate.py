"""Rewrite the goldens in this directory, or check them against the code.

Each case is one ``jumpcodes`` command run in process. Its stdout is kept as
printed, in ``<case>.stdout``. A ``sim run`` case writes into a fresh
directory, and each file it writes there is kept as ``<case>.<file>``.
``manifest.json`` holds each case's argv, exit code and kept files, the
absolute tolerance within which ``tests/test_golden.py`` accepts a float,
and the relative one for a jump time. Each script in ``demos/`` runs in its
own interpreter with one BLAS thread, and its stdout is kept as
``demo_<script>.stdout``; ``tests/test_demos.py`` compares it as text. The
synthesis targets ``target_rs5.json`` and ``target_rs42.json`` are
``scipy.stats.unitary_group.rvs(3, random_state=5)`` and
``random_state=42`` as rows of [re, im] pairs; they are inputs and are not
rewritten. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

``--check`` writes every golden into a temporary directory instead, lists
each file whose bytes differ from the committed one, and exits 1 if any
does; it never rewrites this directory. Use it to show that a change keeps
every output byte for byte. It is not part of the test suite: another
host's BLAS can move the last digits of a float.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from jumpcodes import cli

HERE = Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent.parent / "demos").glob("*.py"))
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


def demo_stdout(demo: Path, cwd: Path) -> str:
    """Stdout of one demo script run against the imported ``jumpcodes``, with
    one BLAS thread and a RuntimeWarning raised as an error."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=cwd,
                          env=env, stdout=subprocess.PIPE, text=True, check=True).stdout


def write(out: Path) -> list[str]:
    """Write every golden into ``out``; return the names of the files written."""
    cases, written = {}, []
    for name, argv in CASES.items():
        files = SIM_FILES if argv[0] == "sim" else []
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout = run(argv, Path(tmp) if files else None)
            for file in files:
                (out / f"{name}.{file}").write_bytes((Path(tmp) / file).read_bytes())
        (out / f"{name}.stdout").write_text(stdout)
        cases[name] = {"argv": argv, "exit_code": code, "files": files}
        written += [f"{name}.{file}" for file in [*files, "stdout"]]
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            (out / f"demo_{demo.stem}.stdout").write_text(demo_stdout(demo, Path(tmp)))
        written.append(f"demo_{demo.stem}.stdout")
    manifest = {"float_abs_tol": FLOAT_ABS_TOL, "jump_time_rel_tol": JUMP_TIME_REL_TOL, "cases": cases}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return [*written, "manifest.json"]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        sys.exit("usage: regenerate.py [--check]")
    if not argv:
        write(HERE)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        differ = [name for name in write(Path(tmp)) if not (HERE / name).is_file()
                  or (HERE / name).read_bytes() != (Path(tmp) / name).read_bytes()]
    print("\n".join(f"differs: {name}" for name in differ) or "every golden matches")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

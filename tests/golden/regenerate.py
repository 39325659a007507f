"""Rewrite the gate layer's golden outputs in this directory.

Each case is one ``jumpcodes`` command run in process. Its stdout is kept as
printed, in ``<case>.stdout``; ``manifest.json`` holds each case's argv and
exit code and the absolute tolerance within which ``tests/test_golden.py``
accepts a float. The synthesis targets ``target_rs5.json`` and
``target_rs42.json`` are ``scipy.stats.unitary_group.rvs(3, random_state=5)``
and ``random_state=42`` as rows of [re, im] pairs; they are inputs and are
not rewritten. Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import io
import json
from pathlib import Path

from jumpcodes import cli

HERE = Path(__file__).resolve().parent
FLOAT_ABS_TOL = 1e-12
CASES = {
    **{f"verify_{suite}": ["verify", suite] for suite in ("table1", "kl", "dfs", "closure", "entangle")},
    **{
        f"synthesize_rs{seed}": ["gates", "synthesize", "--target", f"target_rs{seed}.json", "--epsilon", "1e-2"]
        for seed in (5, 42)
    },
}


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one command; a ``.json`` argument names a file here."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(HERE / arg) if arg.endswith(".json") else arg for arg in argv])
    return code, out.getvalue()


def main() -> None:
    cases = {}
    for name, argv in CASES.items():
        code, stdout = run(argv)
        (HERE / f"{name}.stdout").write_text(stdout)
        cases[name] = {"argv": argv, "exit_code": code}
    manifest = {"float_abs_tol": FLOAT_ABS_TOL, "cases": cases}
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()

"""Command-line front end: code construction, verification suites, decay
simulation with recovery, and gate synthesis, all with machine-readable output.

Exit status is 0 only when every residual of the requested check passes, so
the commands can gate CI directly. All simulation commands require a seed and
are bitwise reproducible for a fixed flag set.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import codes, dynamics, gates, qec
from .dynamics import trajectory_rng  # noqa: F401  bench/test_tracing.py expects it bound here
from .qec import ExperimentConfig, run_experiment
from .states import apply_local  # noqa: F401  bench/test_tracing.py expects it bound here

OUT_DIR_ENV = "JUMPCODES_OUT"


def _emit(report: dict, out_file: str | Path | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)  # NaN is not JSON
    if out_file:  # written before printing, so a failed write leaves stdout empty
        Path(out_file).parent.mkdir(parents=True, exist_ok=True)
        Path(out_file).write_text(text + "\n")
    print(text)


# --- code subcommand ---------------------------------------------------------

# jump_code enumerates all C(N, N/2) strings, so its time grows about 4x per
# step of 2 in N: `code generate --n 20` takes about 0.7 s.
CODE_QUBIT_LIMIT = 20


def cmd_code(args) -> int:
    if args.infile is None:
        n = 4 if args.n is None else args.n
        if n > CODE_QUBIT_LIMIT:
            raise ValueError(f"n must be at most {CODE_QUBIT_LIMIT}")
        code = codes.jump_code(n, 0.0 if args.phase is None else args.phase)
    elif args.action != "inspect":
        raise ValueError("--in is valid only with inspect")
    elif args.n is not None or args.phase is not None:
        raise ValueError("--n and --phase are not valid with --in")
    else:
        code = codes.code_from_json(json.loads(Path(args.infile).read_text()))
    report = codes.code_to_json(code) if args.action == "generate" else codes.code_report(code)
    _emit(report, args.out)
    return 0


# --- verify subcommand -------------------------------------------------------

def cmd_verify(args) -> int:
    if args.kappa is not None and args.check not in ("kl", "dfs"):
        raise ValueError("--kappa is valid only with kl and dfs")
    if args.which is not None and args.check != "kl":
        raise ValueError("--known-position and --unknown-position are valid only with kl")
    kwargs = {k: v for k, v in {"kappa": args.kappa, "tol": args.tol}.items() if v is not None}
    suites = {
        "table1": lambda: gates.verify_table1(**kwargs),
        "kl": lambda: qec.verify_kl(args.which or "both", **kwargs),
        "dfs": lambda: qec.verify_dfs(**kwargs),
        "closure": lambda: gates.verify_closure(**kwargs),
        "entangle": lambda: gates.verify_entangle(**kwargs),
    }
    report = suites[args.check]()
    _emit(report, args.out)
    return 0 if report["pass"] else 1


# --- sim subcommand ----------------------------------------------------------

def cmd_sim(args) -> int:
    config = ExperimentConfig(
        n_qubits=args.n,
        phase=args.phase,
        kappas=args.kappa,
        t_final=args.t_final,
        trajectories=args.trajectories,
        seed=args.seed,
        delay=args.delay,
        mismatch=args.mismatch or [],
        p_miss=args.p_miss,
    )
    batch, _, summary = run_experiment(config)
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "jumps.csv").write_text(dynamics.records_to_csv(batch))
    _emit(summary, out_dir / "summary.json")
    return 0


# --- gates subcommand --------------------------------------------------------

def _read_target(path: str) -> np.ndarray:
    """A matrix from JSON rows of [re, im] number pairs."""
    rows = json.loads(Path(path).read_text())
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)
        and all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(type(x) in (int, float) for x in pair)  # bool is an int subclass
            for row in rows
            for pair in row
        )
    ):
        raise ValueError("target must be a list of rows of [re, im] number pairs")
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except OverflowError:  # an integer beyond float range
        raise ValueError("target must hold [re, im] number pairs within float range") from None


def cmd_gates(args) -> int:
    report = gates.synthesis_report(_read_target(args.target), args.epsilon)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


# --- parser ------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it
    unchanged, so every ``main`` call can reuse it."""
    parser = argparse.ArgumentParser(
        prog="jumpcodes",
        description="Detected-jump code laboratory: codes, checks, decay simulation, gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="generate or inspect code descriptions")
    p_code.add_argument("action", choices=["generate", "inspect"])
    p_code.add_argument("--n", type=int, help="qubits (default 4; not with --in)")
    p_code.add_argument("--phase", type=float, help="code phase (default 0; not with --in)")
    p_code.add_argument("--in", dest="infile", help="code JSON to inspect (inspect only)")
    p_code.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "check", choices=["kl", "dfs", "table1", "closure", "entangle"]
    )
    p_verify.add_argument("--kappa", type=float, help="decay rate (kl and dfs; default 1)")
    position = p_verify.add_mutually_exclusive_group()
    position.add_argument(
        "--known-position", dest="which", action="store_const", const="known-position"
    )
    position.add_argument(
        "--unknown-position", dest="which", action="store_const", const="unknown-position"
    )
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out")

    p_sim = sub.add_parser("sim", help="decay-and-recovery simulation")
    p_sim.add_argument("action", choices=["run"])
    p_sim.add_argument("--n", type=int, default=4)
    p_sim.add_argument("--phase", type=float, default=0.0)
    p_sim.add_argument("--kappa", type=float, nargs="+", default=[1.0])
    p_sim.add_argument("--t-final", type=float, default=1.0)
    p_sim.add_argument("--trajectories", type=int, default=100)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--delay", type=float, default=0.0)
    p_sim.add_argument("--mismatch", type=float, nargs="+", default=None)
    p_sim.add_argument("--p-miss", type=float, default=0.0)
    p_sim.add_argument("--out")

    p_gates = sub.add_parser("gates", help="synthesize logical gates")
    p_gates.add_argument("action", choices=["synthesize"])
    p_gates.add_argument("--target", required=True, help="3x3 unitary as JSON [re,im] pairs")
    p_gates.add_argument("--epsilon", type=float, default=1e-2)
    p_gates.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a wrapped or patched handler is the one that runs.
    handler = {"code": cmd_code, "verify": cmd_verify, "sim": cmd_sim, "gates": cmd_gates}
    try:
        return handler[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: code construction, verification suites, decay
simulation with recovery, and gate synthesis, all with machine-readable output.

Exit status is 0 only when every residual of the requested check passes, so
the commands can gate CI directly. All simulation commands require a seed and
are bitwise reproducible for a fixed flag set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import codes, dynamics, gates, qec
from .dynamics import KrausSet, memory_model
from .dynamics import trajectory_rng  # noqa: F401  bench/test_tracing.py expects it bound here
from .qec import ExperimentConfig, run_experiment
from .states import Ket, LOWER, LocalOperator, local_to_dense
from .states import apply_local  # noqa: F401  bench/test_tracing.py expects it bound here

OUT_DIR_ENV = "JUMPCODES_OUT"


def _out_dir(path_arg: str | None) -> Path:
    if path_arg:
        return Path(path_arg)
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(report: dict, out_file: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    print(text)
    if out_file:
        Path(out_file).parent.mkdir(parents=True, exist_ok=True)
        with open(out_file, "w") as fh:
            print(text, file=fh)


# --- code subcommand ---------------------------------------------------------

# jump_code enumerates all C(N, N/2) strings, so its time grows about 4x per
# step of 2 in N: `code generate --n 20` takes about 0.7 s.
CODE_QUBIT_LIMIT = 20


def cmd_code(args) -> int:
    if args.action == "inspect" and args.infile:
        code = codes.code_from_json(json.loads(Path(args.infile).read_text()))
    elif args.n > CODE_QUBIT_LIMIT:
        raise ValueError(f"n must be at most {CODE_QUBIT_LIMIT}")
    else:
        code = codes.jump_code(args.n, args.phase)
    if args.action == "generate":
        _emit(codes.code_to_json(code), args.out)
        return 0
    report = {
        "N": code.N,
        "k": code.k,
        "phase": code.phase,
        "codewords": code.count,
        "logical_qubits": math.log2(code.count),
        "redundancy": code.redundancy,
        "dfs_dimension": math.comb(code.N, code.k),
    }
    _emit(report, args.out)
    return 0


# --- verify subcommand -------------------------------------------------------

def _verify_table1(tol: float) -> dict:
    expected = {
        "E12": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        "E23": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        "E13": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "F12": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        "F13": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        "F23": [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    }
    got = gates.table1_matrices(0.0)
    checks = {}
    for name, mat in expected.items():
        residual = float(np.abs(got[name] - np.array(mat)).max())
        checks[name] = {"residual": residual, "pass": residual < tol}
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def _verify_kl(which: str, kappa: float, tol: float) -> dict:
    code = codes.jump_code(4, 0.0)
    P = codes.projector(code)
    L = {
        a: np.sqrt(kappa) * local_to_dense(LocalOperator((a,), LOWER), 4)
        for a in range(1, 5)
    }
    report: dict = {"checks": {}}
    ok = True
    if which in ("known-position", "both"):
        for a in range(1, 5):
            r = qec.kl_check(KrausSet((L[a],)), P, tol)
            lam = r.lam[0, 0].real
            passed = r.reversible and abs(lam - kappa / 2.0) < 1e-9
            ok &= passed
            report["checks"][f"L{a}"] = {
                "verdict": r.verdict,
                "lambda": lam,
                "expected_lambda": kappa / 2.0,
                "residual": r.residual,
                "pass": passed,
            }
    if which in ("unknown-position", "both"):
        r = qec.kl_check(KrausSet((L[1], L[2])), P, tol)
        witness = float(np.abs(P @ L[1].conj().T @ L[2] @ P).max())
        passed = (not r.reversible) and witness > 1e-6
        ok &= passed
        report["checks"]["L1,L2"] = {
            "verdict": r.verdict,
            "offdiagonal_witness": witness,
            "residual": r.residual,
            "pass": passed,
        }
    report["pass"] = bool(ok)
    return report


def _verify_dfs(kappa: float, tol: float) -> dict:
    basis = codes.dfs_basis(4, 2)
    P = codes.dfs_projector(basis)
    model = memory_model(4, kappa)
    checks = {}
    for t in (0.3, 1.0, 2.5):
        K0 = dynamics.no_jump_kraus(model, t).matrix
        r = qec.dfs_check(KrausSet((K0,)), P, tol)
        expected = float(np.exp(-kappa * t))
        passed = r.passed and abs(r.lambdas[0].real - expected) < 1e-9
        checks[f"K0(t={t})"] = {
            "lambda": float(r.lambdas[0].real),
            "expected_lambda": expected,
            "residual": float(r.residuals[0]),
            "pass": passed,
        }
    L1 = np.sqrt(kappa) * local_to_dense(LocalOperator((1,), LOWER), 4)
    r = qec.dfs_check(KrausSet((L1,)), P, tol)
    checks["L1"] = {"residual": float(r.residuals[0]), "pass": not r.passed}
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def _verify_closure(tol: float) -> dict:
    gens = gates.su3_generators()
    closure = gates.lie_closure([g.logical for g in gens])
    traceless = [M - np.trace(M) / 3.0 * np.eye(3) for M in closure.basis]
    worst = max(gates.span_residual(traceless, gm) for gm in gates.gell_mann_matrices())
    ok = closure.dimension == 9 and closure.traceless_dimension == 8 and worst < tol
    return {
        "dimension": closure.dimension,
        "traceless_dimension": closure.traceless_dimension,
        "gell_mann_inclusion_residual": worst,
        "pass": bool(ok),
    }


def _verify_entangle(tol: float) -> dict:
    code8 = codes.jump_code(8, 0.0)
    C35 = np.column_stack([codes.codeword_ket(code8, i).amplitudes for i in range(code8.count)])
    code4 = codes.jump_code(4, 0.0)
    states = codes.product_code_basis(code4, code4)
    C9 = np.column_stack([s.amplitudes for s in states])
    taus = (0.0, np.pi / 7.0, np.pi / 2.0, np.pi, 2.0 * np.pi)
    UC9 = np.stack([gates.ent_unitary(tau) @ C9 for tau in taus])
    leakage = float(gates._leakage(UC9, C35).max())
    V = gates.v_gate()
    logical = C9.conj().T @ V @ C9
    v_residual = float(np.abs(logical - np.diag([1] * 8 + [-1])).max())
    theta = gates.gate_theta_matrix(V, states, 3)
    primitive, witness = gates.is_primitive_diagonal(theta)
    named = (
        theta.theta[1, 1] + theta.theta[2, 2],
        theta.theta[1, 2] + theta.theta[2, 1],
    )
    uniform = Ket(8, C9.sum(axis=1) / 3.0)
    rank = gates.schmidt_rank(Ket(8, V @ uniform.amplitudes), 4)
    ok = (
        leakage <= 1e-12
        and v_residual <= 1e-10
        and not primitive
        and witness is not None
        and abs((named[0] - named[1]) % (2 * np.pi) - np.pi) < 1e-9
        and rank == 2
    )
    return {
        "leakage": leakage,
        "v_gate_residual": v_residual,
        "primitive": primitive,
        "witness": list(witness) if witness else None,
        "theta": theta.theta.tolist(),
        "schmidt_rank": rank,
        "pass": bool(ok),
    }


def cmd_verify(args) -> int:
    tol = args.tol
    if args.check == "table1":
        report = _verify_table1(tol if tol is not None else 1e-12)
    elif args.check == "kl":
        which = "both"
        if args.known_position:
            which = "known-position"
        elif args.unknown_position:
            which = "unknown-position"
        report = _verify_kl(which, args.kappa, tol if tol is not None else 1e-9)
    elif args.check == "dfs":
        report = _verify_dfs(args.kappa, tol if tol is not None else 1e-9)
    elif args.check == "closure":
        report = _verify_closure(tol if tol is not None else 1e-10)
    else:
        report = _verify_entangle(tol if tol is not None else 1e-12)
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
    records, _, summary = run_experiment(config)
    out_dir = _out_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "jumps.csv").write_text(dynamics.records_to_csv(records))
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# --- gates subcommand --------------------------------------------------------

def _read_target(path: str) -> np.ndarray:
    """A matrix from JSON rows of [re, im] number pairs."""
    rows = json.loads(Path(path).read_text())
    if not (
        isinstance(rows, list)
        and all(isinstance(row, list) for row in rows)
        and all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(x, (int, float)) for x in pair)
            for row in rows
            for pair in row
        )
    ):
        raise ValueError("target must be a list of rows of [re, im] number pairs")
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def cmd_gates(args) -> int:
    target = _read_target(args.target)
    code = codes.jump_code(4, 0.0)
    try:
        program = gates.synthesize_qutrit(target, code, args.epsilon)
        failed = False
    except gates.SynthesisError as exc:
        program = exc.program
        failed = True
    leakage = gates.leakage_certificate(program, code)
    report = gates.program_to_json(program)
    report["leakage"] = leakage
    report["epsilon"] = args.epsilon
    report["segment_count"] = len(program.segments)
    report["pass"] = bool(not failed and leakage <= 1e-12)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpcodes",
        description="Detected-jump code laboratory: codes, checks, decay simulation, gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="generate or inspect code descriptions")
    p_code.add_argument("action", choices=["generate", "inspect"])
    p_code.add_argument("--n", type=int, default=4)
    p_code.add_argument("--phase", type=float, default=0.0)
    p_code.add_argument("--in", dest="infile", help="code JSON to inspect")
    p_code.add_argument("--out")
    p_code.set_defaults(func=cmd_code)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "check", choices=["kl", "dfs", "table1", "closure", "entangle"]
    )
    p_verify.add_argument("--kappa", type=float, default=1.0)
    p_verify.add_argument("--known-position", action="store_true")
    p_verify.add_argument("--unknown-position", action="store_true")
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

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
    p_sim.set_defaults(func=cmd_sim)

    p_gates = sub.add_parser("gates", help="synthesize logical gates")
    p_gates.add_argument("action", choices=["synthesize"])
    p_gates.add_argument("--target", required=True, help="3x3 unitary as JSON [re,im] pairs")
    p_gates.add_argument("--epsilon", type=float, default=1e-2)
    p_gates.add_argument("--out")
    p_gates.set_defaults(func=cmd_gates)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/workload.py <workload> <seed> <mode> <out dir> <spawn time>

``<spawn time>`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so set-up time covers interpreter start, the package
import and input generation. ``<mode>`` is one of

- ``solo``: the workload's calls into ``jumpcodes`` (from ``src/``) run one
  after another (one caller, closed loop);
- ``traced``: the same, with spans recorded around each layer;
- ``paired0`` / ``paired1``: each call is made twice in a row, once by
  ``jumpcodes`` and once by the frozen reference copy ``jumpcodes_ref``
  (``bench/reference/``) on the same inputs; the digit sets which goes first
  for the first call, and the order alternates from call to call;
- ``refsetup``: set up with ``jumpcodes_ref`` and exit, to give a reference
  set-up time next to the workload's own.

Only the calls are timed. In ``solo`` and ``traced`` mode, output checks run
afterwards on the outputs of ``jumpcodes``, untimed and untraced; in
``paired`` mode only calls that raise count as failed. The last line of stdout is one JSON
object describing the repetition.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH / "reference"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import tracing  # noqa: E402

SCHEMAS = ROOT / "docs" / "schemas"
STREAM_SCHEME = "SeedSequence((seed, id, stream)) -> Philox"

# sim_n4: the trajectory loop and replay dominate (equal rates, so one decay
# rate on every state's support); recovery construction is ~10 ms. The 2000
# trajectories go through 8 CLI calls of 250, each with its own seed, so each
# call is a short timed unit (see "Timing" in run.py); the 8 x 4 recovery
# completions then take about 3% of the run.
SIM_N4 = {"n": 4, "kappa": 1.0, "t_final": 3.0, "trajectories": 250, "calls": 8}
# Standard errors allowed between mean jumps per trajectory and its exact value.
JUMP_MEAN_SIGMAS = 5.0

# ensemble (a): the code-preserving C12+ drive (E23 - F23) with mismatched
# rates, so every bisection step runs a dense expm of H_eff.
DRIVE_TERMS = (("E", (2, 3), 1.0), ("F", (2, 3), -1.0))
DRIVE_RATES = (1.3, 0.7, 1.0, 1.0)
# The 400 trajectories run as 4 calls of 100 with their own seeds; their mean
# is the 400-trajectory estimate.
ENSEMBLE_A = {"count": 100, "calls": 4, "t_final": 1.0, "dt": 1e-3}
# ensemble (b): one full 1024-trajectory chunk at N = 8, which allocates the
# (1024, 256, 256) complex block inside average_trajectories.
ENSEMBLE_B = {"count": 1024, "t_final": 0.5, "kappa": 1.0}
# Allowed trace distance to the reference, in units of count**-0.5. Set from
# the spread of trace_distance * sqrt(count) over seeds (see BASELINE.md).
TRACE_MULTIPLE_A = 4.0
TRACE_MULTIPLE_B = 5.0

# gates: one Haar target per window of the commutator angle theta (norm of
# the antisymmetric part of the target's principal log). Slice doubling makes
# the step count jump by factors of two with theta; one target per window
# fixes the total work across seeds (about 128, 256, 512 and 1024 steps).
THETA_WINDOWS = ((0.44, 0.50), (0.62, 0.66), (0.84, 0.90), (1.20, 1.28))
SYNTH_EPSILON = 1e-3
VERIFY_SUITES = ("table1", "kl", "dfs", "closure", "entangle")


# --- inputs generated by the benchmark (numpy only) -------------------------

def code_words(n: int) -> np.ndarray:
    """Columns (|s> + |s_bar>)/sqrt(2), s of weight n/2 with its top bit 0."""
    dim = 2**n
    reps = sorted(
        s for s in (format(i, f"0{n}b") for i in range(dim))
        if s.count("1") == n // 2 and s[0] == "0"
    )
    C = np.zeros((dim, len(reps)), dtype=complex)
    for j, s in enumerate(reps):
        C[int(s, 2), j] = C[dim - 1 - int(s, 2), j] = 1.0 / np.sqrt(2.0)
    return C


def random_logical(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, d: int = 3) -> np.ndarray:
    Z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def commutator_angle(U: np.ndarray) -> float:
    w, V = np.linalg.eig(U)  # U = exp(-iH) with eigenphases in (-pi, pi]
    H = V @ np.diag(-np.angle(w)) @ np.linalg.inv(V)
    H = H - np.trace(H) / 3.0 * np.eye(3)
    K = 0.5 * (H.imag - H.imag.T)
    return float(np.linalg.norm([K[2, 1], K[0, 2], K[1, 0]]))


def stratified_targets(rng: np.random.Generator) -> list[np.ndarray]:
    targets = []
    for lo, hi in THETA_WINDOWS:
        while True:
            U = haar_unitary(rng)
            if lo <= commutator_angle(U) < hi:
                targets.append(U)
                break
    return targets


def program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# --- independent references used by the checks -----------------------------

def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def amplitude_damping_product(rho: np.ndarray, n: int, gammas) -> np.ndarray:
    """Apply an independent amplitude-damping channel to each qubit."""
    t = rho.reshape((2,) * (2 * n))
    for a, g in enumerate(gammas, start=1):
        row, col = n - a, 2 * n - a  # qubit a owns bit 2**(a-1)
        acc = np.zeros_like(t)
        for K in (np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]]),
                  np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])):
            u = np.moveaxis(np.tensordot(K, t, axes=([1], [row])), 0, row)
            acc += np.moveaxis(np.tensordot(K.conj(), u, axes=([1], [col])), 0, col)
        t = acc
    return t.reshape(2**n, 2**n)


def phase_aligned_distance(A: np.ndarray, B: np.ndarray) -> float:
    """min over gamma of the Frobenius norm of A - e^{i gamma} B."""
    sq = np.linalg.norm(A) ** 2 + np.linalg.norm(B) ** 2 - 2 * abs(np.vdot(B, A))
    return float(np.sqrt(max(sq, 0.0)))


def schema_errors(doc, schema_name: str) -> list[str]:
    import jsonschema

    schema = json.loads((SCHEMAS / schema_name).read_text())
    validator = jsonschema.Draft202012Validator(schema)
    return [f"{schema_name}: {e.message}" for e in validator.iter_errors(doc)]


# --- workloads ---------------------------------------------------------------
#
# Each builder takes the package under test (``load``), the seeded generator
# and a work directory, and returns (ops, items, check): ``ops`` is a list of
# (name, thunk) calls into the package, ``items(outputs)`` the work count of
# the calls (kept in each repetition's record, so throughput can be derived
# from the raw times), ``check(outputs)`` a dict op name -> list of failed
# checks.

def load(name: str) -> SimpleNamespace:
    """The package and the modules the workloads call, by package name."""
    return SimpleNamespace(
        package=import_module(name),
        **{m: import_module(f"{name}.{m}") for m in ("cli", "dynamics", "gates", "states")},
    )


def cli_call(pkg, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return code, buf.getvalue()


def sim_workload(params: dict, pkg, rng, workdir: Path):
    n, T, count = params["n"], params["t_final"], params["trajectories"]
    names = [f"sim_{k}" for k in range(params["calls"])]
    outs = {name: workdir / "outputs" / name for name in names}
    ops = []
    for name in names:
        argv = [
            "sim", "run", "--n", str(n), "--kappa", str(params["kappa"]),
            "--t-final", str(T), "--trajectories", str(count),
            "--seed", str(program_seed(rng)), "--out", str(outs[name]),
        ]
        ops.append((name, lambda argv=argv: cli_call(pkg, argv)))

    def items(outputs):
        return count * len(names)

    def check_call(name, code, text, jump_counts):
        out = outs[name]
        errs = [] if code == 0 else [f"exit code {code}"]
        summary = json.loads(text)
        errs += schema_errors(summary, "sim_summary.schema.json")
        if (out / "summary.json").read_text() != text:
            errs.append("summary.json differs from stdout")
        if abs(summary["mean_fidelity"] - 1.0) > 1e-12:
            errs.append(f"mean fidelity {summary['mean_fidelity']!r} not 1 within 1e-12")
        lines = (out / "jumps.csv").read_text().splitlines()
        if lines[0] != "trajectory_id,t,alpha":
            errs.append("jumps.csv header")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != summary["total_jumps"]:
            errs.append(f"{len(rows)} csv rows, total_jumps {summary['total_jumps']}")
        per_traj: dict[int, list[tuple[float, int]]] = {}
        for tid, t, alpha in rows:
            per_traj.setdefault(int(tid), []).append((float(t), int(alpha)))
        for tid, jumps in per_traj.items():
            times = [t for t, _ in jumps]
            qubits = [a for _, a in jumps]
            if not 0 <= tid < count:
                errs.append(f"trajectory id {tid} out of range")
            if any(not (0.0 < t <= T) for t in times):
                errs.append(f"trajectory {tid}: jump time outside (0, {T}]")
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                errs.append(f"trajectory {tid}: jump times not increasing")
            if len(set(qubits)) != len(qubits) or not all(1 <= a <= n for a in qubits):
                errs.append(f"trajectory {tid}: qubit jumped twice or out of range")
        jump_counts += [len(per_traj.get(i, [])) for i in range(count)]
        return errs

    def check(outputs):
        jump_counts: list[int] = []
        errs = {name: check_call(name, *outputs[name], jump_counts) for name in names}
        # The mean jump count is checked over the trajectories of all calls.
        counts = np.array(jump_counts, dtype=float)
        expected = n * 0.5 * (1.0 - np.exp(-params["kappa"] * T))
        stderr = counts.std(ddof=1) / np.sqrt(len(counts))
        if abs(counts.mean() - expected) > JUMP_MEAN_SIGMAS * stderr:
            errs[names[-1]].append(
                f"mean jumps {counts.mean():.4f} vs exact {expected:.4f} "
                f"beyond {JUMP_MEAN_SIGMAS} standard errors ({stderr:.4f})"
            )
        return errs

    return ops, items, check


def ensemble_workload(pkg, rng, workdir: Path):
    dynamics, gates, states = pkg.dynamics, pkg.gates, pkg.states
    C4, C8 = code_words(4), code_words(8)
    psi_a = C4 @ random_logical(rng, C4.shape[1])
    psi_b = C8 @ random_logical(rng, C8.shape[1])
    drive = gates.GateHamiltonian(DRIVE_TERMS).to_sum()
    model_a = dynamics.LindbladModel(4, drive, tuple(enumerate(DRIVE_RATES, start=1)))
    model_b = dynamics.memory_model(8, ENSEMBLE_B["kappa"])
    ket_a, ket_b = states.Ket(4, psi_a), states.Ket(8, psi_b)
    rho_a = dynamics.DensityMatrix(np.outer(psi_a, psi_a.conj()))
    a, b = ENSEMBLE_A, ENSEMBLE_B
    driven = [f"driven_trajectories_{k}" for k in range(a["calls"])]
    ops = [
        (name, lambda seed=program_seed(rng): dynamics.average_trajectories(
            model_a, ket_a, a["t_final"], a["count"], seed))
        for name in driven
    ]
    seed_b = program_seed(rng)
    ops += [
        ("driven_master", lambda: dynamics.integrate_master(
            model_a, rho_a, a["t_final"], a["dt"])),
        ("memory_trajectories_n8", lambda: dynamics.average_trajectories(
            model_b, ket_b, b["t_final"], b["count"], seed_b)),
    ]

    def items(outputs):
        return a["count"] * a["calls"] + b["count"]

    def check(outputs):
        errs = {name: [] for name, _ in ops}
        # Equal counts per call, so the mean of the calls' estimates is the
        # estimate over all their trajectories.
        rho_traj = np.mean([outputs[name].matrix for name in driven], axis=0)
        d_a = trace_distance(rho_traj, outputs["driven_master"].matrix)
        if d_a > TRACE_MULTIPLE_A / np.sqrt(a["count"] * a["calls"]):
            errs[driven[-1]].append(f"trace distance {d_a:.4f} to master equation")
        gamma = 1.0 - np.exp(-b["kappa"] * b["t_final"])
        exact = amplitude_damping_product(np.outer(psi_b, psi_b.conj()), 8, [gamma] * 8)
        d_b = trace_distance(outputs["memory_trajectories_n8"].matrix, exact)
        if d_b > TRACE_MULTIPLE_B / np.sqrt(b["count"]):
            errs["memory_trajectories_n8"].append(f"trace distance {d_b:.4f} to exact channel")
        return errs

    return ops, items, check


def gates_workload(pkg, rng, workdir: Path):
    gates = pkg.gates
    ops = [(f"verify_{s}", lambda s=s: cli_call(pkg, ["verify", s])) for s in VERIFY_SUITES]
    targets = stratified_targets(rng)
    for i, U in enumerate(targets):
        path = workdir / "inputs" / f"target_{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in U]))
        argv = ["gates", "synthesize", "--target", str(path), "--epsilon",
                str(SYNTH_EPSILON), "--out", str(workdir / "outputs" / f"program_{i}.json")]
        ops.append((f"synthesize_{i}", lambda argv=argv: cli_call(pkg, argv)))

    def items(outputs):
        return sum(
            json.loads(outputs[f"synthesize_{i}"][1])["segment_count"]
            for i in range(len(targets))
        )

    def check(outputs):
        errs = {}
        for s in VERIFY_SUITES:
            code, text = outputs[f"verify_{s}"]
            report = json.loads(text)
            e = [] if code == 0 else [f"exit code {code}"]
            if report.get("pass") is not True:
                e.append("pass is not true")
            errs[f"verify_{s}"] = e + schema_errors(report, "verify_report.schema.json")
        C = code_words(4)
        for i, U in enumerate(targets):
            code, text = outputs[f"synthesize_{i}"]
            report = json.loads(text)
            e = [] if code == 0 else [f"exit code {code}"]
            # The schema constrains each segment on its own (no array-wide
            # keywords), so validating the distinct segments is equivalent
            # and avoids validating thousands of identical ones.
            distinct = {repr(seg): seg for seg in report["segments"]}
            e += schema_errors(dict(report, segments=list(distinct.values())),
                               "program.schema.json")
            if report.get("pass") is not True or not report["leakage"] <= 1e-12:
                e.append(f"leakage {report['leakage']!r} or pass flag")
            if (workdir / "outputs" / f"program_{i}.json").read_text() != text:
                e.append("program file differs from stdout")
            program = gates.program_from_json(report)
            # program_unitary caches segment exponentials by Hamiltonian
            # identity; share one object per distinct term tuple so the
            # cache applies to a program read back from JSON.
            shared = {}
            for seg in program.segments:
                seg.hamiltonian = shared.setdefault(seg.hamiltonian.terms, seg.hamiltonian)
            logical = C.conj().T @ gates.program_unitary(program, 4) @ C
            dist = phase_aligned_distance(logical, U)
            if not dist <= SYNTH_EPSILON:
                e.append(f"independent re-evaluation error {dist:.3e} > {SYNTH_EPSILON}")
            errs[f"synthesize_{i}"] = e
        return errs

    return ops, items, check


WORKLOADS = {
    "sim_n4": lambda pkg, rng, wd: sim_workload(SIM_N4, pkg, rng, wd),
    "ensemble": ensemble_workload,
    "gates": gates_workload,
}


# --- one repetition ----------------------------------------------------------

def stream_scheme(pkg, seed: int) -> str:
    """Name the per-trajectory stream scheme if jumpcodes still uses it."""
    key = np.random.SeedSequence((seed, 1, 0)).generate_state(2, np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).uniform(size=4)
    got = pkg.dynamics.trajectory_rng(seed, 1).uniform(size=4)
    return STREAM_SCHEME if np.array_equal(expected, got) else "unknown"


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(totals, counts, wall_s, cpu_s, stdout_bytes, file_bytes) -> dict:
    """Flat per-layer metrics from the span totals of one traced repetition."""
    m: dict[str, float] = {}
    for mod, names in tracing.TRACED.items():
        for fn in names:
            t = totals.get(f"{mod}.{fn}", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for field, value in t.items():
                m[f"{mod}.{fn}.{field}"] = value
    traj_calls = m["dynamics.run_trajectory.calls"]
    m["dynamics.run_trajectory.mean_us"] = (
        1e6 * m["dynamics.run_trajectory.total_s"] / traj_calls if traj_calls else 0.0
    )
    m["dynamics.jumps"] = counts["jumps"]
    m["dynamics.jumps_per_traj"] = counts["jumps"] / traj_calls if traj_calls else 0.0
    m["dynamics.absorbed"] = counts["absorbed"]
    m["qec.recovery_share"] = m["qec.recovery_unitary.total_s"] / wall_s
    for key in ("segments_evaluated", "segments_emitted", "trotter_steps"):
        m[f"gates.{key}"] = counts[key]
    evaluated = counts["segments_evaluated"]
    m["gates.synth_useful_ratio"] = counts["segments_emitted"] / evaluated if evaluated else 0.0
    m["cli.stdout_bytes"] = stdout_bytes
    m["cli.file_bytes"] = file_bytes
    m["run.cpu_s"] = cpu_s
    return m


def run_ops(ops, ref_ops, first_ref: bool):
    """Make each call, alone or next to the reference's same call, timed."""
    outputs, raised, op_wall_s, ref_wall_s = {}, {}, {}, {}
    for i, (name, thunk) in enumerate(ops):
        legs = [(thunk, op_wall_s)]
        if ref_ops is not None:
            legs.append((ref_ops[i][1], ref_wall_s))
            if first_ref == (i % 2 == 0):
                legs.reverse()
        for fn, times in legs:
            t0 = time.perf_counter()
            try:
                out = fn()
                if fn is thunk:
                    outputs[name] = out
            except Exception:  # a failed operation is counted, not fatal
                raised[name] = traceback.format_exc(limit=3)
            times[name] = time.perf_counter() - t0
    return outputs, raised, op_wall_s, ref_wall_s


def main(argv: list[str]) -> int:
    workload, seed, mode, out_dir, t_spawn = argv
    seed = int(seed)
    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    workdir = Path(out_dir) / "work" / run_id
    (workdir / "inputs").mkdir(parents=True)
    pkg = load("jumpcodes_ref" if mode == "refsetup" else "jumpcodes")
    ops, items, check = WORKLOADS[workload](pkg, np.random.default_rng(seed), workdir)
    setup_s = time.monotonic() - float(t_spawn)
    if mode == "refsetup":
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref_ops = None
    if mode.startswith("paired"):
        ref = load("jumpcodes_ref")
        ref_ops, _, _ = WORKLOADS[workload](
            ref, np.random.default_rng(seed), workdir / "reference"
        )
    recorder = None
    if mode == "traced":
        recorder = tracing.SpanRecorder(run_id)
        tracing.install(recorder, pkg.package)
    threads = len(os.listdir("/proc/self/task"))

    outputs, raised, op_wall_s, ref_wall_s = run_ops(ops, ref_ops, mode == "paired1")
    wall_s = sum(op_wall_s.values())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mib = usage.ru_maxrss / 1024.0
    cpu_s = usage.ru_utime + usage.ru_stime
    if recorder is not None:
        recorder.enabled = False

    failures = {name: [f"raised: {tb}"] for name, tb in raised.items()}
    # Paired repetitions repeat the solo repetition's calls on the same
    # inputs; skipping their checks leaves time for more pairs in a run.
    if mode in ("solo", "traced") and not raised:
        try:
            for name, errs in check(outputs).items():
                if errs:
                    failures[name] = errs
        except Exception:
            failures["check"] = [traceback.format_exc(limit=3)]
    n_items = 0
    if not failures:
        n_items = items(outputs)
    stdout_bytes = sum(
        len(out[1].encode()) for out in outputs.values() if isinstance(out, tuple)
    )
    result = {
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_wall_s": op_wall_s,
        "ref_wall_s": ref_wall_s,
        "items": n_items,
        "peak_rss_mib": peak_rss_mib,
        "cpu_s": cpu_s,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "threads": threads,
        "stream_scheme": stream_scheme(pkg, seed),
    }
    if recorder is not None:
        spans_dir = Path(out_dir) / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        recorder.dump(spans_dir / f"{run_id}.jsonl")
        result["layers"] = layer_metrics(
            tracing.layer_totals(recorder.spans), recorder.counts,
            wall_s, cpu_s, stdout_bytes, dir_bytes(workdir / "outputs"),
        )
    shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

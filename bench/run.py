"""jumpcodes benchmark: run one workload (or all) and report its metrics.

    python3 bench/run.py --workload sim_n4 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each repetition starts a fresh interpreter (``bench/workload.py``), so
per-process caches start cold as they do for every CLI invocation.
Repetitions run one after another while the next one is expected to end
within ``--seconds``. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; a full record with run metadata goes
to ``<record dir>/<workload>-seed<seed>-trace<t>.json``.

Timing. The host's speed drifts by up to 2x over seconds to minutes as other
tenants load it, so raw times of the same code spread more than any useful
bound. Times are therefore measured against a frozen copy of the package,
``bench/reference/jumpcodes_ref``, run on the same inputs right next to the
package under test, so both see the same host:

- ``--trace 0``: one ``solo`` repetition gives ``peak_rss_mib``; then
  ``paired`` repetitions make every call twice in a row, once per package,
  alternating which goes first. ``wall_ratio`` is the median over paired
  repetitions of the package's summed call time over the reference's.
  Before every repetition a ``refsetup`` interpreter sets up with the
  reference; ``setup_s`` is the median ratio of the two set-up times times
  ``SETUP_REF_S``, so it reads as seconds on a host where the reference sets
  up in ``SETUP_REF_S``.
- ``--trace 1``: ``solo`` and ``traced`` repetitions alternate; per-layer
  metrics are medians over the traced ones, and the tracing overhead is the
  difference of the two kinds' median wall times.

The record keeps every raw time as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0  # a run, and so every repetition in it, ends within this
MIN_PAIRED_REPS = 3  # paired repetitions per untraced run
MIN_TRACED_REPS = 2  # per mode (traced, solo) in a traced run
# One BLAS thread in the workload process: a second pool thread on this
# two-CPU host competes with the caller and with other tenants, which made
# the BLAS-heavy workloads both slower and noisier.
WORKLOAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Typical set-up time of the reference package on the 2-vCPU Xeon VM
# (2.0 GHz) where the benchmark was defined. It only scales ``setup_s``.
SETUP_REF_S = 0.5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_rep(workload: str, seed: int, mode: str, limit_s: float) -> dict:
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workload.py"), workload, str(seed), mode,
         str(OUT), repr(t_spawn)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit_s,
        env={**os.environ, **WORKLOAD_ENV},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} repetition exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Closed loop of repetitions, one after another (see the module doc)."""
    start = time.monotonic()
    reps: list[dict] = []
    longest = 0.0
    while True:
        if trace:
            mode = "traced" if len(reps) % 2 else "solo"
        else:
            mode = "solo" if not reps else f"paired{len(reps) % 2}"
        t0 = time.monotonic()
        limit = RUN_LIMIT_S - (t0 - start)
        ref_setup = None if trace else run_rep(workload, seed, "refsetup", limit)["setup_s"]
        rep = run_rep(workload, seed, mode, RUN_LIMIT_S - (time.monotonic() - start))
        rep["ref_setup_s"] = ref_setup
        reps.append(rep)
        last = time.monotonic() - t0
        longest = max(longest, last)
        now = time.monotonic() - start
        enough = len(reps) >= (2 * MIN_TRACED_REPS if trace else 1 + MIN_PAIRED_REPS)
        # Start another repetition only if it is expected to end in time:
        # the next one is taken to last as long as the one just ended.
        if enough and now + last > seconds:
            break
        if now + longest > RUN_LIMIT_S:
            break
    return reps


def of_mode(reps: list[dict], prefix: str) -> list[dict]:
    return [r for r in reps if r["mode"].startswith(prefix)]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    med = statistics.median
    paired = of_mode(reps, "paired")
    return {
        "setup_s": SETUP_REF_S * med(r["setup_s"] / r["ref_setup_s"] for r in reps),
        "wall_ratio": med(
            sum(r["op_wall_s"].values()) / sum(r["ref_wall_s"].values()) for r in paired
        ),
        "peak_rss_mib": med(r["peak_rss_mib"] for r in of_mode(reps, "solo")),
    }


def raw_times(reps: list[dict]) -> dict[str, float]:
    """Unnormalized medians, printed and recorded for reference only."""
    med = statistics.median
    out = {
        "setup_s": med(r["setup_s"] for r in reps),
        "solo_wall_s": med(r["wall_s"] for r in of_mode(reps, "solo")),
    }
    paired = of_mode(reps, "paired")
    if paired:
        out["ref_setup_s"] = med(r["ref_setup_s"] for r in reps)
        out["paired_wall_s"] = med(r["wall_s"] for r in paired)
        out["paired_ref_wall_s"] = med(sum(r["ref_wall_s"].values()) for r in paired)
    return out


def per_layer(reps: list[dict]) -> dict[str, float]:
    traced = of_mode(reps, "traced")
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["run.tracing_overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(r["wall_s"] for r in of_mode(reps, "solo"))
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def metadata(seed: int, reps: list[dict]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in WORKLOAD_ENV},
        "workload_env": WORKLOAD_ENV,
        # Threads alive in the workload process after set-up: the main
        # thread plus the BLAS pool.
        "workload_threads": sorted({r["threads"] for r in reps}),
        "git_commit": git_commit(),
        "seed": seed,
        "stream_scheme": sorted({r["stream_scheme"] for r in reps}),
    }


def report(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    reps = run_workload(workload, seed, seconds, trace)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if trace:
        values = per_layer(reps)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(reps)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    mode = "traced" if trace else "untraced"
    print(f"workload {workload}  seed {seed}  {len(reps)} repetitions ({mode} run)")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ratio ({failed}/{attempted} operations)")
    raw = raw_times(reps)
    for name, value in raw.items():
        print(f"  {'raw ' + name:42s} {value:14.6g} s")
    for r in reps:
        for op, errs in r["failures"].items():
            print(f"  FAILED {op}: {'; '.join(errs)}", file=sys.stderr)
    meta = metadata(seed, reps)
    print(f"  metadata {json.dumps(meta)}")
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "setup_ref_s": SETUP_REF_S,
        "metadata": meta,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
    }


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", type=Path, default=OUT,
                        help="directory for the full JSON record of each workload")
    args = parser.parse_args()
    if not (ROOT / "src" / "jumpcodes" / "__init__.py").is_file():
        print("error: jumpcodes sources not found under src/", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    args.record.mkdir(parents=True, exist_ok=True)
    results = []
    for workload in names if args.workload == "all" else [args.workload]:
        res = report(workload, args.seed, args.seconds, bool(args.trace), spec)
        path = args.record / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
        results.append(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

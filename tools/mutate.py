"""Mutation matrix: which one-edit defects does tier-1 catch?

Each mutant in ``tools/mutants.json`` names a file, an exact text that occurs
there once, its replacement and the claim the edit breaks. For each mutant the
tracked tree (``git ls-files``) is copied into a fresh temporary directory, the
edit is made there, and tier-1 runs in that copy with one BLAS thread. The
checkout is never edited; the one file written into it is ``MUTANTS.json``:
per mutant, the test ids that failed ("killed"), or none ("survived"). A
survivor's ``equivalent`` text in ``tools/mutants.json``, when given, says why
no test can tell it from the source. The run refuses to start when the
unmutated copy fails tier-1, since a kill would then mean nothing.

    python tools/mutate.py    # every mutant, about 20 s each

Not part of tier-1 or CI.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--tb=no", "-rfE"]
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Seconds one tier-1 run may take (it takes about 20): a mutant that hangs it is killed.
TIMEOUT = 600.0


def tracked_files() -> list[str]:
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout
    return [name for name in listed.split("\0") if name and (ROOT / name).is_file()]


def copy_tree(files: list[str], dest: Path) -> None:
    for name in files:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dest / name)


def mutated(mutant: dict, tree: Path) -> str:
    """The mutant's file in ``tree``, with its one edit made."""
    text = (tree / mutant["file"]).read_text()
    found = text.count(mutant["find"])
    if found != 1:
        raise SystemExit(f"mutant {mutant['id']}: its text occurs {found} times in {mutant['file']}")
    return text.replace(mutant["find"], mutant["replace"])


def run_tier1(tree: Path) -> dict:
    """Tier-1 in ``tree``: its exit code, failing test ids and wall time."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    start = time.perf_counter()
    # Its own session, so a timeout also stops the interpreters the tests start.
    proc = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"status": "timeout", "failed": ["timeout"], "summary": f"no result in {TIMEOUT} s",
                "seconds": round(time.perf_counter() - start, 1)}
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    summary = out.strip().splitlines()[-1] if out.strip() else ""
    return {"status": "passed" if proc.returncode == 0 else "failed", "failed": failed,
            "summary": summary, "seconds": round(time.perf_counter() - start, 1)}


def main() -> int:
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text())
    files = tracked_files()

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        base = Path(scratch) / "base"
        copy_tree(files, base)
        for mutant in mutants:  # every text must be found before any run
            mutated(mutant, base)
        baseline = run_tier1(base)
        print(f"unmutated: {baseline['summary']} ({baseline['seconds']} s)", flush=True)
        if baseline["status"] != "passed":
            print("the unmutated tree fails tier-1; no mutant is run", file=sys.stderr)
            return 1
        results = []
        for mutant in mutants:
            tree = Path(scratch) / mutant["id"]
            shutil.copytree(base, tree)
            (tree / mutant["file"]).write_text(mutated(mutant, base))
            outcome = run_tier1(tree)
            shutil.rmtree(tree)
            killed = outcome["status"] != "passed"
            entry = {key: mutant[key] for key in ("id", "file", "claim")}
            entry.update(verdict="killed" if killed else "survived",
                         killed_by=outcome["failed"], summary=outcome["summary"],
                         seconds=outcome["seconds"])
            if not killed and "equivalent" in mutant:
                entry["equivalent"] = mutant["equivalent"]
            results.append(entry)
            print(f"{mutant['id']}: {entry['verdict']} ({len(entry['killed_by'])} tests, "
                  f"{outcome['seconds']} s)", flush=True)

    record = {
        "command": "python tools/mutate.py",
        "tier1": " ".join(["python"] + TIER1[1:]) + " (OPENBLAS_NUM_THREADS=1)",
        "unmutated": baseline["summary"],
        "killed": sum(r["verdict"] == "killed" for r in results),
        "survived": [r["id"] for r in results if r["verdict"] == "survived"],
        "mutants": results,
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

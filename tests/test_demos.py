"""Every demo script runs to completion against the library in ``src/``, with a
RuntimeWarning raised as an error, as pyproject makes it for the rest of tier-1,
and prints what its golden ``tests/golden/demo_<script>.stdout`` holds. After an
intended change of output, rewrite the goldens with ``tests/golden/regenerate.py``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


def test_demos_run(tmp_path):
    assert len(DEMOS) == 5
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    runs = {
        demo.name: subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for demo in DEMOS
    }
    outputs = {name: proc.communicate(timeout=300) for name, proc in runs.items()}
    failed = {name: err for name, (_, err) in outputs.items() if runs[name].returncode != 0}
    assert failed == {}
    assert all(out.strip() for out, _ in outputs.values())
    changed = [name for name, (out, _) in outputs.items()
               if out != (GOLDEN / f"demo_{Path(name).stem}.stdout").read_text()]
    assert changed == []

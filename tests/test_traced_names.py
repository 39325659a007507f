"""Every name the benchmark reads from the package exists on its module.

The tracer looks its names up only when a workload runs with ``--trace 1``,
and a workload reads its names only when it runs, so a renamed or deleted
function would otherwise go unnoticed until then.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracing import TRACED  # noqa: E402


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_names_are_defined(module):
    mod = importlib.import_module(f"jumpcodes.{module}")
    missing = [name for name in TRACED[module] if not callable(getattr(mod, name, None))]
    assert missing == []


def _workload_names() -> set[tuple[str, str]]:
    """Every ``<module>.<name>`` that bench/workload.py reads from the package,
    through a local module name (``gates.x``) or the loaded namespace
    (``pkg.gates.x``)."""
    tree = ast.parse((ROOT / "bench" / "workload.py").read_text())
    modules = {p.stem for p in (ROOT / "src" / "jumpcodes").glob("*.py")}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            module = base.attr  # pkg.<module>.<name>
        elif isinstance(base, ast.Name):
            module = base.id  # <module>.<name>
        else:
            continue
        if module in modules:
            names.add((module, node.attr))
    return names


def test_names_the_workloads_call_are_defined():
    names = _workload_names()
    assert len(names) >= 11  # the parse still finds the calls it guards
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"jumpcodes.{module}"), name)
    ]
    assert missing == []

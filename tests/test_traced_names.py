"""Every function the benchmark's tracer wraps exists on its module.

The tracer looks the names up only when a workload runs with ``--trace 1``,
so a renamed or deleted function would otherwise go unnoticed until then.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from tracing import TRACED  # noqa: E402


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_names_are_defined(module):
    mod = importlib.import_module(f"jumpcodes.{module}")
    missing = [name for name in TRACED[module] if not callable(getattr(mod, name, None))]
    assert missing == []

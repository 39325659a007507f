"""The gate layer's CLI outputs against the goldens in ``tests/golden``.

Every field of each command's JSON stdout is compared: ints, strings,
booleans, nulls and list lengths exactly, floats within the absolute
tolerance the manifest states. Exit codes match exactly. After an intended
change of output, rewrite the goldens with ``tests/golden/regenerate.py``
and review their diff.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def deviations(want, got, path: str = "") -> list[tuple[str, float, object, object]]:
    """(path, deviation, golden, got) for every leaf of two JSON values: |got -
    golden| for two floats, 0 for equal values, inf for any other difference."""
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [dev for key in want for dev in deviations(want[key], got[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [dev for i, (w, g) in enumerate(zip(want, got)) for dev in deviations(w, g, f"{path}[{i}]")]
    if type(want) is float and type(got) is float:
        return [(path, abs(got - want), want, got)]
    return [(path, 0.0 if type(want) is type(got) and want == got else math.inf, want, got)]


def worst_per_field(devs, tol: float) -> dict[str, tuple[str, float, object, object]]:
    """The largest deviation above ``tol`` of each field, list positions folded."""
    worst = {}
    for dev in devs:
        field = re.sub(r"\[\d+\]", "[]", dev[0])
        if dev[1] > tol and dev[1] > worst.get(field, (None, -1.0))[1]:
            worst[field] = dev
    return worst


def test_deviations_name_each_kind_of_difference():
    want = {"a": [1.0, 2.0], "b": 3, "c": True, "w": [0, 0, 2, 2]}
    got = {"a": [1.0, 2.5], "b": 3.0, "c": False, "w": [0, 0, 2, 1]}
    worst = worst_per_field(deviations(want, got), 1e-12)
    assert worst == {
        ".a[]": (".a[1]", 0.5, 2.0, 2.5),
        ".b": (".b", math.inf, 3, 3.0),
        ".c": (".c", math.inf, True, False),
        ".w[]": (".w[3]", math.inf, 2, 1),
    }
    assert worst_per_field(deviations({"x": [1]}, {"x": [1, 2]}), 1e-12) == {
        ".x": (".x", math.inf, [1], [1, 2])
    }


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_output_matches_golden(name):
    case = MANIFEST["cases"][name]
    code, stdout = regenerate.run(case["argv"])
    want = json.loads((GOLDEN / f"{name}.stdout").read_text())
    worst = worst_per_field(deviations(want, json.loads(stdout)), MANIFEST["float_abs_tol"])
    problems = [f"exit code {code}, golden {case['exit_code']}"] * (code != case["exit_code"]) + [
        f"{field}: deviation {dev:.3g} at {path} (golden {w!r}, got {g!r})"
        for field, (path, dev, w, g) in sorted(worst.items())
    ]
    assert not problems, "\n".join(problems)

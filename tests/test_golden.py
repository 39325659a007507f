"""CLI outputs against the goldens in ``tests/golden``.

Every field of each command's JSON stdout, and of each JSON file it writes,
is compared: ints, strings, booleans, nulls and list lengths exactly, floats
within the absolute tolerance the manifest states. A jump log's header, row
count, trajectory ids and qubits match exactly, and each jump time lies
within the manifest's relative tolerance of its golden. Exit codes match
exactly. After an intended change of output, rewrite the goldens with
``tests/golden/regenerate.py`` and review their diff.
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


def jump_log_problems(want: str, got: str, rel_tol: float) -> list[str]:
    """Each line where two jump logs differ: in the header, an id or a qubit,
    or a time further than ``rel_tol`` relative from the golden one."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, golden {len(want_lines)}"]
    problems = [f"line 1: golden {want_lines[0]!r}, got {got_lines[0]!r}"] * (want_lines[0] != got_lines[0])
    for line, (w, g) in enumerate(zip(want_lines[1:], got_lines[1:]), start=2):
        (w_id, w_t, w_alpha), (g_id, g_t, g_alpha) = w.split(","), g.split(",")
        if (w_id, w_alpha) != (g_id, g_alpha) or not abs(float(g_t) - float(w_t)) <= rel_tol * abs(float(w_t)):
            problems.append(f"line {line}: golden {w!r}, got {g!r}")
    return problems


def test_jump_log_problems_name_each_kind_of_difference():
    want = "trajectory_id,t,alpha\n0,1.0,2\n0,2.0,3\n1,0.5,1\n"
    assert jump_log_problems(want, want.replace("2.0,", "2.000000001,"), 1e-9) == []
    assert jump_log_problems(want, want.replace("2.0,", "2.00000001,"), 1e-9) == [
        "line 3: golden '0,2.0,3', got '0,2.00000001,3'"
    ]
    assert jump_log_problems(want, want.replace("1,0.5,1", "2,0.5,1").replace("0,1.0,2", "0,1.0,4"), 1e-9) == [
        "line 2: golden '0,1.0,2', got '0,1.0,4'", "line 4: golden '1,0.5,1', got '2,0.5,1'"
    ]
    assert jump_log_problems(want, want.replace("alpha", "a"), 1e-9) == [
        "line 1: golden 'trajectory_id,t,alpha', got 'trajectory_id,t,a'"
    ]
    assert jump_log_problems(want, want + "1,0.7,2\n", 1e-9) == ["5 lines, golden 4"]


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_output_matches_golden(name, tmp_path):
    case = MANIFEST["cases"][name]
    code, stdout = regenerate.run(case["argv"], tmp_path if case["files"] else None)
    problems = [f"exit code {code}, golden {case['exit_code']}"] * (code != case["exit_code"])
    outputs = {"stdout": stdout, **{file: (tmp_path / file).read_text() for file in case["files"]}}
    for output, text in outputs.items():
        golden = (GOLDEN / f"{name}.{output}").read_text()
        if output.endswith(".csv"):
            found = jump_log_problems(golden, text, MANIFEST["jump_time_rel_tol"])
            problems += [f"{output} {problem}" for problem in found[:10]]
            continue
        worst = worst_per_field(deviations(json.loads(golden), json.loads(text)), MANIFEST["float_abs_tol"])
        problems += [
            f"{output} {field}: deviation {dev:.3g} at {path} (golden {w!r}, got {g!r})"
            for field, (path, dev, w, g) in sorted(worst.items())
        ]
    assert not problems, "\n".join(problems)

"""Checks on the library source itself.

``assert`` statements vanish under ``python -O``, so the library states no
fact through them: a constant is checked by a test, and bad input raises a
named exception.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "jumpcodes").glob("*.py"))


def _assertions(tree: ast.AST) -> list[int]:
    """Lines holding an ``assert`` statement or naming ``AssertionError``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    )


def test_sources_are_found():
    assert "gates.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_or_assertion_error(path):
    assert _assertions(ast.parse(path.read_text(), filename=str(path))) == []


def test_detector_sees_every_form():
    tree = ast.parse(
        "assert x\n"
        "raise AssertionError('a')\n"
        "raise AssertionError\n"
        "raise ValueError('b')\n"
        "try:\n"
        "    pass\n"
        "except AssertionError:\n"
        "    pass\n"
    )
    assert _assertions(tree) == [1, 2, 3, 7]


def _unreferenced(path: Path, corpus: list[Path]) -> list[str]:
    """Module-level functions and classes of ``path`` that no line of
    ``corpus`` names as a whole word, other than their own def/class line."""
    words = Counter(w for p in corpus for w in re.findall(r"\w+", p.read_text()))
    source = path.read_text()
    lines = source.splitlines()
    out = []
    for node in ast.parse(source, filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = re.findall(r"\w+", lines[node.lineno - 1]).count(node.name) if path in corpus else 0
            if words[node.name] == own:
                out.append(node.name)
    return out


def test_every_definition_is_referenced():
    # Code that no production path, demo or benchmark reads is deleted, not
    # kept alive by its tests. A re-export from ``__init__.py`` is no use.
    modules = [p for p in SOURCES if p.name != "__init__.py"]
    corpus = modules + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert {p.name: _unreferenced(p, corpus) for p in modules} == {p.name: [] for p in modules}


def test_names_only_the_benchmark_keeps_alive_are_pinned():
    # The benchmark's files are frozen, so a definition that only they read
    # waits for a benchmark change to be deleted (ROADMAP item 4). A new name
    # kept alive that way fails here until it is added to that list.
    modules = [p for p in SOURCES if p.name != "__init__.py"]
    library = modules + sorted((ROOT / "demos").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    kept = {
        f"{p.stem}.{name}"
        for p in modules
        for name in set(_unreferenced(p, library)) - set(_unreferenced(p, library + bench))
    }
    assert kept == {
        "dynamics.jump_channel_weights",
        "dynamics.run_trajectory",
        "gates.program_from_json",
    }

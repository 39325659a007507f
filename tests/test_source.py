"""Checks on the library source itself.

``assert`` statements vanish under ``python -O``, so the library states no
fact through them: a constant is checked by a test, and bad input raises a
named exception.
"""

import ast
import re
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
    lines = [(p, i, line) for p in corpus for i, line in enumerate(p.read_text().splitlines(), 1)]
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line) for p, i, line in lines if (p, i) != (path, node.lineno)):
                out.append(node.name)
    return out


def test_every_definition_is_referenced():
    # Code that no production path, demo or benchmark reads is deleted, not
    # kept alive by its tests.
    corpus = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    found = {p.name: _unreferenced(p, corpus) for p in SOURCES if p.name != "__init__.py"}
    assert found == {p.name: [] for p in SOURCES if p.name != "__init__.py"}

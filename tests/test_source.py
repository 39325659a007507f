"""Checks on the library source itself.

``assert`` statements vanish under ``python -O``, so the library states no
fact through them: a constant is checked by a test, and bad input raises a
named exception.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jumpcodes").glob("*.py"))


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

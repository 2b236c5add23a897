"""Checks on the library source itself."""

import ast
from pathlib import Path

import agrees

SOURCES = sorted(Path(agrees.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    """`python -O` strips `assert`, so a library check must raise instead."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert in library code: {found}"

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


def test_only_fields_imports_fractions():
    """`RationalField` alone decides how a rational is held (an int when
    integral, else a Fraction), so no other library module imports
    `fractions`."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "fractions" in names and path.name != "fields.py":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"fractions imported outside fields.py: {found}"

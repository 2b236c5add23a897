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


# perfbench/tracing.py binds these two on `engine` to time the staircase
# layer, though the engine no longer calls them (ROADMAP item 6 deletes both)
UNUSED_IMPORTS_ALLOWED = {("engine.py", "mono_colength"), ("engine.py", "staircase_normalize")}


def test_no_library_module_imports_a_name_it_never_uses():
    """A name a module imports is read somewhere in it.  `__init__.py` is
    exempt: its imports are the package's public names."""
    found = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found.update((path.name, name) for name in imported - used)
    assert found == UNUSED_IMPORTS_ALLOWED, f"unused imports: {sorted(found - UNUSED_IMPORTS_ALLOWED)}"

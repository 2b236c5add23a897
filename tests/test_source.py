"""Checks on the library source itself."""

import ast
import inspect
import re
from pathlib import Path

import agrees
from agrees.groebner import GroebnerBasis, Ideal
from agrees.poly import Polynomial

SOURCES = sorted(Path(agrees.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_imports_are_module_level_and_layered():
    """Every import in the library sits at module level, so no call pays
    for one, and the modules' `from .x import` edges have no cycle: they
    form layers, errors -> poly, fields -> staircase -> groebner -> engine
    -> rees, report, families -> survey, repro -> cli.  `staircase` is a
    leaf over `errors`: the bridge to ideals lives in `groebner`."""
    nested, graph = [], {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        nested += [f"{path.name}:{node.lineno}" for node in imports if node not in tree.body]
        graph[path.stem] = {
            alias.name if node.module is None else node.module.split(".")[0]
            for node in imports if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    assert not nested, f"imports inside a function or block: {nested}"
    remaining = dict(graph)
    while ready := [name for name, deps in remaining.items() if not deps & remaining.keys()]:
        for name in ready:
            del remaining[name]
    assert not remaining, f"modules on or above an import cycle: {sorted(remaining)}"
    assert graph["staircase"] == {"errors"}


# perfbench/tracing.py binds these three on `engine` to time the staircase
# layer, though the engine no longer calls them (ROADMAP item 8 deletes them)
UNUSED_IMPORTS_ALLOWED = {("engine.py", "mono_colength"), ("engine.py", "newton_closure"),
                          ("engine.py", "staircase_normalize")}


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


# exported names that no library stage reads, each kept for its reason
EXPORTS_WITHOUT_A_READER = {
    # perfbench/tracing.py binds it, and oracles.reference_colon is built on it
    "ideal_intersection",
    # perfbench's check_case calls it, and ROADMAP item 2(d) will too
    "validate_report",
    # ROADMAP item 8 moves the twins workload onto it
    "coordinate_twin",
}


def _reads(tree, attributes: bool = False) -> set:
    """The names a module reads, with `attributes` the attribute names too,
    leaving out a def's or class's reads of its own name anywhere in its
    body (a recursive call is not a reader)."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif attributes and isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def _readme_example_names() -> set:
    """The identifiers of README's first code block under "## Library"."""
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return set(re.findall(r"[A-Za-z_]\w*", block))


INIT = next(path for path in SOURCES if path.name == "__init__.py")


def _exports() -> set:
    """The names `agrees/__init__.py` imports, the package's public names."""
    return {alias.asname or alias.name
            for node in ast.parse(INIT.read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_export_has_a_reader():
    """Each name `agrees/__init__.py` exports is read in another library
    module, outside its own definition, or shown in README's "Library"
    example; a public name no stage calls is deleted, not exported."""
    read = set().union(*(_reads(ast.parse(path.read_text(), filename=str(path)))
                         for path in SOURCES if path != INIT))
    unread = _exports() - read - _readme_example_names()
    assert unread == EXPORTS_WITHOUT_A_READER, f"exports with no reader: {sorted(unread)}"


# library definitions that no library code reads, each kept for its reason
DEFINITIONS_WITHOUT_A_READER = {
    # perfbench's check_case calls it on every Rees presentation it times
    "rees.substitution_check",
}


def test_every_definition_has_a_reader():
    """Each module-level function or class, and each method but a dunder,
    defined in the library is read in the library outside its own
    definition, by its name or as an attribute; an import in
    `__init__.py` counts as a read.  A definition no library code reads is
    deleted, or moved into the tests that use it."""
    read = _exports()
    defined = {}  # qualified name -> the name a reader reads
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= _reads(tree, attributes=True)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__")))
    unread = {qual for qual, name in defined.items() if name not in read}
    assert unread == DEFINITIONS_WITHOUT_A_READER, f"definitions with no reader: {sorted(unread)}"


def _named_in(name: str) -> set:
    """(module, top-level definition) for every read of `name` in the
    library; the definition is None for a read at module level."""
    found = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            found.update((path.stem, owner) for node in ast.walk(top)
                         if isinstance(node, ast.Name) and node.id == name)
    return found


def test_block_orders_live_only_in_elimination():
    """Grevlex is the only order outside the two elimination runs: an
    ideal's basis, a basis and a polynomial's terms take no order, and
    outside `poly`, where it is defined, `BlockElimination` is read only by
    the Rees presentation's run, by `ideal_intersection` and by the reader
    of their front-free elements; no module but `poly` reads
    `MonomialOrder`."""
    assert list(inspect.signature(Ideal.groebner_basis).parameters) == ["self"]
    assert list(inspect.signature(Polynomial.sorted_terms).parameters) == ["self"]
    assert list(inspect.signature(GroebnerBasis.__init__).parameters) == [
        "self", "ring", "field", "entries", "stair"]
    block = {(m, d) for m, d in _named_in("BlockElimination") if m != "poly"}
    assert block == {
        ("rees", "_t_free_kernel"), ("groebner", "ideal_intersection"),
        ("groebner", "_front_free_elements")}
    assert {m for m, _ in _named_in("MonomialOrder")} == {"poly"}


def test_engine_reads_the_echelon_only_through_rank():
    """Every Nakayama test in `engine` (a reduction's, each witness side's,
    each refuter sample's) is a `_rank` of normal forms against a `mu`, so
    `_rank` is the engine's one reader of `groebner._echelon_reduce`."""
    assert {d for m, d in _named_in("_echelon_reduce") if m == "engine"} == {"_rank"}

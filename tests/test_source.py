"""Checks on the library source itself."""

import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

import agrees
from agrees import groebner
from agrees.engine import AGWitness, RefutationData
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


def test_engine_decides_stability_in_one_place():
    """Every Nakayama test in `engine` is one `_spans` (a reduction's, I^2 =
    QI's, each witness side's), so `_rank` is read only there and by the
    refuter's samples; I^2 = QI is one `_spans`, kept on I by `_stable`
    alone, apart from the lengths' answer `find_reduction` leaves for a
    monomial I; and `_reduction_number` takes no knob to skip the tests
    below a given r."""
    engine = _engine_definitions()
    assert {d for m, d in _named_in("_rank") if m == "engine"} == {"_spans", "necessary_bound"}
    assert list(inspect.signature(agrees.engine._reduction_number).parameters) == ["I", "Q", "cap"]
    writes = Counter(
        (path.stem, getattr(top, "name", None)) for path in SOURCES
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "_stable")
    assert writes == Counter({("engine", "_stable"): 1, ("engine", "find_reduction"): 1})
    # find_reduction's write sits in its staircase branch
    branch = next(node for node in engine["find_reduction"].body if isinstance(node, ast.If))
    assert "stair" in {n.id for n in ast.walk(branch.test) if isinstance(n, ast.Name)}
    assert any(isinstance(n, ast.Attribute) and n.attr == "_stable"
               for stmt in branch.body for n in ast.walk(stmt))


def test_one_elimination_step_in_groebner():
    """Every integer-row kernel in `groebner` steps through `_cancel`: it
    is the one function there that reads a field's `cross` or `modulus`."""
    path = next(path for path in SOURCES if path.name == "groebner.py")
    found = {top.name for top in ast.parse(path.read_text(), filename=str(path)).body
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in ("cross", "modulus")}
    assert found == {"_cancel"}


def _readers_of(attr: str) -> Counter:
    """(module, definition) -> its count of reads of the attribute `attr`
    in the library, a method named as `Class.method` and a read at module
    level under None."""
    found = Counter()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{d.name}", d) for d in top.body
                        if isinstance(d, ast.FunctionDef)]
            else:
                defs = [(getattr(top, "name", None), top)]
            for name, d in defs:
                found.update((path.stem, name) for node in ast.walk(d)
                             if isinstance(node, ast.Attribute) and node.attr == attr)
    return found


def test_field_values_are_cleared_once_where_they_enter_the_kernels():
    """Every row a kernel steps on is an integer row: `field.clear` is read
    once at each place where field values enter integer arithmetic (both
    branches of `GroebnerBasis.reduce_row`, a Buchberger run's inputs,
    `_nf_dict`'s exact mode, `_colon`'s augmented row, `_sum`'s forms and
    `engine._rank`'s copies), and nowhere else, so `_echelon_reduce` reads
    none.  With that one contract `_walk` has no `integral` flag and
    `GroebnerBasis.reduce` has one body, reading no term filter
    (`_corners`)."""
    assert _readers_of("clear") == Counter({
        ("groebner", "GroebnerBasis.reduce_row"): 2, ("groebner", "_buchberger"): 1,
        ("groebner", "_nf_dict"): 1, ("groebner", "_colon"): 1, ("groebner", "_sum"): 1,
        ("engine", "_rank"): 1})
    assert list(inspect.signature(groebner._walk).parameters) == ["top", "gens", "D"]
    assert not _readers_of("_corners")[("groebner", "GroebnerBasis.reduce")]


def _engine_definitions() -> dict:
    """`engine`'s top-level definitions by name."""
    path = next(path for path in SOURCES if path.name == "engine.py")
    return {top.name: top for top in ast.parse(path.read_text(), filename=str(path)).body
            if hasattr(top, "name")}


def test_engine_reads_exact_normal_forms_only_in_the_refuter():
    """A rank or a zero test reads a normal form only up to scale, so it
    takes `GroebnerBasis.reduce_row`, and a kernel divides by a basis's
    entries itself (the colon's walk among them); `reduce`, which makes the
    exact field values on exponent tuples, is read in the whole library
    only by `engine.necessary_bound`, whose samples combine normal forms
    linearly, and by `groebner.normal_form`."""
    readers = {(path.stem, getattr(top, "name", None)) for path in SOURCES
               for top in ast.parse(path.read_text(), filename=str(path)).body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "reduce"}
    assert readers == {("engine", "necessary_bound"), ("groebner", "normal_form")}


def test_one_walk_and_one_finisher_in_groebner():
    """The colon and the sum read their forms off one walk over the
    standard monomials (`_walk`), the one reader of `standard_monomials` in
    `groebner`; every basis read with no run ends in `_finish`, which with
    `_buchberger` is the one reader of `_interreduce`; and `Ideal` has no
    `of_basis`, a second way to build an ideal with its basis cached."""
    assert {d for m, d in _named_in("standard_monomials") if m == "groebner"} == {"_walk"}
    assert _named_in("_interreduce") == {("groebner", "_buchberger"), ("groebner", "_finish")}
    assert not hasattr(Ideal, "of_basis")


def test_canonical_colon_builds_no_ideal_from_the_reduction():
    """The colon's T = Q + I^2 is read off I^2's basis (`groebner._sum`),
    so `canonical_colon` starts no Buchberger run from Q's generators: no
    `Ideal(...)` there reads `Q.generators`."""
    found = [node.lineno for node in ast.walk(_engine_definitions()["canonical_colon"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Ideal"
             and any(isinstance(sub, ast.Attribute) and sub.attr == "generators"
                     and isinstance(sub.value, ast.Name) and sub.value.id == "Q"
                     for arg in node.args for sub in ast.walk(arg))]
    assert not found, f"canonical_colon builds an Ideal from Q.generators at {found}"


def test_report_sections_are_read_off_their_records():
    """`report_document` writes the `witness` and `refutation` sections as
    their records' fields by name, so it spells out none of those names
    itself, and `write_survey_csv` writes every cell under one rule, a
    None as the empty string."""
    path = next(path for path in SOURCES if path.name == "report.py")
    defs = {top.name: top for top in ast.parse(path.read_text(), filename=str(path)).body
            if hasattr(top, "name")}
    names = {f.name for record in (AGWitness, RefutationData) for f in dataclasses.fields(record)}
    spelled = {node.value for node in ast.walk(defs["report_document"])
               if isinstance(node, ast.Constant) and node.value in names}
    assert not spelled, f"report_document names record fields: {sorted(spelled)}"
    none_tests = [node.lineno for node in ast.walk(defs["write_survey_csv"])
                  if isinstance(node, ast.Compare)
                  and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)]
    assert len(none_tests) == 1, f"write_survey_csv tests for None at {none_tests}"

"""Defining ideals of Rees algebras: shapes, bidegrees, substitution checks.

The elimination results are cross-checked against sympy's Groebner engine,
which plays the independent elimination oracle here.
"""

import random

import sympy
import pytest

from agrees import engine, groebner, rees
from agrees.errors import NotZeroDimensional
from agrees.families import coordinate_twin, make_family
from agrees.fields import QQ, PrimeField
from agrees.groebner import Ideal
from agrees.parse import parse_ideal_spec
from agrees.poly import BASE_RING, Polynomial, presentation_ring
from agrees.repro import random_staircase
from agrees.rees import (
    rees_defining_ideal,
    substitution_check,
)

from oracles import reference_grevlex_key, sympy_same_ideal, to_sympy


FP = PrimeField(2147483647)


def ideal(text, field=QQ):
    return Ideal(parse_ideal_spec(text, BASE_RING, field))


def sympy_elimination(gen_texts):
    """t-free part of the kernel basis, computed entirely in sympy."""
    x, y, t = sympy.symbols("x y t")
    Ts = sympy.symbols(f"T1:{len(gen_texts) + 1}")
    gens = []
    for i, text in enumerate(gen_texts):
        expr = sympy.sympify(text.replace("^", "**"))
        gens.append(Ts[i] - expr * t)
    G = sympy.groebner(gens, t, x, y, *Ts, order="lex")
    return [g for g in G.exprs if t not in g.free_symbols], (x, y) + Ts


def test_t_degree_rejects_a_mixed_grading():
    ring = presentation_ring(2)  # x, y, T1, T2
    p = Polynomial(ring, QQ, {(1, 0, 1, 0): QQ.one, (0, 0, 1, 1): QQ.one})  # x*T1 + T1*T2
    assert rees._t_degree(Polynomial(ring, QQ, {(1, 0, 1, 0): QQ.one})) == 1
    with pytest.raises(RuntimeError):
        rees._t_degree(p)


def test_parameter_ideal_pencil():
    pres = rees_defining_ideal(ideal("x^3, y^6"))
    assert [str(g) for g in pres.defining_gens] == ["y^6*T1 - x^3*T2"]
    assert pres.bidegrees == ((1, 3),)


def test_maximal_ideal_pencil():
    pres = rees_defining_ideal(ideal("x, y"))
    assert [str(g) for g in pres.defining_gens] == ["y*T1 - x*T2"]
    assert pres.bidegrees == ((1, 1),)


def test_three_generated_stable_shape():
    I = ideal("x^3, x^2 y^2, y^4")
    pres = rees_defining_ideal(I)
    tdegs = sorted(t for t, _ in pres.bidegrees)
    assert tdegs == [1, 1, 2]
    assert substitution_check(I, pres)
    # elimination oracle: same ideal as sympy's t-free kernel basis
    oracle, names = sympy_elimination(["x^3", "x^2*y^2", "y^4"])
    mine = [to_sympy(g, names) for g in pres.defining_gens]
    assert sympy_same_ideal(mine, oracle, names)


def test_four_generated_bidegrees():
    I = ideal("x^3, x^2 y^3, x y^5, y^6")
    pres = rees_defining_ideal(I)
    # frozen from the sympy elimination oracle (the lex basis carries one
    # redundant degree-4 element; the minimal multiset is three linear forms
    # and three quadrics)
    assert sorted(t for t, _ in pres.bidegrees) == [1, 1, 1, 2, 2, 2]
    assert substitution_check(I, pres)
    oracle, names = sympy_elimination(["x^3", "x^2*y^3", "x*y^5", "y^6"])
    mine = [to_sympy(g, names) for g in pres.defining_gens]
    assert sympy_same_ideal(mine, oracle, names)


@pytest.mark.parametrize("beta,n", [(1, 2), (2, 3), (3, 5), (4, 6)])
def test_order_two_contracted_shapes(beta, n):
    I = ideal(f"x^2, x y^{beta}, y^{n}")
    assert sorted(t for t, _ in rees_defining_ideal(I).bidegrees) == [1, 1, 2]


@pytest.mark.parametrize("text", ["x^3, x^2 y, x y^2, y^3", "x^3, x^2 y^2, x y^3, y^5",
                                  "x^2, x y^3, y^5"])
def test_presentation_is_sorted_by_bidegree_then_grevlex_lead(text):
    """A presentation lists its generators by T-degree, then xy-degree,
    then leading monomial in grevlex, the lead found here by the tuple key;
    each input has generators tied on the bidegree."""
    def key(g):
        lead = max(g.terms, key=reference_grevlex_key)
        return (sum(lead[2:]), min(e[0] + e[1] for e in g.terms), reference_grevlex_key(lead))

    gens = rees_defining_ideal(ideal(text)).defining_gens
    assert list(gens) == sorted(gens, key=key)
    bidegrees = [key(g)[:2] for g in gens]
    assert len(set(bidegrees)) < len(bidegrees)


def test_substitution_check_random_family():
    for text in ("x^2, x y^4, y^5", "x^4, x^3 y^3, x^2 y^5, x y^7, y^8"):
        I = ideal(text)
        assert substitution_check(I, rees_defining_ideal(I))


def test_non_primary_input_rejected():
    with pytest.raises(NotZeroDimensional):
        rees_defining_ideal(ideal("x^2, x y"))


def test_no_size_or_degree_cap():
    # Buchberger terminates on every input: bases of degree above 40 present
    rows = ((14, 6, 9), (14, 7, 9), (14, 8, 9))
    cases = [make_family("contracted-o3", dict(zip(("n", "alpha", "beta"), row)))
             for row in rows]
    for I in cases:
        pres = rees_defining_ideal(I)
        assert pres.bidegrees == ((1, 1), (1, 1), (1, 1), (2, 0), (2, 0), (2, 0), (3, 0))
        assert substitution_check(I, pres)
    I = ideal("x^41, y^41")
    pres = rees_defining_ideal(I)
    assert pres.bidegrees == ((1, 41),)
    assert substitution_check(I, pres)


def test_presentation_is_local_at_the_origin():
    # zeros along x = 1: the Nakayama prune at (x, y, T) keeps generators of
    # the kernel's localization there, which generate less than the kernel
    x, y = (Polynomial.variable(BASE_RING, QQ, v) for v in ("x", "y"))
    u = x - Polynomial.one(BASE_RING, QQ)
    I = Ideal([x * u ** 4, u ** 3 * y, u * y ** 3, y ** 4])
    pres = rees_defining_ideal(I)
    assert pres.bidegrees == ((1, 0), (1, 0), (1, 1))
    assert substitution_check(I, pres)
    t_free = rees._t_free_kernel(list(I.generators), QQ, None)
    assert len(t_free) == 12
    assert not groebner.ideal_equal(Ideal(list(pres.defining_gens)), Ideal(t_free))


def test_mixed_generator_presentation():
    # non-monomial generators still present exactly
    I = ideal("x^2 + y^3, y^4, x y^2")
    pres = rees_defining_ideal(I)
    assert substitution_check(I, pres)
    assert all(t >= 1 for t, _ in pres.bidegrees)


@pytest.mark.parametrize("texts", [
    ["x^2 + y^3", "y^4", "x*y^2"],
    # its x -> x+2y twin, expanded
    ["x^2 + 4*x*y + 4*y^2 + y^3", "y^4", "x*y^2 + 2*y^3"],
], ids=["mixed", "mixed-twin"])
def test_mixed_presentation_matches_sympy_elimination(texts):
    # ideal equality with sympy's t-free kernel catches a missing generator,
    # which the substitution check alone cannot
    I = ideal(", ".join(texts))
    pres = rees_defining_ideal(I)
    oracle, names = sympy_elimination(texts)
    mine = [to_sympy(g, names) for g in pres.defining_gens]
    assert sympy_same_ideal(mine, oracle, names)
    assert not sympy_same_ideal(mine[1:], oracle, names)


def test_twin_presentation_forms_no_polynomial_product(monkeypatch):
    # the elimination's inputs T_i - f_i*t are term dicts, f_i's terms
    # shifted by t, so a twin's presentation runs no Polynomial.__mul__,
    # and it is still sympy's t-free kernel
    texts = ["x^2 + 4*x*y + 4*y^2 + y^3", "y^4", "x*y^2 + 2*y^3"]
    I = ideal(", ".join(texts))
    formed = []
    real = Polynomial.__mul__
    with monkeypatch.context() as m:
        m.setattr(Polynomial, "__mul__", lambda *args: formed.append(1) or real(*args))
        m.setattr(Polynomial, "__rmul__", lambda *args: formed.append(1) or real(*args))
        pres = rees_defining_ideal(I)
    assert formed == []
    oracle, names = sympy_elimination(texts)
    assert sympy_same_ideal([to_sympy(g, names) for g in pres.defining_gens], oracle, names)
    assert substitution_check(I, pres)


# -- the T-degree bound -------------------------------------------------------------

def _unbounded(I, monkeypatch):
    """The presentation with both bases run without the weight bound, which
    also takes the prune path."""
    with monkeypatch.context() as m:
        m.setattr(rees, "_relation_type_bound", lambda I: None)
        return rees_defining_ideal(I)


def _monomial_ideal(exps, field):
    return Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])


def _case(I, field=QQ):
    """The ideal of a spec, of a family (name, params), or of ("twin",
    either): the x -> x + 2y twin of that monomial ideal."""
    if isinstance(I, str):
        return ideal(I, field)
    if I[0] == "twin":
        source = _case(I[1], field)
        return coordinate_twin([g.monomial_exponent() for g in source.generators], 2, field)
    return make_family(*I, field=field)


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_bounded_presentation_matches_unbounded(field, monkeypatch):
    """Where r <= 1 both bases stop at T-degree r + 1; the presentation is
    the same, generator for generator and in order, and the bounded t-free
    list is exactly the part of the unbounded one of T-degree <= r + 1."""
    rng = random.Random(29)
    stairs = [random_staircase(rng, 6, 3).gens for _ in range(14)]
    cases = ([_monomial_ideal(g, field) for g in stairs]
             + [coordinate_twin(g, 2, field) for g in stairs[:5]]
             + [ideal(text, field) for text in ("x, y", "x^3, y^6", "x^2, x*y, y^2, x^2 + x*y")])
    bounds = [rees._relation_type_bound(I) for I in cases]
    assert bounds[-3:] == [1, 1, 2]  # r = 0, r = 0, and r = 1 with a redundant generator
    assert sum(b is not None for b in bounds) >= 15
    for I, bound in zip(cases, bounds):
        got, want = rees_defining_ideal(I), _unbounded(I, monkeypatch)
        assert got.defining_gens == want.defining_gens
        assert got.bidegrees == want.bidegrees
        if bound is not None:
            assert max(t for t, _ in got.bidegrees) <= bound
            gens = [g for g in I.generators if not g.is_zero]
            full = rees._t_free_kernel(gens, field, None)
            assert (rees._t_free_kernel(gens, field, bound)
                    == [g for g in full if rees._t_degree(g) <= bound])


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@pytest.mark.parametrize("I", [
    "x^4, x^3*y, x*y^3, y^4",
    ("contracted-o3", {"n": 6, "alpha": 2, "beta": 5}),
    ("contracted-o3", {"n": 6, "alpha": 3, "beta": 4}),
], ids=["not-ratliff-russell-closed", "co3-6-2-5", "co3-6-3-4"])
def test_reduction_number_two_runs_unbounded(I, field):
    # r = 2, so no bound is proven; these keep their T-degree 3 generators
    I = ideal(I, field) if isinstance(I, str) else make_family(*I, field=field)
    assert engine.find_reduction(I).reduction_number == 2
    assert rees._relation_type_bound(I) is None
    assert max(t for t, _ in rees_defining_ideal(I).bidegrees) == 3


def test_zeros_away_from_the_origin_run_unbounded():
    # r = 0 at the origin, but the bound is proven only when V(I) is the origin
    I = ideal("x^2 - x^3, y^2")
    assert engine.find_reduction(I).reduction_number == 0
    assert rees._relation_type_bound(I) is None
    pres = rees_defining_ideal(I)
    assert [str(g) for g in pres.defining_gens] == ["x^3*T2 + y^2*T1 - x^2*T2"]
    assert substitution_check(I, pres)


@pytest.mark.parametrize("I,field,seen_want,read_want,pruned_want", [
    ("x^3, x^2 y^3, x y^5, y^6", QQ, [], [2], []),  # certified: the kernel read off its fibers
    (("contracted-o3", {"n": 5, "alpha": 2, "beta": 3}), QQ, [], [2], [2]),  # the count fails
    ("x^4, x^3*y, x*y^3, y^4", QQ, [None], [], [None]),  # r = 2
    (("twin", ("contracted-o3", {"n": 5, "alpha": 2, "beta": 3})), QQ, [2], [], [2]),
    ("5*y^4, 2/3*x^3, x^2*y^2", QQ, [], [2], []),
    ("5*y^4, 2/3*x^3, x^2*y^2", FP, [], [2], []),
    (("twin", "5*y^4, 2/3*x^3, x^2*y^2"), QQ, [2], [], []),
    (("twin", "5*y^4, 2/3*x^3, x^2*y^2"), FP, [2], [], []),
    ("x^4, x^3*y, x*y^3, y^4", FP, [None], [], [None]),
], ids=["x^3, x^2 y^3, x y^5, y^6-2", "co3-5-2-3-2", "x^4, x^3*y, x*y^3, y^4-None",
        "co3-5-2-3-twin-2", "multipliers-q", "multipliers-fp", "multipliers-twin-q",
        "multipliers-twin-fp", "r2-fp"])
def test_both_bases_get_the_bound(I, field, seen_want, read_want, pruned_want, monkeypatch):
    """The kernel basis and the prune both get the bound: a monomial input
    with the bound reads its kernel off its fibers, a two-term generator
    runs the bounded elimination, and r = 2 runs it unbounded; the prune,
    where the count fails, reads its relations off that basis's S-pairs up
    to the same bound and runs no Buchberger.  The bound's reduction search
    runs before the spies, as the bases it builds are a twin's own, not
    the presentation's."""
    I = _case(I, field)
    rees._relation_type_bound(I)
    seen, read, pruned = [], [], []
    real, real_read = groebner._buchberger, groebner._fiber_kernel

    def record(*args, **kwargs):
        seen.append(kwargs.get("max_weight"))
        return real(*args, **kwargs)

    def record_read(gens, target, bound):
        read.append(bound)
        return real_read(gens, target, bound)

    def record_prune(gens, key, max_weight=None):
        pruned.append(max_weight)
        return groebner._nakayama_prune(gens, key, max_weight)

    monkeypatch.setattr(groebner, "_buchberger", record)
    monkeypatch.setattr(rees, "_buchberger", record)
    monkeypatch.setattr(rees, "_fiber_kernel", record_read)
    monkeypatch.setattr(rees, "_nakayama_prune", record_prune)
    pres = rees_defining_ideal(I)
    assert (seen, read, pruned) == (seen_want, read_want, pruned_want)
    assert substitution_check(I, pres)


def _takes_the_prune(I, monkeypatch):
    """Whether `rees_defining_ideal(I)` calls the Nakayama prune."""
    calls = []

    def record(*args, **kwargs):
        calls.append(1)
        return groebner._nakayama_prune(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(rees, "_nakayama_prune", record)
        rees_defining_ideal(I)
    return bool(calls)


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_certified_presentation_matches_the_prune(field, monkeypatch):
    """A presentation certified minimal by counting is the prune of the same
    bounded t-free basis, generator for generator and in order; inputs whose
    count fails, with a redundant generator or with no bound take the
    prune."""
    rng = random.Random(47)
    stairs = [random_staircase(rng, 7, 6).gens for _ in range(16)]
    cases = ([_monomial_ideal(g, field) for g in stairs]
             + [coordinate_twin(g, 2, field) for g in stairs])
    certified = []  # s of each certified input
    for I in cases:
        gens = [g for g in I.generators if not g.is_zero]
        bound = rees._relation_type_bound(I)
        pruned = groebner._nakayama_prune(rees._t_free_kernel(gens, field, bound),
                                          rees._prune_key(len(gens)), max_weight=bound)
        assert rees_defining_ideal(I).defining_gens == tuple(pruned)
        if not _takes_the_prune(I, monkeypatch):
            certified.append(len(gens))
    assert len(certified) >= 18
    assert sum(s >= 3 for s in certified) >= 8  # D = 2, where mu(I^2) enters

    falls_back = [
        make_family("contracted-o3", {"n": 5, "alpha": 2, "beta": 3}, field=field),
        ideal("x^2, x*y, y^2, x^2 + x*y", field),  # one generator redundant
        ideal("x^4, x^3*y, x*y^3, y^4", field),  # r = 2 from here on
        make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 5}, field=field),
        make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 4}, field=field),
    ]
    for I in falls_back:
        assert _takes_the_prune(I, monkeypatch)


def test_a_redundant_generator_is_never_certified():
    # mu(I) = 3 < s = 4, so P_1 != 0 and C(s+1, 2) - mu(I^2) is no lower
    # bound: a list with exactly the counts the certificate asks of s = 4
    # generators is still not certified
    I = ideal("x^2, x*y, y^2, x^2 + x*y")
    assert rees._relation_type_bound(I) == 2
    counted = [1] * 3 + [2] * (10 - engine._mu(engine._power(I, 2)))  # T-degrees
    assert not rees._minimal_by_count(counted, 4, 2, I)


@pytest.mark.parametrize("I", ["x^3, x^2 y^3, x y^5, y^6", ("twin", "x^3, x^2 y^3, x y^5, y^6")],
                         ids=["fibers", "elimination"])
def test_count_path_reads_each_key_once(I, monkeypatch):
    """A presentation certified by counting computes each basis element's
    key once: the certificate, the order and the bidegrees all read it, so
    `_t_degree` runs once per element."""
    I = _case(I, QQ)
    assert not _takes_the_prune(I, monkeypatch)
    calls = []
    real = rees._t_degree

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(rees, "_t_degree", counted)
    pres = rees_defining_ideal(I)
    assert sorted(map(str, calls)) == sorted(map(str, pres.defining_gens))


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@pytest.mark.parametrize("I,seed,want", [
    ("x^3, y^6", 0, []),
    ("x^3, x^2 y^3, x y^5, y^6", 0, []),
    (("contracted-o3", {"n": 6, "alpha": 2, "beta": 3}), 0, []),  # a vertex split
    (("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}), 0, []),  # NOT_AG
    (("twin", "x^3, x^2 y^3, x y^5, y^6"), 0, ["agrees.rees._buchberger"]),
    (("twin", "x^3, x^2 y^3, x y^5, y^6"), 7, ["agrees.rees._buchberger"]),
], ids=["r0", "r1", "co3-6-2-3", "co3-6-3-5", "r1-twin", "r1-twin-seed7"])
def test_presentation_after_classify_runs_only_its_elimination(I, seed, want, field,
                                                                monkeypatch):
    # a monomial I's bound is read off lengths, mu(I), mu(I^2) off staircase
    # products and its kernel off its fibers: after classify(I) the
    # presentation makes no rank test and runs no Buchberger.  Its twin
    # asks `find_reduction` once, which returns the reduction classify kept
    # on I, at any seed, so it searches none (no `_reduction_number`, no
    # Nakayama test `_spans`), and it runs Buchberger once, on its own
    # elimination
    I = _case(I, field)
    engine.classify(I, engine.ClassifyConfig(seed=seed))
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def record(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    spy(engine, "find_reduction")
    spy(engine, "_reduction_number")
    spy(engine, "_spans")
    spy(groebner, "_buchberger")
    spy(rees, "_buchberger")
    spy(rees, "_nakayama_prune")
    pres = rees_defining_ideal(I)
    assert calls == ["agrees.engine.find_reduction"] + want
    assert substitution_check(I, pres)


def test_presentation_after_a_failed_search_searches_no_more(monkeypatch):
    # the fp x -> x + 2y twin of x^10, x^3 y^7, y^10 has no reduction with
    # r <= 4 among the fixed pairs: classify keeps the NoReductionFound on
    # I, so the presentation's `find_reduction` raises it again and makes
    # no rank test of its own, and it is the presentation of a fresh copy,
    # which searches
    exps = [(10, 0), (3, 7), (0, 10)]
    I = coordinate_twin(exps, 2, FP)
    assert engine.classify(I).verdict is engine.Verdict.UNKNOWN
    calls = []
    real = engine._reduction_number
    with monkeypatch.context() as m:
        m.setattr(engine, "_reduction_number", lambda *args: calls.append(args) or real(*args))
        pres = rees_defining_ideal(I)
    assert calls == []
    assert pres == rees_defining_ideal(coordinate_twin(exps, 2, FP))


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_presentation_after_classify_checks_the_origin_once(field, monkeypatch):
    # classify keeps whether V(I) is the origin on I, so the presentation's
    # own check of the twin classified at seed 7 is a lookup: it tests no
    # membership of x^l or y^l in I (`_contains_all`, on integer rows)
    I = _case(("twin", "x^3, x^2 y^3, x y^5, y^6"), field)
    engine.classify(I, engine.ClassifyConfig(seed=7))
    calls = []
    real_origin, real_contains = rees.is_origin_primary, groebner._contains_all
    monkeypatch.setattr(rees, "is_origin_primary",
                        lambda J: calls.append("origin") or real_origin(J))
    monkeypatch.setattr(groebner, "_contains_all",
                        lambda *args: calls.append("contains") or real_contains(*args))
    rees_defining_ideal(I)
    assert calls == ["origin"]
    fresh = _case(("twin", "x^3, x^2 y^3, x y^5, y^6"), field)
    assert groebner.is_origin_primary(fresh) and calls[1:] == ["contains"]


# -- the fiber read -------------------------------------------------------------

def _fiber_cases(field, rng, count):
    """Generator lists of random staircases, each with constant multipliers,
    one generator duplicated and one redundant multiple of a corner added,
    in shuffled order."""
    cases = []
    for _ in range(count):
        exps = list(random_staircase(rng, 7, 4).gens)
        a, b = rng.choice(exps)
        exps += [rng.choice(exps), (a + rng.randint(0, 2), b + rng.randint(1, 2))]
        gens = [Polynomial.monomial(BASE_RING, field, e,
                                    field.fraction(rng.choice([1, -1, 2, 5]), rng.choice([1, 3])))
                for e in exps]
        rng.shuffle(gens)
        cases.append(gens)
    return cases


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_fiber_read_is_the_bounded_elimination(field):
    """A monomial ideal's kernel read off its fibers is the elimination
    basis bounded at T-degree D, element for element and in order, for
    D = 1 and D = 2, whatever the generators' order, multipliers,
    repetitions and redundancy."""
    fixed = [parse_ideal_spec(text, BASE_RING, field)
             for text in ("x, y, x", "x^2, 2*x^2, y^3", "5*y^4, 2/3*x^3, x^2*y^2")]
    for gens in fixed + _fiber_cases(field, random.Random(61), 200):
        for bound in (1, 2):
            got = groebner._fiber_kernel(gens, presentation_ring(len(gens)), bound)
            want = rees._t_free_kernel(gens, field, bound)
            assert got == want
            assert [str(g) for g in got] == [str(g) for g in want]


def test_fiber_read_by_hand():
    # T1, T2, T3 -> 5y^4 t, 2/3 x^3 t, x^2y^2 t: each tail is its lead's
    # image over the tail monomial's multiplier, the lead's fiber least
    gens = parse_ideal_spec("5*y^4, 2/3*x^3, x^2*y^2", BASE_RING, QQ)
    assert [str(g) for g in groebner._fiber_kernel(gens, presentation_ring(3), 2)] == [
        "x^2*T1 - 5*y^2*T3", "y^2*T2 - 2/3*x*T3", "x*T1*T2 - 10/3*T3^2"]
    assert [str(g) for g in groebner._fiber_kernel(gens, presentation_ring(3), 1)] == [
        "x^2*T1 - 5*y^2*T3", "y^2*T2 - 2/3*x*T3"]

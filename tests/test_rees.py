"""Defining ideals of Rees algebras: shapes, bidegrees, substitution checks.

The elimination results are cross-checked against sympy's Groebner engine,
which plays the independent elimination oracle here.
"""

import sympy
import pytest

from agrees.errors import NotZeroDimensional
from agrees.fields import QQ
from agrees.groebner import Ideal
from agrees.parse import parse_ideal_spec
from agrees.poly import BASE_RING
from agrees.rees import (
    presentation_bidegrees,
    rees_defining_ideal,
    substitution_check,
)

from oracles import sympy_same_ideal, to_sympy


def ideal(text):
    return Ideal(parse_ideal_spec(text, BASE_RING, QQ))


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
    assert sorted(t for t, _ in presentation_bidegrees(I)) == [1, 1, 2]


def test_substitution_check_random_family():
    for text in ("x^2, x y^4, y^5", "x^4, x^3 y^3, x^2 y^5, x y^7, y^8"):
        I = ideal(text)
        assert substitution_check(I, rees_defining_ideal(I))


def test_non_primary_input_rejected():
    with pytest.raises(NotZeroDimensional):
        rees_defining_ideal(ideal("x^2, x y"))


def test_elimination_budget_guard():
    from agrees.errors import EliminationBudgetExceeded

    with pytest.raises(EliminationBudgetExceeded):
        rees_defining_ideal(ideal("x^3, x^2 y^3, x y^5, y^6"), max_basis=3)
    with pytest.raises(EliminationBudgetExceeded):
        rees_defining_ideal(ideal("x^3, x^2 y^3, x y^5, y^6"), max_deg=4)


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

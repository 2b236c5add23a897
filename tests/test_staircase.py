"""Staircases, Newton-polygon closure, and contractedness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from agrees.errors import EmptyInput, NotZeroDimensional
from agrees.fields import QQ
from agrees import engine
from agrees.groebner import colength, ideal_of_staircase, normal_form, staircase_of_ideal, Ideal
from agrees.parse import parse_ideal_spec
from agrees.poly import BASE_RING, Polynomial, rees_ring
from agrees.staircase import (
    Staircase,
    adjoint,
    closure_colength,
    is_contracted,
    is_integrally_closed,
    mono_colength,
    newton_closure,
    render_staircase,
    staircase_colon,
    staircase_intersection,
    staircase_normalize,
    staircase_power,
    staircase_product,
)

from oracles import (
    closure_power_oracle,
    howald_adjoint_oracle,
    ideal_pow,
    lattice_colength,
    lattice_intersection,
    lattice_product,
)


def stair(*pairs):
    return staircase_normalize(pairs)


def ideal(text):
    return Ideal(parse_ideal_spec(text, BASE_RING, QQ))


def random_stair(rng, max_exp=8, extras=3):
    a = rng.randint(1, max_exp)
    b = rng.randint(1, max_exp)
    pts = [(a, 0), (0, b)]
    if a > 1 and b > 1:
        for _ in range(rng.randint(0, extras)):
            pts.append((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    return staircase_normalize(pts)


# -- normalization ---------------------------------------------------------------

def test_normalize_drops_divisible_pair():
    s = stair((3, 0), (2, 3), (2, 4), (1, 5), (0, 6))
    assert s.gens == ((3, 0), (2, 3), (1, 5), (0, 6))


def test_normalize_keeps_antichain_sorted():
    s = stair((2, 0), (0, 5), (1, 4))
    assert s.gens == ((2, 0), (1, 4), (0, 5))


def test_normalize_singleton():
    assert stair((1, 1)).gens == ((1, 1),)


def test_normalize_empty_rejected():
    with pytest.raises(EmptyInput):
        staircase_normalize([])


def test_antichain_invariant_random():
    rng = random.Random(3)
    for _ in range(100):
        s = random_stair(rng)
        xs = [a for a, _ in s.gens]
        ys = [b for _, b in s.gens]
        assert xs == sorted(xs, reverse=True) and len(set(xs)) == len(xs)
        assert ys == sorted(ys) and len(set(ys)) == len(ys)


# -- colength ---------------------------------------------------------------------

def test_colength_examples():
    assert mono_colength(stair((3, 0), (0, 6))) == 18
    assert mono_colength(stair((3, 0), (2, 3), (1, 5), (0, 6))) == 14  # 6+5+3
    assert mono_colength(stair((2, 0), (1, 1), (0, 3))) == 4  # {1, x, y, y^2}


def test_colength_requires_m_primary():
    with pytest.raises(NotZeroDimensional):
        mono_colength(Staircase(((2, 1),)))


def test_colength_matches_lattice_oracle():
    rng = random.Random(5)
    for _ in range(50):
        s = random_stair(rng, max_exp=6)
        assert mono_colength(s) == lattice_colength(list(s.gens))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 12), st.integers(1, 12),
       st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6))
def test_corner_sum_matches_lattice_count(a, b, inner):
    """mono_colength sums (a_i - a_{i+1}) * b_{i+1} over consecutive corners;
    the lattice oracle counts the points outside the ideal one by one."""
    s = staircase_normalize([(a, 0), (0, b)] + inner)
    assert mono_colength(s) == lattice_colength(list(s.gens))


def test_corner_sum_edge_cases():
    assert mono_colength(stair((0, 0))) == 0
    assert mono_colength(stair((4, 0), (0, 0))) == 0
    assert colength(Ideal([Polynomial.one(BASE_RING, QQ)])) == 0
    assert mono_colength(stair((5, 0), (0, 1))) == 5
    for s in (stair((3, 0), (1, 2)), stair((2, 1), (0, 3)), stair((2, 2))):
        with pytest.raises(NotZeroDimensional):
            mono_colength(s)
    for text in ("x^2", "x^3, x*y^2", "x*y"):
        with pytest.raises(NotZeroDimensional):
            colength(ideal(text))


def test_staircase_is_read_once_per_ideal(monkeypatch):
    """An ideal's staircase is read from its generators once and cached on
    it, None included, and always equals staircase_normalize of their
    exponents; an ideal made by ideal_of_staircase or by a product of
    staircases starts with it and reads nothing."""
    from agrees import groebner

    reads = []
    real_read = groebner._read_staircase

    def read(generators):
        reads.append(generators)
        return real_read(generators)

    monkeypatch.setattr(groebner, "_read_staircase", read)
    rng = random.Random(29)
    for _ in range(40):
        s = random_stair(rng)
        exps = list(s.gens) + [(a + 1, b) for a, b in s.gens[:2]]
        rng.shuffle(exps)
        I = Ideal([Polynomial.monomial(BASE_RING, QQ, e, QQ.from_int(rng.choice([1, -2])))
                   for e in exps])
        got = staircase_of_ideal(I)
        assert got == s == staircase_normalize(exps) and staircase_of_ideal(I) is got
        assert reads == [I.generators]
        reads.clear()
        J = ideal_of_staircase(staircase_product(s, random_stair(rng)), BASE_RING, QQ)
        for K in (J, engine._mul(I, J), engine._mul(J, J)):
            cached = staircase_of_ideal(K)
            assert cached is staircase_of_ideal(K)
            assert cached == staircase_normalize(g.monomial_exponent() for g in K.generators)
        assert reads == []
    for K in (ideal("x^2 - y, y^3"), Ideal([Polynomial.zero(BASE_RING, QQ)]),
              Ideal([Polynomial.variable(rees_ring(2), QQ, "T1")])):
        assert staircase_of_ideal(K) is None and staircase_of_ideal(K) is None
        assert reads == [K.generators]
        reads.clear()


# -- product / intersection / colon ------------------------------------------------

def test_product_and_intersection_match_oracle():
    rng = random.Random(7)
    for _ in range(50):
        A = random_stair(rng, max_exp=5, extras=2)
        B = random_stair(rng, max_exp=5, extras=2)
        assert list(staircase_product(A, B).gens) == lattice_product(list(A.gens), list(B.gens))
        assert list(staircase_intersection(A, B).gens) == \
            lattice_intersection(list(A.gens), list(B.gens))


def test_colon_shifts():
    Q = stair((3, 0), (0, 6))
    I = stair((3, 0), (2, 3), (1, 5), (0, 6))
    assert staircase_colon(Q, I).gens == ((2, 0), (1, 1), (0, 3))


# -- integral closure ---------------------------------------------------------------

def test_closure_fills_hull_gap():
    s = stair((2, 0), (1, 4), (0, 5))
    closed = newton_closure(s)
    assert closed.gens == ((2, 0), (1, 3), (0, 5))
    # oracle anchor: (x*y^3)^2 already lies in I^2
    I = ideal_of_staircase(s, BASE_RING, QQ)
    xy3 = Polynomial.monomial(BASE_RING, QQ, (2, 6))
    assert normal_form(xy3, ideal_pow(I, 2).groebner_basis()).is_zero


def test_closure_gains_expected_monomial():
    s = stair((2, 0), (1, 3), (0, 4))  # m=2, n=4 with n >= 2m
    closed = newton_closure(s)
    assert closed.contains((1, 2)) and not s.contains((1, 2))


def test_closed_staircase_fixed():
    s = stair((2, 0), (1, 1), (0, 3))
    assert newton_closure(s) == s


def test_closure_is_a_closure_operator():
    rng = random.Random(11)
    for _ in range(60):
        s = random_stair(rng, max_exp=7)
        closed = newton_closure(s)
        # extensive
        assert all(closed.contains(g) for g in s.gens)
        # idempotent
        assert newton_closure(closed) == closed
    for _ in range(40):
        small = random_stair(rng, max_exp=6)
        bigger = staircase_normalize(
            list(small.gens) + [(rng.randint(0, 5), rng.randint(0, 5))])
        if not bigger.is_m_primary:
            continue
        ca, cb = newton_closure(small), newton_closure(bigger)
        # monotone: small <= bigger implies closure(small) <= closure(bigger)
        assert all(cb.contains(g) for g in ca.gens)


def test_closure_matches_power_oracle_sample():
    rng = random.Random(13)
    for _ in range(20):
        s = random_stair(rng, max_exp=8)
        assert sorted(newton_closure(s).gens) == sorted(closure_power_oracle(list(s.gens)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(1, 30), st.integers(1, 30),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8))
def test_pick_count_is_the_closure_colength(a, b, inner):
    """closure_colength, Pick's count over the Newton polygon's edges, is the
    corner sum of the closure newton_closure builds column by column; a
    point (0, 0) among `inner` makes the unit ideal."""
    s = staircase_normalize([(a, 0), (0, b)] + inner)
    assert closure_colength(s) == mono_colength(newton_closure(s))


def test_integrally_closed_is_the_closure_by_lengths():
    rng = random.Random(19)
    for _ in range(60):
        s = random_stair(rng, max_exp=7)
        assert is_integrally_closed(s) == (newton_closure(s) == s)
    assert is_integrally_closed(stair((2, 0), (1, 1), (0, 3)))
    assert not is_integrally_closed(stair((2, 0), (0, 5)))


# -- the adjoint ------------------------------------------------------------------

def test_adjoint_of_a_maximal_ideal_power_is_the_next_lower_power():
    m = stair((1, 0), (0, 1))
    for n in range(1, 9):
        assert adjoint(staircase_power(m, n)) == staircase_power(m, n - 1)


def test_adjoint_matches_howalds_rule():
    # against lattice points strictly inside the Newton polyhedron, tested
    # with exact Fractions on the generators' segments, not with adjoint's
    # integer edges; closed or not
    rng = random.Random(23)
    for _ in range(200):
        s = random_stair(rng, max_exp=9, extras=4)
        assert list(adjoint(s).gens) == howald_adjoint_oracle(list(s.gens)), s
    assert adjoint(stair((2, 0), (0, 2))).gens == ((1, 0), (0, 1))  # not Q : I = (1)


def test_adjoint_needs_a_primary_staircase():
    with pytest.raises(NotZeroDimensional):
        adjoint(stair((2, 0), (1, 1)))


# -- contractedness and gaps ---------------------------------------------------------

def test_contracted_examples():
    assert is_contracted(stair((3, 0), (2, 3), (1, 5), (0, 6)))
    assert not is_contracted(stair((3, 0), (2, 3), (0, 6)))
    assert not is_contracted(stair((2, 0), (0, 2)))


def test_contracted_accepts_polynomial_ideals():
    # `is_contracted` reads a staircase; a polynomial ideal's answer is the
    # report's.  The square of the maximal ideal written with a
    # non-monomial generator
    I = Ideal(parse_ideal_spec("x^2, x y, y^2 + x^2", BASE_RING, QQ))
    assert staircase_of_ideal(I) is None and engine.classify(I).contracted
    # two generators with order two cannot be contracted
    J = Ideal(parse_ideal_spec("x^2 + y^5, y^3", BASE_RING, QQ))
    assert staircase_of_ideal(J) is None and not engine.classify(J).contracted


def _gap_length(s):
    """Length of the closure modulo the ideal; zero iff integrally closed."""
    return mono_colength(s) - mono_colength(newton_closure(s))


def test_gap_length_examples():
    assert _gap_length(stair((2, 0), (1, 4), (0, 5))) == 1
    # lattice oracle for the pure-power staircase
    s = stair((3, 0), (0, 6))
    expected = lattice_colength([(3, 0), (0, 6)]) - lattice_colength(
        closure_power_oracle([(3, 0), (0, 6)]))
    assert _gap_length(s) == expected == 6
    assert _gap_length(stair((2, 0), (1, 1), (0, 3))) == 0


def test_single_gap_monomial():
    s = stair((2, 0), (1, 4), (0, 5))
    closed = newton_closure(s)
    gaps = [
        (a, b)
        for a in range(3)
        for b in range(6)
        if closed.contains((a, b)) and not s.contains((a, b))
    ]
    assert gaps == [(1, 3)]


def test_products_of_contracted_are_contracted():
    rng = random.Random(17)
    found = 0
    while found < 25:
        A = random_stair(rng, max_exp=6)
        B = random_stair(rng, max_exp=6)
        if not (is_contracted(A) and is_contracted(B)):
            continue
        found += 1
        assert is_contracted(staircase_product(A, B))


def test_maximal_ideal_powers_contracted():
    m = stair((1, 0), (0, 1))
    for k in range(1, 9):
        p = staircase_power(m, k)
        assert len(p.gens) == k + 1 == p.order() + 1


def test_render_staircase():
    art = render_staircase(stair((2, 0), (1, 1)))
    assert art == ".##\n..#"
    art2 = render_staircase(stair((2, 0), (1, 1), (0, 3)))
    assert art2.splitlines()[0] == "###"
    assert art2.splitlines()[-1] == "..#"

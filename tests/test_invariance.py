"""Metamorphic invariance of the classifier on generated monomial ideals.

A verdict is a statement about the ideal in k[x,y]_(x,y), so it and the
numbers behind it must not depend on the names of the variables, on the
choice of generators or on the coefficient field.  The fields checked here
are those of `_invariants`: the verdict, mu of the colon, the refuter's
min_sum and threshold, the colength and mu(I).

The `--rees` bidegrees are compared only under constant multipliers of the
generators.  They are not yet a function of the local ideal: the lowest
xy-degree of a generator depends on which minimal generators the reduced
basis offers, and a coordinate twin can print other bidegrees than its
source (ROADMAP item 13), which `test_rees_bidegrees_of_a_twin` pins.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from agrees.engine import classify
from agrees.families import coordinate_twin, family_exponents
from agrees.fields import QQ, PrimeField
from agrees.groebner import Ideal
from agrees.poly import BASE_RING, Polynomial
from agrees.rees import rees_defining_ideal
from agrees.staircase import staircase_normalize

from test_engine import assert_class_route

FP = PrimeField(2147483647)
FP2 = PrimeField(2147483629)

CASES = settings(max_examples=30, derandomize=True, deadline=None, database=None)
FEW = settings(CASES, max_examples=10)


@st.composite
def staircases(draw):
    """Generators of a small m-primary staircase: x^a, y^b and up to three
    corners inside the box."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pts = [(a, 0), (0, b)]
    if a > 1 and b > 1:
        corner = st.tuples(st.integers(1, a - 1), st.integers(1, b - 1))
        pts += draw(st.lists(corner, max_size=3))
    return staircase_normalize(pts).gens


def _monomials(exps):
    return [Polynomial.monomial(BASE_RING, FP, e) for e in exps]


def _invariants(I):
    rep = classify(I)
    ref = rep.refutation
    return (rep.verdict, rep.colon_min_gens,
            None if ref is None else (ref.min_sum, ref.threshold),
            rep.colength, rep.min_gens)


@CASES
@given(staircases())
def test_swapping_x_and_y_keeps_the_verdict(exps):
    swapped = [(j, i) for i, j in exps]
    assert _invariants(Ideal(_monomials(swapped))) == _invariants(Ideal(_monomials(exps)))


@CASES
@given(staircases(), st.data())
def test_a_redundant_sum_keeps_the_verdict(exps, data):
    gens = _monomials(exps)
    i, j = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=2,
                              unique=True))
    extra = Ideal(gens + [gens[i] + gens[j]])
    assert _invariants(extra) == _invariants(Ideal(gens))


@CASES
@given(staircases(), st.sampled_from([2, -1, Fraction(1, 3), Fraction(3, 2)]))
def test_the_field_keeps_the_verdict_of_a_twin(exps, c):
    """The x -> x + c*y twin of a staircase: no staircase anywhere, and over
    q the kernels clear the denominators of c."""
    want = _invariants(coordinate_twin(exps, c, QQ))
    for field in (FP, FP2):
        assert _invariants(coordinate_twin(exps, c, field)) == want


@CASES
@given(staircases(), st.sampled_from([2, -1, Fraction(1, 3)]))
def test_a_twin_keeps_the_verdict_of_its_staircase(exps, c):
    """x -> x + c*y is a linear change of coordinates, so over q the twin
    has the monomial staircase's verdict and the numbers behind it."""
    source = Ideal([Polynomial.monomial(BASE_RING, QQ, e) for e in exps])
    assert _invariants(coordinate_twin(exps, c, QQ)) == _invariants(source)


@FEW
@given(staircases(), st.data())
def test_constant_multipliers_keep_the_verdict(exps, data):
    """Each generator times a nonzero constant: the same ideal, over q, for
    a staircase and for its x -> x + 2y twin, so the same verdict, the same
    (mu_J, min_sum, threshold) and the same Rees bidegrees."""
    units = st.sampled_from([Fraction(c) for c in (2, -1, 3, "1/3", "-5/2")])
    for I in (Ideal([Polynomial.monomial(BASE_RING, QQ, e) for e in exps]),
              coordinate_twin(exps, 2, QQ)):
        n = len(I.generators)
        cs = data.draw(st.lists(units, min_size=n, max_size=n))
        scaled = Ideal([g.scale(c) for g, c in zip(I.generators, cs)])
        assert _invariants(scaled) == _invariants(I)
        assert rees_defining_ideal(scaled).bidegrees == rees_defining_ideal(I).bidegrees


@CASES
@given(staircases(), st.sampled_from([QQ, FP]))
def test_a_non_linear_automorphism_keeps_the_verdict(exps, field):
    """x -> x + y^2 is an automorphism of k[x,y] fixing the origin, so the
    image of a staircase has its verdict and the numbers behind it.  The
    image is no linear twin: its m*P's bases are read off by the S-pair
    kernel from leads that are not the staircase's."""
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    X = x + y * y
    image = Ideal([X ** i * y ** j for i, j in exps])
    source = Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])
    assert _invariants(image) == _invariants(source)


@FEW
@given(staircases(), st.sampled_from([QQ, FP]), st.randoms(use_true_random=False))
def test_a_non_linear_image_reads_its_classes_as_a_fresh_m_p_does(exps, field, rng):
    """On the x -> x + y^2 image, whose bases have relations among their
    classes, mu, the minimal generators, ranks, the table's decisions and
    the refuter's record of I, I^2, IJ and mJ equal the route through a
    freshly built m*P (`test_engine.assert_class_route`)."""
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    assert_class_route(Ideal([(x + y * y) ** i * y ** j for i, j in exps]), rng)


def _local_image(exps, field):
    """The image of the staircase exps under x -> x(1 + y), an automorphism
    of k[x,y]_(x,y) that is not one of k[x,y]; the image's only zero is
    still the origin."""
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    X = x * (Polynomial.one(BASE_RING, field) + y)
    return Ideal([X ** i * y ** j for i, j in exps])


@CASES
@given(staircases(), st.sampled_from([QQ, FP]))
def test_a_local_automorphism_keeps_the_verdict(exps, field):
    """The image under x -> x(1 + y) has its source's verdict and the
    numbers behind it.  The image is neither monomial nor a linear twin,
    and its colon's basis is `_interreduce`d from `_colon`'s kernel rows."""
    source = Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])
    assert _invariants(_local_image(exps, field)) == _invariants(source)


def test_a_local_automorphism_keeps_every_small_contracted_o3_verdict():
    # all 56 contracted-o3 tuples (n, alpha, beta) with n <= 8, in both fields
    tuples = [(n, a, b) for n in range(3, 9) for a in range(1, n) for b in range(a + 1, n)]
    assert len(tuples) == 56
    for field in (QQ, FP):
        for n, a, b in tuples:
            exps = family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b})
            source = Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])
            assert _invariants(_local_image(exps, field)) == _invariants(source), (n, a, b, field)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_rees_bidegrees_of_a_twin(field):
    """x -> x + 2y keeps the Rees algebra, so it should keep the bidegrees
    of its minimal presentation.  It does not yet: the source prints
    (1,1), (1,1), (1,2), (2,0) x 3 and its twin (1,1) x 3, (2,0) x 3."""
    exps = [(6, 0), (3, 1), (1, 3), (0, 5)]
    source = Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])
    assert (rees_defining_ideal(coordinate_twin(exps, 2, field)).bidegrees
            == rees_defining_ideal(source).bidegrees)

"""Groebner kernel: bases, membership, arithmetic, and local invariants.

Derived expected values are frozen from the independent oracles in
``oracles.py`` (S-pair saturation for bases, lattice predicates for monomial
arithmetic); the frozen numbers are cross-checked against the oracles here.
"""

import random
from fractions import Fraction

import pytest

from agrees.errors import (
    NotContained,
    NotZeroDimensional,
    RingMismatch,
    ZeroDivisorIdeal,
    ZeroIdeal,
)
from agrees.fields import QQ, PrimeField
from agrees import groebner, rees
from agrees.groebner import (
    GroebnerBasis,
    Ideal,
    _buchberger,
    _colon,
    _nakayama_prune,
    _nf_dict,
    colength,
    ideal_colon,
    ideal_contains,
    ideal_equal,
    ideal_intersection,
    ideal_order,
    ideal_product,
    is_origin_primary,
    maximal_ideal,
    min_gens,
    minimal_generators,
    normal_form,
)
from agrees.parse import parse_ideal_spec, parse_polynomial
from agrees.poly import (
    BASE_RING,
    GREVLEX,
    BlockElimination,
    Polynomial,
    Ring,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
)

from oracles import (
    exact_divide,
    lattice_colength,
    lattice_intersection,
    lattice_member,
    lattice_minimal,
    reference_colon,
    reference_mono_divides,
    saturation_groebner,
)


# coefficients whose numerators and denominators the integer kernels must clear
PROPER_FRACTIONS = [(1, 3), (-5, 7), (3, 2)]


def ideal(text, field=QQ):
    return Ideal(parse_ideal_spec(text, BASE_RING, field))


def poly(text, field=QQ):
    return parse_polynomial(text, BASE_RING, field)


def mono_ideal(exps, field=QQ):
    return Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])


# -- reduced bases -------------------------------------------------------------

def test_gb_monomial_input_is_its_own_basis():
    gb = ideal("x^3, y^6").groebner_basis()
    assert sorted(str(g) for g in gb) == ["x^3", "y^6"]


def test_gb_maximal_ideal():
    gb = ideal("x, y").groebner_basis()
    assert sorted(str(g) for g in gb) == ["x", "y"]


def test_gb_mixed_input_matches_saturation_oracle():
    gens = parse_ideal_spec("x^2 - y^2, x^3", BASE_RING, QQ)
    gb = Ideal(gens).groebner_basis()
    # frozen from the saturation oracle: {x^2 - y^2, x*y^2, y^4}
    assert sorted(str(g) for g in gb) == ["x*y^2", "x^2 - y^2", "y^4"]
    oracle = saturation_groebner(gens)
    assert sorted(str(g) for g in oracle) == sorted(str(g) for g in gb)


def test_gb_reducedness_invariants():
    gb = ideal("x^2 - y^2, x^3, x y^3 - y^4").groebner_basis()
    leads = [g.leading()[0] for g in gb]
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in zip(li, lj))
        for g in gb.elements:
            for e in g.terms:
                if g.leading()[0] != e:
                    for lj in leads:
                        assert not all(a <= b for a, b in zip(lj, e))


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
@pytest.mark.parametrize("order", [GREVLEX, BlockElimination(front=("y",))])
def test_monomial_basis_matches_buchberger(names, order):
    """A monomial ideal's basis skips Buchberger; it must equal what
    Buchberger returns, element for element and in order."""
    ring = Ring(names)
    keyf = order.key(ring)
    rng = random.Random(47)
    for field in (QQ, PrimeField(2147483647)):
        for _ in range(25):
            gens = [Polynomial.monomial(ring, field,
                                        [rng.randint(0, 4) for _ in names],
                                        field.from_int(rng.choice([1, 2, -3])))
                    for _ in range(rng.randint(1, 6))]
            gens += [gens[0] * Polynomial.variable(ring, field, rng.choice(names))]
            gens += [Polynomial.zero(ring, field)] * rng.randint(0, 2)
            rng.shuffle(gens)
            got = Ideal(gens).groebner_basis(order).elements
            want = _monic_values(_buchberger([dict(g.terms) for g in gens], keyf, field),
                                 keyf, field)
            assert [g.terms for g in got] == want


def test_monomial_basis_of_zero_ideal_is_empty():
    assert Ideal([Polynomial.zero(BASE_RING, QQ)]).groebner_basis().elements == ()


def test_gb_deterministic_and_cached():
    I1 = ideal("x^2 - y^2, x^3")
    I2 = ideal("x^2 - y^2, x^3")
    assert [str(g) for g in I1.groebner_basis()] == [str(g) for g in I2.groebner_basis()]
    assert I1.groebner_basis() is I1.groebner_basis()


def test_random_bases_match_saturation_oracle():
    """Proper-fraction coefficients exercise the kernels' denominator
    clearing and content removal; the oracle works on Fractions throughout."""
    rng = random.Random(31)
    for coeffs in ([(-2, 1), (-1, 1), (1, 1), (2, 1)], PROPER_FRACTIONS):
        for _ in range(15):
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = {
                    (rng.randint(0, 4), rng.randint(0, 4)): QQ.fraction(*rng.choice(coeffs))
                    for _ in range(rng.randint(1, 3))
                }
                p = Polynomial(BASE_RING, QQ, terms)
                if not p.is_zero:
                    gens.append(p)
            if not gens:
                continue
            got = [str(g) for g in Ideal(gens).groebner_basis()]
            want = [str(g) for g in saturation_groebner(gens)]
            assert sorted(got) == sorted(want)


# -- normal forms and membership ------------------------------------------------

def test_normal_form_of_generator_is_zero():
    I = ideal("x^3, x^2 y^3, x y^5, y^6")
    gb = I.groebner_basis()
    for g in I.generators:
        assert normal_form(g, gb).is_zero


def test_normal_form_of_one_survives():
    gb = ideal("x^2, y^3").groebner_basis()
    one = Polynomial.one(BASE_RING, QQ)
    assert normal_form(one, gb) == one


def test_normal_form_divisible_monomial():
    gb = ideal("x^3, y^6").groebner_basis()
    assert normal_form(poly("x^2 y^6"), gb).is_zero


def test_normal_form_idempotent():
    gb = ideal("x^2 - y^2, x^3").groebner_basis()
    p = poly("x^4 + x y - y^3")
    r = normal_form(p, gb)
    assert normal_form(r, gb) == r


def _reference_nf(p, basis, keyf, field):
    """The normal form as computed before order keys were cached: the
    leading term is re-derived from keyf over all of `work` at every step."""
    work = dict(p)
    rem = {}
    zero = field.zero
    while work:
        lm = max(work, key=keyf)
        c = work.pop(lm)
        for blm, blc, bterms in basis:
            if reference_mono_divides(blm, lm):
                scale = field.div(c, blc)
                shift = mono_div(lm, blm)
                for m, bc in bterms.items():
                    if m == blm:
                        continue
                    mm = mono_mul(m, shift)
                    nv = field.sub(work.get(mm, zero), field.mul(scale, bc))
                    if nv == zero:
                        work.pop(mm, None)
                    else:
                        work[mm] = nv
                break
        else:
            rem[lm] = c
    return rem


def _random_terms(rng, field, arity, n_terms, max_exp, proper=False):
    """Random terms with small integer coefficients, or with coefficients
    drawn from PROPER_FRACTIONS when `proper`."""
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(0, max_exp) for _ in range(arity))
        if proper:
            c = field.fraction(*rng.choice(PROPER_FRACTIONS))
        else:
            c = field.from_int(rng.choice([1, -1, 2, -3, 5, rng.randint(6, 99)]))
        terms[e] = field.add(terms.get(e, field.zero), c)
    return {e: c for e, c in terms.items() if c != field.zero}


def _field_values(terms, field):
    """Are all values field elements (Fractions over q, not bare ints)?"""
    return all(isinstance(c, Fraction) for c in terms.values()) if field == QQ else True


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
@pytest.mark.parametrize("order", [GREVLEX, BlockElimination(front=("y",))])
def test_nf_dict_matches_reference(names, order):
    """The integer kernel leaves the same remainder, as field values, as the
    Fraction reference: against arbitrary (non-monic, not Groebner) divisor
    lists, handed to `_nf_dict` as its `_entry` rows, and, in the plane,
    against reduced bases, handed to the reference as monic polynomials."""
    ring = Ring(names)
    keyf = order.key(ring)
    rng = random.Random(53)
    for proper in (False, True):
        for field in (QQ, PrimeField(2147483647)):
            for _ in range(30):
                divisors = []
                for _ in range(rng.randint(1, 4)):
                    terms = _random_terms(rng, field, len(names), rng.randint(1, 4), 3, proper)
                    if terms:
                        lm = max(terms, key=keyf)
                        divisors.append((lm, terms[lm], terms))
                p = _random_terms(rng, field, len(names), rng.randint(1, 8), 6, proper)
                entries = [groebner._entry(t, keyf, field) for _, _, t in divisors]
                got = _nf_dict(p, entries, keyf, field)
                assert got == _reference_nf(p, divisors, keyf, field)
                assert _field_values(got, field)
                if len(names) > 2:
                    continue  # random bases in three variables take seconds over Q
                gens = [Polynomial(ring, field, t) for _, _, t in divisors]
                gb = Ideal(gens).groebner_basis(order)
                monic = [(max(g.terms, key=keyf), field.one, g.terms) for g in gb.elements]
                got = _nf_dict(p, gb._lead_data, keyf, field)
                assert got == _reference_nf(p, monic, keyf, field)
                assert _field_values(got, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_reduce_is_the_normal_form(field):
    """`GroebnerBasis.reduce` returns the normal form's terms, as field
    values, and the basis's monic elements are its entries made monic."""
    rng = random.Random(61)
    keyf = GREVLEX.key(BASE_RING)
    for proper in (False, True):
        for _ in range(30):
            gens = [Polynomial(BASE_RING, field,
                               _random_terms(rng, field, 2, rng.randint(1, 4), 4, proper))
                    for _ in range(rng.randint(1, 3))]
            if all(g.is_zero for g in gens):
                continue
            gb = Ideal(gens).groebner_basis()
            want = _monic_values(gb._lead_data, keyf, field)
            assert [g.terms for g in gb.elements] == want
            monic = [(max(t, key=keyf), field.one, t) for t in want]
            for _ in range(3):
                p = Polynomial(BASE_RING, field,
                               _random_terms(rng, field, 2, rng.randint(1, 8), 6, proper))
                got = gb.reduce(p.terms)
                assert got == normal_form(p, gb).terms
                assert got == _reference_nf(p.terms, monic, keyf, field)
                assert _field_values(got, field)


def test_exact_divide_recovers_the_quotient():
    rng = random.Random(59)
    for field in (QQ, PrimeField(2147483647)):
        for _ in range(20):
            f = Polynomial(BASE_RING, field, _random_terms(rng, field, 2, rng.randint(1, 4), 4))
            q = Polynomial(BASE_RING, field, _random_terms(rng, field, 2, rng.randint(1, 5), 4))
            if f.is_zero or q.is_zero:
                continue
            assert exact_divide(f * q, f) == q


def test_exact_divide_rejects_a_non_multiple():
    with pytest.raises(NotContained):
        exact_divide(poly("x^2 + y"), poly("x"))


def test_contains_examples():
    # staircase membership oracle: (1,3) under gens {(2,0),(1,4),(0,5)}
    assert not lattice_member((1, 3), [(2, 0), (1, 4), (0, 5)])
    assert not ideal_contains(ideal("x^2, x y^4, y^5"), poly("x y^3"))
    assert ideal_contains(ideal("x^3, x^2 y^3"), poly("x^2 y^6"))
    # y^2 survives reduction
    assert not ideal_contains(ideal("x^2, x y, y^3"), poly("x^2 - y^2"))


def test_contains_ring_mismatch():
    I = ideal("x, y")
    with pytest.raises(RingMismatch):
        ideal_contains(I, poly("x", PrimeField(2147483647)))


def test_equal_examples():
    assert ideal_equal(ideal("x, y"), ideal("y, x + y"))
    assert not ideal_equal(ideal("x^2"), ideal("x"))
    assert ideal_equal(ideal("x^2, x y, y^2"), ideal("x^2, x y, y^2, x^2 + y^2"))


def test_boundary_product_identity():
    # IJ = I(x^2 - y^{n-alpha}) + x^3 J at (n, alpha, beta) = (5, 3, 4)
    I = ideal("x^3, x^2 y^3, x y^4, y^5")
    J = ideal("x^2, x y, y^2")
    IJ = ideal_product(I, J)
    h = poly("x^2 - y^2")
    rhs = Ideal([g * h for g in I.generators]
                + [poly("x^3") * w for w in J.generators])
    assert ideal_equal(IJ, rhs)


# -- products, intersections, colons -------------------------------------------

def test_product_generator_counts():
    I = ideal("x^3, x^2 y^3, x y^5, y^6")
    J = ideal("x^2, x y, y^3")
    assert min_gens(ideal_product(I, J)) == 6
    m = maximal_ideal(BASE_RING, QQ)
    assert min_gens(ideal_product(m, J)) == 4


def test_product_with_unit():
    I = ideal("x^3, x^2 y^3")
    one = Ideal([Polynomial.one(BASE_RING, QQ)])
    assert ideal_equal(ideal_product(I, one), I)


def test_intersection_examples():
    # lattice oracle: (x^2, y) meet (x, y^2) -> (x^2, xy, y^2)
    assert lattice_intersection([(2, 0), (0, 1)], [(1, 0), (0, 2)]) == \
        lattice_minimal([(2, 0), (1, 1), (0, 2)])
    got = ideal_intersection(ideal("x^2, y"), ideal("x, y^2"))
    assert sorted(str(g) for g in got.groebner_basis()) == ["x*y", "x^2", "y^2"]

    # the literal example pair, frozen from the lattice oracle
    assert lattice_intersection([(1, 0), (0, 3)], [(2, 0), (0, 1)]) == \
        lattice_minimal([(2, 0), (1, 1), (0, 3)])
    got = ideal_intersection(ideal("x, y^3"), ideal("x^2, y"))
    assert sorted(str(g) for g in got.groebner_basis()) == ["x*y", "x^2", "y^3"]

    # the m = 3 slice: (x^2, y) meet (x, y^2) is the square of the maximal ideal
    slice_meet = ideal_intersection(ideal("x^2, y"), ideal("x, y^2"))
    assert ideal_equal(slice_meet, ideal("x^2, x y, y^2"))

    I = ideal("x^2 - y^2, x^3")
    assert ideal_equal(ideal_intersection(I, I), I)


def test_colon_examples():
    got = ideal_colon(ideal("x^3, y^6"), ideal("x^3, x^2 y^3, x y^5, y^6"))
    assert ideal_equal(got, ideal("x^2, x y, y^3"))
    got = ideal_colon(ideal("x^3, y^4"), ideal("x^3, x^2 y^2, y^4"))
    assert ideal_equal(got, ideal("x, y^2"))
    I = ideal("x^2, x y^4, y^5")
    one = Ideal([Polynomial.one(BASE_RING, QQ)])
    assert ideal_equal(ideal_colon(I, one), I)


def test_colon_by_zero_rejected():
    I = ideal("x, y")
    zero = Ideal([Polynomial.zero(BASE_RING, QQ)])
    with pytest.raises(ZeroDivisorIdeal):
        ideal_colon(I, zero)


def _basis_strings(I):
    return [str(g) for g in I.groebner_basis()]


def _assert_colon_is_the_reference(A, B):
    got = ideal_colon(A, B)
    assert _basis_strings(got) == _basis_strings(reference_colon(A, B)), (A, B)
    return got


def test_colon_matches_the_reference_on_monomial_pairs():
    rng = random.Random(71)
    for _ in range(25):
        A = mono_ideal(_random_mono_ideal(rng))
        B = mono_ideal(_random_mono_ideal(rng))
        _assert_colon_is_the_reference(A, B)
    # A : (1) = A, and the staircase colon's sample pairs
    I = ideal("x^2, x y^4, y^5")
    assert _basis_strings(_assert_colon_is_the_reference(I, ideal("1"))) == _basis_strings(I)
    _assert_colon_is_the_reference(ideal("x^3, y^6"), ideal("x^3, x^2 y^3, x y^5, y^6"))


def test_colon_matches_the_reference_on_linear_divisors():
    # mI : (x + c*y), the m-fullness test of the contracted-property suite
    rng = random.Random(73)
    m = maximal_ideal(BASE_RING, QQ)
    for _ in range(15):
        I = mono_ideal(_random_mono_ideal(rng))
        c = rng.randint(1, 40)
        _assert_colon_is_the_reference(ideal_product(m, I), ideal(f"x + {c}*y"))


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_colon_matches_the_reference_on_twins(field):
    # (Q + I^2) : I for x -> x+2y twins and the pair find_reduction picks:
    # the engine's colon, walked on R/I, equals the public one walked on R/T
    from agrees.engine import find_reduction
    from agrees.families import coordinate_twin
    from agrees.repro import random_staircase

    rng = random.Random(79)
    checked = 0
    for _ in range(8):
        I = coordinate_twin(random_staircase(rng, 5, 3).gens, 2, field)
        red = find_reduction(I)
        if not red.stable:
            continue
        T = Ideal(list(red.Q) + list(ideal_product(I, I).groebner_basis()))
        got = _assert_colon_is_the_reference(T, I)
        assert _colon(T, I, I).generators == got.generators
        checked += 1
    assert checked >= 5


def test_colon_is_global_away_from_the_origin():
    # A = (x^2 - x^3, y^2) also vanishes at (1, 0), where I is the unit ideal,
    # so A : I keeps that component of A: length 1 at the origin, where
    # (x^2, y^2) : m^2 = m, and 2 at (1, 0)
    A = ideal("x^2 - x^3, y^2")
    I = ideal("x^2, x y, y^2")
    got = _assert_colon_is_the_reference(A, I)
    assert colength(got) == colength(A) - colength(I) == 1 + 2
    assert not ideal_equal(got, ideal("x, y"))


def test_colon_needs_a_finite_colength_numerator():
    with pytest.raises(NotZeroDimensional):
        ideal_colon(ideal("x^2, x y"), ideal("x"))
    ring = Ring(("x", "y", "z"))
    A = Ideal([Polynomial.variable(ring, QQ, v) for v in ring.vars])
    with pytest.raises(NotZeroDimensional):
        ideal_colon(A, A)


# -- colength, min_gens, order ---------------------------------------------------

def test_colength_examples():
    assert colength(ideal("x^3, y^6")) == 18
    assert colength(ideal("x^3, x^2 y^3, x y^5, y^6")) == 14
    assert lattice_colength([(3, 0), (2, 3), (1, 5), (0, 6)]) == 14
    assert colength(ideal("x^2, x y, y^2")) == 3


def test_colength_rejects_positive_dimension():
    with pytest.raises(NotZeroDimensional):
        colength(ideal("x^2"))
    with pytest.raises(NotZeroDimensional):
        colength(ideal("x, x y"))


# -- the origin check ---------------------------------------------------------------

FP = PrimeField(2147483647)


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@pytest.mark.parametrize("text", [
    "x^3, y^2",
    "x^2 + y^2, x*y",
    "x - 2*y, y^2",
    "x^2 + 4*x*y + 4*y^2, y^3",
    "x^3 + 6*x^2*y + 12*x*y^2 + 8*y^3, x*y^4 + 2*y^5 - y^6",
])
def test_origin_primary_true_cases(text, field):
    assert is_origin_primary(ideal(text, field))


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@pytest.mark.parametrize("text", [
    "x^2 - x, y",             # (1, 0)
    "x^2 - 2*x*y, y^2 - x",   # (4, 2)
    "x^2 + y^2 - 1, x*y",     # four points on the axes, the origin not among them
])
def test_origin_primary_rejects_zeros_away_from_the_origin(text, field):
    assert not is_origin_primary(ideal(text, field))


def test_origin_primary_non_primary_shapes():
    assert not is_origin_primary(ideal("x^2"))        # no pure y power leads
    assert not is_origin_primary(ideal("x + 1, x"))   # unit ideal
    assert not is_origin_primary(Ideal(parse_ideal_spec("x, y, t", Ring(("x", "y", "t")), QQ)))


def test_origin_primary_with_a_large_prime_in_the_basis():
    # the prime p = 2^31 - 1 in a denominator of the basis
    p = FP.p
    for text, want in ((f"{p}*x - y, y^3", True), (f"{p}*x - y, y^3 - y^2", False)):
        assert is_origin_primary(ideal(text)) is want


def test_origin_primary_zero_remainder_mod_p_falls_back():
    # x^2 = p*x mod the basis: zero mod p, yet (p, 0) is a zero of the ideal
    p = FP.p
    text = f"x^2 - {p}*x, y"
    assert ideal_contains(ideal(text, FP), poly("x^2", FP))
    assert not is_origin_primary(ideal(text))


def test_origin_primary_matches_exact_membership():
    """Random pairs of generator combinations, on x -> x+2y twins of
    monomial ideals: the answer is the exact rational membership of x^ell
    and y^ell."""
    rng = random.Random(61)
    x, y = poly("x + 2*y"), poly("y")
    verdicts = []
    for exps in ([(3, 0), (2, 1), (1, 3), (0, 4)], [(2, 0), (1, 2), (0, 3)],
                 [(3, 0), (1, 2), (0, 5)]):
        gens = [x ** a * y ** b for a, b in exps]
        for _ in range(8):
            pair = [sum((g.scale(QQ.from_int(rng.choice([0, 1, -1, 2, 5]))) for g in gens),
                        Polynomial.zero(BASE_RING, QQ)) for _ in range(2)]
            if any(q.is_zero for q in pair):
                continue
            Q = Ideal(pair)
            try:
                ell = colength(Q)
            except NotZeroDimensional:
                assert not is_origin_primary(Q)
                continue
            want = all(ideal_contains(Q, poly(v) ** ell) for v in ("x", "y"))
            assert is_origin_primary(Q) is want
            verdicts.append(want)
    assert len(verdicts) >= 10 and any(verdicts) and not all(verdicts)


def test_min_gens_examples():
    assert min_gens(ideal("x^3, x^2 y^3, x y^5, y^6")) == 4
    assert min_gens(ideal("x^2, y^2, x^2 + y^2")) == 2
    assert min_gens(ideal("x^2, x y, y^2")) == 3


def test_minimal_generators_monomial_outside_the_plane():
    ring = Ring(("x", "y", "z"))
    x, z = (Polynomial.variable(ring, QQ, v) for v in ("x", "z"))
    got = minimal_generators(Ideal([x, x ** 2, z]))
    assert sorted(str(g) for g in got) == ["x", "z"]


def test_minimal_generators_of_zero_ideal():
    assert minimal_generators(Ideal([Polynomial.zero(BASE_RING, QQ)])) == []


def _reference_prune(gens, key):
    """The per-candidate prune: one basis of kept + (vars) * gens per candidate."""
    if not gens:
        return []
    ring, field = gens[0].ring, gens[0].field
    scaled = [Polynomial.variable(ring, field, v) * g for v in ring.vars for g in gens]
    kept = []
    for g in sorted(gens, key=key):
        if not ideal_contains(Ideal(kept + scaled), g):
            kept.append(g)
    return kept


def _random_generators(rng, ring, field, proper=False):
    """A few sparse generators plus redundant, duplicate and unit-multiple
    ones; with coefficients from PROPER_FRACTIONS when `proper`."""
    def rand_poly():
        p = Polynomial.zero(ring, field)
        while p.is_zero:
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 3) for _ in ring.vars)
                if sum(e) >= 2:
                    if proper:
                        c = field.fraction(*rng.choice(PROPER_FRACTIONS))
                    else:
                        c = field.from_int(rng.randint(1, 5))
                    p = p + Polynomial.monomial(ring, field, e).scale(c)
        return p

    base = [rand_poly() for _ in range(3)]
    var = Polynomial.variable(ring, field, rng.choice(ring.vars))
    extra = [rng.choice(base),
             rng.choice(base).scale(field.from_int(rng.randint(2, 9))),
             rng.choice(base) + var * rng.choice(base),
             base[0] + base[1].scale(field.from_int(rng.randint(1, 4)))]
    gens = [g for g in base + extra if not g.is_zero]
    rng.shuffle(gens)
    return gens


def _rees_prune_inputs(I, monkeypatch):
    """The unbounded t-free list of I's kernel basis and the key that
    `rees_defining_ideal` hands its prune.  The list comes from an
    elimination run here: the bounded list it hands over may have no
    redundant element left."""
    calls = []

    def record(gens, key, **kwargs):
        calls.append(key)
        return groebner._nakayama_prune(gens, key, **kwargs)

    monkeypatch.setattr(rees, "_nakayama_prune", record)
    rees.rees_defining_ideal(I)
    monkeypatch.undo()
    (key,) = calls
    return rees._t_free_kernel(list(I.generators), I.field, None), key


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_nakayama_prune_matches_reference(names, field, monkeypatch):
    ring = Ring(names)
    keyf = GREVLEX.key(ring)

    def key(g):
        return (g.min_degree(), keyf(g.leading()[0]))

    rng = random.Random(71 + len(names))
    for _ in range(12):
        gens = _random_generators(rng, ring, field)
        assert _nakayama_prune(gens, key) == _reference_prune(gens, key)

    if names == ("x", "y"):
        xt = poly("x + 2*y", field)
        y = poly("y", field)
        for I in (ideal("x^3, x^2 y^3, x y^5, y^6", field),
                  ideal("x^2 + y^3, y^4, x y^2", field),
                  Ideal([xt ** 2, xt * y ** 2, y ** 3])):
            t_free, rkey = _rees_prune_inputs(I, monkeypatch)
            got = _nakayama_prune(t_free, rkey)
            assert got == _reference_prune(t_free, rkey)
            assert len(got) < len(t_free)  # each kernel basis has a redundant element
            # the bounded presentation keeps the same generators
            assert got == list(rees.rees_defining_ideal(I).defining_gens)


def _count_buchberger(monkeypatch):
    calls = []
    real = groebner._buchberger

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    monkeypatch.setattr(rees, "_buchberger", counted)
    return calls


def _reference_update_pairs(G, sugars, P, f_entry, f_sugar, keyf):
    """`_update_pairs` before each pair's key was stored: P maps (i, j) to
    (lcm, sugar)."""
    lmf = f_entry[0]
    m = len(G)
    kept = {}
    for (i, j), (L, s) in P.items():
        if (
            reference_mono_divides(lmf, L)
            and mono_lcm(G[i][0], lmf) != L
            and mono_lcm(G[j][0], lmf) != L
        ):
            continue
        kept[(i, j)] = (L, s)
    groups = {}
    for i in range(m):
        groups.setdefault(mono_lcm(G[i][0], lmf), []).append(i)
    minimal = []
    for L in sorted(groups, key=keyf):
        if all(not reference_mono_divides(Lp, L) for Lp in minimal):
            minimal.append(L)
    for L in minimal:
        if any(mono_lcm(G[i][0], lmf) == mono_mul(G[i][0], lmf) for i in groups[L]):
            continue
        i = min(groups[L])
        sug = max(
            sugars[i] + mono_deg(L) - mono_deg(G[i][0]),
            f_sugar + mono_deg(L) - mono_deg(lmf),
        )
        kept[(i, m)] = (L, sug)
    G.append(f_entry)
    sugars.append(f_sugar)
    return kept


def _reference_spoly(f, g, lcm, field):
    """The S-polynomial of two monic Fraction entries (lm, lc, terms), as
    computed before the kernels moved to integer rows."""
    lmf, lcf, tf = f
    lmg, lcg, tg = g
    sf = mono_div(lcm, lmf)
    sg = mono_div(lcm, lmg)
    out = {}
    zero = field.zero
    inv_f = field.inv(lcf)
    for m, c in tf.items():
        out[mono_mul(m, sf)] = field.mul(c, inv_f)
    inv_g = field.inv(lcg)
    for m, c in tg.items():
        mm = mono_mul(m, sg)
        nv = field.sub(out.get(mm, zero), field.mul(c, inv_g))
        if nv == zero:
            out.pop(mm, None)
        else:
            out[mm] = nv
    return out


def _reference_monic_entry(p, keyf, field):
    lm = max(p, key=keyf)
    lc = p[lm]
    if lc != field.one:
        inv = field.inv(lc)
        p = {m: field.mul(c, inv) for m, c in p.items()}
    return (lm, field.one, p)


def _reference_monic(p, keyf, field):
    """p, field values, divided by its leading coefficient: the monic basis
    `_buchberger` returned before it returned entries."""
    lc = p[max(p, key=keyf)]
    if lc == field.one:
        return p
    inv = field.inv(lc)
    return {m: field.mul(c, inv) for m, c in p.items()}


def _monic_values(entries, keyf, field):
    """Basis entries (lm, lc, row) as monic term dicts of field values, by
    `_reference_monic` rather than the conversion under test."""
    return [_reference_monic({m: field.from_int(c) for m, c in row.items()}, keyf, field)
            for _, _, row in entries]


def test_spoly_matches_reference():
    """The S-polynomial of two integer entries cancels their leading terms:
    it is the Fraction reference's S-polynomial of the monic forms, scaled."""
    rng = random.Random(89)
    ring = Ring(("x", "y", "z"))
    keyf = GREVLEX.key(ring)
    for field in (QQ, PrimeField(2147483647)):
        for _ in range(40):
            f, g = (_random_terms(rng, field, 3, rng.randint(1, 4), 3, rng.random() < 0.5)
                    for _ in range(2))
            if not (f and g):
                continue
            ef, eg = groebner._entry(f, keyf, field), groebner._entry(g, keyf, field)
            L = mono_lcm(ef[0], eg[0])
            got = groebner._spoly(ef, eg, L, field)
            want = _reference_spoly(_reference_monic_entry(f, keyf, field),
                                    _reference_monic_entry(g, keyf, field), L, field)
            assert L not in got and got.keys() == want.keys()
            if want:
                m = max(want, key=keyf)
                ratio = field.div(field.from_int(got[m]), want[m])
                assert all(field.from_int(v) == field.mul(ratio, want[e])
                           for e, v in got.items())


def _reference_buchberger(inputs, keyf, field, nf=_reference_nf):
    """`_buchberger` before each pair's key was stored, keying every pair at
    every step, on monic Fraction entries; every reduction is one `nf`."""
    G, sugars, P = [], [], {}
    for p in inputs:
        if p:
            P = _reference_update_pairs(G, sugars, P, _reference_monic_entry(p, keyf, field),
                                        max(mono_deg(m) for m in p), keyf)
    while P:
        pair = min(P, key=lambda ij: (P[ij][1], keyf(P[ij][0]), ij))
        L, sug = P.pop(pair)
        i, j = pair
        r = nf(_reference_spoly(G[i], G[j], L, field), G, keyf, field)
        if r:
            P = _reference_update_pairs(G, sugars, P, _reference_monic_entry(r, keyf, field),
                                        sug, keyf)
    order_asc = sorted(range(len(G)), key=lambda i: keyf(G[i][0]))
    minimal = []
    for i in order_asc:
        if all(not reference_mono_divides(e[0], G[i][0]) for e in minimal):
            minimal.append(G[i])
    reduced = []
    for k, entry in enumerate(minimal):
        others = [e for idx, e in enumerate(minimal) if idx != k]
        r = nf(entry[2], others, keyf, field)
        reduced.append(_reference_monic_entry(r, keyf, field)[2])
    reduced.sort(key=lambda p: keyf(max(p, key=keyf)), reverse=True)
    return reduced


@pytest.mark.parametrize("order", [GREVLEX, BlockElimination(front=("x",))],
                         ids=["grevlex", "block"])
def test_pair_queue_reduces_as_the_reference(order, monkeypatch):
    """Neither storing each pair's key nor integer rows change a selection:
    the same reductions run, as many of them, and the same basis comes out,
    as monic field values."""
    calls, reference_calls = [], []
    real = groebner._nf_dict

    def counted(*args):
        calls.append(1)
        return real(*args)

    def reference_nf(*args):
        reference_calls.append(1)
        return _reference_nf(*args)

    monkeypatch.setattr(groebner, "_nf_dict", counted)
    rng = random.Random(83)
    ring = Ring(("x", "y", "z"))
    keyf = order.key(ring)
    for proper in (False, True):
        for field in (QQ, PrimeField(2147483647)):
            for _ in range(8):
                gens = _random_generators(rng, ring, field, proper)
                inputs = [dict(g.terms) for g in gens]
                reference_calls.clear()
                want = _reference_buchberger(inputs, keyf, field, reference_nf)
                calls.clear()
                entries = _buchberger(inputs, keyf, field)
                got = _monic_values(entries, keyf, field)
                assert got == want
                assert all(_field_values(p, field) for p in got)
                assert len(calls) == len(reference_calls) > 0
                elements = GroebnerBasis(ring, field, order, entries).elements
                assert [p.terms for p in elements] == want
                assert all(_field_values(p.terms, field) for p in elements)


def test_rees_presentation_runs_two_buchberger(monkeypatch):
    # the elimination, then one basis of (x, y, T_1..T_s) * kernel
    calls = _count_buchberger(monkeypatch)
    rees.rees_defining_ideal(ideal("x^3, x^2 y^3, x y^5, y^6"))
    assert len(calls) == 2


def test_minimal_generators_runs_at_most_two_buchberger(monkeypatch):
    # GB(I), then one basis of (x, y) * GB(I)
    calls = _count_buchberger(monkeypatch)
    got = minimal_generators(ideal("x^2 + y^3, y^4, x y^2"))
    assert len(got) == 3
    assert len(calls) <= 2


def test_ideal_order_examples():
    assert ideal_order(ideal("x^3, x^2 y^3, x y^5, y^6")) == 3
    assert ideal_order(ideal("x, y")) == 1
    assert ideal_order(ideal("x^2 + y^5, y^3")) == 2
    with pytest.raises(ZeroIdeal):
        ideal_order(Ideal([Polynomial.zero(BASE_RING, QQ)]))


# -- property suites --------------------------------------------------------------

def _random_mono_ideal(rng, max_exp=5):
    a = rng.randint(1, max_exp)
    b = rng.randint(1, max_exp)
    exps = [(a, 0), (0, b)]
    if a > 1 and b > 1:
        for _ in range(rng.randint(0, 2)):
            exps.append((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    return lattice_minimal(exps)


def test_linkage_and_colength_additivity():
    rng = random.Random(41)
    for _ in range(20):
        exps = _random_mono_ideal(rng)
        I = mono_ideal(exps)
        a = max(e[0] for e in exps)
        b = max(e[1] for e in exps)
        Q = mono_ideal([(a, 0), (0, b)])
        J = ideal_colon(Q, I)
        assert ideal_equal(ideal_colon(Q, J), I)
        assert colength(Q) == colength(I) + colength(J)


def test_linkage_concrete_instance():
    I = ideal("x^3, x^2 y^3, x y^5, y^6")
    Q = ideal("x^3, y^6")
    J = ideal_colon(Q, I)
    assert colength(Q) == 18 and colength(I) == 14 and colength(J) == 4
    assert ideal_equal(ideal_colon(Q, J), I)


def test_order_is_a_valuation_on_products():
    rng = random.Random(43)
    for _ in range(20):
        I = mono_ideal(_random_mono_ideal(rng))
        J = mono_ideal(_random_mono_ideal(rng))
        assert ideal_order(ideal_product(I, J)) == ideal_order(I) + ideal_order(J)
    A = ideal("x^2 - y^3, y^4")
    B = ideal("x + y, y^2")
    assert ideal_order(ideal_product(A, B)) == ideal_order(A) + ideal_order(B)


def test_m_full_iff_generator_count():
    rng = random.Random(47)
    m = maximal_ideal(BASE_RING, QQ)
    x = Polynomial.variable(BASE_RING, QQ, "x")
    y = Polynomial.variable(BASE_RING, QQ, "y")
    for _ in range(25):
        exps = _random_mono_ideal(rng)
        I = mono_ideal(exps)
        contracted = min_gens(I) == ideal_order(I) + 1
        combo = x + y.scale(QQ.from_int(rng.randint(1, 30)))
        full = ideal_equal(ideal_colon(ideal_product(m, I), Ideal([combo])), I)
        assert full == contracted


def test_monomial_path_agreement_sample():
    from agrees.staircase import (
        mono_colength,
        staircase_colon,
        staircase_normalize,
        staircase_product,
    )

    rng = random.Random(53)
    for _ in range(40):
        A = staircase_normalize(_random_mono_ideal(rng))
        B = staircase_normalize(_random_mono_ideal(rng))
        IA, IB = mono_ideal(A.gens), mono_ideal(B.gens)
        assert sorted(g.monomial_exponent() for g in
                      ideal_product(IA, IB).groebner_basis()) == \
            sorted(staircase_product(A, B).gens)
        assert sorted(g.monomial_exponent() for g in
                      ideal_colon(IA, IB).groebner_basis()) == \
            sorted(staircase_colon(A, B).gens)
        assert colength(IA) == mono_colength(A)


def test_prime_field_kernel_agrees_on_monomial_data():
    fp = PrimeField(2147483647)
    I = ideal("x^3, x^2 y^3, x y^5, y^6", fp)
    assert colength(I) == 14 and min_gens(I) == 4
    J = ideal_colon(ideal("x^3, y^6", fp), I)
    assert sorted(str(g) for g in J.groebner_basis()) == ["x*y", "x^2", "y^3"]

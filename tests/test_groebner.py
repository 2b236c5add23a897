"""Groebner kernel: bases, membership, arithmetic, and local invariants.

Derived expected values are frozen from the independent oracles in
``oracles.py`` (S-pair saturation for bases, lattice predicates for monomial
arithmetic); the frozen numbers are cross-checked against the oracles here.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from agrees.errors import (
    DegreeOverflow,
    NotContained,
    NotZeroDimensional,
    RingMismatch,
    ZeroDivisorIdeal,
    ZeroIdeal,
)
from agrees.fields import QQ, PrimeField
from agrees import engine, groebner, rees
from agrees.groebner import (
    GroebnerBasis,
    Ideal,
    _buchberger,
    _colon,
    _nakayama_prune,
    _nf_dict,
    colength,
    ideal_colon,
    ideal_equal,
    ideal_intersection,
    ideal_order,
    ideal_product,
    is_origin_primary,
    maximal_ideal,
    minimal_generators,
    normal_form,
    staircase_of_ideal,
)
from agrees.parse import parse_ideal_spec, parse_polynomial
from agrees.poly import (
    BASE_RING,
    GREVLEX,
    BlockElimination,
    Polynomial,
    Ring,
    mono_deg,
    mono_mul,
    rees_ring,
)

from oracles import (
    exact_divide,
    lattice_colength,
    lattice_intersection,
    lattice_member,
    lattice_minimal,
    reference_colon,
    reference_grevlex_key,
    reference_key,
    reference_leading,
    reference_mono_div,
    reference_mono_divides,
    reference_mono_lcm,
    reference_update_pairs,
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


def contains(I, p):
    return normal_form(p, I.groebner_basis()).is_zero


class _Packed:
    """The one bridge between the term dicts on exponent tuples that the
    references here and in `oracles` work on and the kernels' rows of packed
    words (`poly.Packer`), for one order and ring."""

    def __init__(self, order, ring):
        self.keyf = reference_key(order, ring)
        self.pk = order.packer(ring)

    def row(self, terms):
        pack = self.pk.pack
        return {pack(m): c for m, c in terms.items()}

    def terms(self, row):
        unpack = self.pk.unpack
        return {unpack(w): c for w, c in row.items()}

    def entry(self, entry):
        lm, lc, row = entry
        return (self.pk.unpack(lm), lc, self.terms(row))

    def nf(self, p, entries, field, integral=False):
        """`_nf_dict` of the term dict p against packed entries, unpacked."""
        return self.terms(_nf_dict(self.row(p), entries, self.pk.guard, field, integral))


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
    leads = [reference_leading(g)[0] for g in gb]
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in zip(li, lj))
        for g in gb.elements:
            for e in g.terms:
                if reference_leading(g)[0] != e:
                    for lj in leads:
                        assert not all(a <= b for a, b in zip(lj, e))


@pytest.mark.parametrize("names", [("x", "y")])
def test_monomial_basis_matches_buchberger(names):
    """A monomial ideal of k[x,y] reads its basis off its staircase; it must
    equal what Buchberger returns, element for element and in order (in
    more variables the basis is Buchberger's own)."""
    ring = Ring(names)
    packed = _Packed(GREVLEX, ring)
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
            got = Ideal(gens).groebner_basis().elements
            want = _monic_values(_buchberger([dict(g.terms) for g in gens], packed.pk, field),
                                 packed, field)
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
                shift = reference_mono_div(lm, blm)
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


def _integer_entry(terms, packed, field):
    """`groebner._entry` of field values, packed and cleared to an integer
    row first, as `_buchberger` enters its inputs."""
    row = packed.row(terms)
    field.clear(row)
    return groebner._entry(row, field)


def _field_values(terms, field):
    """Are all values field elements in canonical form (over q an int when
    integral and a Fraction otherwise, never a float; over fp an int in
    [0, p))?"""
    if field != QQ:
        return all(type(c) is int and 0 <= c < field.p for c in terms.values())
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in terms.values())


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
@pytest.mark.parametrize("order", [GREVLEX, BlockElimination(front=("y",))])
def test_nf_dict_matches_reference(names, order):
    """The integer kernel leaves the same remainder, as field values, as the
    Fraction reference: against arbitrary (non-monic, not Groebner) divisor
    lists, handed to `_nf_dict` as its `_entry` rows, and, in the plane,
    against the reduced bases `_buchberger` returns under the order, handed
    to the reference as monic polynomials."""
    ring = Ring(names)
    packed = _Packed(order, ring)
    keyf = packed.keyf
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
                entries = [_integer_entry(t, packed, field) for _, _, t in divisors]
                got = packed.nf(p, entries, field)
                assert got == _reference_nf(p, divisors, keyf, field)
                assert _field_values(got, field)
                if len(names) > 2:
                    continue  # random bases in three variables take seconds over Q
                entries = _buchberger([t for _, _, t in divisors], packed.pk, field)
                monic = [(max(t, key=keyf), field.one, t)
                         for t in _monic_values(entries, packed, field)]
                got = packed.nf(p, entries, field)
                assert got == _reference_nf(p, monic, keyf, field)
                assert _field_values(got, field)


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_nf_dict_remainders_are_canonical(field):
    """A remainder's values are the field's canonical values, also where a
    kept term leaves the kernel with no multiplication (its unit is 1, as
    for an integral p against divisors led by 1): ints over q for an
    integral remainder, a Fraction only for a proper one, and residues in
    [0, p) over fp."""
    rng = random.Random(67)
    packed = _Packed(GREVLEX, BASE_RING)
    keyf = packed.keyf
    kinds = set()
    for proper in (False, True):
        for _ in range(40):
            entries = []
            for _ in range(rng.randint(1, 4)):
                t = _random_terms(rng, field, 2, rng.randint(1, 4), 3, proper)
                if t:
                    if not proper:
                        t[max(t, key=keyf)] = field.one
                    entries.append(_integer_entry(t, packed, field))
            p = _random_terms(rng, field, 2, rng.randint(1, 8), 6, proper)
            got = packed.nf(p, entries, field)
            assert _field_values(got, field)
            if not proper:
                assert all(type(c) is int for c in got.values())
            kinds.update(type(c) for c in got.values())
    assert kinds == ({int, Fraction} if field == QQ else {int})


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_integer_remainders_are_positive_multiples_of_the_normal_form(field):
    """Called `integral`, `_nf_dict` takes an integer row and returns one:
    a positive multiple of the remainder it returns as field values (the
    same remainder over fp, whose leads are monic), on the same terms."""
    rng = random.Random(71)
    packed = _Packed(GREVLEX, Ring(("x", "y", "z")))
    keyf = packed.keyf
    scaled = 0
    for proper in (False, True):
        for _ in range(40):
            entries = [_integer_entry(t, packed, field)
                       for t in (_random_terms(rng, field, 3, rng.randint(1, 4), 3, proper)
                                 for _ in range(rng.randint(1, 4))) if t]
            p = _random_terms(rng, field, 3, rng.randint(1, 8), 6, proper)
            row = dict(p)
            unit = field.clear(row)
            want = packed.nf(p, entries, field)
            got = packed.nf(row, entries, field, integral=True)
            assert got.keys() == want.keys()
            assert all(type(c) is int for c in got.values())
            if not got:
                continue
            # got * unit / lam == want for one lam > 0
            lm = max(got, key=keyf)
            lam = field.div(field.mul(got[lm], unit), want[lm])
            assert all(field.mul(c, unit) == field.mul(lam, want[m]) for m, c in got.items())
            if field == QQ:
                assert lam > 0
                scaled += lam != unit
            else:
                assert got == want
    assert field != QQ or scaled


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_reduce_is_the_normal_form(field):
    """`GroebnerBasis.reduce` returns the normal form's terms, as field
    values, and the basis's monic elements are its entries made monic."""
    rng = random.Random(61)
    packed = _Packed(GREVLEX, BASE_RING)
    keyf = packed.keyf
    for proper in (False, True):
        for _ in range(30):
            gens = [Polynomial(BASE_RING, field,
                               _random_terms(rng, field, 2, rng.randint(1, 4), 4, proper))
                    for _ in range(rng.randint(1, 3))]
            if all(g.is_zero for g in gens):
                continue
            gb = Ideal(gens).groebner_basis()
            want = _monic_values(gb.entries, packed, field)
            assert [g.terms for g in gb.elements] == want
            monic = [(max(t, key=keyf), field.one, t) for t in want]
            for _ in range(3):
                p = Polynomial(BASE_RING, field,
                               _random_terms(rng, field, 2, rng.randint(1, 8), 6, proper))
                got = gb.reduce(p.terms)
                assert got == normal_form(p, gb).terms
                assert got == _reference_nf(p.terms, monic, keyf, field)
                assert _field_values(got, field)


@st.composite
def monomial_bases(draw):
    """A monomial ideal's basis in k[x,y] (a random staircase, m-primary or
    not, possibly the unit ideal), over q or fp; generated by monomials
    with redundant ones and non-unit coefficients, or also by a sum of two
    of them, so that the monomial basis comes out of a Buchberger run."""
    field = draw(st.sampled_from([QQ, PrimeField(2147483647)]))
    ring = BASE_RING
    exps = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6))
    coeffs = draw(st.lists(st.sampled_from([1, 2, -3]), min_size=len(exps), max_size=len(exps)))
    gens = [Polynomial.monomial(ring, field, e, field.from_int(c)) for e, c in zip(exps, coeffs)]
    if len(gens) > 1 and draw(st.booleans()):
        gens.append(gens[0] + gens[1])
    return Ideal(gens).groebner_basis()


@st.composite
def field_terms(draw, ring, field):
    """Terms of a polynomial in ring: over q with int, integral Fraction and
    proper Fraction values, over fp with residues."""
    exps = draw(st.lists(st.tuples(*[st.integers(0, 7)] * ring.arity), max_size=12))
    terms = {}
    for e in exps:
        num = draw(st.integers(-50, 50).filter(bool))
        if field == QQ:
            kind = draw(st.sampled_from(["int", "integral", "proper"]))
            den = draw(st.integers(2, 9)) if kind == "proper" else 1
            c = Fraction(num, den) if kind != "int" else num
        else:
            c = field.from_int(num * draw(st.integers(1, 2**40)))
        terms[e] = c
    return terms


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(monomial_bases(), st.data())
def test_term_filter_is_the_normal_form(gb, data):
    """Modulo a basis of monomials in k[x,y], `reduce` keeps exactly the
    terms that no leading monomial divides, each value in canonical form
    (over q an integral Fraction is its numerator)."""
    terms = data.draw(field_terms(gb.ring, gb.field))
    got = gb.reduce(dict(terms))
    want = {m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in terms.items()
            if not any(reference_mono_divides(lm, m) for lm in gb.leading_exponents())}
    assert got == want
    assert [type(c) for c in got.values()] == [type(want[m]) for m in got]
    assert _field_values(got, gb.field)


def test_only_monomial_bases_filter():
    """A basis with a binomial divides, as `_nf_dict` does; a monomial one
    keeps exactly the terms outside its staircase, including the unit
    ideal's (everything reduces to zero) and the zero ideal's (nothing
    does)."""
    binomial = ideal("x^2 - y^2, x^3").groebner_basis()
    terms = poly("x^4 + 1/2*x^2*y + 3*x*y^2 + y^5").terms
    assert binomial.reduce(dict(terms)) == _Packed(GREVLEX, BASE_RING).nf(
        terms, binomial.entries, binomial.field)
    stair = ideal("x^2 + x*y, x*y, y^3").groebner_basis()  # corners x^2, x*y, y^3
    kept = stair.reduce(poly("x^3 + 2*x^2*y + x*y + 1/2*x + y^4 + 3*y^2 - 1").terms)
    assert kept == {(1, 0): Fraction(1, 2), (0, 2): 3, (0, 0): -1}
    unit = ideal("x^2, 1").groebner_basis()
    assert unit.reduce(poly("x + 1/3*y^4").terms) == {}
    zero = Ideal([Polynomial.zero(BASE_RING, QQ)]).groebner_basis()
    assert zero.reduce({(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3)}) == {
        (1, 0): 2, (0, 1): Fraction(1, 3)}


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_reduce_row_is_a_positive_multiple_of_the_normal_form(field):
    """Modulo a general basis, `reduce_row` is an integer row keyed by
    packed words on the support of `reduce`, one constant multiple of it
    (positive over q), and `_rank` reads the same rank off either."""
    rng = random.Random(67)
    packed = _Packed(GREVLEX, BASE_RING)
    scaled = 0
    for proper in (False, True):
        for _ in range(30):
            gens = [Polynomial(BASE_RING, field,
                               _random_terms(rng, field, 2, rng.randint(2, 4), 4, proper))
                    for _ in range(rng.randint(1, 3))]
            if all(g.is_zero for g in gens):
                continue
            gb = Ideal(gens).groebner_basis()
            if gb._corners is not None:
                continue  # a monomial basis: the next test's
            polys = [_random_terms(rng, field, 2, rng.randint(1, 8), 6, proper)
                     for _ in range(rng.randint(1, 4))]
            total = dict(polys[0])
            for m, c in polys[-1].items():
                total[m] = field.add(total.get(m, field.zero), c)
            polys.append({m: c for m, c in total.items() if c != field.zero})  # in their span
            for terms in polys:
                want = gb.reduce(terms)
                got = gb.reduce_row(terms)
                assert all(type(c) is int for c in got.values())
                got = packed.terms(got)
                assert got.keys() == want.keys()
                if not got:
                    continue
                lam = field.div(got[next(iter(got))], want[next(iter(got))])
                assert all(field.from_int(c) == field.mul(lam, want[m]) for m, c in got.items())
                if field == QQ:
                    assert lam > 0
                    scaled += lam != 1
            assert engine._rank([gb.reduce_row(t) for t in polys], field) == engine._rank(
                [gb.reduce(t) for t in polys], field)
    assert field != QQ or scaled


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(monomial_bases(), st.data())
def test_reduce_row_on_a_monomial_basis_is_the_term_filter(gb, data):
    """Modulo a basis of monomials in k[x,y], `reduce_row` is an integer
    row on the terms `reduce` keeps, a positive multiple of `reduce`'s
    values.  On a staircase's basis it is the term filter, keyed by
    exponent tuples, and equals `_nf_dict`'s integer row of the cleared
    terms on the same entries."""
    field = gb.field
    packed = _Packed(GREVLEX, gb.ring)
    terms = data.draw(field_terms(gb.ring, field))
    want = gb.reduce(dict(terms))
    got = gb.reduce_row(dict(terms))
    if gb._corners is None:
        got = packed.terms(got)  # a Buchberger run's basis: `_nf_dict`'s packed row
    assert got.keys() == want.keys()
    assert all(type(c) is int for c in got.values())
    if got:
        first = next(iter(got))
        lam = field.div(got[first], want[first])
        assert all(field.from_int(c) == field.mul(lam, want[m]) for m, c in got.items())
        assert field != QQ or lam > 0
    if gb._corners is not None:
        cleared = dict(terms)
        field.clear(cleared)
        assert got == packed.nf(cleared, gb.entries, field, integral=True)


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_lex_kernels_raise_on_terms_past_degree_2_to_the_32(field):
    """Under an order that is not graded, here the block order with x in
    front, a tail term may outgrow its lead, and a word of degree
    2^32 or more compares wrongly: in k[x,y,z], modulo x - z^(2^31),
    x^2*z reduces to z^(2^32+1), whose word sorts above y's.  A Buchberger
    run under that order raises DegreeOverflow rather than return the
    reduced basis of (x - z^(2^31), x^2*z + y^2), whose second element is
    y^2 + z^(2^32+1).  Under grevlex, the order of every `Ideal`, the same
    reduction derives nothing past the bound."""
    N = 1 << 31
    ring = Ring(("x", "y", "z"))
    one, minus_one = field.one, field.from_int(-1)
    binomial = Polynomial(ring, field, {(1, 0, 0): one, (0, 0, N): minus_one})
    other = Polynomial(ring, field, {(2, 0, 1): one, (0, 2, 0): one})
    with pytest.raises(DegreeOverflow):
        _buchberger([binomial.terms, other.terms],
                    BlockElimination(front=("x",)).packer(ring), field)
    assert Ideal([binomial]).groebner_basis().reduce({(2, 0, 1): one, (1, 0, 0): one}) == {
        (2, 0, 1): one, (1, 0, 0): one}


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_integral_fractions_act_as_their_ints(names):
    """Over q, a polynomial a caller builds from integral Fractions such as
    Fraction(2) equals, hashes, prints and reduces as its int-valued twin,
    and `_buchberger` gives both the same entries, rows of plain ints."""
    ring = Ring(names)
    pk = GREVLEX.packer(ring)
    rng = random.Random(89)

    def as_fractions(p):
        return Polynomial(ring, QQ, {m: Fraction(c) for m, c in p.terms.items()})

    for proper in (False, True):
        for _ in range(6):
            gens = _random_generators(rng, ring, QQ, proper)
            twins = [as_fractions(g) for g in gens]
            for g, t in zip(gens, twins):
                assert t == g and hash(t) == hash(g) and str(t) == str(g)
            entries = _buchberger([g.terms for g in gens], pk, QQ)
            assert _buchberger([t.terms for t in twins], pk, QQ) == entries
            assert all(type(v) is int for _, lc, row in entries for v in (lc, *row.values()))
            gb = Ideal(gens).groebner_basis()
            p = Polynomial(ring, QQ, _random_terms(rng, QQ, len(names), 6, 5, proper))
            got = gb.reduce(as_fractions(p).terms)
            assert got == gb.reduce(p.terms) and _field_values(got, QQ)


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
    assert not contains(ideal("x^2, x y^4, y^5"), poly("x y^3"))
    assert contains(ideal("x^3, x^2 y^3"), poly("x^2 y^6"))
    # y^2 survives reduction
    assert not contains(ideal("x^2, x y, y^3"), poly("x^2 - y^2"))


def test_contains_ring_mismatch():
    I = ideal("x, y")
    with pytest.raises(RingMismatch):
        contains(I, poly("x", PrimeField(2147483647)))


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
    assert engine._mu(ideal_product(I, J)) == 6
    m = maximal_ideal(BASE_RING, QQ)
    assert engine._mu(ideal_product(m, J)) == 4


def test_product_with_unit():
    I = ideal("x^3, x^2 y^3")
    one = Ideal([Polynomial.one(BASE_RING, QQ)])
    assert ideal_equal(ideal_product(I, one), I)
    zero = Polynomial.zero(BASE_RING, QQ)
    assert ideal_product(I, Ideal([zero])).generators == (zero,)


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
        assert _colon(T, I.generators, I).generators == got.generators
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


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_colon_basis_is_the_buchberger_basis(field, seed):
    """The reduced basis `_colon` caches, `_interreduce` of C's basis plus
    the kernel rows, is the entries of a fresh Buchberger run on J's
    generators and on the elimination reference's, and the colon starts no
    Buchberger run, on seeded (A, B, C): the public colon (C = A) of a twin by a few random polynomials,
    A : A, where every row is kernel and J = (1), and the engine's colon
    (T, B, I) of a twin with the pair find_reduction picks.  Three more
    public colons check that a form keeps its component index once an
    earlier one vanishes: with the zero polynomial in front, with a
    generator of A in front (its forms vanish from s = 1 on), and by
    y^(b-1) next to 1, for y^b the twin's pure y-power, whose forms vanish
    from s = y on where those of 1 never do."""
    from agrees.engine import canonical_colon, find_reduction
    from agrees.families import coordinate_twin
    from agrees.repro import random_staircase

    rng = random.Random(seed)
    colons = []
    runs = []
    real_colon, real_run = groebner._colon, groebner._buchberger

    def counted(*args, **kwargs):
        runs.append(1)
        return real_run(*args, **kwargs)

    def record(A, B, C):
        A.groebner_basis(), C.groebner_basis()  # the bases it starts from
        before = len(runs)
        J = real_colon(A, B, C)
        assert len(runs) == before, "the colon started a Buchberger run"
        colons.append((A, B, J))
        return J

    exps = random_staircase(rng, 5, 3).gens
    A = coordinate_twin(exps, rng.choice([2, -1, Fraction(1, 3)]), field)
    B = [Polynomial(BASE_RING, field, t)
         for t in (_random_terms(rng, field, 2, rng.randint(1, 3), 3)
                   for _ in range(rng.randint(1, 3))) if t]
    below = Polynomial.monomial(BASE_RING, field, (0, min(b for a, b in exps if a == 0) - 1))
    vanishing = [[Polynomial.zero(BASE_RING, field), below] + B,
                 [A.generators[0], below] + B,
                 [below, Polynomial.one(BASE_RING, field)]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_buchberger", counted)
        mp.setattr(groebner, "_colon", record)
        mp.setattr(engine, "_colon", record)
        if B:
            ideal_colon(A, Ideal(B))
        for V in vanishing:
            ideal_colon(A, Ideal(V))
        unit = ideal_colon(A, A)
        red = find_reduction(A)
        if red.stable:
            canonical_colon(A, Ideal(list(red.Q)))
    assert len(colons) == bool(B) + len(vanishing) + 1 + red.stable
    pk = GREVLEX.packer(BASE_RING)
    for A, B, J in colons:
        entries = J._gb_cache[GREVLEX].entries
        assert entries == real_run([g.terms for g in J.generators], pk, field)
        # and J is the colon: the elimination reference's reduced basis, or
        # (1) when B is empty
        want = reference_colon(A, Ideal(B)).generators if B else [Polynomial.one(BASE_RING, field)]
        assert entries == real_run([g.terms for g in want], pk, field)
    # A : A: the kernel is all of R/A and J = (1)
    assert [_Packed(GREVLEX, BASE_RING).entry(e) for e in unit.groebner_basis().entries] == [
        ((0, 0), 1, {(0, 0): 1})]


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_sum_is_the_buchberger_basis(field, monkeypatch):
    """`_sum(I^2, Q, I)`, T = Q + I^2 read off I^2's basis, is element for
    element the reduced basis of the ideal of Q's and I^2's generators, and
    starts no Buchberger run: for 100 random staircases with their Newton
    pairs, their x -> x + 2y twins with seeded `find_reduction` draws, a
    pair with r >= 2 (QI lies in I^2 for every Q inside I, so stability is
    not needed) and a generator list with a zero polynomial in it."""
    from agrees.engine import find_reduction
    from agrees.families import coordinate_twin
    from agrees.repro import random_staircase

    rng = random.Random(83)
    cases = []
    for _ in range(100):
        exps = random_staircase(rng, 5, 3).gens
        for I, seed in ((mono_ideal(exps, field), 0),
                        (coordinate_twin(exps, 2, field), rng.randrange(2**32))):
            cases.append((I, list(find_reduction(I, seed).Q)))
    I = mono_ideal([(4, 0), (3, 1), (1, 3), (0, 4)], field)
    red = find_reduction(I)
    assert red.reduction_number >= 2
    cases.append((I, list(red.Q)))
    I, Q = cases[1]
    cases.append((I, [Q[0], Polynomial.zero(BASE_RING, field), Q[1]]))

    runs = _count_buchberger(monkeypatch)
    for I, Q in cases:
        I2 = ideal_product(I, I)
        want = Ideal(Q + list(I2.generators)).groebner_basis().entries
        I2.groebner_basis(), I.groebner_basis()  # the bases it starts from
        before = len(runs)
        got = groebner._sum(I2, Q, I)
        assert len(runs) == before
        assert got.groebner_basis().entries == want
        assert [g.terms for g in got.generators] == [g.terms for g in got.groebner_basis()]


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(corners=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3),
       a=st.integers(1, 5), b=st.integers(1, 5), c=st.sampled_from([2, -3, Fraction(1, 3)]),
       shape=st.sampled_from(["twin", "redundant", "times x - 1", "square", "x + y^2"]))
@example(corners=[(0, 0)], a=1, b=1, c=2, shape="redundant")  # (1, 2, x): m*P = m
def test_times_maximal_is_the_buchberger_basis(field, corners, a, b, c, shape):
    """m*P's basis read off P's by consecutive S-pairs (`_times_maximal`)
    is the entries of Buchberger's reduced basis of m*P, for P the
    x -> x + c*y twin of a staircase (the unit ideal when a corner is
    (0, 0)): as it is, with a redundant sum and a multiple of its
    generators added, with its x-power times x - 1 (zeros away from the
    origin; the unit ideal stays as it is) and squared.  Those bases are
    minimal generating sets; the staircase's image under x -> x + y^2
    often has a basis that is not, and only there do S-pair remainders
    survive into the echelon.  The kernel runs no Buchberger on P's
    basis."""
    from agrees.families import coordinate_twin
    from agrees.staircase import staircase_normalize

    exps = staircase_normalize([(a, 0), (0, b)] + corners).gens
    P = coordinate_twin(exps, c, field)
    gens = list(P.generators)
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    if shape == "x + y^2":
        P = Ideal([(x + y * y) ** i * y ** j for i, j in exps])
    elif shape == "redundant":
        P = Ideal(gens + [gens[0] + gens[-1], x * gens[-1]])
    elif shape == "times x - 1" and len(gens) > 1:
        P = Ideal([gens[0] * (x - Polynomial.one(BASE_RING, field))] + gens[1:])
    elif shape == "square":
        P = ideal_product(P, P)
    want = ideal_product(maximal_ideal(BASE_RING, field), P).groebner_basis().entries
    P.groebner_basis()
    with pytest.MonkeyPatch.context() as mp:
        runs = _count_buchberger(mp)
        assert groebner._times_maximal(P).groebner_basis().entries == want
    assert not runs


def _spy_interreduce(mp):
    """Each `_interreduce` call as [its `_nf_dict` calls, its result], a
    call as (the lead of the row it reduces, a copy of the basis)."""
    runs = []
    real_nf, real_interreduce = groebner._nf_dict, groebner._interreduce

    def nf(p, basis, *args):
        if runs and runs[-1][1] is None:
            runs[-1][0].append((max(p), list(basis)))
        return real_nf(p, basis, *args)

    def interreduce(*args):
        run = [[], None]
        runs.append(run)
        run[1] = real_interreduce(*args)
        return run[1]

    mp.setattr(groebner, "_nf_dict", nf)
    mp.setattr(groebner, "_interreduce", interreduce)
    return runs


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_interreduce_is_one_ascending_sweep(field):
    """`_interreduce` makes one `_nf_dict` call per kept element, in
    ascending lead order, each against exactly the kept, already reduced
    entries whose leads lie below the element's, in ascending order: on
    grevlex Buchberger runs, on the bases `_colon` and `_times_maximal`
    read off with no run, and on the block-order elimination of an
    x -> x + 2y twin's Rees presentation."""
    from agrees.families import coordinate_twin

    twin = coordinate_twin([(3, 0), (2, 2), (1, 3), (0, 5)], 2, field)
    gens = list(twin.generators)
    with pytest.MonkeyPatch.context() as mp:
        runs = _spy_interreduce(mp)
        for text in ("x^2 + y^3, y^4, x y^2", "x^2 - x y + y^3, x y^2 - y^4, x^3"):
            _buchberger([g.terms for g in ideal(text, field).generators],
                        GREVLEX.packer(BASE_RING), field)
        twin.groebner_basis()
        ideal_colon(twin, ideal("x, y", field))
        groebner._times_maximal(twin)
        rees._t_free_kernel(gens, field, None)
    assert len(runs) == 6
    assert all(len(out) >= 3 for _, out in runs)
    for calls, out in runs:
        assert [lead for lead, _ in calls] == sorted(lm for lm, _, _ in out)
        for lead, basis in calls:
            below = sorted((e for e in out if e[0] < lead), key=lambda e: e[0])
            assert len(basis) == len(below) and all(a is b for a, b in zip(basis, below))


def test_times_maximal_needs_a_finite_colength_in_the_plane():
    ring = Ring(("x", "y", "z"))
    for P in (ideal("x y, x^2 y"), ideal("x^2 - y^2, x^3 - x y^2"),
              Ideal([Polynomial.zero(BASE_RING, QQ)]),
              Ideal([Polynomial.variable(ring, QQ, v) for v in ring.vars])):
        with pytest.raises(NotZeroDimensional):
            groebner._times_maximal(P)


# -- colength, min_gens, order ---------------------------------------------------

def _grevlex_leads(gens):
    pack = GREVLEX.packer(BASE_RING).pack
    return [max(map(pack, g.terms)) for g in gens]


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_derived_ideals_build_their_generators_on_first_read(field):
    """`ideal_of_staircase`, `_times_maximal`, `_colon` and `_sum` build no
    monomial and no monic element; a later read of `generators` is what
    the eager build gave, order included: the corners' monomials in
    `stair.gens` order, and a finished ideal's reduced basis by descending
    lead, on monomial results as on the rest.  A finished ideal's cached
    staircase is the one its generators give."""
    from agrees.families import coordinate_twin
    from agrees.repro import random_staircase

    rng = random.Random(11)
    m = maximal_ideal(BASE_RING, field)
    stairs = [random_staircase(rng, 6, 3) for _ in range(6)]
    inputs = []
    for S in stairs:
        for P in (mono_ideal(reversed(S.gens), field), coordinate_twin(S.gens, 2, field)):
            inputs.append((P, ideal_product(P, P), P.generators[0]))
            for A in (P, inputs[-1][1], m):
                A.groebner_basis()
    made = []
    real_monomial, real_monic = Polynomial.monomial, groebner._monic_polynomial

    def monomial(*args, **kwargs):
        made.append("monomial")
        return real_monomial(*args, **kwargs)

    def monic(*args):
        made.append("monic")
        return real_monic(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "monomial", staticmethod(monomial))
        mp.setattr(groebner, "_monic_polynomial", monic)
        lazy = [groebner.ideal_of_staircase(S, BASE_RING, field) for S in stairs]
        derived = []
        for P, P2, g in inputs:
            derived += [groebner._times_maximal(P), _colon(P, m.generators, P),
                        groebner._sum(P2, [g], P)]
    assert made == []
    for S, I in zip(stairs, lazy):
        assert I.generators == tuple(Polynomial.monomial(BASE_RING, field, e) for e in S.gens)
        assert I.generators is I.generators
    monomial_results = 0
    for I in derived:
        gens = I.generators
        leads = _grevlex_leads(gens)
        assert leads == sorted(leads, reverse=True) and len(set(leads)) == len(leads)
        assert set(gens) == set(Ideal(list(gens)).groebner_basis().elements)
        assert staircase_of_ideal(I) == groebner._read_staircase(gens)
        monomial_results += staircase_of_ideal(I) is not None
    assert 0 < monomial_results < len(derived)


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
    assert not is_origin_primary(Ideal([Polynomial.zero(BASE_RING, QQ)]))  # the zero ideal
    assert not is_origin_primary(ideal("x^2 + x*y, x*y^2"))  # infinite colength


def test_origin_primary_with_a_large_prime_in_the_basis():
    # the prime p = 2^31 - 1 in a denominator of the basis
    p = FP.p
    for text, want in ((f"{p}*x - y, y^3", True), (f"{p}*x - y, y^3 - y^2", False)):
        assert is_origin_primary(ideal(text)) is want


def test_origin_primary_zero_remainder_mod_p_falls_back():
    # x^2 = p*x mod the basis: zero mod p, yet (p, 0) is a zero of the ideal
    p = FP.p
    text = f"x^2 - {p}*x, y"
    assert contains(ideal(text, FP), poly("x^2", FP))
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
            want = all(contains(Q, poly(v) ** ell) for v in ("x", "y"))
            assert is_origin_primary(Q) is want
            verdicts.append(want)
    assert len(verdicts) >= 10 and any(verdicts) and not all(verdicts)


def _seeded_monomial_ideals(rng):
    """Exponent lists of m-primary, non-primary (a pure power dropped) and
    unit monomial ideals of k[x,y]."""
    out = [[(0, 0)], [(0, 0), (2, 1)]]
    for _ in range(30):
        exps = _random_mono_ideal(rng)
        kind = rng.randrange(3)
        if kind and len(exps) > 1:
            exps = [e for e in exps if e[kind - 1] != 0]  # drop x^a or y^b
        out.append(exps)
    return out


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_origin_primary_reads_the_staircase(field):
    """A monomial ideal's answer is the Buchberger path's, taken on the same
    ideal with a redundant binomial generator g * (1 + x) added, and builds
    no basis."""
    rng = random.Random(97)
    one_plus_x = poly("1 + x", field)
    answers = []
    for exps in _seeded_monomial_ideals(rng):
        I = mono_ideal(exps, field)
        got = is_origin_primary(I)
        assert staircase_of_ideal(I) is not None and not I._gb_cache
        twin = Ideal(list(I.generators) + [I.generators[0] * one_plus_x])
        assert staircase_of_ideal(twin) is None
        assert is_origin_primary(twin) is got
        assert twin._gb_cache  # the twin did take the Buchberger path
        answers.append(got)
    assert True in answers and False in answers


def test_min_gens_examples():
    assert engine._mu(ideal("x^3, x^2 y^3, x y^5, y^6")) == 4
    assert engine._mu(ideal("x^2, y^2, x^2 + y^2")) == 2
    assert engine._mu(ideal("x^2, x y, y^2")) == 3


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
        if not contains(Ideal(kept + scaled), g):
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


def _rees_prune_inputs(I):
    """The unbounded t-free list of I's kernel basis and the key that
    `rees_defining_ideal` sorts and prunes by.  The list comes from an
    elimination run here: the bounded list it hands over may have no
    redundant element left."""
    gens = list(I.generators)
    return rees._t_free_kernel(gens, I.field, None), rees._prune_key(len(gens))


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_nakayama_prune_matches_reference(names, field):
    ring = Ring(names)
    keyf = reference_grevlex_key

    def key(g):
        return (g.min_degree(), keyf(reference_leading(g)[0]))

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
            t_free, rkey = _rees_prune_inputs(I)
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


def _reference_spoly(f, g, lcm, field):
    """The S-polynomial of two monic Fraction entries (lm, lc, terms), as
    computed before the kernels moved to integer rows."""
    lmf, lcf, tf = f
    lmg, lcg, tg = g
    sf = reference_mono_div(lcm, lmf)
    sg = reference_mono_div(lcm, lmg)
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


def _monic_values(entries, packed, field):
    """Basis entries (lm, lc, row) of packed words as monic term dicts of
    field values, by `_reference_monic` rather than the conversion under
    test."""
    return [_reference_monic({m: field.from_int(c) for m, c in packed.terms(row).items()},
                             packed.keyf, field)
            for _, _, row in entries]


def test_spoly_matches_reference():
    """The S-polynomial of two integer entries cancels their leading terms:
    it is the Fraction reference's S-polynomial of the monic forms, scaled."""
    rng = random.Random(89)
    ring = Ring(("x", "y", "z"))
    packed = _Packed(GREVLEX, ring)
    keyf, unpack = packed.keyf, packed.pk.unpack
    for field in (QQ, PrimeField(2147483647)):
        for _ in range(40):
            f, g = (_random_terms(rng, field, 3, rng.randint(1, 4), 3, rng.random() < 0.5)
                    for _ in range(2))
            if not (f and g):
                continue
            ef, eg = _integer_entry(f, packed, field), _integer_entry(g, packed, field)
            L = reference_mono_lcm(unpack(ef[0]), unpack(eg[0]))
            got = packed.terms(groebner._spoly(ef, eg, packed.pk.pack(L), field))
            want = _reference_spoly(_reference_monic_entry(f, keyf, field),
                                    _reference_monic_entry(g, keyf, field), L, field)
            assert L not in got and got.keys() == want.keys()
            # an integer row: nonzero ints, and residues in [1, p) over fp
            assert all(type(v) is int and v for v in got.values())
            if field != QQ:
                assert all(0 < v < field.p for v in got.values())
            if want:
                m = max(want, key=keyf)
                ratio = field.div(field.from_int(got[m]), want[m])
                assert all(field.from_int(v) == field.mul(ratio, want[e])
                           for e, v in got.items())


def _reference_buchberger(inputs, keyf, field, nf=_reference_nf):
    """`_buchberger` before each pair's key was stored, keying every pair at
    every step rather than reading the key its pair holds, on monic Fraction
    entries; every reduction is one `nf`."""
    G, sugars, P = [], [], {}
    for p in inputs:
        if p:
            P = reference_update_pairs(G, sugars, P, _reference_monic_entry(p, keyf, field),
                                       max(mono_deg(m) for m in p), keyf)
    while P:
        pair = min(P, key=lambda ij: (P[ij][0], keyf(P[ij][3]), ij))
        sug, _, _, L = P.pop(pair)
        i, j = pair
        r = nf(_reference_spoly(G[i], G[j], L, field), G, keyf, field)
        if r:
            P = reference_update_pairs(G, sugars, P, _reference_monic_entry(r, keyf, field),
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
    packed = _Packed(order, ring)
    keyf = packed.keyf
    for proper in (False, True):
        for field in (QQ, PrimeField(2147483647)):
            for _ in range(8):
                gens = _random_generators(rng, ring, field, proper)
                inputs = [dict(g.terms) for g in gens]
                reference_calls.clear()
                want = _reference_buchberger(inputs, keyf, field, reference_nf)
                calls.clear()
                entries = _buchberger(inputs, packed.pk, field)
                got = _monic_values(entries, packed, field)
                assert got == want
                assert all(_field_values(p, field) for p in got)
                assert len(calls) == len(reference_calls) > 0
                elements = [groebner._monic_polynomial(ring, field, e, packed.pk.unpack)
                            for e in entries]
                assert [p.terms for p in elements] == want
                assert all(_field_values(p.terms, field) for p in elements)


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
def test_buchberger_keeps_integer_rows_and_keys_each_monomial_once(field, monkeypatch):
    """After clearing its inputs a run makes no field value: every
    reduction hands `_nf_dict` an integer row, called `integral`, and gets
    one back, and `field.clear` runs once per nonzero input.  Each input
    monomial is packed, and so keyed, once, and no derived monomial is
    keyed: the only other words packed are each pair update's distinct
    lcms, in runs over the grevlex and block orders."""
    cleared, remainders, keyed = [], [], []
    updating = []
    real_clear, real_nf = type(field).clear, groebner._nf_dict
    real_update = groebner._update_pairs

    def clear(self, row):
        cleared.append(1)
        return real_clear(self, row)

    def nf(p, basis, guard, fld, integral=False):
        assert integral and all(type(c) is int for c in p.values())
        out = real_nf(p, basis, guard, fld, integral)
        remainders.append(out)
        return out

    def update(G, leads, *args):
        # the lcms of the new lead with every earlier one, distinct, in order
        updating.append([])
        got = real_update(G, leads, *args)
        lmf = leads[-1]
        lcms = dict.fromkeys(reference_mono_lcm(lead, lmf) for lead in leads[:-1])
        assert updating.pop() == list(lcms)
        return got

    monkeypatch.setattr(type(field), "clear", clear)
    monkeypatch.setattr(groebner, "_nf_dict", nf)
    monkeypatch.setattr(groebner, "_update_pairs", update)
    rng = random.Random(97)
    ring = Ring(("x", "y", "z"))
    for order in (GREVLEX, BlockElimination(front=("x",))):
        packed = _Packed(order, ring)
        keyf, real_pk = packed.keyf, packed.pk

        def counted(m):
            (updating[-1] if updating else keyed).append(m)
            return real_pk.pack(m)

        pk = SimpleNamespace(pack=counted, unpack=real_pk.unpack, guard=real_pk.guard,
                             graded=real_pk.graded, check=real_pk.check)
        for proper in (False, True):
            for _ in range(3):
                inputs = [dict(g.terms) for g in _random_generators(rng, ring, field, proper)]
                del cleared[:], remainders[:], keyed[:]
                entries = _buchberger(inputs, pk, field)
                assert len(cleared) == sum(1 for p in inputs if p)
                assert remainders and all(type(c) is int for r in remainders for c in r.values())
                assert keyed == [m for p in inputs for m in p]
                assert _monic_values(entries, packed, field) == _reference_buchberger(
                    inputs, keyf, field)


def _checked_update_pairs(monkeypatch, packers):
    """Bind `groebner._update_pairs` to a wrapper that runs
    `oracles.reference_update_pairs` on unpacked copies of the same
    arguments and asserts the same pair dict, in the same order, and the
    same G, leads and sugars after the call; `packers` are the `_Packed` of
    the runs' orders and rings.  Returns the list of pair-dict sizes, one
    per call."""
    sizes = []
    real = groebner._update_pairs
    by_pk = {packed.pk: packed for packed in packers}

    def checked(G, leads, sugars, P, f_entry, f_sugar, pk, max_weight=None):
        packed = by_pk[pk]
        keyf = packed.keyf

        def unpacked(pairs):
            # a pair keeps its packed lcm where the reference keeps its key
            assert all(w == pk.pack(L) for _, w, _, L in pairs.values())
            return {ij: (sug, keyf(L), ij2, L) for ij, (sug, _, ij2, L) in pairs.items()}

        G_ref, sugars_ref = [packed.entry(g) for g in G], list(sugars)
        want = reference_update_pairs(G_ref, sugars_ref, unpacked(P), packed.entry(f_entry),
                                      f_sugar, keyf, max_weight)
        got = real(G, leads, sugars, P, f_entry, f_sugar, pk, max_weight)
        assert list(unpacked(got).items()) == list(want.items())
        assert [packed.entry(g) for g in G] == G_ref and sugars == sugars_ref
        assert leads == [g[0] for g in G_ref]
        sizes.append(len(got))
        return got

    monkeypatch.setattr(groebner, "_update_pairs", checked)
    return sizes


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_update_pairs_matches_the_reference_in_the_plane(field, monkeypatch):
    """Grevlex in k[x,y]: every pair update of seeded Buchberger runs, on
    random generators and on x -> x + 2y twins of monomial ideals, keeps the
    reference's pairs, keys and sugars."""
    packed = _Packed(GREVLEX, BASE_RING)
    sizes = _checked_update_pairs(monkeypatch, [packed])
    rng = random.Random(101)
    xt, y = poly("x + 2*y", field), poly("y", field)
    for proper in (False, True):
        for _ in range(10):
            gens = _random_generators(rng, BASE_RING, field, proper)
            _buchberger([g.terms for g in gens], packed.pk, field)
    for _ in range(10):
        exps = _random_mono_ideal(rng, max_exp=6)
        _buchberger([(xt ** a * y ** b).terms for a, b in exps], packed.pk, field)
    assert len(sizes) > 100 and max(sizes) > 3


@pytest.mark.parametrize("max_weight", [None, 1, 2], ids=["unbounded", "w1", "w2"])
@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_update_pairs_matches_the_reference_in_the_rees_ring(field, max_weight, monkeypatch):
    """The block order of the Rees elimination in rees_ring(2) and
    rees_ring(3), bounded by each weight: every pair update keeps the
    reference's pairs, keys and sugars."""
    order = BlockElimination(front=("t",))
    sizes = _checked_update_pairs(monkeypatch, [_Packed(order, rees_ring(s)) for s in (2, 3)])
    rng = random.Random(103)
    xt, y = poly("x + 2*y", field), poly("y", field)
    for s in (2, 3):
        for _ in range(6):
            exps = _random_mono_ideal(rng, max_exp=5)
            while len(exps) < s:
                exps = _random_mono_ideal(rng, max_exp=5)
            exps = rng.sample(exps, s)
            for gens in ([Polynomial.monomial(BASE_RING, field, e) for e in exps],
                         [xt ** a * y ** b for a, b in exps]):
                rees._t_free_kernel(gens, field, max_weight)
    assert len(sizes) > 50 and max(sizes) >= 2


def test_rees_presentation_runs_two_buchberger(monkeypatch):
    # the elimination, then one basis of (x, y, T_1..T_s) * kernel, where the
    # count does not certify the bounded basis minimal (contracted-o3
    # (5, 2, 3)), on the x -> x + 2y twin, after the bound's reduction
    # search; the monomial source reads its kernel off its fibers and runs
    # the prune's basis only, and a certified input runs the elimination
    # only, see test_rees.test_both_bases_get_the_bound
    from agrees.families import coordinate_twin

    exps = [(3, 0), (2, 2), (1, 3), (0, 5)]
    source, twin = ideal("x^3, x^2 y^2, x y^3, y^5"), coordinate_twin(exps, 2, QQ)
    rees._relation_type_bound(twin)
    calls = _count_buchberger(monkeypatch)
    rees.rees_defining_ideal(source)
    assert len(calls) == 1
    rees.rees_defining_ideal(twin)
    assert len(calls) == 3


def test_minimal_generators_runs_at_most_two_buchberger(monkeypatch):
    # GB(I), then one basis of (x, y) * GB(I)
    calls = _count_buchberger(monkeypatch)
    got = minimal_generators(ideal("x^2 + y^3, y^4, x y^2"))
    assert len(got) == 3
    assert len(calls) <= 2


def test_colength_normalizes_each_basis_once(monkeypatch):
    # the colength of a non-monomial ideal is read off its basis's leads,
    # normalized to a staircase once per basis however often it is asked
    # for; the public colon walks that same staircase and normalizes
    # nothing, so the colon's basis is normalized once, at its first
    # colength, and not again
    normalized = []
    real = groebner.staircase_normalize

    def counted(pairs):
        normalized.append(1)
        return real(pairs)

    monkeypatch.setattr(groebner, "staircase_normalize", counted)
    I, J = ideal("x^2 - y^2, x^3"), ideal("x^2 + x y, y^3 - x^3, x y^2")
    for _ in range(3):
        for A in (I, J):
            assert colength(A) == lattice_colength(A.groebner_basis().leading_exponents())
    assert len(normalized) == 2
    K = ideal_colon(I, ideal("x, y"))
    assert len(normalized) == 2
    assert staircase_of_ideal(K) is None  # no monomial staircase to read it off
    for _ in range(3):
        assert colength(K) == lattice_colength(K.groebner_basis().leading_exponents())
    assert len(normalized) == 3


def _count_kernels(monkeypatch):
    """Counters on the module globals the benchmark's tracer binds: calls of
    `groebner._nf_dict`, and of `_buchberger` through `groebner` and through
    `rees`."""
    counts = {"nf": 0, "groebner": 0, "rees": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(groebner, "_nf_dict", counted("nf", groebner._nf_dict))
    monkeypatch.setattr(groebner, "_buchberger", counted("groebner", groebner._buchberger))
    monkeypatch.setattr(rees, "_buchberger", counted("rees", rees._buchberger))
    return counts


def test_kernel_counters_see_the_kernels(monkeypatch):
    """The benchmark counts normal forms and Buchberger runs by wrapping
    these module globals, so every call must go through them: each `reduce`
    makes exactly one `_nf_dict` call, on every basis; classify of the
    flagship twin runs Buchberger through `groebner`, and a Rees
    presentation's elimination runs it through `rees`: the twin's, as a
    bounded monomial ideal reads its kernel off its fibers, and runs only
    the prune's basis."""
    from agrees.engine import classify
    from agrees.families import coordinate_twin, family_exponents

    counts = _count_kernels(monkeypatch)
    per_reduce = []
    real_reduce = GroebnerBasis.reduce

    def reduce(gb, terms):
        before = counts["nf"]
        out = real_reduce(gb, terms)
        per_reduce.append(counts["nf"] - before)
        return out

    monkeypatch.setattr(GroebnerBasis, "reduce", reduce)
    exps = family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    classify(coordinate_twin(exps, Fraction(1, 3), QQ))
    assert counts["groebner"] > 0 and counts["rees"] == 0
    assert counts["nf"] > len(per_reduce) > 0
    assert all(nf == 1 for nf in per_reduce)
    runs = counts["groebner"]
    rees.rees_defining_ideal(ideal("x^3, x^2 y^2, x y^3, y^5"))
    assert counts["rees"] == 0 and counts["groebner"] == runs + 1
    rees.rees_defining_ideal(coordinate_twin([(3, 0), (2, 2), (1, 3), (0, 5)], 2, QQ))
    assert counts["rees"] == 1 and counts["groebner"] > runs + 1


def test_ideal_order_examples():
    assert ideal_order(ideal("x^3, x^2 y^3, x y^5, y^6")) == 3
    assert ideal_order(ideal("x, y")) == 1
    assert ideal_order(ideal("x^2 + y^5, y^3")) == 2
    with pytest.raises(ZeroIdeal):
        ideal_order(Ideal([Polynomial.zero(BASE_RING, QQ)]))


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["q", "fp"])
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ideal_order_off_a_staircase_is_the_least_term_degree(field, seed):
    """`ideal_order` reads a staircase's corners where it has one: the least
    degree of a term of a nonzero generator, on seeded staircases given by
    their corners, by redundant monomials and zero generators, as products
    and as finished bases (m*P, P : m, P^2 + (g)), and on their twins."""
    from agrees.families import coordinate_twin
    from agrees.repro import random_staircase

    def least_degree(I):
        return min(sum(e) for g in I.generators for e in g.terms)

    rng = random.Random(seed)
    m = maximal_ideal(BASE_RING, field)
    S = random_staircase(rng, 7, 3)
    a, b = S.gens[0]
    padded = list(S.gens) + [(a + 1, b), (a, b + 2)]
    zero = Polynomial.zero(BASE_RING, field)
    ideals = [groebner.ideal_of_staircase(S, BASE_RING, field),
              Ideal([zero] + [Polynomial.monomial(BASE_RING, field, e) for e in padded])]
    for P in (ideals[1], coordinate_twin(S.gens, rng.choice([2, -1, Fraction(1, 3)]), field)):
        P2 = ideal_product(P, P)
        ideals += [P, P2, engine._mul(P, P), groebner._times_maximal(P),
                   _colon(P, m.generators, P), groebner._sum(P2, [P.generators[-1]], P)]
    for I in ideals:
        assert ideal_order(I) == least_degree(I)
    assert ideal_order(ideals[0]) == min(i + j for i, j in S.gens)


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
        contracted = engine._mu(I) == ideal_order(I) + 1
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
    assert colength(I) == 14 and engine._mu(I) == 4
    J = ideal_colon(ideal("x^3, y^6", fp), I)
    assert sorted(str(g) for g in J.groebner_basis()) == ["x*y", "x^2", "y^3"]

"""Monomial orders, polynomial arithmetic, and field axioms."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from agrees.errors import DegreeOverflow, RingMismatch
from agrees.fields import QQ, PrimeField
from agrees.poly import (
    BASE_RING,
    GREVLEX,
    BlockElimination,
    Polynomial,
    Ring,
    mono_mul,
    rees_ring,
)

from oracles import (
    ORDER_BASE,
    reference_block_key,
    reference_block_value,
    reference_grevlex_key,
    reference_grevlex_value,
    reference_key,
    reference_mono_divides,
    reference_mono_mul,
    reference_value,
)

FP = PrimeField(2147483647)

# lex on k[x,y]: the block order with x alone in front
LEX_XY = BlockElimination(front=("x",))

# a packed word holds its order's key above one 34-bit field per exponent
FIELD_BITS = 34


def _sign(a, b):
    return (a > b) - (a < b)


def _compare(a, b, order, ring=BASE_RING):
    pack = order.packer(ring).pack
    return _sign(pack(a), pack(b))


def _divides(pk, a, b):
    """The packed divisor test: a divides b."""
    return not (pk.pack(b) - pk.pack(a)) & pk.guard


def test_grevlex_tiebreak():
    assert _compare((2, 0), (1, 1), GREVLEX) == 1


def test_grevlex_degree_compatible():
    assert _compare((1, 0), (0, 2), GREVLEX) == -1


def test_lex_ignores_degree():
    assert _compare((1, 0), (0, 3), LEX_XY) == 1
    assert _compare((1, 0), (0, 3), GREVLEX) == -1


def test_compare_equal_iff_same_exponents():
    assert _compare((2, 1), (2, 1), GREVLEX) == 0
    for order in (GREVLEX, LEX_XY):
        pack = order.packer(BASE_RING).pack
        assert len({pack(e) for e in itertools.product(range(6), repeat=2)}) == 36


def _random_mono(rng, arity):
    return tuple(rng.randint(0, 6) for _ in range(arity))


@pytest.mark.parametrize("order", [GREVLEX, LEX_XY, BlockElimination(front=("y",))])
def test_orders_multiplicative(order):
    rng = random.Random(7)
    key = order.packer(BASE_RING).pack
    for _ in range(300):
        a, b, c = (_random_mono(rng, 2) for _ in range(3))
        if key(a) < key(b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert key(ac) < key(bc)


def test_grevlex_degree_dominates_random():
    rng = random.Random(8)
    key = GREVLEX.packer(BASE_RING).pack
    for _ in range(200):
        a, b = _random_mono(rng, 2), _random_mono(rng, 2)
        if sum(a) < sum(b):
            assert key(a) < key(b)


def test_block_order_eliminates():
    ring = rees_ring(2)  # x, y, t, T1, T2
    order = BlockElimination(front=("t",))
    key = order.packer(ring).pack
    with_t = (0, 0, 1, 0, 0)
    without = (5, 5, 0, 3, 3)
    assert key(with_t) > key(without)


def _ring(arity):
    return Ring(tuple(f"v{i}" for i in range(arity)))


@pytest.mark.parametrize("arity", [2, 3, 5])
def test_monomial_primitives_match_generator_form(arity):
    """mono_mul and the packed divisor test give the values of their
    generator forms (oracles.py), and the grevlex and block words order as
    the tuple keys there and carry the values of the integer formulas there
    above their exponent fields, on every pair of seeded exponents, equal
    and all-zero tuples included."""
    rng = random.Random(1500 + arity)
    monos = [_random_mono(rng, arity) for _ in range(40)]
    monos += [(0,) * arity, monos[0], tuple(min(e, 2) for e in monos[1])]
    grevlex = GREVLEX.packer(_ring(arity))
    ring = rees_ring(2)  # x, y, t, T1, T2
    block = BlockElimination(front=("t",)).packer(ring)
    ref_block = reference_block_key(ring, ("t",))
    block_value = reference_block_value(ring, ("t",))
    divides = 0
    for a in monos:
        for b in monos:
            assert mono_mul(a, b) == reference_mono_mul(a, b)
            assert _divides(grevlex, a, b) is reference_mono_divides(a, b)
            divides += reference_mono_divides(a, b)
            assert _sign(grevlex.pack(a), grevlex.pack(b)) == _sign(
                reference_grevlex_key(a), reference_grevlex_key(b))
            if arity == ring.arity:
                assert _divides(block, a, b) is reference_mono_divides(a, b)
                assert _sign(block.pack(a), block.pack(b)) == _sign(ref_block(a), ref_block(b))
        assert grevlex.pack(a) >> FIELD_BITS * arity == reference_grevlex_value(a)
        if arity == ring.arity:
            assert block.pack(a) >> FIELD_BITS * arity == block_value(a)
    assert len(monos) < divides < len(monos) ** 2  # both outcomes occur


def _wide_mono(rng, arity):
    """Exponents mixing small values with values up to 2^31, so that some
    total degrees reach 2^32."""
    return tuple(rng.choice((rng.randint(0, 3), rng.randrange(1 << 31))) for _ in range(arity))


@pytest.mark.parametrize("arity", [2, 3, 5])
def test_integer_keys_order_as_the_tuple_keys_up_to_2_to_the_32(arity):
    """On exponents up to 2^31, and on total degrees 2^32 - 1 and 2^32 put
    in one slot or spread over all, the grevlex and block words order as
    the tuple keys and carry the formula values above their exponent fields
    while the total degree is below 2^32, and raise DegreeOverflow from
    there on, where the key's digits would carry."""
    rng = random.Random(2200 + arity)
    ring = _ring(arity)
    orders = [(GREVLEX.packer(ring).pack, reference_grevlex_key, reference_grevlex_value)]
    for front in (ring.vars[:1], ring.vars[1:2], ring.vars[:2], ring.vars[1:]):
        order = BlockElimination(front=front)
        orders.append((order.packer(ring).pack, reference_block_key(ring, front),
                       reference_block_value(ring, front)))
    monos = [_wide_mono(rng, arity) for _ in range(60)]
    monos.append((1 << 31,) * arity)
    for i, deg in itertools.product(range(arity), (ORDER_BASE - 1, ORDER_BASE)):
        monos.append(tuple(deg if j == i else 0 for j in range(arity)))
        monos.append(tuple(deg - (arity - 1) if j == i else 1 for j in range(arity)))
    small = [e for e in monos if sum(e) < ORDER_BASE]
    assert 10 < len(small) < len(monos)  # both sides of the bound occur
    for pack, ref_key, ref_value in orders:
        for a in monos:
            if sum(a) >= ORDER_BASE:
                with pytest.raises(DegreeOverflow):
                    pack(a)
                continue
            assert pack(a) >> FIELD_BITS * arity == ref_value(a)
            for b in small:
                assert _sign(pack(a), pack(b)) == _sign(ref_key(a), ref_key(b))


@st.composite
def _packing_cases(draw):
    """An order among grevlex and block orders with fronts of one and two
    variables (lex in arity 2), in arity 2, 3 or 5, and two exponents a, b
    mixing small values with values up to 2^31, so that degrees reach 2^32;
    b is a multiple of a, by such an exponent, in about half the draws."""
    arity = draw(st.sampled_from([2, 3, 5]))
    ring = _ring(arity)
    order = draw(st.sampled_from([GREVLEX, BlockElimination(front=ring.vars[:1]),
                                  BlockElimination(front=ring.vars[1:3])]))
    exps = st.tuples(*[st.one_of(st.integers(0, 6), st.integers(0, 1 << 31))] * arity)
    a = draw(exps)
    b = reference_mono_mul(a, draw(exps)) if draw(st.booleans()) else draw(exps)
    return ring, order, a, b


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_packing_cases())
def test_packed_words_are_the_key_and_the_exponents(case):
    """`order.packer(ring)`: words carry the key's value on top and compare
    as the tuple key, add as the monomials multiply, pass the mask test
    exactly when the tuples divide, and unpack to their exponents; `pack`
    raises DegreeOverflow from total degree 2^32 on."""
    ring, order, a, b = case
    pk = order.packer(ring)
    for e in (a, b, reference_mono_mul(a, b)):
        if sum(e) >= ORDER_BASE:
            with pytest.raises(DegreeOverflow):
                pk.pack(e)
        else:
            assert pk.unpack(pk.pack(e)) == e
            assert pk.pack(e) >> FIELD_BITS * ring.arity == reference_value(order, ring)(e)
    if max(sum(a), sum(b)) >= ORDER_BASE:
        return
    wa, wb = pk.pack(a), pk.pack(b)
    key = reference_key(order, ring)
    assert _sign(wa, wb) == _sign(key(a), key(b))
    assert _divides(pk, a, b) is reference_mono_divides(a, b)
    if sum(a) + sum(b) < ORDER_BASE:
        assert wa + wb == pk.pack(reference_mono_mul(a, b))
    if reference_mono_divides(a, b):
        assert pk.unpack(wb - wa) == tuple(y - x for x, y in zip(a, b))


@pytest.mark.parametrize("arity", [2, 3, 5])
def test_packing_raises_at_degree_2_to_the_32(arity):
    """Total degree 2^32 - 1 packs and 2^32 raises, in one slot or spread
    over all, under every order; at 2^32 - 1 the mask test still tells
    which variables divide."""
    ring = _ring(arity)
    variables = [tuple(int(j == i) for j in range(arity)) for i in range(arity)]
    for order in (GREVLEX, BlockElimination(front=ring.vars[:1]),
                  BlockElimination(front=ring.vars[1:3])):
        pk = order.packer(ring)
        for i, deg in itertools.product(range(arity), (ORDER_BASE - 1, ORDER_BASE)):
            for e in (tuple(deg if j == i else 0 for j in range(arity)),
                      tuple(deg - (arity - 1) if j == i else 1 for j in range(arity))):
                if deg < ORDER_BASE:
                    w = pk.pack(e)
                    assert pk.unpack(w) == e
                    for v in [(0,) * arity] + variables:
                        assert _divides(pk, v, e) is reference_mono_divides(v, e)
                else:
                    with pytest.raises(DegreeOverflow):
                        pk.pack(e)


def test_an_order_key_is_built_once_per_order_and_ring():
    """`order.packer(ring)`, whose words are the order's one key, is one
    object per equal (order, ring): equal block orders share it, other
    rings and orders get their own; its words carry the key's value."""
    ring = rees_ring(2)
    assert GREVLEX.packer(ring) is GREVLEX.packer(ring)
    assert GREVLEX.packer(Ring(ring.vars)) is GREVLEX.packer(ring)
    assert GREVLEX.packer(BASE_RING) is not GREVLEX.packer(ring)
    block = BlockElimination(front=("t",)).packer(ring)
    assert BlockElimination(front=("t",)).packer(ring) is block
    assert BlockElimination(front=("T1",)).packer(ring) is not block
    assert block is not GREVLEX.packer(ring)
    e = (1, 0, 2, 0, 1)
    assert block.pack(e) >> FIELD_BITS * ring.arity == reference_block_value(ring, ("t",))(e)
    assert GREVLEX.packer(ring).pack(e) >> FIELD_BITS * ring.arity == reference_grevlex_value(e)


@pytest.mark.parametrize("field", [QQ, FP])
def test_field_axioms_random(field):
    rng = random.Random(11)
    samples = [field.from_int(rng.randint(-40, 40)) for _ in range(30)]
    for a in samples[:10]:
        for b in samples[10:20]:
            for c in samples[20:]:
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c))
    for a in samples:
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
        assert field.add(a, field.neg(a)) == field.zero


def test_rationals_lowest_terms():
    assert QQ.fraction(4, 6) == Fraction(2, 3)
    assert QQ.fraction(1, -2) == Fraction(-1, 2)
    assert Fraction(-1, 2).denominator == 2  # positive denominator normal form


def _canonical(c):
    """Over q: an int when integral, a Fraction otherwise, never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("a, b", [(1, 3), (-4, 6), (Fraction(1, 2), Fraction(3, 4)),
                                  (Fraction(-5, 7), 3), (2, Fraction(2, 3))],
                         ids=["int", "int-reduced", "fraction", "fraction-int", "int-fraction"])
def test_rational_division_is_exact(a, b):
    """div and inv stay exact on int, Fraction and mixed operands."""
    want = Fraction(a) / Fraction(b)
    assert QQ.div(a, b) == want and _canonical(QQ.div(a, b))
    assert QQ.inv(b) == 1 / Fraction(b) and _canonical(QQ.inv(b))
    assert QQ.div(1, 3) == Fraction(1, 3) and QQ.inv(3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.div(a, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@pytest.mark.parametrize("op, a, b, want", [
    ("add", Fraction(1, 2), Fraction(1, 2), 1), ("add", 2, 3, 5),
    ("add", Fraction(1, 3), 1, Fraction(4, 3)), ("sub", Fraction(3, 2), Fraction(1, 2), 1),
    ("sub", 1, Fraction(1, 3), Fraction(2, 3)), ("mul", Fraction(2, 3), Fraction(3, 2), 1),
    ("mul", Fraction(4, 3), 3, 4), ("mul", Fraction(1, 3), Fraction(1, 5), Fraction(1, 15)),
    ("div", 6, 3, 2), ("div", Fraction(4, 3), Fraction(2, 3), 2), ("fraction", -6, 3, -2),
    ("fraction", 6, -4, Fraction(-3, 2))])
def test_rational_results_are_canonical(op, a, b, want):
    """Every operation over q returns an int for an integral value and a
    Fraction otherwise, whatever mix of the two it is given."""
    got = getattr(QQ, op)(a, b)
    assert got == want and _canonical(got)
    assert _canonical(QQ.neg(got)) and _canonical(QQ.inv(got))
    assert type(QQ.zero) is type(QQ.one) is type(QQ.from_int(7)) is int
    x = Polynomial.variable(BASE_RING, QQ, "x").scale(a)
    s = x.scale(b) + x.scale(b)
    assert all(_canonical(c) for c in (s * s).terms.values())


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_integer_rows(field):
    """clear writes a row as unit * integers, cross cancels a leading
    coefficient, and normalize leaves a primitive (q) or monic (fp) row."""
    x, y, z = (2, 0), (1, 1), (0, 2)
    terms = {x: field.fraction(-2, 3), y: field.fraction(5, 7), z: field.fraction(3, 2)}
    row = dict(terms)
    unit = field.clear(row)
    assert all(type(v) is int for v in row.values())
    assert {m: field.mul(unit, v) for m, v in row.items()} == terms
    field.normalize(row, x)
    if field == QQ:
        assert row == {x: 28, y: -30, z: -63}  # -42 * terms, content 1, lead positive
    else:
        assert row[x] == 1
        assert {m: field.mul(terms[x], v) for m, v in row.items()} == terms
    pairs = ((6, 4), (-9, 6), (5, row[x])) if field == QQ else ((6, 1), (FP.p - 9, 1))
    for c, b in pairs:
        a, s = field.cross(c, b)
        assert field.sub(field.mul(a, c), field.mul(s, b)) == 0 and a > 0
    assert field.cross(5, row[x]) == ((row[x], 5) if field == QQ else (1, 5))


def test_prime_field_inverses_and_zero_division():
    """inv, fraction and normalize invert by extended Euclid; a zero
    divisor still raises ZeroDivisionError, never pow's ValueError."""
    rng = random.Random(23)
    for _ in range(200):
        a = rng.randrange(1, FP.p)
        assert FP.mul(a, FP.inv(a)) == 1 and FP.inv(a) == pow(a, FP.p - 2, FP.p)
        num, den = rng.randint(-10**12, 10**12), rng.choice([-1, 1]) * rng.randint(1, 10**12)
        if den % FP.p:
            assert FP.mul(FP.fraction(num, den), FP.from_int(den)) == FP.from_int(num)
    row = {(1, 0): 5, (0, 1): 7}
    FP.normalize(row, (1, 0))
    assert row == {(1, 0): 1, (0, 1): FP.fraction(7, 5)}
    for call in (lambda: FP.inv(0), lambda: FP.inv(FP.p), lambda: FP.fraction(1, FP.p),
                 lambda: FP.fraction(1, 0), lambda: FP.div(3, 0)):
        with pytest.raises(ZeroDivisionError):
            call()


def test_prime_field_range_and_modulus():
    from agrees.errors import BadParameters

    assert FP.from_int(-1) == FP.p - 1
    assert 0 <= FP.mul(FP.from_int(12345), FP.from_int(-9876)) < FP.p
    with pytest.raises(BadParameters):
        PrimeField(1048573)  # prime but below the 2^20 floor
    with pytest.raises(BadParameters):
        PrimeField(1 << 22)  # composite
    with pytest.raises(BadParameters):
        PrimeField(3215031751)  # 151*751*28351, a strong pseudoprime to bases 2, 3, 5, 7


def test_field_from_config_makes_one_field_per_modulus(monkeypatch):
    """Each "fp:<p>" config gives the same PrimeField object every time, so
    its Miller-Rabin test runs once per modulus; "q" is QQ."""
    from agrees import fields
    from agrees.errors import BadParameters

    tested = []
    real = fields._is_prime

    def counted(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(fields, "_is_prime", counted)
    monkeypatch.setattr(fields, "_PRIME_FIELDS", {})
    first = fields.field_from_config("fp:2147483647")
    assert fields.field_from_config("fp:2147483647") is first and first == FP
    other = fields.field_from_config("fp:4294967291")
    assert other is not first and fields.field_from_config("fp:4294967291") is other
    assert tested == [2147483647, 4294967291]
    assert fields.field_from_config("q") is QQ
    with pytest.raises(BadParameters):
        fields.field_from_config("fp:1048573")  # prime but below the 2^20 floor
    with pytest.raises(BadParameters):
        fields.field_from_config("fp:1048573")  # a rejected modulus is not kept
    assert tested[2:] == [1048573, 1048573]


def test_field_from_config_refuses_strong_pseudoprimes():
    """psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the
    twelve bases 2..37, and psi_13 to the thirteen bases 2..41: the witness
    41 refuses the first, and the modulus bound below psi_13 the second."""
    from agrees import fields
    from agrees.errors import BadParameters

    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441 and psi13 == fields.PRIME_LIMIT
    assert not fields._is_prime(psi12)
    assert fields._is_prime(psi13)
    for p in (psi12, psi13):
        with pytest.raises(BadParameters, match="not a prime below"):
            fields.field_from_config(f"fp:{p}")


def test_polynomial_arithmetic():
    x = Polynomial.variable(BASE_RING, QQ, "x")
    y = Polynomial.variable(BASE_RING, QQ, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (p - p).is_zero
    assert p.min_degree() == 2 and max(map(sum, p.terms)) == 2


def test_polynomial_zero_is_empty():
    x = Polynomial.variable(BASE_RING, QQ, "x")
    z = x - x
    assert z.terms == {} and z.is_zero and str(z) == "0"


def test_no_zero_coefficients_stored():
    x = Polynomial.variable(BASE_RING, QQ, "x")
    p = x + x.scale(QQ.from_int(-1)) + x
    assert list(p.terms.values()) == [Fraction(1)]


def test_ring_mismatch_raises():
    x = Polynomial.variable(BASE_RING, QQ, "x")
    other = Polynomial.variable(Ring(("x", "y", "t")), QQ, "x")
    with pytest.raises(RingMismatch):
        _ = x + other
    with pytest.raises(RingMismatch):
        _ = x + Polynomial.variable(BASE_RING, FP, "x")


def test_leading_term_respects_order():
    x = Polynomial.variable(BASE_RING, QQ, "x")
    y = Polynomial.variable(BASE_RING, QQ, "y")
    p = x + y ** 3
    assert p.sorted_terms()[0][0] == (0, 3)  # grevlex
    assert max(p.terms, key=LEX_XY.packer(BASE_RING).pack) == (1, 0)


def test_substitute():
    ring3 = Ring(("x", "y", "t"))
    x3 = Polynomial.variable(ring3, QQ, "x")
    y3 = Polynomial.variable(ring3, QQ, "y")
    t3 = Polynomial.variable(ring3, QQ, "t")
    p = Polynomial.monomial(BASE_RING, QQ, (2, 1))
    image = p.substitute(ring3, {"x": x3 * t3, "y": y3})
    assert image == x3 * x3 * t3 * t3 * y3


def test_str_canonical_forms():
    x = Polynomial.variable(BASE_RING, QQ, "x")
    y = Polynomial.variable(BASE_RING, QQ, "y")
    assert str(x * x - y * y) == "x^2 - y^2"
    assert str(2 * (x ** 2) * (y ** 3)) == "2*x^2*y^3"
    assert str(-x + y) == "-x + y"
    assert str(x.scale(Fraction(1, 2))) == "1/2*x"
    one = Polynomial.one(BASE_RING, QQ)
    assert str(one) == "1"


def test_str_symmetric_representatives_over_fp():
    x = Polynomial.variable(BASE_RING, FP, "x")
    p = x.scale(FP.from_int(-1))
    assert str(p) == "-x"
    # coefficients above p/2 print as their negatives' magnitudes
    y = Polynomial.variable(BASE_RING, FP, "y")
    assert str(x - y.scale(FP.from_int(3))) == "x - 3*y"
    assert str(Polynomial.one(BASE_RING, FP).scale(FP.from_int(-5))) == "-5"

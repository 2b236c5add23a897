"""Classifier pipeline: reductions, stability, certificates, refutations."""

import random
from dataclasses import replace

import pytest

from agrees import engine
from agrees.engine import (
    ClassifyConfig,
    Verdict,
    _WitnessSpaces,
    canonical_colon,
    certificate_search,
    classify,
    derive_seed,
    find_reduction,
    is_stable,
    necessary_bound,
    validate_report,
    verify_witness,
)
from agrees.errors import BadParameters, NotContained, NotStable
from agrees.families import family_exponents, make_family
from agrees.fields import QQ, PrimeField
from agrees.groebner import (
    Ideal,
    _contains_all,
    ideal_colon,
    ideal_equal,
    ideal_pow,
    ideal_product,
    maximal_ideal,
    minimal_generators,
)
from agrees.parse import parse_ideal_spec, parse_polynomial
from agrees.poly import BASE_RING, Polynomial
from agrees.staircase import staircase_normalize, staircase_of_ideal

from oracles import generic_ranks

FP = PrimeField(2147483647)


def ideal(text, field=QQ):
    return Ideal(parse_ideal_spec(text, BASE_RING, field))


def poly(text, field=QQ):
    return parse_polynomial(text, BASE_RING, field)


# -- reductions ---------------------------------------------------------------

def test_reduction_pure_powers():
    red = find_reduction(ideal("x^3, x^2 y^3, x y^5, y^6"))
    assert sorted(str(q) for q in red.Q) == ["x^3", "y^6"]
    assert red.reduction_number == 1 and red.stable


def test_reduction_parameter_ideal_is_itself():
    red = find_reduction(ideal("x^3, y^6"))
    assert red.reduction_number == 0 and red.stable


def test_reduction_random_combination():
    I = ideal("x^3, x y, y^3")
    red = find_reduction(I, seed=0)
    assert red.reduction_number <= 4
    # re-verify the reduction identity through the Groebner path
    Q = Ideal(list(red.Q))
    r = red.reduction_number
    lhs = ideal_pow(I, r + 1)
    rhs = ideal_product(Q, ideal_pow(I, r)) if r else Q
    assert ideal_equal(lhs, rhs)


def test_reduction_deterministic():
    a = find_reduction(ideal("x^3, x y, y^3"), seed=5)
    b = find_reduction(ideal("x^3, x y, y^3"), seed=5)
    assert a == b


def _twin(exps, field, c=None):
    """The ideal generated by (x + c*y)^a * y^b for (a, b) in exps; c = 2
    unless given."""
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    x = x + y.scale(field.from_int(2) if c is None else c)
    return Ideal([x ** a * y ** b for a, b in exps])


def _reference_reduction_number(I, Q, cap):
    """Minimal r <= cap with I^{r+1} = Q I^r as global ideals, by product
    containments; Q <= I is assumed."""
    if _contains_all(Q, I.generators):
        return 0
    power = I
    for r in range(1, cap + 1):
        lhs = ideal_product(I, power)
        if _contains_all(ideal_product(Q, power), lhs.generators):
            return r
        power = lhs
    return None


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_reduction_number_matches_products_on_staircases(field):
    # a pure-power pair is m-primary, so the local rank test and the global
    # containments must agree, on pairs that are reductions and on those that
    # are not
    from agrees.repro import random_staircase
    from agrees.staircase import ideal_of_staircase

    rng = random.Random(47)
    seen = set()
    for _ in range(60):
        S = random_staircase(rng, 6, 3)
        I = ideal_of_staircase(S, BASE_RING, field)
        Q = Ideal([Polynomial.monomial(BASE_RING, field, e)
                   for e in ((S.gens[0][0], 0), (0, S.gens[-1][1]))])
        r = engine._reduction_number(I, Q, 4)
        assert r == _reference_reduction_number(I, Q, 4), S
        seen.add(r)
    assert None in seen and {0, 1, 2} <= seen


def test_reduction_number_matches_products_on_twins():
    # x -> x+2y twins of staircases with the twin of their pure-power pair:
    # no staircase anywhere, and the pair is still m-primary
    from agrees.repro import random_staircase

    rng = random.Random(53)
    seen = set()
    for _ in range(12):
        S = random_staircase(rng, 5, 2)
        I = _twin(S.gens, QQ)
        Q = _twin([(S.gens[0][0], 0), (0, S.gens[-1][1])], QQ)
        r = engine._reduction_number(I, Q, 3)
        assert r == _reference_reduction_number(I, Q, 3), S
        seen.add(r)
    assert None in seen and 1 in seen


# the x -> x+2y twins of remark43 and the refuter numbers (min_sum, threshold)
# of their monomial sources; m=4 over q also runs with the benchmark's seed
REMARK43_TWINS = {
    "m4-q-seed-0": (4, QQ, 0),
    "m4-q-benchmark-seed": (4, QQ, derive_seed(0, "remark43(m=4) x->x+(2)y")),
    "m5-fp": (5, FP, 0),
}


@pytest.mark.parametrize("name", sorted(REMARK43_TWINS))
def test_remark43_twin_matches_its_source(name):
    m, field, seed = REMARK43_TWINS[name]
    numbers = {4: (8, 6), 5: (11, 8)}[m]
    source = make_family("remark43", {"m": m}, field=field)
    I = _twin(family_exponents("remark43", {"m": m}), field)
    for ideal_ in (source, I):
        rep = classify(ideal_, ClassifyConfig(seed=seed))
        assert rep.verdict is Verdict.NOT_AG, rep.notes
        assert (rep.refutation.min_sum, rep.refutation.threshold) == numbers
        assert validate_report(ideal_, rep)


# -- stability -----------------------------------------------------------------

def test_stability_truth_instances():
    Q6 = ideal("x^3, y^6")
    assert is_stable(make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}), Q6)
    assert not is_stable(make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3}), Q6)
    I = ideal("x^3, y^6")
    assert is_stable(I, I)


def test_stability_requires_containment():
    with pytest.raises(NotContained):
        is_stable(ideal("x^3, y^6"), ideal("x^2, y^6"))


# -- canonical colon -------------------------------------------------------------

def test_colon_order_three_family():
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    J = canonical_colon(I, ideal("x^3, y^6"), stable=True)
    assert staircase_of_ideal(J).gens == ((2, 0), (1, 1), (0, 3))


def test_colon_high_order_family_is_maximal_power():
    I = make_family("power-order", {"m": 3, "n": 4})
    J = canonical_colon(I, ideal("x^3, y^4"), stable=True)
    assert staircase_of_ideal(J).gens == ((2, 0), (1, 1), (0, 2))


def test_colon_of_parameter_ideal_is_unit():
    Q = ideal("x^3, y^6")
    J = canonical_colon(Q, Q, stable=True)
    assert staircase_of_ideal(J).gens == ((0, 0),)


def test_colon_requires_stability():
    # (6, 2, 3) is not stable against its pure powers, which are no reduction
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    Q = ideal("x^3, y^6")
    for stable in (None, False):
        with pytest.raises(NotStable):
            canonical_colon(I, Q, stable=stable)


def test_colon_of_a_pair_vanishing_away_from_the_origin():
    # Q = (x^2 - x^3, y^2) also vanishes at (1, 0), so the global Q : I keeps
    # a component there; locally Q = (x^2, y^2), whose colon is (x, y)
    I = ideal("x^2, x y, y^2")
    J = canonical_colon(I, ideal("x^2 - x^3, y^2"))
    assert ideal_equal(J, ideal("x, y"))
    assert not ideal_equal(ideal_colon(ideal("x^2 - x^3, y^2"), I), J)


def _reference_colon(I, Q):
    """The reduced basis of (Q : I) + I^2, through the global colon."""
    local = Ideal(list(ideal_colon(Q, I).generators) + list(ideal_product(I, I).generators))
    return Ideal(list(local.groebner_basis()))


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_colon_matches_reference_on_twins(field):
    # x -> x+2y and x -> x-y/2 twins with the pair find_reduction picks
    from agrees.repro import random_staircase

    rng = random.Random(61)
    half = field.div(field.from_int(-1), field.from_int(2))
    checked = 0
    for c in (field.from_int(2), half):
        for _ in range(12):
            I = _twin(random_staircase(rng, 6, 3).gens, field, c)
            red = find_reduction(I)
            if not red.stable:
                continue
            Q = Ideal(list(red.Q))
            J = canonical_colon(I, Q, stable=True)
            assert J.generators == _reference_colon(I, Q).generators, I
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_colon_matches_reference_on_vertex_splits(field):
    # monomial ideals whose pair is the Newton-polygon vertex split: Q is
    # not monomial, so the colon is the kernel on R/I, not the staircase one
    from agrees.repro import random_staircase
    from agrees.staircase import ideal_of_staircase

    rng = random.Random(67)
    checked = 0
    for _ in range(60):
        I = ideal_of_staircase(random_staircase(rng, 7, 3), BASE_RING, field)
        red = find_reduction(I)
        Q = Ideal(list(red.Q))
        if not red.stable or staircase_of_ideal(Q) is not None:
            continue
        J = canonical_colon(I, Q, stable=True)
        assert J.generators == _reference_colon(I, Q).generators, I
        checked += 1
    assert checked >= 16


def test_colon_of_infinite_colength_raises():
    from agrees.errors import NotZeroDimensional

    for text in ("x^2 + x y, x y^2", "x^2, x y"):
        I = ideal(text)
        with pytest.raises(NotZeroDimensional):
            canonical_colon(I, I, stable=True, contracted=False)


def test_classify_builds_no_basis_twice(monkeypatch):
    # the flagship twin (NOT_AG) and PINNED's boundary twin (AG_CERTIFIED):
    # mu(I) shares the reduction's levels of I, the colon shares their I^2,
    # mingens(I) shares their m*I and mingens(J) shares m*J with the witness
    # spaces; the colon's J carries its reduced basis, so no run starts from
    # an earlier run's output.  verify_witness is the independent re-check of a certificate:
    # it builds its own bases of m*IJ and m^2*J by design, so the bases it
    # builds are left out of the count
    from agrees import groebner

    def key(polys):
        return frozenset(frozenset(p.items()) for p in polys)

    m = maximal_ideal(BASE_RING, QQ)
    cases = []
    for I, expected in (
            (_twin(family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}), QQ,
                   QQ.div(QQ.from_int(1), QQ.from_int(3))), Verdict.NOT_AG),
            (_twin([(3, 0), (2, 3), (1, 4), (0, 5)], QQ), Verdict.AG_CERTIFIED)):
        shared = [key(p.terms for p in ideal_product(A, I).groebner_basis()) for A in (m, I)]
        cases.append((I, expected, shared))

    inputs, outputs = [], []
    real, real_verify = groebner._buchberger, engine.verify_witness
    verifying = []

    def record(polys, *args, **kwargs):
        out = real(polys, *args, **kwargs)
        if not verifying:
            inputs.append(key(polys))
            outputs.append(key(out))
        return out

    def verify(*args):
        verifying.append(True)
        try:
            return real_verify(*args)
        finally:
            verifying.pop()

    monkeypatch.setattr(groebner, "_buchberger", record)
    monkeypatch.setattr(engine, "verify_witness", verify)
    for I, expected, shared in cases:
        inputs.clear()
        outputs.clear()
        assert classify(I).verdict is expected
        assert inputs and len(set(inputs)) == len(inputs)
        assert not any(basis in outputs[:k] for k, basis in enumerate(inputs))
        # nor is a basis of m*I or I^2 built again from another generator list
        assert [outputs.count(basis) for basis in shared] == [1, 1]


def test_order_drop_for_contracted_stable():
    rng = random.Random(19)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 10)
        beta = rng.randint((n + 1) // 2, max((n + 1) // 2, n - 1))
        if not 0 < beta < n:
            continue
        I = Ideal([Polynomial.monomial(BASE_RING, QQ, e)
                   for e in ((2, 0), (1, beta), (0, n))])
        Q = ideal(f"x^2, y^{n}")
        if not is_stable(I, Q):
            continue
        J = canonical_colon(I, Q, stable=True)  # raises internally if the drop fails
        from agrees.groebner import ideal_order

        assert ideal_order(I) == ideal_order(J) + 1
        checked += 1


# -- certificates ------------------------------------------------------------------

def test_certificate_high_order_simplest():
    I = ideal("x^2, x y^4, y^5")
    Q = ideal("x^2, y^5")
    J = canonical_colon(I, Q, stable=True)
    w = certificate_search(I, Q, J)
    assert w is not None and w == certificate_search(I, Q, J)
    assert verify_witness(I, J, w.f, w.g, w.h)
    # so does the sparse triple (x, x^2, y)
    assert verify_witness(I, J, poly("x"), poly("x^2"), poly("y"))


def test_certificate_boundary_family():
    I = ideal("x^3, x^2 y^3, x y^4, y^5")
    Q = ideal("x^3, y^5")
    J = canonical_colon(I, Q, stable=True)
    w = certificate_search(I, Q, J)
    assert w is not None and verify_witness(I, J, w.f, w.g, w.h)
    # the published triple also verifies
    assert verify_witness(I, J, poly("y"), poly("x^3"), poly("x^2 - y^2"))


def test_certificate_three_gen_even_case():
    I = ideal("x^3, x^2 y^2, y^4")
    Q = ideal("x^3, y^4")
    J = canonical_colon(I, Q, stable=True)
    w = certificate_search(I, Q, J)
    assert w is not None and verify_witness(I, J, w.f, w.g, w.h)
    assert verify_witness(I, J, poly("y"), poly("y^4"), poly("x"))


def test_certificate_requires_stability():
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    Q = ideal("x^3, y^6")
    with pytest.raises(NotStable):
        certificate_search(I, Q, ideal("x, y"))


def test_certificate_deterministic():
    I = ideal("x^3, x^2 y^3, x y^4, y^5")
    Q = ideal("x^3, y^5")
    J = canonical_colon(I, Q, stable=True)
    w1 = certificate_search(I, Q, J, seed=3)
    w2 = certificate_search(I, Q, J, seed=3)
    assert w1 == w2


def test_verify_witness_is_local():
    # g = x^2 (1 + x) is x^2 times a unit of the local ring, so gJ + Ih = IJ
    # holds locally, although globally both sides differ at (-1, 0)
    I, J = ideal("x^2, x y, y^2"), ideal("x, y")
    f, g, h = poly("x"), poly("x^2 + x^3"), poly("y")
    assert verify_witness(I, J, f, g, h)
    left = Ideal([g * w for w in J.generators] + [a * h for a in I.generators])
    assert not ideal_equal(ideal_product(I, J), left)


def test_witness_outside_its_ideal_is_rejected():
    # unit entries would make both sums trivially full; membership rejects them
    I = ideal("x^2, x y^4, y^5")
    rep = classify(I)
    assert rep.verdict is Verdict.AG_CERTIFIED and validate_report(I, rep)
    J = Ideal(list(rep.colon_gens))
    one = poly("1")
    for bad in (replace(rep.witness, g=one), replace(rep.witness, f=one),
                replace(rep.witness, h=one)):
        assert not verify_witness(I, J, bad.f, bad.g, bad.h)
        assert not validate_report(I, replace(rep, witness=bad))


# ideals whose certificates are checked on the monomial ideal over q, on an
# x -> x+2y twin over q (no staircase anywhere) and over a prime field
PINNED = ("boundary-q", "boundary-twin-q", "order-four-fp")


def _pinned_case(name):
    if name == "boundary-q":
        I = ideal("x^3, x^2 y^3, x y^4, y^5")
    elif name == "boundary-twin-q":
        x, y = (Polynomial.variable(BASE_RING, QQ, v) for v in ("x", "y"))
        x = x + y.scale(QQ.from_int(2))
        I = Ideal([x ** a * y ** b for a, b in [(3, 0), (2, 3), (1, 4), (0, 5)]])
    else:
        I = ideal("x^4, x^3 y^2, x^2 y^4, x y^5, y^7", FP)
    Q = Ideal(list(find_reduction(I).Q))
    return I, Q, canonical_colon(I, Q, stable=True)


@pytest.mark.parametrize("name", PINNED)
def test_certificate_pinned_witness(name):
    I, Q, J = _pinned_case(name)
    w = certificate_search(I, Q, J)
    assert w is not None and w == certificate_search(I, Q, J)
    assert verify_witness(I, J, w.f, w.g, w.h)


@pytest.mark.parametrize("name", PINNED)
def test_rank_test_passes_every_exact_equality(name):
    """On seeded sparse and dense triples, both ranks are full exactly when
    verify_witness holds: in both directions, not only on exact equalities."""
    I, Q, J = _pinned_case(name)
    fld = I.field
    sp = _WitnessSpaces(I, J, minimal_generators(J))
    m = maximal_ideal(I.ring, fld)
    rng = random.Random(derive_seed("rank-vs-exact", name))

    def coeffs(n):
        # sparse draws are mostly 0 and +-1, dense ones are wide
        if rng.random() < 0.5:
            return [fld.from_int(rng.choice((0, 0, 1, -1))) for _ in range(n)]
        return [fld.from_int(rng.randint(-99, 99)) for _ in range(n)]

    def span(c, gens):
        return sum((p.scale(cj) for cj, p in zip(c, gens)), Polynomial.zero(I.ring, fld))

    outcomes = set()
    for _ in range(24):
        a, c, b = coeffs(len(sp.i_min)), coeffs(len(sp.j_min)), coeffs(2)
        passes = sp.full_ranks(a, b, c, fld)
        f, g, h = span(b, m.generators), span(a, sp.i_min), span(c, sp.j_min)
        assert passes == verify_witness(I, J, f, g, h), (str(f), str(g), str(h))
        outcomes.add(passes)
    assert outcomes == {True, False}


def _reference_sum_equals(ref, parts):
    """(parts) + m*ref = ref by Groebner membership of ref's generators in
    one basis of the parts plus the generators of m*ref."""
    m = maximal_ideal(ref.ring, ref.field)
    gens = [p for p in parts + list(ideal_product(m, ref).generators) if not p.is_zero]
    return _contains_all(Ideal(gens), ref.generators)


def _reference_verify_witness(I, J, f, g, h):
    m = maximal_ideal(I.ring, I.field)
    if not (_contains_all(m, [f]) and _contains_all(I, [g]) and _contains_all(J, [h])):
        return False
    return (_reference_sum_equals(ideal_product(I, J), [g * w for w in J.generators]
                                  + [a * h for a in I.generators])
            and _reference_sum_equals(ideal_product(m, J), [f * w for w in J.generators]
                                      + [v * h for v in m.generators]))


# verify_witness against the Groebner route: monomial ideals over q, their
# x -> x+2y twins over q (no staircase anywhere) and monomial ideals over fp
SUM_CASES = {
    "monomial-q": (QQ, False),
    "twin-q": (QQ, True),
    "monomial-fp": (FP, False),
}


@pytest.mark.parametrize("name", sorted(SUM_CASES))
def test_verify_witness_matches_groebner_route(name):
    from agrees.repro import random_staircase

    field, twin = SUM_CASES[name]
    rng = random.Random(derive_seed("sum-equals", name))
    m = maximal_ideal(BASE_RING, field)

    def coeffs(n):
        # sparse draws are mostly 0 and +-1, dense ones are wide
        if rng.random() < 0.5:
            return [field.from_int(rng.choice((0, 0, 1, -1))) for _ in range(n)]
        return [field.from_int(rng.randint(-99, 99)) for _ in range(n)]

    def span(c, gens):
        return sum((p.scale(cj) for cj, p in zip(c, gens)), Polynomial.zero(BASE_RING, field))

    outcomes = set()
    checked = 0
    while checked < 8:
        S = random_staircase(rng, 5, 2)
        I = _twin(S.gens, field) if twin else Ideal(
            [Polynomial.monomial(BASE_RING, field, e) for e in S.gens])
        red = find_reduction(I)
        if not red.stable:
            continue
        J = canonical_colon(I, Ideal(list(red.Q)), stable=True)
        i_min, j_min = minimal_generators(I), minimal_generators(J)
        if len(j_min) < 2:
            continue
        for _ in range(6):
            f = span(coeffs(2), m.generators)
            g, h = span(coeffs(len(i_min)), i_min), span(coeffs(len(j_min)), j_min)
            got = verify_witness(I, J, f, g, h)
            assert got == _reference_verify_witness(I, J, f, g, h), (S, str(f), str(g), str(h))
            outcomes.add(got)
        checked += 1
    assert outcomes == {True, False}


def test_sum_equals_on_monomial_parts_against_mj():
    # ref = mJ with all parts monomial: the path a staircase comparison once took
    J = ideal("x^2, x y, y^3")
    m = maximal_ideal(BASE_RING, QQ)
    mJ = ideal_product(m, J)
    outcomes = set()
    for f in m.generators:
        for h in J.generators:
            parts = [f * w for w in J.generators] + [v * h for v in m.generators]
            got = engine._sum_equals(mJ, staircase_of_ideal(mJ), list(mJ.generators), parts)
            assert got == _reference_sum_equals(mJ, parts), (str(f), str(h))
            outcomes.add(got)
    assert outcomes == {True, False}


# -- the sparse rank --------------------------------------------------------------

def _reference_rank(rows, fld):
    """Dense Gaussian elimination on lists of field elements: the rank
    engine._rank computed before it became one sparse echelon."""
    m = [row[:] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != fld.zero:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = fld.inv(m[rank][col])
        for r in range(rank + 1, len(m)):
            if m[r][col] != fld.zero:
                scale = fld.mul(m[r][col], inv)
                m[r] = [fld.sub(a, fld.mul(scale, b)) for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


# hand-built sparse rows, integer entries; "zero-entry-leads" is the row whose
# largest column holds an explicit 0, which a rank without the zero drop
# stores as a pivot and then divides by
RANK_ROWS = {
    "no-rows": [],
    "empty-row": [{}, {(0, 1): 1}, {}],
    "zero-entry-leads": [{(2, 0): 0, (1, 1): 1}, {(2, 0): 1, (1, 1): 1}, {(2, 0): 2}],
    "repeated-rows": [{(1, 0): 1, (0, 1): 2}] * 3 + [{(0, 1): 1}],
    "cancels-to-zero": [{(1, 0): 1, (0, 2): 3}, {(1, 0): 2, (0, 2): 6},
                        {(1, 0): 0, (0, 2): 0}],
}


def _seeded_rank_rows(rng, fld):
    """Sparse rows over 16 monomial columns: fresh rows with explicit zeros,
    repeats of earlier rows, and _combine's sums of two earlier rows, whose
    entries may cancel to zero."""
    cols = [(i, j) for i in range(4) for j in range(4)]
    rows = []
    for _ in range(rng.randint(0, 8)):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif len(rows) >= 2 and pick < 0.35:
            a, b = rng.sample(rows, 2)
            c = rng.choice(((1, -1), (-1, 1), (2, -2)) if a == b
                           else ((1, -1), (rng.randint(-3, 3), rng.randint(-3, 3))))
            rows.append(engine._combine([a, b], [fld.from_int(v) for v in c], fld))
        else:
            rows.append({col: fld.from_int(rng.choice((0, 0, 1, -1, rng.randint(-99, 99))))
                         for col in rng.sample(cols, rng.randint(0, 5))})
    return rows


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@pytest.mark.parametrize("case", [*RANK_ROWS, "seeded"])
def test_rank_matches_dense_reference(case, field):
    if case == "seeded":
        rng = random.Random(derive_seed("sparse-rank", field.p if field is FP else 0))
        row_lists = [_seeded_rank_rows(rng, field) for _ in range(300)]
    else:
        row_lists = [[{col: field.from_int(v) for col, v in row.items()}
                      for row in RANK_ROWS[case]]]
    for rows in row_lists:
        before = [dict(row) for row in rows]
        cols = sorted({col for row in rows for col in row})
        dense = [[row.get(col, field.zero) for col in cols] for row in rows]
        assert engine._rank(rows, field) == _reference_rank(dense, field), rows
        assert rows == before


# -- the refuter --------------------------------------------------------------------

# each refuter case runs on the monomial ideal over q, on its x -> x+2y twin
# over q (no staircase anywhere) and on the monomial ideal over a prime field
VIEWS = ("monomial-q", "twin-q", "monomial-fp")


def _refuter_numbers(i_exps, j_exps, view):
    """Engine refuter numbers, checked against the sympy rank oracle."""
    field = FP if view == "monomial-fp" else QQ
    x = Polynomial.variable(BASE_RING, field, "x")
    y = Polynomial.variable(BASE_RING, field, "y")
    if view == "twin-q":
        x = x + y.scale(field.from_int(2))
    I = Ideal([x ** a * y ** b for a, b in i_exps])
    Q = Ideal([x ** i_exps[0][0], y ** i_exps[-1][1]])
    J = canonical_colon(I, Q, stable=True)
    ref = necessary_bound(I, J, Q=Q)
    got = (ref.mu_IJ, ref.mu_mJ, ref.rank_I, ref.rank_m, ref.min_sum)
    mu_ij, mu_mj, r_i, r_m = generic_ranks(i_exps, j_exps)
    assert got == (mu_ij, mu_mj, r_i, r_m, mu_ij + mu_mj - r_i - r_m)
    return got, ref


@pytest.mark.parametrize("view", VIEWS)
def test_refuter_flagship_numbers(view):
    got, ref = _refuter_numbers(
        [(3, 0), (2, 3), (1, 5), (0, 6)], [(2, 0), (1, 1), (0, 3)], view)
    assert got == (6, 4, 3, 2, 5)
    assert (ref.mu_J, ref.threshold) == (3, 4)


@pytest.mark.parametrize("view", VIEWS)
def test_refuter_three_gen_numbers(view):
    got, ref = _refuter_numbers([(3, 0), (2, 3), (0, 5)], [(1, 0), (0, 2)], view)
    assert got == (4, 3, 2, 2, 3)
    assert ref.threshold == 2


@pytest.mark.parametrize("view", VIEWS)
def test_refuter_boundary_is_inconclusive(view):
    got, ref = _refuter_numbers(
        [(3, 0), (2, 3), (1, 4), (0, 5)], [(2, 0), (1, 1), (0, 2)], view)
    assert got == (6, 4, 4, 2, 4)
    assert ref.min_sum <= ref.threshold == 4


def test_refuter_min_sum_at_least_two():
    for args in ({"n": 6, "alpha": 3, "beta": 5}, {"n": 8, "alpha": 5, "beta": 7}):
        I = make_family("contracted-o3", args)
        Q = ideal(f"x^3, y^{args['n']}")
        J = canonical_colon(I, Q, stable=True)
        assert necessary_bound(I, J, Q=Q).min_sum >= 2


def test_refuter_requires_stability_when_given_q():
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    Q = ideal("x^3, y^6")
    with pytest.raises(NotStable):
        necessary_bound(I, ideal_colon(Q, I), Q=Q)


# -- classify ------------------------------------------------------------------------

def test_classify_flagship_not_ag():
    rep = classify(ideal("x^3, x^2 y^3, x y^5, y^6"))
    assert rep.verdict is Verdict.NOT_AG
    assert rep.contracted and rep.reduction.stable
    assert rep.refutation.min_sum == 5
    assert validate_report(ideal("x^3, x^2 y^3, x y^5, y^6"), rep)


def test_validate_report_recomputes_refutation():
    # the boundary ideal is almost Gorenstein; a NOT_AG report claiming
    # min_sum above the threshold must not survive validation
    I = ideal("x^3, x^2 y^3, x y^4, y^5")
    rep = classify(I)
    J, Q = Ideal(list(rep.colon_gens)), Ideal(list(rep.reduction.Q))
    ref = necessary_bound(I, J, Q=Q)
    tampered = replace(rep, verdict=Verdict.NOT_AG, witness=None,
                       refutation=replace(ref, min_sum=ref.threshold + 1))
    assert not validate_report(I, tampered)


def test_validate_report_recomputes_mu_of_the_colon():
    # an AG_CERTIFIED report relabelled GORENSTEIN with colon_min_gens = 1 must
    # not survive validation: its colon x^2, xy, y^2 has mu(J) = 3
    I = ideal("x^3, x^2 y, x y^2, y^3")
    rep = classify(I)
    assert rep.verdict is Verdict.AG_CERTIFIED and len(rep.colon_gens) == 3
    relabelled = replace(rep, verdict=Verdict.GORENSTEIN, colon_min_gens=1)
    assert not validate_report(I, relabelled)
    assert not validate_report(I, replace(relabelled, colon_gens=None))
    I = ideal("x^3, y^6")
    rep = classify(I)
    assert rep.verdict is Verdict.GORENSTEIN and validate_report(I, rep)


def test_classify_simplest_order_two():
    I = ideal("x^2, x y^4, y^5")
    rep = classify(I)
    assert rep.verdict is Verdict.AG_CERTIFIED
    assert rep.integrally_closed is False
    assert validate_report(I, rep)


def test_classify_parameter_ideal_gorenstein():
    rep = classify(ideal("x^3, y^6"))
    assert rep.verdict is Verdict.GORENSTEIN
    assert rep.colon_min_gens == 1


def test_classify_deterministic():
    cfg = ClassifyConfig(seed=9)
    a = classify(ideal("x^3, x^2 y^3, x y^5, y^6"), cfg)
    b = classify(ideal("x^3, x^2 y^3, x y^5, y^6"), cfg)
    assert a == b


def test_classify_unstable_is_unknown():
    rep = classify(ideal("x^4, x^3 y, y^4"))
    assert rep.verdict is Verdict.UNKNOWN
    assert rep.reduction is not None and not rep.reduction.stable
    assert rep.reduction.reduction_number == 3
    assert rep.colon_gens is None


@pytest.mark.parametrize("text,r", [
    ("x^9, x*y^5, y^6", 5),
    ("x^9, x*y^6, y^7", 6),
    ("x^7, x^6*y^2, x*y^7, y^8", 5),
])
def test_newton_pair_reduction_number_has_no_cap(text, r):
    # the Newton pair is a reduction, so its r is found above _REDUCTION_CAP
    assert r > engine._REDUCTION_CAP
    I = ideal(text)
    assert find_reduction(I).reduction_number == r
    rep = classify(I)
    assert rep.verdict is Verdict.UNKNOWN
    assert rep.reduction.reduction_number == r
    assert rep.notes[0].startswith(f"reduction number {r} exceeds 1; ")
    assert validate_report(I, rep)


def test_classify_designated_q_unstable_but_true_reduction_found():
    # (n, alpha, beta) = (6, 2, 3): the family's pure-power pair is not a
    # reduction (its multiplicity is too large), but a vertex split of the
    # Newton polygon is, with reduction number one; the ideal is integrally
    # closed, so R(I) is almost Gorenstein
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    Q = ideal("x^3, y^6")
    assert not is_stable(I, Q)
    rep = classify(I)
    assert rep.reduction is not None and rep.reduction.stable
    assert rep.integrally_closed
    assert rep.verdict is Verdict.AG_CERTIFIED and validate_report(I, rep)


@pytest.mark.parametrize("params", [(5, 2, 4), (6, 2, 3), (7, 2, 3), (7, 3, 6)])
def test_classify_contracted_o3_certified(params):
    n, alpha, beta = params
    I = make_family("contracted-o3", {"n": n, "alpha": alpha, "beta": beta}, field=FP)
    rep = classify(I, ClassifyConfig(seed=derive_seed(0, "contracted-o3", *params)))
    assert rep.verdict is Verdict.AG_CERTIFIED and validate_report(I, rep)


def test_classify_over_prime_field_uses_its_own_prime():
    I = ideal("x^3, x^2 y^3, x y^5, y^6", FP)
    rep = classify(I)
    assert rep.verdict is Verdict.NOT_AG
    assert rep.refutation.primes == (2147483647,)
    assert validate_report(I, rep)


@pytest.mark.parametrize("c", ["1/3", "-1/2", "5/7"])
def test_classify_prime_field_twin_with_fraction_matches_q(c):
    # three-gen (n=5, alpha=3) under x -> x + c*y: the fp coefficients of the
    # twin are residues of fractions, so the verdict over fp must be the one
    # over q, not that of an ideal re-read from integer representatives
    verdicts = set()
    for field in (QQ, FP):
        x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
        x = x + y * poly(c, field)
        I = Ideal([x ** a * y ** b for a, b in family_exponents("three-gen", {"n": 5, "alpha": 3})])
        rep = classify(I)
        assert validate_report(I, rep)
        if field is FP:
            assert rep.refutation.primes == (FP.p,)
        verdicts.add(rep.verdict)
    assert verdicts == {Verdict.NOT_AG}


def test_classify_m_primary_guard():
    from agrees.errors import NotZeroDimensional

    with pytest.raises(NotZeroDimensional):
        classify(ideal("x^2"))
    with pytest.raises(NotZeroDimensional):
        classify(ideal("1"))
    with pytest.raises(NotZeroDimensional):
        classify(ideal("x + 1, y"))


def test_integrally_closed_never_refuted():
    # closures of random staircases; the refuter must never fire on them
    from agrees.repro import random_staircase
    from agrees.staircase import ideal_of_staircase, newton_closure

    rng = random.Random(12345)
    verdicts = set()
    for k in range(25):
        S = newton_closure(random_staircase(rng, max_exp=7, extras=3))
        I = ideal_of_staircase(S, BASE_RING, QQ)
        rep = classify(I, ClassifyConfig(seed=k))
        verdicts.add(rep.verdict)
        assert rep.verdict is not Verdict.NOT_AG, S
    assert Verdict.AG_CERTIFIED in verdicts


def test_integrally_closed_is_almost_gorenstein():
    # GMTY1: every integrally closed m-primary I has an almost Gorenstein
    # R(I); checked on Newton closures and on their x -> x+2y twins
    from agrees.repro import random_staircase
    from agrees.staircase import ideal_of_staircase, newton_closure

    rng = random.Random(2016)
    cases = [ideal_of_staircase(newton_closure(random_staircase(rng, 8, 3)), BASE_RING, FP)
             for _ in range(150)]
    for field, count in ((FP, 40), (QQ, 25)):
        cases += [_twin(newton_closure(random_staircase(rng, 6, 3)).gens, field)
                  for _ in range(count)]
    for k, I in enumerate(cases):
        rep = classify(I, ClassifyConfig(seed=k))
        assert rep.verdict in (Verdict.GORENSTEIN, Verdict.AG_CERTIFIED), (I, rep.notes)


def test_twins_match_their_source():
    # the x -> x+2y twin of every contracted-o3 tuple with n <= 6 gets the
    # verdict of its monomial source, with the survey's per-tuple seed
    tuples = [(n, alpha, beta) for n in range(3, 7)
              for alpha in range(1, n) for beta in range(alpha + 1, n)]
    for params in tuples:
        values = dict(zip(("n", "alpha", "beta"), params))
        cfg = ClassifyConfig(seed=derive_seed(0, "contracted-o3", *params))
        source = classify(make_family("contracted-o3", values, field=FP), cfg)
        I = _twin(family_exponents("contracted-o3", values), FP)
        twin = classify(I, cfg)
        assert twin.verdict is source.verdict, (params, twin.notes)
        assert validate_report(I, twin)


def test_stability_for_low_order_random():
    # order <= 2 with a parameter reduction forces stability
    rng = random.Random(29)
    checked = 0
    while checked < 20:
        n = rng.randint(2, 12)
        beta = rng.randint(max(1, (n + 1) // 2), max(1, n - 1))
        pts = [(2, 0), (1, beta), (0, n)]
        s = staircase_normalize(pts)
        I = Ideal([Polynomial.monomial(BASE_RING, QQ, e) for e in s.gens])
        red = find_reduction(I)
        assert red.stable
        checked += 1


# -- families -------------------------------------------------------------------------

def test_family_contracted_o3():
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    assert staircase_of_ideal(I).gens == ((3, 0), (2, 3), (1, 5), (0, 6))


def test_family_power_order():
    I = make_family("power-order", {"m": 2, "n": 5})
    assert staircase_of_ideal(I).gens == ((2, 0), (1, 4), (0, 5))


def test_family_remark43():
    I = make_family("remark43", {"m": 4})
    assert staircase_of_ideal(I).gens == staircase_normalize(
        [(4, 0), (0, 8), (3, 3), (2, 5), (1, 7)]).gens


def test_family_three_gen():
    I = make_family("three-gen", {"n": 4, "alpha": 2})
    assert staircase_of_ideal(I).gens == ((3, 0), (2, 2), (0, 4))


def test_family_bad_parameters():
    with pytest.raises(BadParameters):
        make_family("contracted-o3", {"n": 4, "alpha": 3, "beta": 2})
    with pytest.raises(BadParameters):
        make_family("power-order", {"m": 1, "n": 5})
    with pytest.raises(BadParameters):
        make_family("three-gen", {"n": 7, "alpha": 2})
    with pytest.raises(BadParameters):
        make_family("remark43", {"m": 3})
    with pytest.raises(BadParameters):
        make_family("no-such-family", {"m": 3})

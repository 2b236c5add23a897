"""Classifier pipeline: reductions, stability, certificates, refutations."""

import inspect
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from agrees import engine, groebner
from agrees.engine import (
    ClassifyConfig,
    Verdict,
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
from agrees.errors import (BadParameters, NoReductionFound, NotContained, NotStable,
                           NotZeroDimensional, ZeroIdeal)
from agrees.families import FAMILY_PARAMS, coordinate_twin, family_exponents, make_family
from agrees.fields import QQ, PrimeField
from agrees.groebner import (
    Ideal,
    _contains_all,
    classes,
    colength,
    ideal_colon,
    ideal_equal,
    ideal_of_staircase,
    ideal_product,
    maximal_ideal,
    minimal_generators,
    staircase_of_ideal,
)
from agrees.parse import parse_ideal_spec, parse_polynomial
from agrees.poly import BASE_RING, Polynomial
from agrees.staircase import adjoint, is_integrally_closed, staircase_normalize
from agrees.survey import expand_tuples

from oracles import (dense_tables, generic_ranks, ideal_pow, power_sum_pair,
                     reference_class_forms, reference_colon, reference_corner_gens,
                     reference_ideal_product, reference_min_gens, reference_mu,
                     reference_necessary_bound, reference_product_tables, reference_rank,
                     reference_witness)

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
    red = find_reduction(I)
    assert red.reduction_number <= 4
    # re-verify the reduction identity through the Groebner path
    Q = Ideal(list(red.Q))
    r = red.reduction_number
    lhs = ideal_pow(I, r + 1)
    rhs = ideal_product(Q, ideal_pow(I, r)) if r else Q
    assert ideal_equal(lhs, rhs)
    # the zero ideal has no basis to sum
    with pytest.raises(ZeroIdeal):
        find_reduction(Ideal([Polynomial.zero(BASE_RING, QQ)]))


def test_reduction_deterministic():
    # a twin's Q is read off its reduced basis, so two analyses at
    # different seeds, each on its own objects, report one Q
    a, b = (classify(coordinate_twin([(4, 0), (3, 1), (1, 3), (0, 5)], 2, QQ),
                     ClassifyConfig(seed=seed)).reduction for seed in (0, 5))
    assert staircase_of_ideal(Ideal(list(a.Q))) is None
    assert a == b


def _twin_rows():
    """The 30 `coordinate-twins` benchmark inputs over q (the x -> x + 2y
    twins of order-two (x^2, x y^b, y^n) with 2b >= n and n <= 8, three-gen
    with n <= 4, power-order with m <= 3 and n <= 4, contracted-o3 with
    n <= 4 and remark43 with m = 4, and contracted-o3 (6,3,5) under
    x -> x + y/3), then the x -> x + 2y twins of the contracted-o3 tuples
    with n <= 8 over fp."""
    sources = [([(2, 0), (1, b), (0, n)], 2) for n in range(2, 9) for b in range((n + 1) // 2, n)]
    for family, ranges in (("three-gen", {"n": range(3, 5), "alpha": range(1, 4)}),
                           ("power-order", {"m": range(2, 4), "n": range(2, 5)}),
                           ("contracted-o3", {"n": range(3, 5), "alpha": range(1, 4),
                                              "beta": range(1, 4)}),
                           ("remark43", {"m": range(4, 5)})):
        tuples, _ = expand_tuples(family, ranges)
        sources += [(family_exponents(family, dict(zip(FAMILY_PARAMS[family], values))), 2)
                    for values in tuples]
    sources.append((family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}),
                    Fraction(1, 3)))
    assert len(sources) == 30
    rows = [(exps, c, QQ) for exps, c in sources]
    rows += [(family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b}), 2, FP)
             for n in range(3, 9) for b in range(2, n) for a in range(1, b)]
    return rows


def test_reduction_is_a_function_of_the_ideal():
    # Q is read off the reduced basis, so on every twin row classify
    # reports one reduction at seeds 0, 1 and 9, for the generator list
    # reversed and with a redundant sum of two generators appended, each
    # on its own objects
    for exps, c, field in _twin_rows():
        gens = list(coordinate_twin(exps, c, field).generators)
        want = classify(Ideal(gens)).reduction
        assert staircase_of_ideal(Ideal(list(want.Q))) is None
        for seed in (1, 9):
            assert classify(Ideal(gens), ClassifyConfig(seed=seed)).reduction == want, exps
        assert classify(Ideal(gens[::-1])).reduction == want, exps
        assert classify(Ideal(gens + [gens[0] + gens[-1]])).reduction == want, exps


def test_colon_is_equal_on_the_first_three_candidates():
    # ROADMAP item 24's property, as measured, never to be loosened: on
    # every stable twin row the first candidate is find_reduction's stable
    # pair, and the first three stable candidates give one colon.  The
    # second candidate, (1, 3), is not a reduction on 6 rows over fp, the
    # twins of (x^3, x^2 y^2, x y^3, y^n) for n = 5..8 and of
    # (x^3, x^2 y^3, x y^4, y^n) for n = 7, 8.  With x' = x + 2y, the
    # basis is y^n, x'^2 y^2 - 4 x' y^3, x' y^3 and x'^3 in I/mI, so a
    # power sum weighs x' y^3 by s^2 - 4s, which is -3 at s = 1 and s = 3
    # alike: the two members agree on the Newton edge from (0, n) to
    # (1, 3) and have a common zero there (the second family likewise)
    skipped = []
    for exps, c, field in _twin_rows():
        I = coordinate_twin(exps, c, field)
        red = find_reduction(I)
        if not red.stable:
            continue
        pairs = [power_sum_pair(I, k) for k in range(4)]
        assert red.Q == pairs[0].generators
        stable = [k for k, Q in enumerate(pairs) if is_stable(I, Q)]
        skipped += [(tuple(exps), k) for k in range(stable[2]) if k not in stable]
        first, *rest = [canonical_colon(I, pairs[k]) for k in stable[:3]]
        assert all(ideal_equal(first, J) for J in rest), exps
    assert skipped == [(((3, 0), (2, 2), (1, 3), (0, n)), 1) for n in (5, 6, 7)] + [
        (((3, 0), (2, 3), (1, 4), (0, 7)), 1), (((3, 0), (2, 2), (1, 3), (0, 8)), 1),
        (((3, 0), (2, 3), (1, 4), (0, 8)), 1)]


def test_reduction_search_tests_each_pair_once(monkeypatch):
    # the twin of x^4, x^3 y, y^4 under x -> x + 2y has r = 3 on the first
    # pair, found by one `_reduction_number` call: one Nakayama test in I^2
    # (I^2 = QI), then one in I^3 (r = 2) and one in I^4 (r = 3)
    calls, spans = [], []
    real_rn, real_spans = engine._reduction_number, engine._spans
    monkeypatch.setattr(engine, "_reduction_number",
                        lambda *args: calls.append(args) or real_rn(*args))
    monkeypatch.setattr(engine, "_spans",
                        lambda P, *parts: spans.append(P) or real_spans(P, *parts))
    I = coordinate_twin([(4, 0), (3, 1), (0, 4)], 2, QQ)
    red = find_reduction(I)
    assert red.reduction_number == 3 and not red.stable
    assert red.Q == power_sum_pair(I, 0).generators and len(calls) == 1
    assert len(spans) == 3
    assert all(P is engine._power(I, k) for P, k in zip(spans, (2, 3, 4)))


def _two_pass_reduction(I):
    """(Q, r) in find_reduction's former order on an ideal without a
    staircase, or None: I^2 = QI on every power-sum pair first, then r up
    to `_REDUCTION_CAP` on every pair."""
    for cap in (1, engine._REDUCTION_CAP):
        for k in range(engine._REDUCTION_PAIRS):
            Q = power_sum_pair(I, k)
            r = engine._reduction_number(I, Q, cap)
            if r is not None:
                return Q.generators, r
    return None


def test_one_pass_search_finds_the_two_pass_reduction():
    # a pair with r <= 4 is a two-generated reduction, and for such a pair
    # I^2 = QI iff l(R/I^2) = e(I) + 2 l(R/I) (Huneke 1987, Ooishi 1987),
    # so on a stable I the first pair with any r <= 4 is the first with
    # r <= 1: the one pass finds the two passes' Q and r, or raises where
    # they find none, on the fp x -> x + 2y twins of contracted-o3 with
    # n <= 10, q twins of random staircases and the fp twin of x^10,
    # x^3 y^7, y^10, which has no pair with r <= 4
    from agrees.repro import random_staircase

    rng = random.Random(59)
    cases = [coordinate_twin(family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b}),
                             2, FP)
             for n in range(3, 11) for b in range(2, n) for a in range(1, b)]
    cases += [coordinate_twin(random_staircase(rng, 6, 3).gens, c, QQ)
              for _ in range(20) for c in (2, Fraction(1, 3))]
    cases.append(coordinate_twin([(10, 0), (3, 7), (0, 10)], 2, FP))
    found = []
    for I in cases:
        want = _two_pass_reduction(Ideal(list(I.generators)))
        try:
            red = find_reduction(I)
            got = red.Q, red.reduction_number
        except NoReductionFound:
            got = None
        assert got == want, I.generators
        found.append(None if got is None else got[1])
    assert None in found and {0, 1, 2, 3} <= set(found)


def test_second_search_returns_the_kept_outcome(monkeypatch):
    # find_reduction keeps its outcome on I: a second call makes no
    # `_reduction_number` call and returns the identical record, or raises
    # the identical NoReductionFound, with no frames added to its traceback
    cases = [ideal("x^4, x^3 y, y^4"), coordinate_twin([(4, 0), (3, 1), (0, 4)], 2, QQ)]
    found = [find_reduction(I) for I in cases]
    failed = coordinate_twin([(10, 0), (3, 7), (0, 10)], 2, FP)
    with pytest.raises(NoReductionFound) as first:
        find_reduction(failed)
    calls = []
    monkeypatch.setattr(engine, "_reduction_number", lambda *args: calls.append(args))
    assert all(find_reduction(I) is red for I, red in zip(cases, found))
    depths = set()
    for _ in range(3):
        with pytest.raises(NoReductionFound) as again:
            find_reduction(failed)
        assert again.value is first.value
        depths.add(len(again.traceback))
    assert calls == [] and len(depths) == 1


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
        I = coordinate_twin(S.gens, 2, QQ)
        Q = coordinate_twin([(S.gens[0][0], 0), (0, S.gens[-1][1])], 2, QQ)
        r = engine._reduction_number(I, Q, 3)
        assert r == _reference_reduction_number(I, Q, 3), S
        seen.add(r)
    assert None in seen and 1 in seen


def _newton_pair(I):
    """The Newton pair find_reduction picks for a monomial I, with its kind."""
    Q = Ideal(list(find_reduction(I).Q))
    return Q, all(q.is_monomial for q in Q.generators)


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lengths_decide_r_as_the_rank_test(field, seed):
    # the length identity's r <= 1 answer is the rank test's, on pure-power
    # pairs and vertex splits alike, and its r = 0 is l(R/I) = e(I); e(I)
    # is the colength of Q's origin component Q + m^e (m^k with k < e can
    # undercount it)
    from agrees.repro import random_staircase
    from agrees.staircase import newton_multiplicity

    rng = random.Random(seed)
    for _ in range(4):
        S = random_staircase(rng, 6, 4)
        I = ideal_of_staircase(S, BASE_RING, field)
        Q, _ = _newton_pair(I)
        # find_reduction left the lengths' answer on I; the rank side runs
        # on a fresh ideal, which holds none
        lengths = I._reduction.reduction_number if I._stable[Q.generators] else None
        fresh = ideal_of_staircase(S, BASE_RING, field)
        assert lengths == engine._reduction_number(fresh, Q, 1), S
        e = newton_multiplicity(S)
        assert (lengths == 0) == (colength(I) == e), S
        m_e = [Polynomial.monomial(BASE_RING, field, (i, e - i)) for i in range(e + 1)]
        assert e == colength(Ideal(list(Q.generators) + m_e)), S


@pytest.mark.parametrize("text,r,pure", [
    ("x^3, y^6", 0, True),
    (("contracted-o3", {"n": 6, "alpha": 2, "beta": 3}), 1, False),
    ("x^4, x^3 y, y^4", 3, True),
])
def test_lengths_pin_r(text, r, pure, monkeypatch):
    # r = 0 and r = 1 come from lengths and mu(I) with no rank test; r >= 2
    # still from the rank loop.  The pair is read off a copy of I, as
    # find_reduction keeps its outcome on I and searches I only once
    I = ideal(text) if isinstance(text, str) else make_family(*text)
    Q, monomial = _newton_pair(Ideal(list(I.generators)))
    assert monomial is pure
    ranks = []
    real = engine._rank
    monkeypatch.setattr(engine, "_rank", lambda *args: ranks.append(1) or real(*args))
    assert find_reduction(I).reduction_number == r
    assert bool(ranks) is (r > 1)
    # on a fresh ideal, which holds no answer find_reduction left on I
    assert engine._reduction_number(Ideal(list(I.generators)), Q, None) == r


@pytest.mark.parametrize("text,pair", [
    ("1", [[(0, 0)], [(0, 0)]]),
    ("x^3, y^5", [[(3, 0)], [(0, 5)]]),
    ("x^4, x^2 y^2, y^4", [[(4, 0)], [(0, 4)]]),
    ("x^4, x^3 y^3, y^4", [[(4, 0)], [(0, 4)]]),
    ("x^6, x^2 y, y^6", [[(0, 6), (6, 0)], [(2, 1)]]),
    ("x^6, x^3 y, x y^3, y^6", [[(0, 6), (3, 1)], [(1, 3), (6, 0)]]),
])
def test_newton_pair_on_degenerate_hulls(text, pair):
    # a hull of one or two vertices gives the pure powers (x^a, y^b) in
    # that order, a corner on or above their segment included, and the
    # unit ideal (1, 1) with r = 0; three or more vertices give the
    # even/odd split of the vertices, x increasing
    found = find_reduction(ideal(text))
    assert [sorted(q.terms) for q in found.Q] == pair
    assert all(set(q.terms.values()) == {1} for q in found.Q)
    if text == "1":
        assert found.reduction_number == 0


def _twin_of(p, field):
    """p under the linear change x -> x + 2y, as `coordinate_twin` maps
    monomials."""
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    shifted = x + y.scale(field.from_int(2))
    out = Polynomial.zero(BASE_RING, field)
    for (a, b), c in p.terms.items():
        out = out + (shifted ** a * y ** b).scale(c)
    return out


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_r_zero_is_read_off_mu_on_stable_pairs(field, seed):
    # on a stable pair `_reduction_number` reads r = 0 off mu(I) <= 2 with
    # no test of I = Q; the product containments decide r on their own,
    # against Q's origin component Q + m^e (a vertex split may vanish away
    # from the origin).  Each draw takes a random staircase and the
    # parameter ideal of its end corners (mu = 2, r = 0), each with its
    # Newton pair (pure powers or a vertex split), and their x -> x + 2y
    # twins with the twinned pair, so a rule such as mu(I) < 2 fails
    from agrees.repro import random_staircase
    from agrees.staircase import newton_multiplicity

    rng = random.Random(seed)
    S = random_staircase(rng, 6, 3)
    for T in (S, staircase_normalize([S.gens[0], S.gens[-1]])):
        I = ideal_of_staircase(T, BASE_RING, field)
        Q, _ = _newton_pair(I)
        e = newton_multiplicity(T)
        m_e = [Polynomial.monomial(BASE_RING, field, (i, e - i)) for i in range(e + 1)]
        twin = Ideal([_twin_of(q, field) for q in Q.generators])
        for A, B in ((Ideal(list(I.generators)), Q), (coordinate_twin(T.gens, 2, field), twin)):
            r = engine._reduction_number(A, B, 1)
            ref = _reference_reduction_number(A, Ideal(list(B.generators) + m_e), 1)
            assert r == ref, (T, A)
            if len(T.gens) == 2:
                assert r == 0, T
            if r is not None:
                assert (r == 0) == (len(minimal_generators(A)) <= 2), (T, A)


def test_rank_loop_starts_past_the_lengths(monkeypatch):
    # x^4, x^3 y, y^4 has r = 3: the lengths rule out r <= 1, so the rank
    # loop tests r = 2 and r = 3 only, against mu(I^3) and mu(I^4)
    I = ideal("x^4, x^3 y, y^4")
    ranks, powers = [], []
    real_rank, real_mu = engine._rank, engine._mu
    monkeypatch.setattr(engine, "_rank", lambda *args: ranks.append(1) or real_rank(*args))
    monkeypatch.setattr(engine, "_mu", lambda P: powers.append(P) or real_mu(P))
    assert find_reduction(I).reduction_number == 3
    assert len(ranks) == 2
    assert powers == [engine._power(I, 3), engine._power(I, 4)]


def test_classify_of_a_stable_monomial_ideal_runs_no_rank_test(monkeypatch):
    # a stable monomial I's reduction number is read off lengths and mu(I):
    # the only ranks classify takes are the certificate's, outside
    # find_reduction
    searching, ranks = [], []
    real_find, real_rank = engine.find_reduction, engine._rank

    def find(I):
        searching.append(I)
        try:
            return real_find(I)
        finally:
            searching.pop()

    monkeypatch.setattr(engine, "find_reduction", find)
    monkeypatch.setattr(engine, "_rank",
                        lambda *args: ranks.append(bool(searching)) or real_rank(*args))
    for text in ("x^3, x^2 y^3, x y^5, y^6", "x^3, y^6"):
        assert classify(ideal(text)).reduction.stable
    rep = classify(make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3}, field=FP))
    assert rep.verdict is Verdict.AG_CERTIFIED
    assert ranks and not any(ranks)


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
    I = coordinate_twin(family_exponents("remark43", {"m": m}), 2, field)
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


def test_stages_decide_stability_themselves():
    # the colon and the certificate take no flag to trust in place of
    # I^2 = QI, and refuse (6, 2, 3) against its pure powers, which are no
    # reduction
    for stage in (canonical_colon, certificate_search):
        assert "stable" not in inspect.signature(stage).parameters
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    Q = ideal("x^3, y^6")
    with pytest.raises(NotStable):
        canonical_colon(I, Q)
    with pytest.raises(NotStable):
        certificate_search(I, Q, ideal("x, y"))


def _record_spans(monkeypatch) -> list:
    """The ideal P of every `_spans(P, parts[, by])` call from now on."""
    calls = []
    real = engine._spans
    monkeypatch.setattr(engine, "_spans", lambda P, *parts: calls.append(P) or real(P, *parts))
    return calls


def test_stability_after_find_reduction_is_a_lookup(monkeypatch):
    # find_reduction leaves I^2 = QI on I for the pair it returns: a binomial
    # Newton pair (the vertex split of (6, 2, 3)), a pure-power pair, a
    # stable twin and a twin with r = 3
    cases = [make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3}),
             ideal("x^3, x^2 y^3, x y^5, y^6"),
             _flagship_twin(),
             coordinate_twin([(4, 0), (3, 1), (0, 4)], 2, QQ)]
    calls = _record_spans(monkeypatch)
    for I in cases:
        red = find_reduction(I)
        calls.clear()
        assert is_stable(I, Ideal(list(red.Q))) is red.stable
        assert calls == [], I
    assert staircase_of_ideal(Ideal(list(find_reduction(cases[0]).Q))) is None
    # a fresh pair is decided once, by one Nakayama test in I^2, and then
    # remembered
    I = ideal("x^3, x^2 y^3, x y^5, y^6")
    for expected in ([engine._power(I, 2)], []):
        calls.clear()
        assert is_stable(I, ideal("x^3, y^6"))
        assert calls == expected


def test_validator_decides_stability_itself(monkeypatch):
    # validate_report copies I, so the answer classify left on I does not
    # reach it: its linkage check makes exactly one Nakayama test in the
    # square of its fresh copy, and none in the analyzed I^2
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    report = classify(I)
    assert report.verdict is Verdict.NOT_AG
    square = engine._power(I, 2)
    calls = _record_spans(monkeypatch)
    assert validate_report(I, report)
    squares = [P for P in calls if staircase_of_ideal(P) == staircase_of_ideal(square)]
    assert len(squares) == 1 and squares[0] is not square


# -- canonical colon -------------------------------------------------------------

def test_colon_order_three_family():
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    J = canonical_colon(I, ideal("x^3, y^6"))
    assert staircase_of_ideal(J).gens == ((2, 0), (1, 1), (0, 3))


def test_colon_high_order_family_is_maximal_power():
    I = make_family("power-order", {"m": 3, "n": 4})
    J = canonical_colon(I, ideal("x^3, y^4"))
    assert staircase_of_ideal(J).gens == ((2, 0), (1, 1), (0, 2))


def test_colon_of_parameter_ideal_is_unit():
    Q = ideal("x^3, y^6")
    J = canonical_colon(Q, Q)
    assert staircase_of_ideal(J).gens == ((0, 0),)


def test_colon_requires_stability():
    # (6, 2, 3) is not stable against its pure powers, which are no reduction
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    with pytest.raises(NotStable):
        canonical_colon(I, ideal("x^3, y^6"))


def test_colon_of_a_pair_vanishing_away_from_the_origin():
    # Q = (x^2 - x^3, y^2) also vanishes at (1, 0), so the global Q : I keeps
    # a component there; locally Q = (x^2, y^2), whose colon is (x, y)
    I = ideal("x^2, x y, y^2")
    J = canonical_colon(I, ideal("x^2 - x^3, y^2"))
    assert ideal_equal(J, ideal("x, y"))
    assert not ideal_equal(reference_colon(ideal("x^2 - x^3, y^2"), I), J)
    # the library's colon is global too, and is the reference there
    assert ideal_equal(ideal_colon(ideal("x^2 - x^3, y^2"), I),
                       reference_colon(ideal("x^2 - x^3, y^2"), I))


def _reference_colon(I, Q):
    """The reduced basis of (Q : I) + I^2, through the elimination colon."""
    local = Ideal(list(reference_colon(Q, I).generators) + list(ideal_product(I, I).generators))
    return Ideal(list(local.groebner_basis()))


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_colon_matches_reference_on_twins(field):
    # x -> x+2y and x -> x-y/2 twins with the pair find_reduction picks
    from agrees.repro import random_staircase

    rng = random.Random(61)
    checked = 0
    for c in (2, Fraction(-1, 2)):
        for _ in range(12):
            I = coordinate_twin(random_staircase(rng, 6, 3).gens, c, field)
            red = find_reduction(I)
            if not red.stable:
                continue
            Q = Ideal(list(red.Q))
            J = canonical_colon(I, Q)
            assert J.generators == _reference_colon(I, Q).generators, I
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_colon_matches_reference_on_vertex_splits(field):
    # monomial ideals whose pair is the Newton-polygon vertex split: Q is
    # not monomial, so the kernel on R/I gives the reference's reduced basis
    # tuple for tuple, and canonical_colon, which reads a closed row's colon
    # off its corners (Howald's adjoint) and walks the kernel on the rest,
    # gives the reference's staircase
    from agrees.repro import random_staircase

    rng = random.Random(67)
    checked = closed = 0
    for _ in range(60):
        I = ideal_of_staircase(random_staircase(rng, 7, 3), BASE_RING, field)
        red = find_reduction(I)
        Q = Ideal(list(red.Q))
        if not red.stable or staircase_of_ideal(Q) is not None:
            continue
        reference = _reference_colon(I, Q)
        assert engine._kernel_colon(I, Q).generators == reference.generators, I
        assert staircase_of_ideal(canonical_colon(I, Q)) == staircase_of_ideal(reference), I
        checked += 1
        closed += is_integrally_closed(staircase_of_ideal(I))
    assert checked >= 16 and 0 < closed < checked


def test_closed_monomial_colon_walks_no_kernel(monkeypatch):
    # contracted-o3 (6,1,3) is integrally closed with the vertex-split pair,
    # so its colon is the adjoint read off the corners: no T = Q + I^2, no
    # prune of Q + I by its classes in I/m*I and no kernel walk.  (6,1,5),
    # not closed with the same kind of pair, still walks the kernel once
    calls = []

    def spy(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("_sum", "_colon", "independent"):
        monkeypatch.setattr(engine, name, spy(name, getattr(engine, name)))
    for params, closed, walked in (((6, 1, 3), True, []),
                                   ((6, 1, 5), False, ["_sum", "independent", "_colon"])):
        values = dict(zip(("n", "alpha", "beta"), params))
        I = make_family("contracted-o3", values, field=FP)
        calls.clear()
        rep = classify(I)
        assert rep.integrally_closed is closed and rep.reduction.stable
        assert staircase_of_ideal(Ideal(list(rep.reduction.Q))) is None
        assert calls == walked, params


def test_adjoint_needs_a_two_generated_pair():
    # Q : I = adj(I) holds for a minimal reduction.  Q = (x^3, y^3, x^2 y),
    # written with a binomial, is a stable reduction of the closed m^3 that
    # is not minimal: its colon is m, not adj(m^3) = m^2, so
    # canonical_colon, whose routes and contracted order drop need a
    # minimal reduction, refuses a Q that is not two-generated
    I, Q = ideal("x^3, x^2 y, x y^2, y^3"), ideal("x^3 + x^2 y, y^3, x^2 y")
    assert is_stable(I, Q)
    assert staircase_of_ideal(engine._kernel_colon(I, Q)).gens == ((1, 0), (0, 1))
    with pytest.raises(BadParameters, match="two-generated"):
        canonical_colon(I, Q)


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_colon_walks_only_the_generators_q_leaves(field, monkeypatch):
    # canonical_colon hands _colon only the generators of I outside Q + m*I,
    # and J is still the reference colon: on the flagship and the boundary
    # twin (mu(I) = 4, so two generators are walked), and on a twin with
    # mu(I) = 2, where Q covers every generator and J = (1)
    walked = []
    real = engine._colon

    def record(A, gens, C):
        walked.append(len(gens))
        return real(A, gens, C)

    monkeypatch.setattr(engine, "_colon", record)
    for exps, c, n_walked in (
            (family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}),
             Fraction(1, 3), 2),
            ([(3, 0), (2, 3), (1, 4), (0, 5)], 2, 2),
            ([(2, 0), (0, 3)], 2, 0)):
        I = coordinate_twin(exps, c, field)
        red = find_reduction(I)
        assert red.stable
        Q = Ideal(list(red.Q))
        walked.clear()
        J = canonical_colon(I, Q)
        assert walked == [n_walked]
        assert J.generators == _reference_colon(I, Q).generators
        if not n_walked:
            assert [str(g) for g in J.generators] == ["1"]


def test_colon_of_infinite_colength_raises():
    from agrees.errors import NotZeroDimensional

    for text in ("x^2 + x y, x y^2", "x^2, x y"):
        I = ideal(text)
        with pytest.raises(NotZeroDimensional):
            canonical_colon(I, I)


def test_classify_builds_no_basis_twice(monkeypatch):
    # the flagship twin (NOT_AG) and PINNED's boundary twin (AG_CERTIFIED):
    # the colon shares the reduction's I^2, and the colon's J carries its
    # reduced basis, so no run starts from an earlier run's output.  Every mu,
    # minimal generator set and Nakayama test reads P/m*P off P's own basis,
    # so the one m*P built is the table's mJ, and no m*I; the colon's
    # T = Q + I^2 is read off I^2's basis (`_sum`), so no run starts from Q's
    # generators.  The twin whose colon J is not monomial makes 4 runs (I,
    # I^2, IJ and mJ, the last from the products x*w, y*w over J's
    # generators w), the other 3 (its mJ is read off staircases), where
    # building every m*P by Buchberger made 8 and 6, and building T by
    # Buchberger made 4
    from agrees import groebner
    from agrees.poly import GREVLEX
    from test_groebner import _monic_values, _Packed

    packed = _Packed(GREVLEX, BASE_RING)

    def key(polys):
        return frozenset(frozenset(p.items()) for p in polys)

    def basis_key(P):
        return key(p.terms for p in P.groebner_basis())

    m = maximal_ideal(BASE_RING, QQ)
    cases = []
    for I, expected, runs in (
            (coordinate_twin(family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}),
                             Fraction(1, 3), QQ), Verdict.NOT_AG, 4),
            (coordinate_twin([(3, 0), (2, 3), (1, 4), (0, 5)], 2, QQ), Verdict.AG_CERTIFIED, 3)):
        shared = [basis_key(ideal_product(A, I)) for A in (m, I)]
        cases.append((I, expected, runs, shared))

    inputs, outputs, colons = [], [], []
    real = groebner._buchberger
    real_colon = engine._colon

    def record(rows, pk, field, *args, **kwargs):
        # an input is an integer row; it is keyed as its monic field values
        assert pk is packed.pk
        monic = key(_monic_values([(None, None, row) for _, row in rows], packed, field))
        out = real(rows, pk, field, *args, **kwargs)
        inputs.append(monic)
        outputs.append(key(_monic_values(out, packed, field)))
        return out

    def colon(A, gens, C):
        A.groebner_basis(), C.groebner_basis()  # the walk's own inputs
        before = len(inputs)
        J = real_colon(A, gens, C)
        assert len(inputs) == before
        colons.append(J)
        return J

    monkeypatch.setattr(groebner, "_buchberger", record)
    monkeypatch.setattr(engine, "_colon", colon)
    built = 0
    for I, expected, runs, shared in cases:
        for seen in (inputs, outputs, colons):
            seen.clear()
        report = classify(I)
        assert report.verdict is expected
        assert len(inputs) == runs
        q_gens = {frozenset(q.items()) for q in _monic_values(
            [(None, None, packed.row(q.terms)) for q in report.reduction.Q], packed, QQ)}
        assert not any(q_gens & polys for polys in inputs)
        assert inputs and len(set(inputs)) == len(inputs)
        assert not any(basis in outputs[:k] for k, basis in enumerate(inputs))
        # one run builds mJ, when J has no staircase, from the products
        # x*w, y*w, and returns mJ's cached basis; no run builds any other
        # m*P, m*I included; I^2 is built once, from no other generator list
        (J,) = colons
        by_run = [] if staircase_of_ideal(J) is not None else [J]
        assert runs == 3 + len(by_run)
        # monic, as J's generators are
        m_J = key((v * w).terms for v in m.generators for w in J.generators)
        assert [outputs[k] for k, run in enumerate(inputs) if run == m_J] == [
            basis_key(J._products[m]) for _ in by_run]
        built += len(by_run)
        m_I, I_2 = shared
        assert m_I not in outputs and outputs.count(I_2) == 1
    assert built == 1


def test_certificate_is_decided_by_one_exact_test(monkeypatch):
    # a certified classify runs no refuter once its reduction is found, and
    # its only two ranks are the certificate's, one per side of the table of
    # generator products: they alone decide the generic triple, and no
    # verify_witness runs.  A refuted one ranks the failing IJ side once (the
    # mJ side is not tested), then its one sample's two row sets once, since
    # the first sample meets both term-rank bounds (mu(IJ) is `_mu`'s, with
    # no rank).  A monomial row's table is read off the corners, so neither
    # stage reads a product's exact class; a twin's refuter reads that of
    # each product a*w (a in mingens(I) or {x, y}) once, as its certificate
    # did before it
    from collections import Counter

    ranks, refuters, reduced, verified = [], [], [], []
    real_find, real_cert = engine.find_reduction, engine.certificate_search
    real_rank, real_bound = engine._rank, engine.necessary_bound
    real_classes = engine.classes
    certifying = []

    def find_reduction(*args, **kwargs):
        red = real_find(*args, **kwargs)
        ranks.clear()
        return red

    def certificate_search(*args, **kwargs):
        certifying.append(1)
        try:
            return real_cert(*args, **kwargs)
        finally:
            certifying.pop()
            reduced.clear()

    def classes(P, left, right=None, exact=False):
        # each product whose exact class the table reads, formed here by
        # Polynomial.__mul__
        if exact:
            reduced.extend(frozenset((u * w).terms.items()) for u in left for w in right)
        return real_classes(P, left, right, exact)

    monkeypatch.setattr(engine, "find_reduction", find_reduction)
    monkeypatch.setattr(engine, "certificate_search", certificate_search)
    monkeypatch.setattr(engine, "verify_witness", lambda *args: verified.append(1))
    monkeypatch.setattr(engine, "_rank",
                        lambda *args: ranks.append(bool(certifying)) or real_rank(*args))
    monkeypatch.setattr(engine, "necessary_bound",
                        lambda *args, **kwargs: refuters.append(1) or real_bound(*args, **kwargs))
    monkeypatch.setattr(engine, "classes", classes)

    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    assert classify(I).verdict is Verdict.AG_CERTIFIED
    assert ranks == [True, True] and refuters == []

    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    rep = classify(I)
    assert rep.verdict is Verdict.NOT_AG and len(refuters) == 1
    assert ranks == [True, False, False] and reduced == []

    rep = classify(_flagship_twin())
    assert rep.verdict is Verdict.NOT_AG and len(refuters) == 2
    m = maximal_ideal(BASE_RING, QQ)
    rows = Counter(frozenset((a * w).terms.items())
                   for a in minimal_generators(_flagship_twin()) + list(m.generators)
                   for w in rep.colon_gens)
    assert rows and Counter(reduced) == rows
    assert verified == []


def test_integral_closedness_is_decided_by_lengths(monkeypatch):
    # I is integrally closed iff colength(I) is its closure's Pick count, so
    # classify never walks the closure's columns, one per power of x: an
    # exponent of 10^9 costs nothing
    from agrees import staircase

    def refuse(s):
        raise AssertionError("newton_closure called")

    monkeypatch.setattr(engine, "newton_closure", refuse)
    monkeypatch.setattr(staircase, "newton_closure", refuse)
    assert classify(ideal("x^1000000000, y")).integrally_closed is True
    assert classify(ideal("x^2, y^5")).integrally_closed is False  # x y^3 lies in the closure


def test_products_are_built_once():
    # _mul hands back the product it built before, cached on its right
    # factor; the maximal ideal is one object per (ring, field)
    from agrees.poly import rees_ring

    for I, J in ((ideal("x^2, y^3"), ideal("x, y^2")),
                 (ideal("x^2 + y^2, x y, y^3"), ideal("x + y, y^2"))):
        P = engine._mul(I, J)
        assert engine._mul(I, J) is P and J._products == {I: P}
        assert engine._mul(J, I) is not P and I._products == {J: engine._mul(J, I)}
    m = maximal_ideal(BASE_RING, QQ)
    assert maximal_ideal(BASE_RING, QQ) is m
    assert maximal_ideal(BASE_RING, PrimeField(FP.p)) is maximal_ideal(BASE_RING, FP)
    assert maximal_ideal(BASE_RING, FP) is not m
    assert maximal_ideal(rees_ring(1), QQ) is not m
    assert [str(v) for v in maximal_ideal(rees_ring(1), QQ).generators] == ["x", "y", "t", "T1"]


def _flagship_twin():
    exps = family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    return coordinate_twin(exps, Fraction(1, 3), QQ)


def test_each_ideal_is_pruned_once(monkeypatch):
    # mingens(I) and mingens(J) are kept on their ideals, read off the
    # relations among their bases' classes, which are kept on the ideals
    # too: the certificate and the refuter of the flagship twin read what
    # was found before them, so no ideal's relations are found twice, I's
    # and J's among them, no basis is pruned by normal forms, and the
    # colon's prune of Q + I by its classes in I/m*I is the only prune
    from agrees import groebner

    found, pruned, colons = [], [], []
    real_relations, real_independent = groebner._relations, engine.independent
    real_colon = engine.canonical_colon

    def relations(P):
        if P._relations is None:
            found.append(P)
        return real_relations(P)

    def independent(P, gens):
        pruned.append((P, tuple(gens)))
        return real_independent(P, gens)

    def colon(*args, **kwargs):
        colons.append(real_colon(*args, **kwargs))
        return colons[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("a basis pruned by normal forms")

    for module in (groebner, engine):
        monkeypatch.setattr(module, "_relations", relations)
    monkeypatch.setattr(groebner, "_nakayama_prune", refuse)
    monkeypatch.setattr(engine, "independent", independent)
    monkeypatch.setattr(engine, "canonical_colon", colon)
    I = _flagship_twin()
    rep = classify(I)
    assert rep.verdict is Verdict.NOT_AG
    (J,) = colons
    assert [found.count(P) for P in (I, J)] == [1, 1]
    assert len({id(P) for P in found}) == len(found)
    assert pruned == [(I, tuple(rep.reduction.Q) + I.generators)]


def _record_buchberger(monkeypatch) -> list:
    """The input lists `_buchberger` is given from here on, in call order."""
    from agrees import groebner, rees

    inputs = []
    real = groebner._buchberger

    def record(polys, *args, **kwargs):
        inputs.append([(sug, sorted(row.items())) for sug, row in polys])
        return real(polys, *args, **kwargs)

    for module in (groebner, rees):
        monkeypatch.setattr(module, "_buchberger", record)
    return inputs


@pytest.mark.parametrize("case", ["flagship-twin", "boundary-twin"])
def test_validator_builds_every_basis_it_reads(case, monkeypatch):
    # validate_report works on a copy of I and on ideals built fresh from the
    # report, so the bases classify left in _mul's cache on the analyzed
    # object do not reach it: it runs what it runs on a fresh copy
    if case == "flagship-twin":
        I, expected = _flagship_twin(), Verdict.NOT_AG
    else:
        I, expected = coordinate_twin([(3, 0), (2, 3), (1, 4), (0, 5)], 2, QQ), Verdict.AG_CERTIFIED
    report = classify(I)
    assert report.verdict is expected
    inputs = _record_buchberger(monkeypatch)
    assert validate_report(I, report)
    on_analyzed = list(inputs)
    inputs.clear()
    assert validate_report(Ideal(list(I.generators)), report)
    assert inputs and on_analyzed == inputs


@pytest.mark.parametrize("case", ["flagship-twin", "monomial-fp"])
def test_later_calls_read_classify_work_off_the_cache(case, monkeypatch):
    # the powers of I, their products with m and their bases are cached on
    # the analyzed object, so after classify(I) the reduction search, the
    # Rees algebra's relation-type bound and mu(I) build no basis
    from agrees import rees

    if case == "flagship-twin":
        I = _flagship_twin()
    else:
        exps = family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
        I = Ideal([Polynomial.monomial(BASE_RING, FP, e) for e in exps])
    report = classify(I)
    inputs = _record_buchberger(monkeypatch)
    assert find_reduction(I) == report.reduction
    assert rees._relation_type_bound(I) == report.reduction.reduction_number + 1
    assert engine._mu(I) == report.min_gens
    assert inputs == []


def test_classify_leaves_no_product_on_the_maximal_ideal():
    # every product classify builds sits on a per-analysis ideal: the shared
    # m, a left factor only, must not pin them
    cases = [
        ideal("x^3, x^2 y^3, x y^5, y^6"),
        ideal("x^4, x^3 y, y^4"),  # r = 3: UNKNOWN
        coordinate_twin(family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}),
                        Fraction(1, 3), QQ),
        coordinate_twin([(3, 0), (2, 3), (1, 4), (0, 5)], 2, QQ),
        ideal("x^2, x y^2, y^3", FP),
        coordinate_twin([(3, 0), (1, 1), (0, 3)], 2, FP),
    ]
    for I in cases:
        assert validate_report(I, classify(I))
    for field in (QQ, FP):
        assert maximal_ideal(BASE_RING, field)._products == {}


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mu_of_ij_is_the_rank_of_its_products(field, seed):
    """mu(IJ) as the refuter reports it is the rank of the products a*w (a
    in mingens(I), w in mingens(J)) modulo m*IJ, which generate IJ, and is
    colength(m*IJ) - colength(IJ) of freshly built products; on seeded
    staircases and their twins, with J the colon of a stable reduction and
    a second, unrelated ideal, whenever mu(J) >= 2 (the refuter's
    domain)."""
    from agrees.repro import random_staircase

    rng = random.Random(seed)
    m = maximal_ideal(BASE_RING, field)
    S, T = random_staircase(rng, 6, 3), random_staircase(rng, 5, 2)
    for twin in (False, True):
        def make(exps):
            if twin:
                return coordinate_twin(exps, 2, field)
            return Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])

        I = make(S.gens)
        partners = [make(T.gens)]
        red = find_reduction(I)
        if red.stable:
            partners.append(canonical_colon(I, Ideal(list(red.Q))))
        for J in partners:
            if len(minimal_generators(J)) < 2:
                continue
            IJ = ideal_product(I, J)
            mIJ = ideal_product(m, IJ)
            want = colength(mIJ) - colength(IJ)
            gb = mIJ.groebner_basis()
            rank = engine._rank([gb.reduce((a * w).terms) for a in minimal_generators(I)
                                 for w in minimal_generators(J)], field)
            assert necessary_bound(I, J).mu_IJ == rank == want


def test_monomial_colength_builds_no_basis(monkeypatch):
    # colength, and with it mu(I) = colength(m*I) - colength(I), reads a
    # monomial ideal's staircase: neither a reduced basis nor its monomial
    # shortcut is built, for input ideals, ideals made from staircases and
    # the engine's products of them, over both fields
    from agrees import groebner
    from agrees.groebner import colength
    from agrees.repro import random_staircase

    from oracles import lattice_colength

    built = []
    real_basis, real_init = groebner.Ideal.groebner_basis, groebner.GroebnerBasis.__init__

    def basis(self, *args, **kwargs):
        built.append("groebner_basis")
        return real_basis(self, *args, **kwargs)

    def init(self, *args, **kwargs):
        built.append("GroebnerBasis")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(groebner.Ideal, "groebner_basis", basis)
    monkeypatch.setattr(groebner.GroebnerBasis, "__init__", init)
    rng = random.Random(41)
    for field in (QQ, FP):
        m = maximal_ideal(BASE_RING, field)
        for _ in range(15):
            S = random_staircase(rng, 7, 3)
            I = Ideal([Polynomial.monomial(BASE_RING, field, e) for e in reversed(S.gens)])
            for A in (I, ideal_of_staircase(S, BASE_RING, field), engine._mul(m, I),
                      engine._mul(I, I), ideal_product(I, I)):
                assert colength(A) == lattice_colength(list(staircase_of_ideal(A).gens))
            assert engine._mu(I) == len(S.gens)
    assert built == []
    assert colength(ideal("x^2 - y, y^3")) == 6 and "groebner_basis" in built


def test_monomial_classify_makes_no_monic_elements(monkeypatch):
    # a basis makes its monic elements only when they are read; the bases
    # of monomial ideals are only reduced against, so classify makes none
    from agrees import groebner

    made = []
    real = groebner._monic_polynomial

    def monic(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_monic_polynomial", monic)
    for field in (QQ, FP):
        for text in ("x^3, x^2 y^3, x y^5, y^6", "x^4, x^3 y, y^4", "x^2, x y^2, y^3"):
            classify(ideal(text, field))
    assert made == []
    gb = ideal("x^2 - y, y^3").groebner_basis()
    assert [str(g) for g in gb.elements] == ["y^3", "x^2 - y"] and len(made) == 2
    assert gb.elements is gb.elements and len(made) == 2


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
        J = canonical_colon(I, Q)  # raises internally if the drop fails
        from agrees.groebner import ideal_order

        assert ideal_order(I) == ideal_order(J) + 1
        checked += 1


# -- certificates ------------------------------------------------------------------

def test_certificate_high_order_simplest():
    I = ideal("x^2, x y^4, y^5")
    Q = ideal("x^2, y^5")
    J = canonical_colon(I, Q)
    w = certificate_search(I, Q, J)
    assert w is not None and w == certificate_search(I, Q, J)
    assert verify_witness(I, J, w.f, w.g, w.h)
    # so does the sparse triple (x, x^2, y)
    assert verify_witness(I, J, poly("x"), poly("x^2"), poly("y"))


def test_certificate_boundary_family():
    I = ideal("x^3, x^2 y^3, x y^4, y^5")
    Q = ideal("x^3, y^5")
    J = canonical_colon(I, Q)
    w = certificate_search(I, Q, J)
    assert w is not None and verify_witness(I, J, w.f, w.g, w.h)
    # the published triple also verifies
    assert verify_witness(I, J, poly("y"), poly("x^3"), poly("x^2 - y^2"))


def test_certificate_three_gen_even_case():
    I = ideal("x^3, x^2 y^2, y^4")
    Q = ideal("x^3, y^4")
    J = canonical_colon(I, Q)
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
    J = canonical_colon(I, Q)
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
    return I, Q, canonical_colon(I, Q)


@pytest.mark.parametrize("name", PINNED)
def test_certificate_pinned_witness(name):
    I, Q, J = _pinned_case(name)
    w = certificate_search(I, Q, J)
    assert w is not None and w == certificate_search(I, Q, J)
    assert verify_witness(I, J, w.f, w.g, w.h)


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
# x -> x+2y twins over q (no staircase anywhere) and monomial ideals over fp,
# each on 8 seeded stable staircases, and the PINNED ideals
SUM_CASES = {
    "monomial-q": (QQ, False),
    "twin-q": (QQ, True),
    "monomial-fp": (FP, False),
}


@pytest.mark.parametrize("name", sorted(SUM_CASES) + list(PINNED))
def test_verify_witness_matches_groebner_route(name):
    """verify_witness, the one exact test of a triple, agrees with Groebner
    membership on seeded sparse and dense triples, in both directions."""
    from agrees.repro import random_staircase

    rng = random.Random(derive_seed("sum-equals", name))

    def stable_colons():
        field, twin = SUM_CASES[name]
        while True:
            S = random_staircase(rng, 5, 2)
            I = coordinate_twin(S.gens, 2, field) if twin else Ideal(
                [Polynomial.monomial(BASE_RING, field, e) for e in S.gens])
            red = find_reduction(I)
            if red.stable:
                yield I, canonical_colon(I, Ideal(list(red.Q)))

    if name in PINNED:
        I, _, J = _pinned_case(name)
        field, pairs, triples = I.field, [(I, J)], 24
    else:
        field, pairs, triples = SUM_CASES[name][0], stable_colons(), 6
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
    for I, J in pairs:
        i_gens, j_min = minimal_generators(I), minimal_generators(J)
        if len(j_min) < 2:
            continue
        for _ in range(triples):
            f = span(coeffs(2), m.generators)
            g, h = span(coeffs(len(i_gens)), i_gens), span(coeffs(len(j_min)), j_min)
            got = verify_witness(I, J, f, g, h)
            assert got == _reference_verify_witness(I, J, f, g, h), (str(f), str(g), str(h))
            outcomes.add(got)
        checked += 1
        if checked == 8:
            break
    assert checked and outcomes == {True, False}


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_table_decides_as_verify_witness(field, monkeypatch):
    # on every row of `_census_and_twins` that reaches the certificate, the
    # decision on the table of generator products equals verify_witness,
    # which builds and reduces the products themselves: at the generic
    # triple of seeds 0, 1 and 9 (a passing one is the witness
    # certificate_search returns), and at degenerate triples with zero or
    # repeated coefficients, which make the IJ side or the mJ side fail,
    # some by a rank one short.  No classify calls verify_witness
    real_table = engine._witness_on_table
    verified, drawn = [], []
    monkeypatch.setattr(engine, "verify_witness", lambda *args: verified.append(args))
    monkeypatch.setattr(engine, "_witness_on_table",
                        lambda *args: drawn.append(args[2:]) or real_table(*args))
    m = maximal_ideal(BASE_RING, field)
    F = field.from_int
    rng = random.Random(derive_seed("table", field.p if field is FP else 0))

    def sparse(n):
        return [F(rng.choice((0, 0, 1, -1, 2))) for _ in range(n)]

    outcomes, failed_sides, rows = set(), set(), 0
    for I in _census_and_twins(field):
        rep = classify(I)
        if rep.witness is None and rep.refutation is None:
            continue  # unstable or Gorenstein: no certificate
        rows += 1
        Q, J = Ideal(list(rep.reduction.Q)), Ideal(list(rep.colon_gens))
        i_gens, j_min = minimal_generators(I), minimal_generators(J)
        ni, nj = len(i_gens), len(j_min)
        generic = []
        for seed in (0, 1, 9):
            drawn.clear()
            witness = certificate_search(I, Q, J, seed=seed)
            (triple,) = drawn
            generic.append((triple, witness))
        degenerate = [
            ([F(0)] * ni, [F(1)] * nj, [F(1), F(1)]),                    # g = 0
            ([F(1)] * ni, [F(0)] * nj, [F(1), F(2)]),                    # h = 0
            ([F(1)] * ni, [F(1)] * nj, [F(0), F(0)]),                    # f = 0
            ([F(1)] * ni, [F(2)] * nj, [F(1), F(0)]),                    # f = x
            ([F(7)] * ni, [F(1)] + [F(0)] * (nj - 1), [F(5), F(5)]),     # h = w_1
        ] + [(sparse(ni), sparse(nj), sparse(2)) for _ in range(4)]
        for k, (a, c, b) in enumerate([t for t, _ in generic] + degenerate):
            f = engine._span(b, m.generators)
            g, h = engine._span(a, i_gens), engine._span(c, j_min)
            got = real_table(I, J, a, c, b)
            assert got == verify_witness(I, J, f, g, h), (I, a, c, b)
            outcomes.add(got)
            if k < len(generic):
                assert generic[k][1] == (engine.AGWitness(f=f, g=g, h=h) if got else None)
            if not got:
                ij_holds = engine._spans(engine._mul(I, J), [g * w for w in J.generators]
                                         + [u * h for u in I.generators])
                failed_sides.add("mJ" if ij_holds else "IJ")
    assert rows >= 400 and outcomes == {True, False} and failed_sides == {"IJ", "mJ"}
    assert verified == []


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_monomial_certificate_forms_no_product(field, monkeypatch):
    # for monomial I and J every entry of the table is read off the corners
    # of IJ and mJ: a certificate, certified or not, calls no `reduce` and
    # no `_nf_dict`, multiplies no polynomials, and builds no m*IJ and no
    # m^2*J; its one product with m is mJ (the census rows of colength <= 10)
    from agrees import groebner

    real_cert, real_colon, real_mul = engine.certificate_search, engine.canonical_colon, engine._mul
    certifying, formed, colons, by_m = [], [], [], []
    verdicts, mJ_reads = set(), 0

    def canonical_colon(*args, **kwargs):
        colons.append(real_colon(*args, **kwargs))
        return colons[-1]

    def mul(A, B):
        if certifying and A is maximal_ideal(B.ring, B.field):
            by_m.append(B)
        return real_mul(A, B)

    def certificate_search(*args, **kwargs):
        certifying.append(1)
        try:
            witness = real_cert(*args, **kwargs)
        finally:
            certifying.pop()
        verdicts.add(witness is not None)
        return witness

    def spy(real):
        def call(*args):
            if certifying:
                formed.append(real)
            return real(*args)
        return call

    monkeypatch.setattr(engine, "certificate_search", certificate_search)
    monkeypatch.setattr(engine, "canonical_colon", canonical_colon)
    monkeypatch.setattr(engine, "_mul", mul)
    monkeypatch.setattr(Polynomial, "__mul__", spy(Polynomial.__mul__))
    monkeypatch.setattr(groebner.GroebnerBasis, "reduce", spy(groebner.GroebnerBasis.reduce))
    monkeypatch.setattr(groebner, "_nf_dict", spy(groebner._nf_dict))
    for n in range(1, 11):
        for parts in _partitions(n):
            gens = [(a, b) for b, a in enumerate(parts)] + [(0, len(parts))]
            del colons[:], by_m[:]
            classify(ideal_of_staircase(staircase_normalize(gens), BASE_RING, field))
            assert all(B is J for B in by_m for J in colons), gens
            mJ_reads += len(by_m)
    assert verdicts == {True, False} and formed == [] and mJ_reads


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_monomial_table_side_lists_only_corner_cells(field):
    # for monomial I and J each side of the table is read off the corners of
    # its factors and of its P (IJ or mJ): listing both sides builds no
    # Polynomial and calls no minimal_generators, _combine or _nf_dict, and
    # the cells are the products of corners that land on a corner of P,
    # each with the class {that corner: 1}, as many as the nonzero entries
    # of the dense reference table (the census rows of colength <= 10)
    calls = []

    def spy(mp, owner, name):
        real = getattr(owner, name)
        mp.setattr(owner, name, lambda *args, **kwargs: calls.append(name) or real(
            *args, **kwargs))

    m = maximal_ideal(BASE_RING, field)
    sides_read = 0
    for n in range(1, 11):
        for parts in _partitions(n):
            I = ideal_of_staircase(staircase_normalize(
                [(a, b) for b, a in enumerate(parts)] + [(0, len(parts))]), BASE_RING, field)
            rep = classify(I)
            if rep.colon_min_gens is None or rep.colon_min_gens < 2:
                continue
            J = canonical_colon(I, Ideal(list(rep.reduction.Q)))
            with pytest.MonkeyPatch.context() as mp:
                for owner, name in ((Polynomial, "__init__"), (engine, "minimal_generators"),
                                    (engine, "_combine"), (groebner, "_nf_dict")):
                    spy(mp, owner, name)
                sides = list(engine._product_tables(I, J))
            assert calls == [], I
            want = reference_product_tables(I, J)
            j_gens = staircase_of_ideal(J).gens
            for (P, cells), left, (_, table) in zip(sides, (I, m), want):
                corners, l_gens = staircase_of_ideal(P).gens, staircase_of_ideal(left).gens
                for i, j, cls in cells:
                    (e, c), = cls.items()
                    assert c == field.one and e in corners, I
                    assert e == (l_gens[i][0] + j_gens[j][0], l_gens[i][1] + j_gens[j][1]), I
                assert len(cells) == sum(bool(entry) for row in table for entry in row), I
                sides_read += 1
    assert sides_read >= 200


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_table_rows_equal_the_reference_routes(field):
    # on every row of `_census_and_twins` whose colon J has mu(J) >= 2, the
    # rows built from the table's cells decide as the routes through a fresh
    # m*P do: `_witness_on_table` equals `reference_witness` at two random
    # triples and at degenerate ones (g = 0, h = 0, f = 0, h = w_1), and
    # `necessary_bound` equals `reference_necessary_bound`, which ranks every
    # sample of the budget on the dense reference table, at seeds 0 and 5
    rng = random.Random(derive_seed("table rows", field.p if field is FP else 0))
    m = maximal_ideal(BASE_RING, field)
    F = field.from_int
    outcomes, rows = set(), 0
    for I in _census_and_twins(field):
        rep = classify(I)
        if rep.colon_min_gens is None or rep.colon_min_gens < 2:
            continue
        rows += 1
        J = canonical_colon(I, Ideal(list(rep.reduction.Q)))
        i_gens, j_min = minimal_generators(I), minimal_generators(J)
        ni, nj = len(i_gens), len(j_min)
        triples = [([F(rng.randint(1, 30)) for _ in range(ni)],
                    [F(rng.randint(1, 30)) for _ in range(nj)],
                    [F(rng.randint(1, 30)) for _ in range(2)]) for _ in range(2)]
        triples += [([F(0)] * ni, [F(1)] * nj, [F(1), F(1)]),
                    ([F(1)] * ni, [F(0)] * nj, [F(1), F(2)]),
                    ([F(1)] * ni, [F(1)] * nj, [F(0), F(0)]),
                    ([F(3)] * ni, [F(1)] + [F(0)] * (nj - 1), [F(1), F(0)])]
        for a, c, b in triples:
            f, g, h = (engine._span(b, list(m.generators)), engine._span(a, i_gens),
                       engine._span(c, j_min))
            got = engine._witness_on_table(I, J, a, c, b)
            assert got == reference_witness(I, J, f, g, h), (I, a, c, b)
            outcomes.add(got)
        for seed in (0, 5):
            assert engine.necessary_bound(I, J, seed=seed) == \
                reference_necessary_bound(I, J, seed=seed), I
    assert rows >= 400 and outcomes == {True, False}


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_counts_and_table_equal_the_m_p_route(field, monkeypatch):
    # on every row of `_census_and_twins`, and on the I, J, IJ and mJ of each
    # row classify takes to a colon, mu, the minimal generators and the
    # table equal their route through a fresh m*P: `_mu(P)` is
    # colength(m*P) - colength(P), a monomial P's minimal generators are its
    # corners in `stair.gens` order and any other's the scan of its basis
    # against m*P (`reference_min_gens`), and each cell of
    # `_product_tables`, a nonzero class in P/m*P in exact canonical field
    # values, rebuilt into the dense table with {} at each place with no
    # cell (`dense_tables`), names an element whose normal form modulo m*P
    # is the product's, entry by entry; it leads no relation.  For monomial
    # I and J the table is read off the corners, the products' normal forms
    # themselves: it forms no product and calls no `_nf_dict`
    from agrees import groebner

    colons = []
    real_colon = engine.canonical_colon

    def canonical_colon(*args, **kwargs):
        colons.append(real_colon(*args, **kwargs))
        return colons[-1]

    def canonical(c):
        return type(c) is int and (field == QQ or 0 <= c < field.p) or (
            field == QQ and type(c) is Fraction and c.denominator != 1)

    monkeypatch.setattr(engine, "canonical_colon", canonical_colon)
    m = maximal_ideal(BASE_RING, field)
    formed = []
    real_mul, real_nf = Polynomial.__mul__, groebner._nf_dict
    tables = {True: 0, False: 0}  # by whether I and J are monomial
    for I in _census_and_twins(field):
        del colons[:]
        classify(I)
        ideals = [I] + [P for J in colons for P in (J, engine._mul(I, J), engine._mul(m, J))]
        for P in ideals:
            assert engine._mu(P) == reference_mu(P), P
            assert minimal_generators(P) == (reference_corner_gens(P) if staircase_of_ideal(P)
                                             is not None else reference_min_gens(P)), P
        for J in colons:
            monomial = staircase_of_ideal(I) is not None and staircase_of_ideal(J) is not None
            del formed[:]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Polynomial, "__mul__", lambda *args: formed.append(1) or real_mul(*args))
                mp.setattr(groebner, "_nf_dict", lambda *args: formed.append(1) or real_nf(*args))
                sides = list(engine._product_tables(I, J))
            assert not monomial or not formed, I
            got = dense_tables(I, J, sides)
            want = reference_product_tables(I, J)
            assert len(got) == len(want) == 2 and all(P is Q for (P, _), (Q, _) in zip(got, want))
            assert not monomial or [t for _, t in got] == [t for _, t in want], I
            assert [reference_class_forms(P, t) for P, t in got] == [t for _, t in want], I
            for P, cells in sides:
                led = {lm for lm, _, _ in groebner._relations(P)[1]}
                assert all(canonical(c) and k not in led
                           for _, _, entry in cells for k, c in entry.items()), I
            tables[monomial] += 1
    assert tables[True] >= 400 and tables[False] >= 40


def assert_class_route(I: Ideal, rng: random.Random) -> tuple[int, int]:
    """For I and, when classify reaches a colon J, for I^2, IJ and mJ, the
    route through classes in P/m*P equals the route through normal forms
    modulo a freshly built m*P (`tests/oracles.py`): mu(P), the minimal
    generators, the rank and the Nakayama answer of random sets of elements
    of P, sums of multiples of P's generators, some in m*P; and for the
    pair (I, J), the table's exact entries, rebuilt from its cells into
    the dense table (`dense_tables`), its decision at random and
    degenerate triples and the refuter's record at two seeds.  Returns how many ideals P it
    checked and how many of those have a relation among their reduced
    basis's classes."""
    field = I.field
    rep = classify(I)
    J = None
    if rep.reduction is not None and rep.reduction.stable:
        J = canonical_colon(I, Ideal(list(rep.reduction.Q)))
    m = maximal_ideal(BASE_RING, field)
    ideals = [I, engine._power(I, 2)] + ([] if J is None else [engine._mul(I, J),
                                                                engine._mul(m, J)])
    x, y = m.generators
    related = sum(bool(staircase_of_ideal(P) is None and groebner._relations(P)[1])
                  for P in ideals)
    for P in ideals:
        assert engine._mu(P) == reference_mu(P), P
        assert minimal_generators(P) == (reference_corner_gens(P) if staircase_of_ideal(P)
                                         is not None else reference_min_gens(P)), P
        gens = list(P.generators)
        for _ in range(3):
            elements = []
            for _ in range(rng.randint(1, engine._mu(P) + 1)):
                e = Polynomial.zero(BASE_RING, field)
                for g in rng.sample(gens, min(len(gens), 3)):
                    c = field.from_int(rng.randint(-3, 3))
                    e = e + g * (Polynomial.constant(BASE_RING, field, c)
                                 + x.scale(field.from_int(rng.randint(0, 2))) + y)
                elements.append(e)
            rank = reference_rank(P, elements)
            assert engine._rank(classes(P, elements), field) == rank, P
            assert engine._spans(P, elements) == (rank == reference_mu(P)), P
    if J is None:
        return len(ideals), related
    tables = dense_tables(I, J, list(engine._product_tables(I, J)))
    assert [reference_class_forms(P, t) for P, t in tables] == \
        [t for _, t in reference_product_tables(I, J)], I
    i_gens, j_min = minimal_generators(I), minimal_generators(J)
    F = field.from_int
    triples = [([F(rng.randint(1, 30)) for _ in i_gens], [F(rng.randint(1, 30)) for _ in j_min],
                [F(rng.randint(1, 30)) for _ in range(2)]) for _ in range(2)]
    triples += [([F(1)] * len(i_gens), [F(1)] + [F(0)] * (len(j_min) - 1), [F(1), F(0)]),
                ([F(0)] * len(i_gens), [F(1)] * len(j_min), [F(1), F(1)])]
    for a, c, b in triples:
        f, g, h = engine._span(b, list(m.generators)), engine._span(a, i_gens), \
            engine._span(c, j_min)
        assert engine._witness_on_table(I, J, a, c, b) == reference_witness(I, J, f, g, h), I
    if len(j_min) >= 2:
        for seed in (0, 5):
            assert engine.necessary_bound(I, J, seed=seed) == \
                reference_necessary_bound(I, J, seed=seed), I
    return len(ideals), related


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_class_route_equals_a_fresh_m_p(field):
    # `assert_class_route` on the x -> x + 2y twins of the contracted-o3
    # tuples with n <= 8 (the census twins), the x -> x + y/3 twins with
    # n <= 5 and the x -> x + y^2 and x -> x + y^2/3 images of 16 random
    # staircases, whose bases, unlike the twins', have relations among
    # their classes, and whose exact classes have denominators over q
    from agrees.repro import random_staircase

    rng = random.Random(derive_seed("class route", field.p if field is FP else 0))
    twins = [coordinate_twin(family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b}),
                             c, field)
             for c, top in ((2, 8), (Fraction(1, 3), 5))
             for n in range(3, top + 1) for b in range(2, n) for a in range(1, b)]
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    images = [Ideal([(x + (y * y).scale(c)) ** i * y ** j for i, j in stair.gens])
              for stair in [random_staircase(rng, 6, 3) for _ in range(16)]
              for c in (field.one, field.fraction(1, 3))]
    counts = [assert_class_route(I, rng) for I in twins + images]
    assert sum(checked for checked, _ in counts) >= 4 * len(twins)
    assert sum(related for _, related in counts[len(twins):]) >= 10


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_classify_builds_m_p_only_as_m_j(field, monkeypatch):
    # on every twin, the x -> x + 2y ones of the contracted-o3 tuples with
    # n <= 8 and the x -> x + y/3 ones with n <= 6, classify reads every
    # P/m*P off P itself, so it calls `ideal_product` with the maximal ideal
    # as left factor only for its colon J, the table's mJ, and only when J is
    # not monomial: never for I, a power of I or IJ, and never for mJ
    colons, scaled = [], []
    real_colon, real_product = engine.canonical_colon, engine.ideal_product
    m = maximal_ideal(BASE_RING, field)

    def colon(*args, **kwargs):
        colons.append(real_colon(*args, **kwargs))
        return colons[-1]

    def product(A, B):
        if A is m:
            scaled.append(B)
        return real_product(A, B)

    monkeypatch.setattr(engine, "canonical_colon", colon)
    monkeypatch.setattr(engine, "ideal_product", product)
    built = 0
    for c, top in ((2, 8), (Fraction(1, 3), 6)):
        for n in range(3, top + 1):
            for b in range(2, n):
                for a in range(1, b):
                    exps = family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b})
                    del colons[:], scaled[:]
                    rep = classify(coordinate_twin(exps, c, field))
                    assert all(P is J and staircase_of_ideal(J) is None
                               for P in scaled for J in colons), (exps, c)
                    assert len(scaled) <= len(colons) <= 1
                    assert len(scaled) == (rep.verdict in (Verdict.AG_CERTIFIED, Verdict.NOT_AG)
                                           and staircase_of_ideal(colons[0]) is None)
                    built += len(scaled)
    assert built


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_ideal_product_equals_the_polynomial_route(field, monkeypatch):
    # on every row I of `_census_and_twins`, on the x -> x + y/3 twins of
    # the contracted-o3 tuples with n <= 6 (Fraction coefficients over q),
    # and on the J each row takes to a colon, `ideal_product` gives m*I,
    # I^2, IJ and mJ the generator tuple of the
    # Polynomial.__mul__ route (`oracles.reference_ideal_product`): the same
    # generators in the same order, values and their types alike, with the
    # same staircase and the same reduced basis, entry for entry.  I^2 forms
    # each unordered pair of generators once
    from agrees import groebner

    colons = []
    real_colon, real_row = engine.canonical_colon, groebner._product_row

    def canonical_colon(*args, **kwargs):
        colons.append(real_colon(*args, **kwargs))
        return colons[-1]

    formed = []
    monkeypatch.setattr(engine, "canonical_colon", canonical_colon)
    monkeypatch.setattr(groebner, "_product_row", lambda *args: formed.append(1) or real_row(*args))
    m = maximal_ideal(BASE_RING, field)
    checked = {True: 0, False: 0}  # by whether the product is monomial
    thirds = [coordinate_twin(family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b}),
                              Fraction(1, 3), field)
              for n in range(3, 7) for b in range(2, n) for a in range(1, b)]
    for I in _census_and_twins(field) + thirds:
        del colons[:]
        classify(I)
        for A, B in [(m, I), (I, I)] + [(A, J) for J in colons for A in (I, m)]:
            del formed[:]
            got = ideal_product(A, B)
            n = len(A.generators)
            assert len(formed) == (n * (n + 1) // 2 if A is B else n * len(B.generators))
            want = reference_ideal_product(A, B)
            assert got.generators == want.generators, (A, B)
            assert [[type(c) for c in g.terms.values()] for g in got.generators] == \
                [[type(c) for c in g.terms.values()] for g in want.generators]
            assert staircase_of_ideal(got) == staircase_of_ideal(want)
            assert got.groebner_basis().entries == want.groebner_basis().entries
            checked[staircase_of_ideal(got) is not None] += 1
    assert checked[True] >= 1000 and checked[False] >= 100


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_spans_on_factor_pairs_equals_spans_on_products(field):
    # `_spans(P, left, right)`, whose parts are the products formed on
    # packed words, decides as `_spans(P, parts)` on the same products formed
    # by Polynomial.__mul__: for I^2 = QI and I^3 = QI^2 on the twins of
    # `_census_and_twins` with their first three power-sum pairs, and on the
    # census rows of colength <= 10 with their reduction pair, whose m*P is
    # a staircase
    rows = [I for I in _census_and_twins(field)
            if staircase_of_ideal(I) is None or colength(I) <= 10]
    answers = set()
    for I in rows:
        if staircase_of_ideal(I) is None:
            pairs = [power_sum_pair(I, k) for k in range(3)]
        else:
            pairs = [Ideal(list(find_reduction(I).Q))]
        for Q in pairs:
            for r in (1, 2):
                P, lower = engine._power(I, r + 1), engine._power(I, r)
                got = engine._spans(P, Q.generators, lower.generators)
                assert got == engine._spans(P, [q * p for q in Q.generators
                                                for p in lower.generators]), (I, Q, r)
                answers.add(got)
    assert answers == {True, False}


def _twins_workload_inputs(field) -> list[Ideal]:
    """The inputs of perfbench's coordinate-twins workload over `field`: the
    x -> x + 2y twins of its family grid (order-two n <= 8, three-gen
    n <= 4, power-order m <= 3 and n <= 4, contracted-o3 n <= 4, remark43
    m = 4) and the flagship's x -> x + y/3 twin."""
    exps = [[(2, 0), (1, b), (0, n)] for n in range(2, 9) for b in range((n + 1) // 2, n)]
    for family, spec in (("three-gen", {"n": (3, 4), "alpha": (1, 3)}),
                         ("power-order", {"m": (2, 3), "n": (2, 4)}),
                         ("contracted-o3", {"n": (3, 4), "alpha": (1, 3), "beta": (1, 3)}),
                         ("remark43", {"m": (4, 4)})):
        tuples, _ = expand_tuples(family, {k: range(lo, hi + 1) for k, (lo, hi) in spec.items()})
        exps += [family_exponents(family, dict(zip(FAMILY_PARAMS[family], t))) for t in tuples]
    flagship = family_exponents("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    return [coordinate_twin(e, 2, field) for e in exps] + [
        coordinate_twin(flagship, Fraction(1, 3), field)]


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_classify_forms_no_polynomial_product(field, monkeypatch):
    # classify of every coordinate-twins input, and of the contracted-o3
    # twins with n <= 8, forms every product it reduces on packed words:
    # Polynomial.__mul__ is called zero times.  validate_report on the same
    # rows still calls it, as its linkage check and `verify_witness` form
    # their products by Polynomial.__mul__, a route independent of the
    # kernel's
    workload = _twins_workload_inputs(field)
    assert len(workload) == 30
    inputs = workload + [I for I in _census_and_twins(field) if staircase_of_ideal(I) is None]
    formed = []
    real = Polynomial.__mul__

    def mul(*args):
        formed.append(1)
        return real(*args)

    monkeypatch.setattr(Polynomial, "__mul__", mul)
    monkeypatch.setattr(Polynomial, "__rmul__", mul)
    reports = []
    for I in inputs:
        reports.append(classify(I))
        assert formed == [], I
    validated = 0
    for I, report in zip(inputs, reports):
        if report.verdict is not Verdict.UNKNOWN:
            del formed[:]
            assert validate_report(I, report)
            assert formed, I
            validated += 1
    assert validated == 78


def test_mu_of_a_staircase_that_is_not_m_primary_raises():
    # only an m-primary staircase counts its corners: (x^2, x*y) has
    # infinite colength, and `_mu` raises as colength(m*P) does
    with pytest.raises(NotZeroDimensional):
        engine._mu(ideal("x^2, x*y"))


def _old_span(coeffs, gens):
    """The fold `_span` replaced: each scaled copy summed onto a partial sum."""
    zero = Polynomial.zero(gens[0].ring, gens[0].field)
    return sum((p.scale(c) for c, p in zip(coeffs, gens)), zero)


@st.composite
def _span_cases(draw):
    field = draw(st.sampled_from([QQ, FP]))
    values = st.integers(-3, 3).map(field.from_int) | st.sampled_from(
        [field.div(field.from_int(1), field.from_int(3)),
         field.div(field.from_int(-5), field.from_int(7))])
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), values,
                            min_size=0, max_size=5)
    gens = [Polynomial(BASE_RING, field, t) for t in draw(st.lists(terms, min_size=1, max_size=4))]
    if draw(st.booleans()):  # a generator and its negative: whole terms cancel
        gens.append(-gens[draw(st.integers(0, len(gens) - 1))])
    coeffs = [draw(values) for _ in gens]
    return coeffs, gens


def _vanishing_span(field):
    """x + y minus itself: a span whose every term cancels."""
    g = Polynomial(BASE_RING, field, {(1, 0): field.one, (0, 1): field.one})
    return [field.one, field.from_int(-1)], [g, g]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_span_cases())
@example(_vanishing_span(QQ))
@example(_vanishing_span(FP))
def test_span_is_the_fold_of_scaled_copies(case):
    """`_span` sums into one term dict what the fold of `scale`d copies
    summed, over q and fp, with coefficients 0, terms that cancel and whole
    spans that vanish: equal polynomials, hashes and printed forms, and no
    zero coefficient kept."""
    coeffs, gens = case
    got, want = engine._span(coeffs, gens), _old_span(coeffs, gens)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert all(v != got.field.zero for v in got.terms.values())


@pytest.mark.parametrize("case", ["survey-not-ag", "survey-certified", "flagship-twin"])
def test_classify_builds_no_generators_of_a_product_with_m(case, monkeypatch):
    # every m*P classify caches is read through its staircase or its
    # reduced basis alone, so each still holds the function that builds its
    # generators (the corners' monomials, or the products of the factors'
    # generators) until the first read after classify.  Every mu, minimal
    # generator set and Nakayama test reads P/m*P off P itself, so the one
    # product with m is the table's mJ
    colons = []
    real_colon = engine.canonical_colon

    def colon(*args, **kwargs):
        colons.append(real_colon(*args, **kwargs))
        return colons[-1]

    monkeypatch.setattr(engine, "canonical_colon", colon)
    if case == "flagship-twin":
        I, expected = _flagship_twin(), Verdict.NOT_AG
    else:
        params = {"n": 6, "alpha": 3, "beta": 5} if case == "survey-not-ag" else {
            "n": 6, "alpha": 2, "beta": 3}
        exps = family_exponents("contracted-o3", params)
        I = Ideal([Polynomial.monomial(BASE_RING, FP, e) for e in exps])
        expected = Verdict.NOT_AG if case == "survey-not-ag" else Verdict.AG_CERTIFIED
    assert classify(I).verdict is expected
    m = maximal_ideal(BASE_RING, I.field)
    seen, todo, by_m, factors = set(), [I, *colons], [], []
    while todo:
        X = todo.pop()
        if id(X) not in seen:
            seen.add(id(X))
            for A, P in X._products.items():
                if A is m:
                    by_m.append(P)
                    factors.append(X)
                todo.append(P)
    (J,) = colons
    assert len(factors) == 1 and factors[0] is J
    for P in by_m:
        assert not isinstance(P._generators, tuple)
        gens = P.generators
        assert isinstance(P._generators, tuple) and P._generators is gens and gens


def test_witness_test_keeps_the_tracers_arguments(monkeypatch):
    # perfbench's tracer reads `_sum_equals`'s positional (ref, ref_stair,
    # ref_min, parts): args[1] is ref's staircase, args[3] the parts as
    # polynomials; ref_min is not read, and verify_witness passes ().
    # classify decides its triple on the table, so the calls come from
    # validate_report's re-check, of a certified twin (no staircase) and of
    # its monomial source (staircases)
    calls = []
    real = engine._sum_equals

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "_sum_equals", spy)
    assert list(inspect.signature(real).parameters) == ["ref", "ref_stair", "ref_min", "parts"]
    exps = family_exponents("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    for I in (coordinate_twin(exps, Fraction(1, 3), QQ),
              make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})):
        before = len(calls)
        rep = classify(I)
        assert rep.verdict is Verdict.AG_CERTIFIED and len(calls) == before
        assert validate_report(I, rep) and len(calls) == before + 2
    for ref, ref_stair, ref_min, parts in calls:
        assert ref_stair == staircase_of_ideal(ref) and ref_min == ()
        assert parts and all(isinstance(p, Polynomial) for p in parts)
    assert any(c[1] is None for c in calls) and any(c[1] is not None for c in calls)


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
    J = canonical_colon(I, Q)
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
        J = canonical_colon(I, Q)
        assert necessary_bound(I, J, Q=Q).min_sum >= 2


def test_refuter_requires_stability_when_given_q():
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    Q = ideal("x^3, y^6")
    with pytest.raises(NotStable):
        necessary_bound(I, ideal_colon(Q, I), Q=Q)


def _census_and_twins(field):
    """The census rows of colength <= 14 and the x -> x+2y twins of the
    contracted-o3 tuples with n <= 8."""
    census = [ideal_of_staircase(staircase_normalize(
                  [(a, b) for b, a in enumerate(parts)] + [(0, len(parts))]), BASE_RING, field)
              for n in range(1, 15) for parts in _partitions(n)]
    twins = [coordinate_twin(family_exponents("contracted-o3", {"n": n, "alpha": a, "beta": b}),
                             2, field)
             for n in range(3, 9) for b in range(2, n) for a in range(1, b)]
    return census + twins


def _refuted_rows(field):
    """(I, J, monomial) for every row of `_census_and_twins` that reaches
    the refuter in classify."""
    rows = []
    for I in _census_and_twins(field):
        rep = classify(I)
        if rep.refutation is not None:
            rows.append((I, Ideal(list(rep.colon_gens)), staircase_of_ideal(I) is not None))
    return rows


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_refuter_equals_its_full_budget_loop(field, monkeypatch):
    # stopping at the term-rank bound changes no field of the record: every
    # row that reaches the refuter, at sample budgets 1, 2 and 16 and three
    # seeds, equals the loop that ranks every sample.  A monomial row meets
    # both bounds at its first sample, so it draws once; a twin's I side
    # has a dense support and draws the whole budget
    draws = []
    real_sample = engine._sample_vector
    monkeypatch.setattr(engine, "_sample_vector",
                        lambda *args: draws.append(1) or real_sample(*args))
    rows = _refuted_rows(field)
    monomial = sum(mono for _, _, mono in rows)
    assert monomial >= 15 and len(rows) - monomial >= 4
    for I, J, mono in rows:
        for trials in (1, 2, 16):
            for seed in (0, 1, 9):
                draws.clear()
                got = necessary_bound(I, J, seed=seed, trials=trials)
                assert len(draws) == (1 if mono else trials), (I, trials, seed)
                assert got == reference_necessary_bound(I, J, seed=seed, trials=trials), I


def test_one_sample_gives_the_generic_ranks_on_monomial_rows():
    # on the census rows that reach the refuter, the ranks of a single
    # sample are sympy's ranks with symbolic coefficients
    checked = 0
    for I, J, mono in _refuted_rows(FP):
        if mono:
            ref = necessary_bound(I, J, trials=1)
            i_exps, j_exps = staircase_of_ideal(I).gens, staircase_of_ideal(J).gens
            assert (ref.mu_IJ, ref.mu_mJ, ref.rank_I, ref.rank_m) == generic_ranks(i_exps, j_exps)
            checked += 1
    assert checked >= 15


def _largest_matching(supports) -> int:
    """Largest matching of rows to columns by trying, row by row, to leave
    the row out or to give it each free column of its support."""
    def best(i, used):
        if i == len(supports):
            return 0
        return max([best(i + 1, used)]
                   + [1 + best(i + 1, used | {col}) for col in supports[i] if col not in used])
    return best(0, frozenset())


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_term_rank_is_a_largest_matching_and_bounds_the_rank(field):
    # on seeded supports `_term_rank` is the brute-force largest matching,
    # and it bounds the rank of the rows themselves (with explicit zeros and
    # sums that cancel) and of `_combine`'s random combinations of them
    rng = random.Random(derive_seed("term-rank", field.p if field is FP else 0))
    for _ in range(200):
        rows = _seeded_rank_rows(rng, field)
        supports = [set(row) for row in rows]
        bound = engine._term_rank(supports)
        assert bound == _largest_matching(supports), rows
        assert engine._rank(rows, field) <= bound, rows
        n = rng.randint(1, 4)
        per_row = [[rng.choice(rows) if rows and rng.random() < 0.5 else {}
                    for _ in range(n)] for _ in range(rng.randint(0, 5))]
        bound = engine._term_rank([set().union(*per_w) for per_w in per_row])
        for _ in range(3):
            c = [field.from_int(rng.choice((0, 1, -1, rng.randint(-9, 9)))) for _ in range(n)]
            assert engine._rank([engine._combine(per_w, c, field) for per_w in per_row],
                                field) <= bound, per_row
    assert engine._term_rank([]) == 0
    assert engine._term_rank([{1, 2}, {1}, {1}]) == 2
    assert engine._term_rank([{1, 2, 3}, {1}, {2}, {2, 3}]) == 3


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
    # a refutation from zero samples refutes nothing: a re-run with no sample
    # has ranks 0, so min_sum = mu(IJ) + mu(mJ) = 7 would clear any threshold
    I = ideal("x^2, x y, y^2")
    rep = classify(I)
    assert rep.verdict is Verdict.AG_CERTIFIED
    J = Ideal(list(rep.colon_gens))
    forged = replace(rep, verdict=Verdict.NOT_AG, witness=None,
                     refutation=replace(necessary_bound(I, J), min_sum=7, threshold=2))
    assert not validate_report(I, replace(forged, refutation=replace(forged.refutation, trials=0)))
    with pytest.raises(BadParameters):
        necessary_bound(I, J, trials=0)
    # a Gorenstein report relabelled NOT_AG: its colon (1) has mu(J) = 1,
    # so there is nothing to refute, and the check says so without raising
    I = ideal("x^2, y^2")
    rep = classify(I)
    assert rep.verdict is Verdict.GORENSTEIN
    assert not validate_report(I, replace(rep, verdict=Verdict.NOT_AG,
                                          refutation=forged.refutation))
    # the refuter itself refuses mu(J) = 1: (x^2, y^3) is Gorenstein, its colon (1)
    I = ideal("x^2, y^3")
    rep = classify(I)
    assert rep.verdict is Verdict.GORENSTEIN
    with pytest.raises(BadParameters):
        necessary_bound(I, Ideal(list(rep.colon_gens)))


def test_validate_report_rejects_forged_refutation_numbers(monkeypatch):
    # a genuine NOT_AG report whose refutation record is altered in one
    # recorded number, each still refuting (min_sum > threshold), or with
    # rank_I and min_sum forged together: the re-run must equal the record
    # in every field but its seeds.  A budget other than classify's is
    # rejected before the re-run draws a sample, so a forged trials=2000
    # costs nothing, and every genuine NOT_AG report of `_census_and_twins`
    # still validates
    draws = []
    real_sample = engine._sample_vector
    monkeypatch.setattr(engine, "_sample_vector",
                        lambda *args: draws.append(1) or real_sample(*args))
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    rep = classify(I)
    assert rep.verdict is Verdict.NOT_AG and validate_report(I, rep)
    r = rep.refutation
    forgeries = [replace(r, mu_IJ=99), replace(r, mu_J=9), replace(r, threshold=1),
                 replace(r, min_sum=15), replace(r, rank_I=0, min_sum=8),
                 replace(r, primes=(7,)), replace(r, failure_bound=0.0)]
    assert all(f != r and f.min_sum > f.threshold for f in forgeries)
    for forged in forgeries:
        assert not validate_report(I, replace(rep, refutation=forged)), forged
    # the seeds are the one field a re-run does not repeat
    assert validate_report(I, replace(rep, refutation=replace(r, seeds=(1, 2))))
    assert r.trials == engine._TRIALS
    draws.clear()
    for trials in (2000, r.trials + 1, r.trials - 1, 1):
        assert not validate_report(I, replace(rep, refutation=replace(r, trials=trials))), trials
    assert draws == []
    genuine = 0
    for I in _census_and_twins(FP):
        rep = classify(I)
        if rep.verdict is Verdict.NOT_AG:
            assert validate_report(I, rep), I
            genuine += 1
    assert genuine >= 20


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


def test_validate_report_rederives_the_colon():
    # forged colons, each accepted by a validator that trusts colon_gens: the
    # unit colon on a NOT_AG report relabelled GORENSTEIN; under NOT_AG
    # colons the refuter still refutes; under AG_CERTIFIED a colon with a
    # fresh witness that verifies; a Q outside I; and a Q that is no
    # reduction, with its own colon and witness
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    rep = classify(I)
    assert rep.verdict is Verdict.NOT_AG and validate_report(I, rep)
    unit = replace(rep, verdict=Verdict.GORENSTEIN, colon_gens=(poly("1"),), colon_min_gens=1)
    assert not validate_report(I, unit)
    for text in ("x^3, x y, y^3", "x^2, y^2"):
        # (x^2, y^2) has the colon's colength 4, but J*I leaves T
        swapped = ideal(text)
        ref = necessary_bound(I, swapped)
        assert ref.min_sum > ref.threshold
        assert not validate_report(I, replace(rep, colon_gens=swapped.generators))
    outside = replace(rep.reduction, Q=(poly("x^2"), poly("y^6")))
    assert not validate_report(I, replace(rep, reduction=outside))
    # x times the true colon: J*I still lies in T, but J has infinite colength
    x = poly("x")
    assert not validate_report(I, replace(rep, colon_gens=tuple(x * g for g in rep.colon_gens)))

    I = ideal("x^3, x^2 y^3, x y^4, y^5")
    rep = classify(I)
    assert rep.verdict is Verdict.AG_CERTIFIED and validate_report(I, rep)
    m = ideal("x, y")
    w = certificate_search(I, Ideal(list(rep.reduction.Q)), m)
    assert w is not None and verify_witness(I, m, w.f, w.g, w.h)
    assert not validate_report(I, replace(rep, colon_gens=m.generators, witness=w))

    # (6, 2, 3) against its pure powers, which are no reduction (I^2 != QI):
    # (Q + I^2) : I has the linked colength, and a witness for it verifies
    I = make_family("contracted-o3", {"n": 6, "alpha": 2, "beta": 3})
    rep = classify(I)
    assert rep.verdict is Verdict.AG_CERTIFIED and validate_report(I, rep)
    Q = ideal("x^3, y^6")
    J = ideal_colon(Ideal(list(Q.generators) + list(ideal_product(I, I).generators)), I)
    # the triple depends only on I, J and the seed: drawn through the guard
    # of the stable reduction, it is the witness for Q's colon all the same
    w = certificate_search(I, Ideal(list(rep.reduction.Q)), J)
    assert w is not None and verify_witness(I, J, w.f, w.g, w.h)
    forged = replace(rep, reduction=replace(rep.reduction, Q=Q.generators),
                     colon_gens=tuple(minimal_generators(J)), witness=w)
    assert not validate_report(I, forged)


def test_validate_report_rejects_the_unit_colon_on_a_sweep():
    # contracted-o3 n <= 7 over fp and x -> x+2y twins over q: every report
    # with a colon validates, and the unit colon validates only under
    # GORENSTEIN, where it is the true colon
    cases = [make_family("contracted-o3", {"n": n, "alpha": a, "beta": b}, field=FP)
             for n in range(3, 8) for b in range(2, n) for a in range(1, b)]
    cases += [coordinate_twin(family_exponents("contracted-o3",
                                               {"n": n, "alpha": a, "beta": a + 1}), 2)
              for n in (5, 6) for a in (1, 2, 3)]
    refused = 0
    for I in cases:
        rep = classify(I)
        if rep.colon_gens is None:
            continue
        assert validate_report(I, rep), I
        unit = replace(rep, colon_gens=(Polynomial.one(I.ring, I.field),))
        if rep.verdict is not Verdict.GORENSTEIN:
            assert not validate_report(I, unit), I
            refused += 1
    assert refused >= 20


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


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_classify_inconclusive_refutation_is_unknown(field):
    # a stable, non-contracted census row of colength 29: no witness at the
    # generic triple, and the refuter's min_sum equals its threshold
    I = ideal("x^5, x^3*y^3, x^2*y^6, x*y^8, y^9", field)
    rep = classify(I)
    assert rep.verdict is Verdict.UNKNOWN
    assert rep.refutation.min_sum == rep.refutation.threshold == 6
    assert rep.notes[-1] == ("no witness at a generic triple (failure <= 1.2e-05) and "
                             "the generator-count bound is inconclusive")
    assert validate_report(I, rep)


def test_classify_without_a_reduction_is_unknown():
    # the x -> x + 2y twin of x^10, x^3 y^7, y^10 (source r = 9): no seeded
    # pair reaches r <= 4, so the search gives up and the Rees bound is unproven
    from agrees import rees

    I = coordinate_twin([(10, 0), (3, 7), (0, 10)], 2, FP)
    rep = classify(I)
    assert rep.verdict is Verdict.UNKNOWN and rep.reduction is None
    assert rep.notes == ("verdict undecided: no reduction with r <= 4 among 32 pairs",)
    assert validate_report(I, rep)
    assert rees._relation_type_bound(I) is None


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
        I = coordinate_twin(family_exponents("three-gen", {"n": 5, "alpha": 3}), Fraction(c), field)
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
    from agrees.staircase import newton_closure

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
    from agrees.staircase import newton_closure

    rng = random.Random(2016)
    cases = [ideal_of_staircase(newton_closure(random_staircase(rng, 8, 3)), BASE_RING, FP)
             for _ in range(150)]
    for field, count in ((FP, 40), (QQ, 25)):
        cases += [coordinate_twin(newton_closure(random_staircase(rng, 6, 3)).gens, 2, field)
                  for _ in range(count)]
    for k, I in enumerate(cases):
        rep = classify(I, ClassifyConfig(seed=k))
        assert rep.verdict in (Verdict.GORENSTEIN, Verdict.AG_CERTIFIED), (I, rep.notes)


def _contracted_order_at_most_two(top):
    """Staircase generators of every contracted monomial ideal of order <= 2
    with exponents <= top: (x, y^n), (x^2, x*y^b, y^n), their mirrors and
    (x^a, x*y, y^b)."""
    shapes = {((1, 0), (0, n)) for n in range(1, top + 1)}
    shapes |= {((2, 0), (1, b), (0, n)) for n in range(2, top + 1) for b in range(1, n)}
    shapes |= {((a, 0), (1, 1), (0, b)) for a in range(2, top + 1) for b in range(2, top + 1)}
    shapes |= {tuple((j, i) for i, j in reversed(s)) for s in shapes}
    return sorted(shapes)


def test_contracted_order_at_most_two_is_almost_gorenstein():
    # the paper's main theorem: every contracted I with o(I) <= 2 has an
    # almost Gorenstein R(I); checked on the monomial ones with exponents
    # <= 12 over fp and on the x -> x+2y twins of those with exponents <= 6
    # over q.  A gate: never loosened.
    monomial = [Ideal([Polynomial.monomial(BASE_RING, FP, e) for e in gens])
                for gens in _contracted_order_at_most_two(12)]
    twins = [coordinate_twin(gens, 2, QQ) for gens in _contracted_order_at_most_two(6)]
    for cases, counts in ((monomial, (23, 231)), (twins, (11, 45))):
        verdicts = []
        for I in cases:
            rep = classify(I)
            assert rep.contracted and rep.order <= 2, I
            assert rep.verdict in (Verdict.GORENSTEIN, Verdict.AG_CERTIFIED), (I, rep.notes)
            assert validate_report(I, rep), I
            verdicts.append(rep.verdict)
        assert (verdicts.count(Verdict.GORENSTEIN), verdicts.count(Verdict.AG_CERTIFIED)) == counts


def _partitions(n, top=None):
    """The partitions of n into parts <= top (any part when top is None),
    as tuples with their largest part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_census_of_monomial_ideals_up_to_colength_20():
    # every m-primary monomial ideal of colength <= 20, one per partition of
    # its colength (row b of the Young diagram holds the standard monomials
    # x^a*y^b, a < its part), classified over fp with seed 0.  Gates, never
    # loosened: GMTY1 (integrally closed => AG); the paper's main theorem
    # (contracted with o <= 2 => AG); swapping x and y, which takes a
    # partition to its conjugate, keeps the verdict; and up to colength 16
    # `validate_report` accepts every decided report.
    ag = (Verdict.GORENSTEIN, Verdict.AG_CERTIFIED)
    verdicts = {}
    closed = low_order = 0
    for n in range(1, 21):
        for parts in _partitions(n):
            gens = [(a, b) for b, a in enumerate(parts)] + [(0, len(parts))]
            I = ideal_of_staircase(staircase_normalize(gens), BASE_RING, FP)
            rep = classify(I)
            verdicts[parts] = rep.verdict
            assert rep.colength == n, parts
            if rep.integrally_closed:
                closed += 1
                assert rep.verdict in ag, (parts, rep.notes)
            if rep.contracted and rep.order <= 2:
                low_order += 1
                assert rep.verdict in ag, (parts, rep.notes)
            if n <= 16 and rep.verdict is not Verdict.UNKNOWN:
                assert validate_report(I, rep), parts
    assert len(verdicts) == 2713 and closed and low_order
    for parts, verdict in verdicts.items():
        conjugate = tuple(sum(p > a for p in parts) for a in range(parts[0]))
        assert verdicts[conjugate] is verdict, (parts, conjugate)


def test_adjoint_is_the_kernel_colon_on_closed_census_rows():
    # Lipman's Q : I = adj(I) for a complete I and Howald's corner rule,
    # never loosened: on every integrally closed stable census row of
    # colength <= 20 whose Newton pair is not the pure powers (1306 rows),
    # the adjoint is the staircase of the kernel on R/I
    rows = 0
    for n in range(1, 21):
        for parts in _partitions(n):
            gens = [(a, b) for b, a in enumerate(parts)] + [(0, len(parts))]
            s = staircase_normalize(gens)
            if not is_integrally_closed(s):
                continue
            I = ideal_of_staircase(s, BASE_RING, FP)
            red = find_reduction(I)
            Q = Ideal(list(red.Q))
            if not red.stable or staircase_of_ideal(Q) is not None:
                continue
            assert adjoint(s) == staircase_of_ideal(engine._kernel_colon(I, Q)), parts
            rows += 1
    assert rows == 1306


def test_twins_match_their_source():
    # the x -> x+2y twin of every contracted-o3 tuple with n <= 6 gets the
    # verdict of its monomial source, with the survey's per-tuple seed
    tuples = [(n, alpha, beta) for n in range(3, 7)
              for alpha in range(1, n) for beta in range(alpha + 1, n)]
    for params in tuples:
        values = dict(zip(("n", "alpha", "beta"), params))
        cfg = ClassifyConfig(seed=derive_seed(0, "contracted-o3", *params))
        source = classify(make_family("contracted-o3", values, field=FP), cfg)
        I = coordinate_twin(family_exponents("contracted-o3", values), 2, FP)
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

"""Named reproduction checks: each re-derives a published computation.

Every check is deterministic for a fixed seed and reports what it expected
against what it got.  The registry doubles as the acceptance suite driven by
``agrees repro`` and by the test module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import (
    ClassifyConfig,
    Verdict,
    canonical_colon,
    classify,
    derive_seed,
    find_reduction,
    is_stable,
    necessary_bound,
    verify_witness,
)
from .errors import UnknownCheckId
from .families import make_family
from .fields import QQ
from .groebner import Ideal, ideal_colon, ideal_equal, ideal_product
from .poly import BASE_RING, Polynomial
from .rees import rees_defining_ideal
from .staircase import (
    Staircase,
    ideal_of_staircase,
    is_contracted,
    mono_colength,
    newton_closure,
    staircase_colon,
    staircase_normalize,
    staircase_of_ideal,
    staircase_power,
    staircase_product,
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    expected: str
    got: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.expected == self.got


def _mono_ideal(exps, field=QQ) -> Ideal:
    return Ideal([Polynomial.monomial(BASE_RING, field, e) for e in exps])


def _poly(text: str, field=QQ) -> Polynomial:
    from .parse import parse_polynomial

    return parse_polynomial(text, BASE_RING, field)


def random_staircase(rng: random.Random, max_exp: int = 8, extras: int = 3) -> Staircase:
    a = rng.randint(1, max_exp)
    b = rng.randint(1, max_exp)
    pts = [(a, 0), (0, b)]
    if a > 1 and b > 1:
        for _ in range(rng.randint(0, extras)):
            pts.append((rng.randint(1, a - 1), rng.randint(1, b - 1)))
    return staircase_normalize(pts)


# -- individual checks ---------------------------------------------------------

def check_thm14_simplest(seed: int) -> CheckResult:
    I = make_family("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    rep = classify(I, ClassifyConfig(seed=seed))
    ref = rep.refutation
    got = "no refutation" if ref is None else (
        f"{rep.verdict.value} mu_IJ={ref.mu_IJ} mu_mJ={ref.mu_mJ} "
        f"min_sum={ref.min_sum} threshold={ref.threshold}")
    return CheckResult(
        "thm14-simplest",
        "NOT_AG mu_IJ=6 mu_mJ=4 min_sum=5 threshold=4",
        got,
    )


def _stability_truth_table(n_max: int) -> tuple[int, int, list]:
    """(tuples, mismatches, tuples predicted stable) of contracted-o3 with
    n <= n_max, stability read against the pure-power pair (x^3, y^n)."""
    total = bad = 0
    stable = []
    for n in range(3, n_max + 1):
        for alpha in range(1, n):
            for beta in range(alpha + 1, n):
                I = make_family("contracted-o3", {"n": n, "alpha": alpha, "beta": beta})
                Q = _mono_ideal([(3, 0), (0, n)])
                predicted = beta <= 2 * alpha and n <= alpha + beta and n + alpha <= 2 * beta
                total += 1
                if is_stable(I, Q) != predicted:
                    bad += 1
                if predicted:
                    stable.append((n, alpha, beta))
    return total, bad, stable


def check_prop41_boundary(seed: int) -> CheckResult:
    total, bad, _ = _stability_truth_table(7)
    return CheckResult(
        "prop41-boundary",
        f"{total} tuples, 0 mismatches",
        f"{total} tuples, {bad} mismatches",
    )


def check_boundary_witnesses(seed: int) -> CheckResult:
    """Stable boundary tuples n + alpha = 2*beta certify, and the published
    triple f = y, g = x^3, h = x^2 - y^(n-alpha) verifies on each of them."""
    _, stability_bad, stable = _stability_truth_table(9)
    boundary = [(n, alpha, beta) for n, alpha, beta in stable if n + alpha == 2 * beta]
    total, bad = len(boundary), 0
    for n, alpha, beta in boundary:
        I = make_family("contracted-o3", {"n": n, "alpha": alpha, "beta": beta})
        rep = classify(I, ClassifyConfig(seed=seed))
        J = canonical_colon(I, _mono_ideal([(3, 0), (0, n)]), stable=True)
        h = _poly(f"x^2 - y^{n - alpha}")
        if not (rep.verdict is Verdict.AG_CERTIFIED
                and verify_witness(I, J, _poly("y"), _poly("x^3"), h)):
            bad += 1
    expected = f"stability exact, {total} boundary tuples certified"
    if stability_bad:
        got = f"{stability_bad} stability mismatches"
    elif bad:
        got = f"{bad} of {total} boundary tuples failed"
    else:
        got = expected
    return CheckResult("boundary-witnesses", expected, got)


def check_strict_region(seed: int) -> CheckResult:
    """Strict inequalities force NOT_AG with no UNKNOWN rows."""
    region = []
    for n in range(3, 10):
        for alpha in range(1, n):
            for beta in range(alpha + 1, n):
                if n < alpha + beta and n + alpha < 2 * beta and beta < 2 * alpha:
                    region.append((n, alpha, beta))
    verdicts = {}
    for n, alpha, beta in region:
        I = make_family("contracted-o3", {"n": n, "alpha": alpha, "beta": beta})
        rep = classify(I, ClassifyConfig(seed=seed))
        verdicts[(n, alpha, beta)] = rep.verdict
    not_ag = sum(1 for v in verdicts.values() if v is Verdict.NOT_AG)
    unknown = sum(1 for v in verdicts.values() if v is Verdict.UNKNOWN)
    expected = f"{len(region)} tuples: all NOT_AG, 0 UNKNOWN"
    got = expected if not_ag == len(region) else (
        f"{len(region)} tuples: {not_ag} NOT_AG, {unknown} UNKNOWN")
    return CheckResult("strict-region-refutations", expected, got,
                       detail=" ".join(f"({n},{a},{b})" for n, a, b in region))


def check_three_gen_branches(seed: int) -> CheckResult:
    total = bad = 0
    for n in range(3, 10):
        for alpha in range(1, n):
            if 2 * alpha < n:
                continue
            total += 1
            I = make_family("three-gen", {"n": n, "alpha": alpha})
            rep = classify(I, ClassifyConfig(seed=seed))
            if 2 * alpha == n:
                ok = rep.verdict is Verdict.AG_CERTIFIED
                Q = _mono_ideal([(3, 0), (0, n)])
                J = canonical_colon(I, Q, stable=True)
                ok = ok and verify_witness(I, J, _poly("y"), _poly(f"y^{n}"), _poly("x"))
            else:
                ref = rep.refutation
                ok = (rep.verdict is Verdict.NOT_AG and ref is not None
                      and ref.mu_IJ == 4 and ref.mu_mJ == 3)
            if not ok:
                bad += 1
    expected = f"{total} tuples split exactly by 2*alpha = n"
    got = expected if bad == 0 else f"{bad} of {total} tuples off the split"
    return CheckResult("three-generator-branches", expected, got)


def check_high_order_family(seed: int) -> CheckResult:
    total = bad = 0
    m_stair = staircase_normalize([(1, 0), (0, 1)])
    for m in range(2, 6):
        for n in range(m, 11):
            total += 1
            I = make_family("power-order", {"m": m, "n": n})
            stair = staircase_of_ideal(I)
            ok = is_contracted(stair) and stair.order() == m
            red = find_reduction(I, seed=seed)
            q_exps = sorted(g.monomial_exponent() for g in red.Q)
            ok = ok and q_exps == [(0, n), (m, 0)] and red.stable
            J = canonical_colon(I, Ideal(list(red.Q)), stable=True)
            ok = ok and staircase_of_ideal(J) == staircase_power(m_stair, m - 1)
            rep = classify(I, ClassifyConfig(seed=seed))
            ok = ok and rep.verdict is Verdict.AG_CERTIFIED
            if n >= 2 * m:
                closure = newton_closure(stair)
                ok = ok and closure.contains((1, n - 2)) and not stair.contains((1, n - 2))
            if not ok:
                bad += 1
    expected = f"{total} members contracted, stable, J = m^(m-1), AG certified"
    got = expected if bad == 0 else f"{bad} of {total} members failed"
    return CheckResult("high-order-family", expected, got)


def check_staggered_family(seed: int) -> CheckResult:
    parts = []
    ok = True
    for m in (4, 5):
        I = make_family("remark43", {"m": m})
        stair = staircase_of_ideal(I)
        rep = classify(I, ClassifyConfig(seed=seed))
        ref = rep.refutation
        good = (is_contracted(stair) and stair.order() == m
                and rep.reduction is not None and rep.reduction.stable
                and rep.verdict is Verdict.NOT_AG and ref is not None)
        ok = ok and good
        if ref is not None:
            parts.append(f"m={m}: min_sum={ref.min_sum} threshold={ref.threshold}")
        else:
            parts.append(f"m={m}: no refutation")
    expected = "m=4,5 contracted, order m, stable, NOT_AG"
    return CheckResult(
        "staggered-family",
        expected,
        expected if ok else "; ".join(parts),
        detail="; ".join(parts),
    )


def check_property_suite(seed: int) -> CheckResult:
    """Generator counts vs m-fullness, order drop, linkage, closed products."""
    rng = random.Random(derive_seed(seed, "property-suite"))
    failures = 0
    contracted_pool: list[Staircase] = []
    x = Polynomial.variable(BASE_RING, QQ, "x")
    y = Polynomial.variable(BASE_RING, QQ, "y")
    for _ in range(200):
        S = random_staircase(rng, max_exp=6, extras=3)
        I = ideal_of_staircase(S, BASE_RING, QQ)
        contracted = len(S.gens) == S.order() + 1
        if contracted:
            contracted_pool.append(S)
        # m-fullness with a random unit combination of x and y
        xt = x + y.scale(QQ.from_int(rng.randint(1, 40)))
        mI = ideal_of_staircase(
            staircase_product(S, staircase_normalize([(1, 0), (0, 1)])), BASE_RING, QQ)
        full = ideal_equal(ideal_colon(mI, Ideal([xt])), I)
        if full != contracted:
            failures += 1
        # Gorenstein linkage against the pure-power parameter ideal inside I
        a, b = S.gens[0][0], S.gens[-1][1]
        Q = staircase_normalize([(a, 0), (0, b)])
        J = staircase_colon(Q, S)
        if staircase_colon(Q, J) != S:
            failures += 1
        if a * b != mono_colength(S) + mono_colength(J):
            failures += 1
        # order drop for contracted stable ideals with a pure-power reduction
        if contracted and all(i * b + j * a >= a * b for i, j in S.gens):
            QI = ideal_of_staircase(Q, BASE_RING, QQ)
            if is_stable(I, QI) and S.order() != J.order() + 1:
                failures += 1
    for left, right in zip(contracted_pool, contracted_pool[1:]):
        prod = staircase_product(left, right)
        if len(prod.gens) != prod.order() + 1:
            failures += 1
    return CheckResult(
        "contracted-property-suite",
        "200 ideals, 0 failures",
        f"200 ideals, {failures} failures",
    )


def check_order_two(seed: int) -> CheckResult:
    """Contracted order-2 ideals with pure-power reductions: stable, never
    refuted, and the generator-count bound always sits at its threshold."""
    rng = random.Random(derive_seed(seed, "order-two"))
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 12)
        beta = rng.randint(max(1, (n + 1) // 2), n - 1) if n > 2 else 1
        S = staircase_normalize([(2, 0), (1, beta), (0, n)])
        I = ideal_of_staircase(S, BASE_RING, QQ)
        Q = _mono_ideal([(2, 0), (0, n)])
        if not is_stable(I, Q):
            bad += 1
            continue
        J = canonical_colon(I, Q, stable=True)
        rep = classify(I, ClassifyConfig(seed=seed))
        if rep.verdict is Verdict.NOT_AG:
            bad += 1
            continue
        if len(S.gens) == 3:  # mu(J) = 2 whenever I is 3-generated here
            ref = necessary_bound(I, J, seed=seed, Q=Q)
            if ref.min_sum > 2:
                bad += 1
    return CheckResult(
        "order-two-consistency",
        "100 ideals: all stable, none refuted, min_sum <= 2",
        "100 ideals: all stable, none refuted, min_sum <= 2" if bad == 0
        else f"100 ideals: {bad} violations",
    )


def check_rees_shapes(seed: int) -> CheckResult:
    param = _mono_ideal([(3, 0), (0, 6)])
    pres = rees_defining_ideal(param)
    single_ok = (
        len(pres.defining_gens) == 1
        and str(pres.defining_gens[0]) == "y^6*T1 - x^3*T2"
    )
    three_gen = [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 8)]
    shape_bad = 0
    for beta, n in three_gen:
        I = _mono_ideal([(2, 0), (1, beta), (0, n)])
        tdegs = sorted(t for t, _ in rees_defining_ideal(I).bidegrees)
        if tdegs != [1, 1, 2]:
            shape_bad += 1
    expected = "pencil generator y^6*T1 - x^3*T2; 7 contracted stable shapes {1,1,2}"
    if not single_ok:
        got = "pencil generator mismatch"
    elif shape_bad:
        got = f"{shape_bad} of {len(three_gen)} shapes off {{1,1,2}}"
    else:
        got = expected
    return CheckResult("rees-shapes", expected, got)


def _closure_power_oracle(S: Staircase, k_max: int = 12) -> Staircase:
    """Brute force closure: m is integral over S iff m^k lies in S^k, k <= k_max."""
    powers = [None, S]
    for k in range(2, k_max + 1):
        powers.append(staircase_product(powers[-1], S))
    a_max = S.gens[0][0]
    b_max = S.gens[-1][1]
    members = []
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            if any(powers[k].contains((k * a, k * b)) for k in range(1, k_max + 1)):
                members.append((a, b))
                break  # larger b in this column is implied
    return staircase_normalize(members)


def check_oracle_agreement(seed: int) -> CheckResult:
    from .groebner import colength as gb_colength

    rng = random.Random(derive_seed(seed, "oracle"))
    mismatches = 0
    for _ in range(500):
        A = random_staircase(rng, max_exp=6, extras=2)
        B = random_staircase(rng, max_exp=6, extras=2)
        IA = ideal_of_staircase(A, BASE_RING, QQ)
        IB = ideal_of_staircase(B, BASE_RING, QQ)
        prod_gb = ideal_product(IA, IB).groebner_basis()
        if sorted(p.monomial_exponent() for p in prod_gb) != sorted(
                staircase_product(A, B).gens):
            mismatches += 1
        colon_gb = ideal_colon(IA, IB).groebner_basis()
        if sorted(p.monomial_exponent() for p in colon_gb) != sorted(
                staircase_colon(A, B).gens):
            mismatches += 1
        if gb_colength(IA) != mono_colength(A):
            mismatches += 1
    closure_bad = 0
    for _ in range(100):
        S = random_staircase(rng, max_exp=8, extras=3)
        if newton_closure(S) != _closure_power_oracle(S):
            closure_bad += 1
    expected = "500 pairs agree; 100 closures agree"
    got = expected if mismatches == 0 and closure_bad == 0 else (
        f"{mismatches} pair mismatches; {closure_bad} closure mismatches")
    return CheckResult("oracle-agreement", expected, got)


CHECKS = {
    "thm14-simplest": check_thm14_simplest,
    "prop41-boundary": check_prop41_boundary,
    "boundary-witnesses": check_boundary_witnesses,
    "strict-region-refutations": check_strict_region,
    "three-generator-branches": check_three_gen_branches,
    "high-order-family": check_high_order_family,
    "staggered-family": check_staggered_family,
    "contracted-property-suite": check_property_suite,
    "order-two-consistency": check_order_two,
    "rees-shapes": check_rees_shapes,
    "oracle-agreement": check_oracle_agreement,
}


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    if check_id not in CHECKS:
        raise UnknownCheckId(
            f"unknown check {check_id!r}; choose from {', '.join(CHECKS)}")
    return CHECKS[check_id](seed)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [fn(seed) for fn in CHECKS.values()]

"""Independent oracles used to derive expected values for the tests.

These deliberately avoid the production algorithms: the monomial
primitives and the order keys are written out here, the order keys' values
come from their formulas, the pair update is the criterion-by-criterion
form of the kernel's one-pass update, the Groebner oracle is a
plain S-pair saturation loop with no selection strategy or pair pruning, the
lattice oracles work on divisibility predicates, the reference colon is an
elimination (one auxiliary variable and exact division) in place of the
library's kernel walk, the rank oracle runs symbolic linear algebra in
sympy, the refuter's reference draws and ranks its whole sample budget
with no rank bound to stop at, and the generator counts, the minimal
generators, the ranks in P/m*P, the table of generator products, the
witness test and the refuter are read through normal forms modulo a
freshly built m*P in place of the classes the engine reads off P's own
basis or corners.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import sympy

from agrees import engine, groebner
from agrees.errors import NotContained, NotStable, ZeroDivisorIdeal
from agrees.fields import MIN_PRIME, PrimeField
from agrees.groebner import (Ideal, colength, ideal_intersection, ideal_product, maximal_ideal,
                             staircase_of_ideal)
from agrees.poly import BlockElimination, Polynomial


# -- monomial primitives in their generator form ------------------------------
# Divisibility, lcm, product and quotient of exponent tuples written with
# generators, and the grevlex and block orders as tuple keys, the order the
# packed words of `agrees.poly` must keep, so the oracles below do not
# change with the primitives they are used to check.

def reference_mono_mul(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def reference_mono_div(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def reference_mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reference_mono_lcm(a, b) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_grevlex_key(e) -> tuple:
    return (sum(e), tuple(-x for x in reversed(e)))


def reference_leading(p: Polynomial) -> tuple:
    """p's leading exponent and coefficient under `reference_grevlex_key`."""
    e = max(p.terms, key=reference_grevlex_key)
    return e, p.terms[e]


def _monic(p: Polynomial) -> Polynomial:
    """p, nonzero, divided by its leading coefficient."""
    lc = reference_leading(p)[1]
    return Polynomial(p.ring, p.field, {e: p.field.div(c, lc) for e, c in p.terms.items()})


def reference_block_key(ring, front):
    """`BlockElimination(front)` on ring: grevlex on the front slots, then
    grevlex on the rest."""
    fidx = tuple(ring.index(v) for v in front)
    bidx = tuple(i for i in range(ring.arity) if i not in fidx)

    def k(e):
        return (reference_grevlex_key(tuple(e[i] for i in fidx)),
                reference_grevlex_key(tuple(e[i] for i in bidx)))

    return k


def reference_key(order, ring):
    """The tuple key of grevlex or of a block order on ring."""
    if isinstance(order, BlockElimination):
        return reference_block_key(ring, order.front)
    return reference_grevlex_key


# The order keys' values, the top of each packed word, by their defining
# formulas in base 2^32.

ORDER_BASE = 2 ** 32


def reference_grevlex_value(e) -> int:
    """deg(e) * B^n - sum(e_i * B^i) for the n exponents of e."""
    n = len(e)
    return sum(e) * ORDER_BASE ** n - sum(x * ORDER_BASE ** i for i, x in enumerate(e))


def reference_block_value(ring, front):
    """The front block's grevlex value times B^(nb+1) plus the rest's, nb the
    rest's arity."""
    fidx = tuple(ring.index(v) for v in front)
    bidx = tuple(i for i in range(ring.arity) if i not in fidx)

    def k(e):
        return (reference_grevlex_value(tuple(e[i] for i in fidx)) * ORDER_BASE ** (len(bidx) + 1)
                + reference_grevlex_value(tuple(e[i] for i in bidx)))

    return k


def reference_value(order, ring):
    """The key value of grevlex or of a block order on ring."""
    if isinstance(order, BlockElimination):
        return reference_block_value(ring, order.front)
    return reference_grevlex_value


# -- Gebauer-Moeller pair update, criterion by criterion ----------------------

def reference_update_pairs(G, sugars, P, f_entry, f_sugar, keyf, max_weight=None):
    """`groebner._update_pairs` as three separate scans: the chain criterion
    on the old pairs, the divisibility scan of the new pairs' lcms, then the
    weight bound and the coprime test on each lcm kept, every lcm and key
    computed where it is used."""
    lmf = f_entry[0]
    m = len(G)
    kept = {}
    for ij, entry in P.items():
        L = entry[3]
        if (
            reference_mono_divides(lmf, L)
            and reference_mono_lcm(G[ij[0]][0], lmf) != L
            and reference_mono_lcm(G[ij[1]][0], lmf) != L
        ):
            continue  # chain criterion
        kept[ij] = entry
    groups: dict = {}
    for i in range(m):
        groups.setdefault(reference_mono_lcm(G[i][0], lmf), []).append(i)
    minimal: list = []
    for L in sorted(groups, key=keyf):
        if all(not reference_mono_divides(Lp, L) for Lp in minimal):
            minimal.append(L)
    for L in minimal:
        if max_weight is not None and sum(L[2:]) > max_weight:
            continue  # above the weight bound
        if any(reference_mono_lcm(G[i][0], lmf) == reference_mono_mul(G[i][0], lmf)
               for i in groups[L]):
            continue  # coprime leading terms reduce to zero
        i = min(groups[L])
        sug = max(
            sugars[i] + sum(L) - sum(G[i][0]),
            f_sugar + sum(L) - sum(lmf),
        )
        kept[(i, m)] = (sug, keyf(L), (i, m), L)
    G.append(f_entry)
    sugars.append(f_sugar)
    return kept


# -- naive S-pair saturation Groebner oracle ----------------------------------

def _reduce_full(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    field = p.field
    work = dict(p.terms)
    keyf = reference_grevlex_key
    rem: dict = {}
    while work:
        lm = max(work, key=keyf)
        c = work.pop(lm)
        hit = None
        for b in basis:
            blm, blc = reference_leading(b)
            if reference_mono_divides(blm, lm):
                hit = (blm, blc, b)
                break
        if hit is None:
            rem[lm] = c
            continue
        blm, blc, b = hit
        shift = reference_mono_div(lm, blm)
        scale = field.div(c, blc)
        for m, bc in b.terms.items():
            if m == blm:
                continue
            mm = reference_mono_mul(m, shift)
            nv = field.sub(work.get(mm, field.zero), field.mul(scale, bc))
            if nv == field.zero:
                work.pop(mm, None)
            else:
                work[mm] = nv
    return Polynomial(p.ring, p.field, rem)


def saturation_groebner(gens: list[Polynomial]) -> list[Polynomial]:
    """Reduced basis by brute S-pair saturation, no criteria, no strategy."""
    ring, field = gens[0].ring, gens[0].field
    basis = [_monic(g) for g in gens if not g.is_zero]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                fi, fj = basis[i], basis[j]
                lmi, _ = reference_leading(fi)
                lmj, _ = reference_leading(fj)
                lcm = reference_mono_lcm(lmi, lmj)
                si = Polynomial.monomial(ring, field, reference_mono_div(lcm, lmi))
                sj = Polynomial.monomial(ring, field, reference_mono_div(lcm, lmj))
                s = si * fi - sj * fj
                r = _reduce_full(s, basis)
                if not r.is_zero:
                    basis.append(_monic(r))
                    changed = True
        if changed:
            continue
    keyf = reference_grevlex_key
    minimal = []
    for g in sorted(basis, key=lambda p: keyf(reference_leading(p)[0])):
        if all(not reference_mono_divides(reference_leading(k)[0], reference_leading(g)[0])
               for k in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        reduced.append(_monic(_reduce_full(g, others)))
    reduced.sort(key=lambda p: keyf(reference_leading(p)[0]), reverse=True)
    return reduced


def power_sum_pair(I: Ideal, k: int) -> Ideal:
    """The k-th reduction candidate of an ideal without a staircase, from
    its definition: (sum_i s^i b_i, sum_i t^i b_i) over I's reduced grevlex
    basis b_0, b_1, ... by descending lead, for the k-th (s, t) of (1, 2),
    (1, 3), (2, 3), (1, 4), ..., as polynomial arithmetic."""
    pairs = [(s, t) for t in range(2, k + 3) for s in range(1, t)]
    basis = I.groebner_basis().elements
    zero = Polynomial.zero(I.ring, I.field)
    return Ideal([sum((b.scale(I.field.from_int(v ** i)) for i, b in enumerate(basis)), zero)
                  for v in pairs[k]])


# -- powers and the elimination colon -----------------------------------------

def ideal_pow(I: Ideal, k: int) -> Ideal:
    """I^k by k - 1 products of generator lists, with no cache: the check on
    the engine's `_power`."""
    if k == 0:
        return Ideal([Polynomial.one(I.ring, I.field)])
    result = I
    for _ in range(k - 1):
        result = ideal_product(result, I)
    return result


def exact_divide(p: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient p/f when f divides p (polynomial rings over fields are UFDs);
    raises NotContained otherwise."""
    field = p.field
    keyf = reference_grevlex_key
    lmf, lcf = reference_leading(f)
    work = dict(p.terms)
    out: dict = {}
    while work:
        lm = max(work, key=keyf)
        c = work.pop(lm)
        if not reference_mono_divides(lmf, lm):
            raise NotContained(f"{p} is not a multiple of {f}")
        shift = reference_mono_div(lm, lmf)
        scale = field.div(c, lcf)
        out[shift] = scale
        for m, fc in f.terms.items():
            if m == lmf:
                continue
            mm = reference_mono_mul(m, shift)
            nv = field.sub(work.get(mm, field.zero), field.mul(scale, fc))
            if nv == field.zero:
                work.pop(mm, None)
            else:
                work[mm] = nv
    return Polynomial(p.ring, field, out)


def reference_colon(A: Ideal, B: Ideal) -> Ideal:
    """A : B as the meet over the nonzero f in B of (A meet (f)) / f, for any
    A: the library's `ideal_intersection` eliminates one auxiliary variable,
    and each generator of the meet is divided by f exactly."""
    divisors = [f for f in B.generators if not f.is_zero]
    if not divisors:
        raise ZeroDivisorIdeal("colon by the zero ideal")

    def by(f: Polynomial) -> Ideal:
        meet = ideal_intersection(A, Ideal([f]))
        gens = [exact_divide(g, f) for g in meet.generators if not g.is_zero]
        return Ideal(gens or [Polynomial.zero(A.ring, A.field)])

    result = by(divisors[0])
    for f in divisors[1:]:
        result = ideal_intersection(result, by(f))
    return result


# -- lattice oracles for monomial ideals --------------------------------------

def lattice_minimal(points) -> list[tuple[int, int]]:
    pts = sorted(set(points))
    return sorted(
        (p for p in pts
         if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)),
        key=lambda p: (-p[0], p[1]))


def lattice_member(point, gens) -> bool:
    return any(g[0] <= point[0] and g[1] <= point[1] for g in gens)


def lattice_intersection(A, B) -> list[tuple[int, int]]:
    """Meet via the membership predicate over a bounding box."""
    box_a = max(p[0] for p in A) + max(p[0] for p in B)
    box_b = max(p[1] for p in A) + max(p[1] for p in B)
    members = [
        (a, b)
        for a in range(box_a + 1)
        for b in range(box_b + 1)
        if lattice_member((a, b), A) and lattice_member((a, b), B)
    ]
    return lattice_minimal(members)


def lattice_colength(gens) -> int:
    a_max = max(p[0] for p in gens)
    b_max = max(p[1] for p in gens)
    return sum(
        1
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        if not lattice_member((a, b), gens)
    )


def lattice_product(A, B) -> list[tuple[int, int]]:
    return lattice_minimal([(a1 + a2, b1 + b2) for a1, b1 in A for a2, b2 in B])


def lattice_power(A, k: int) -> list[tuple[int, int]]:
    out = A
    for _ in range(k - 1):
        out = lattice_product(out, A)
    return out


def closure_power_oracle(gens, k_max: int = 12) -> list[tuple[int, int]]:
    """m integral over I iff m^k in I^k for some k <= k_max."""
    powers = {k: lattice_power(gens, k) for k in range(1, k_max + 1)}
    a_max = max(p[0] for p in gens)
    b_max = max(p[1] for p in gens)
    members = []
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            if any(lattice_member((k * a, k * b), powers[k])
                   for k in range(1, k_max + 1)):
                members.append((a, b))
    return lattice_minimal(members)


def howald_adjoint_oracle(gens) -> list[tuple[int, int]]:
    """adj(I) of an m-primary monomial ideal by Howald's rule: x^a*y^b is in
    it iff (a+1, b+1) lies strictly inside the Newton polyhedron
    conv(gens) + R^2_{>=0}.  A point (x, y) with x > 0 does iff y exceeds
    the polyhedron's lower boundary at x: the least height, in exact
    Fractions, of a generator with a <= x or of the segment between two
    generators that straddle x.  No hull or edge list is built."""
    def floor_at(x):
        heights = [Fraction(b) for a, b in gens if a <= x]
        heights += [Fraction(b1) + Fraction(b2 - b1, a2 - a1) * (x - a1)
                    for a1, b1 in gens for a2, b2 in gens if a1 < x < a2]
        return min(heights)

    a_max = max(p[0] for p in gens)
    b_max = max(p[1] for p in gens)
    members = [(a, b) for a in range(a_max + 1) for b in range(b_max + 1)
               if b + 1 > floor_at(a + 1)]
    return lattice_minimal(members)


# -- generator counts through m*P ---------------------------------------------
# mu, a monomial ideal's minimal generators and the table of generator
# products by the route that builds m*P for every P: Nakayama's lengths,
# the corners written out, and each product formed and reduced modulo m*P.

def reference_ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """I*J by the route `groebner.ideal_product` replaced: each product f*g
    over the generators of I and J formed by `Polynomial.__mul__`, exact
    duplicates and zeros dropped, in an `Ideal` of those generators, whose
    basis is read off its staircase or built by a Buchberger run on the
    products' terms when first read."""
    gens, seen = [], set()
    for f in I.generators:
        for g in J.generators:
            p = f * g
            if not p.is_zero and p not in seen:
                seen.add(p)
                gens.append(p)
    return Ideal(gens or [Polynomial.zero(I.ring, I.field)])


@functools.lru_cache(maxsize=64)
def _fresh_m_times(P: Ideal):
    """The reduced basis of m*P, built fresh by `reference_ideal_product`,
    once per P among the last 64 asked for."""
    return reference_ideal_product(maximal_ideal(P.ring, P.field), P).groebner_basis()


def reference_mu(P: Ideal) -> int:
    """colength(m*P) - colength(P), with m*P built fresh by
    `reference_ideal_product`."""
    return colength(reference_ideal_product(maximal_ideal(P.ring, P.field), P)) - colength(P)


def reference_rank(P: Ideal, elements) -> int:
    """The rank in P/m*P of elements of P: that of their normal forms
    modulo a fresh m*P, as P/m*P embeds in R/m*P."""
    mP = _fresh_m_times(P)
    return engine._rank([mP.reduce(p.terms) for p in elements], P.field)


def reference_min_gens(P: Ideal) -> list[Polynomial]:
    """The scan of P's reduced basis by least degree, then lead, keeping an
    element unless its normal form modulo a fresh m*P lies in the span of
    those kept before it."""
    mP, kept = _fresh_m_times(P), []
    for g in sorted(P.groebner_basis().elements,
                    key=lambda g: (g.min_degree(), reference_grevlex_key(reference_leading(g)[0]))):
        if engine._rank([mP.reduce(p.terms) for p in kept + [g]], P.field) > len(kept):
            kept.append(g)
    return kept


def reference_corner_gens(P: Ideal) -> list[Polynomial]:
    """The monomials of a monomial P's corners, in `stair.gens` order."""
    return [Polynomial.monomial(P.ring, P.field, e) for e in staircase_of_ideal(P).gens]


def reference_class_element(P: Ideal, vector: dict) -> Polynomial:
    """sum_k c_k g_k for a class vector {key: c_k} of P/m*P as the engine
    keys it: a column k is P's reduced-basis entry that
    `groebner._relations` numbers k, as its integer row, and an exponent
    tuple, a corner read's key, is that monomial."""
    gb, field = P.groebner_basis(), P.field
    cols, _ = groebner._relations(P)
    rows = {k: gb.entries[[lm for lm, _, _ in gb.entries].index(w)][2] for w, k in cols.items()}
    terms: dict = {}
    for key, c in vector.items():
        part = {key: field.one} if isinstance(key, tuple) else {
            gb._pk.unpack(w): field.from_int(v) for w, v in rows[key].items()}
        for e, v in part.items():
            terms[e] = field.add(terms.get(e, field.zero), field.mul(c, v))
    return Polynomial(P.ring, field, terms)


def reference_class_forms(P: Ideal, table: list) -> list:
    """Each entry v of a table of classes in P/m*P as the normal form of
    `reference_class_element(P, v)` modulo a fresh m*P: for a class of a
    product, its entry in `reference_product_tables`."""
    mP = _fresh_m_times(P)
    return [[mP.reduce(reference_class_element(P, v).terms) for v in row] for row in table]


def reference_product_tables(I: Ideal, J: Ideal) -> list[tuple[Ideal, list]]:
    """`engine._product_tables` entry by entry, as normal forms: [(IJ,
    by_I), (mJ, by_m)], each entry `GroebnerBasis.reduce` of the product
    formed by `Polynomial.__mul__` modulo m*P, built fresh by
    `reference_ideal_product`, over the engine's factor lists and its IJ
    and mJ.  An engine entry v equals its entry w when
    NF(`reference_class_element(P, v)`) = w."""
    m = maximal_ideal(I.ring, I.field)
    j_min = groebner.minimal_generators(J)
    sides = []
    for P, left in ((engine._mul(I, J), groebner.minimal_generators(I)),
                    (engine._mul(m, J), m.generators)):
        gb = _fresh_m_times(P)
        sides.append((P, [[gb.reduce((u * w).terms) for w in j_min] for u in left]))
    return sides


def reference_witness(I: Ideal, J: Ideal, f: Polynomial, g: Polynomial, h: Polynomial) -> bool:
    """Both witness equalities for f in m, g in I and h in J, each as the
    rank of its products' normal forms modulo a fresh m*IJ or m^2*J against
    `reference_mu`."""
    m = maximal_ideal(I.ring, I.field)
    IJ, mJ = engine._mul(I, J), engine._mul(m, J)
    return (reference_rank(IJ, [g * w for w in J.generators] + [a * h for a in I.generators])
            == reference_mu(IJ)
            and reference_rank(mJ, [f * w for w in J.generators] + [v * h for v in m.generators])
            == reference_mu(mJ))


# -- symbolic rank oracle for the refuter -------------------------------------

def generic_ranks(i_gens, j_gens) -> tuple[int, int, int, int]:
    """(mu_IJ, mu_mJ, rank_I, rank_m) with symbolic h-coefficients in sympy."""
    m_gens = [(1, 0), (0, 1)]
    IJ = lattice_product(i_gens, j_gens)
    mJ = lattice_product(m_gens, j_gens)
    cs = sympy.symbols(f"c0:{len(j_gens)}")

    def span_matrix(factors, quot_basis):
        idx = {e: i for i, e in enumerate(quot_basis)}
        M = sympy.zeros(len(quot_basis), len(factors))
        for col, g in enumerate(factors):
            for i, w in enumerate(j_gens):
                e = (g[0] + w[0], g[1] + w[1])
                if e in idx:
                    M[idx[e], col] += cs[i]
        return M

    rank_i = span_matrix(i_gens, IJ).rank()
    rank_m = span_matrix(m_gens, mJ).rank()
    return len(IJ), len(mJ), rank_i, rank_m


# -- the refuter's full sample budget ------------------------------------------

def reference_necessary_bound(I: Ideal, J: Ideal, seed: int = 0, Q: Ideal | None = None,
                              trials: int = 16):
    """`engine.necessary_bound` with no rank bound: each of the `trials`
    shared sample vectors is drawn and both sides' rows are ranked, so the
    ranks are the largest over the whole budget, on the table of normal
    forms modulo a fresh m*IJ and m^2*J (`reference_product_tables`), with
    every mu `reference_mu`'s."""
    if Q is not None and not engine.is_stable(I, Q):
        raise NotStable("the generator-count refutation needs I^2 = QI")
    fld = I.field
    (IJ, by_I), (mJ, by_m) = reference_product_tables(I, J)
    j_min = groebner.minimal_generators(J)
    mu_IJ, mu_mJ, mu_J = reference_mu(IJ), reference_mu(mJ), reference_mu(J)
    run_seed = engine.derive_seed(seed, "refuter")
    rng = random.Random(run_seed)
    space = fld.p if isinstance(fld, PrimeField) else MIN_PRIME
    best_I = best_m = 0
    for _ in range(trials):
        c = engine._sample_vector(rng, fld, len(j_min), space)
        best_I = max(best_I, engine._rank([engine._combine(per_w, c, fld) for per_w in by_I], fld))
        best_m = max(best_m, engine._rank([engine._combine(per_w, c, fld) for per_w in by_m], fld))
    degree = min(mu_IJ, len(by_I)) + min(mu_mJ, 2)
    return engine.RefutationData(
        mu_IJ=mu_IJ, mu_mJ=mu_mJ, mu_J=mu_J, threshold=2 * (mu_J - 1),
        min_sum=mu_IJ + mu_mJ - best_I - best_m, rank_I=best_I, rank_m=best_m,
        trials=trials, seeds=(run_seed,), primes=(fld.p,) if isinstance(fld, PrimeField) else (),
        failure_bound=float((degree / space) ** trials))


# -- sympy bridge for elimination cross-checks ---------------------------------

def to_sympy(p: Polynomial, names):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c)
        for v, k in zip(names, e):
            term *= v**k
        expr += term
    return expr


def sympy_same_ideal(gens_a, gens_b, names) -> bool:
    Ga = sympy.groebner(gens_a, *names, order="grevlex")
    Gb = sympy.groebner(gens_b, *names, order="grevlex")
    return all(Ga.reduce(g)[1] == 0 for g in gens_b) and all(
        Gb.reduce(g)[1] == 0 for g in gens_a)

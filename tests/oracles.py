"""Independent oracles used to derive expected values for the tests.

These deliberately avoid the production algorithms: the Groebner oracle is a
plain S-pair saturation loop with no selection strategy or pair pruning, the
lattice oracles work on divisibility predicates, the reference colon is an
elimination (one auxiliary variable and exact division) in place of the
library's kernel walk, and the rank oracle runs symbolic linear algebra in
sympy.
"""

from __future__ import annotations

import sympy

from agrees.errors import NotContained, ZeroDivisorIdeal
from agrees.groebner import Ideal, ideal_intersection
from agrees.poly import GREVLEX, Polynomial, mono_div, mono_mul


# -- monomial primitives in their generator form ------------------------------
# `agrees.poly`'s divisibility, lcm and order keys written with generators,
# apart from the map/operator forms there, so the oracles below do not change
# with the primitives they are used to check.

def reference_mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reference_mono_lcm(a, b) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_grevlex_key(e) -> tuple:
    return (sum(e), tuple(-x for x in reversed(e)))


def reference_block_key(ring, front):
    """`BlockElimination(front).key(ring)`: grevlex on the front slots, then
    grevlex on the rest."""
    fidx = tuple(ring.index(v) for v in front)
    bidx = tuple(i for i in range(ring.arity) if i not in fidx)

    def k(e):
        return (reference_grevlex_key(tuple(e[i] for i in fidx)),
                reference_grevlex_key(tuple(e[i] for i in bidx)))

    return k


# -- naive S-pair saturation Groebner oracle ----------------------------------

def _reduce_full(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    field = p.field
    work = dict(p.terms)
    keyf = GREVLEX.key(p.ring)
    rem: dict = {}
    while work:
        lm = max(work, key=keyf)
        c = work.pop(lm)
        hit = None
        for b in basis:
            blm, blc = b.leading()
            if reference_mono_divides(blm, lm):
                hit = (blm, blc, b)
                break
        if hit is None:
            rem[lm] = c
            continue
        blm, blc, b = hit
        shift = mono_div(lm, blm)
        scale = field.div(c, blc)
        for m, bc in b.terms.items():
            if m == blm:
                continue
            mm = mono_mul(m, shift)
            nv = field.sub(work.get(mm, field.zero), field.mul(scale, bc))
            if nv == field.zero:
                work.pop(mm, None)
            else:
                work[mm] = nv
    return Polynomial(p.ring, p.field, rem)


def saturation_groebner(gens: list[Polynomial]) -> list[Polynomial]:
    """Reduced basis by brute S-pair saturation, no criteria, no strategy."""
    ring, field = gens[0].ring, gens[0].field
    basis = [g.monic() for g in gens if not g.is_zero]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                fi, fj = basis[i], basis[j]
                lmi, _ = fi.leading()
                lmj, _ = fj.leading()
                lcm = reference_mono_lcm(lmi, lmj)
                si = Polynomial.monomial(ring, field, mono_div(lcm, lmi))
                sj = Polynomial.monomial(ring, field, mono_div(lcm, lmj))
                s = si * fi - sj * fj
                r = _reduce_full(s, basis)
                if not r.is_zero:
                    basis.append(r.monic())
                    changed = True
        if changed:
            continue
    keyf = GREVLEX.key(ring)
    minimal = []
    for g in sorted(basis, key=lambda p: keyf(p.leading()[0])):
        if all(not reference_mono_divides(k.leading()[0], g.leading()[0]) for k in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        reduced.append(_reduce_full(g, others).monic())
    reduced.sort(key=lambda p: keyf(p.leading()[0]), reverse=True)
    return reduced


# -- elimination colon ---------------------------------------------------------

def exact_divide(p: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient p/f when f divides p (polynomial rings over fields are UFDs);
    raises NotContained otherwise."""
    field = p.field
    keyf = GREVLEX.key(p.ring)
    lmf, lcf = f.leading()
    work = dict(p.terms)
    out: dict = {}
    while work:
        lm = max(work, key=keyf)
        c = work.pop(lm)
        if not reference_mono_divides(lmf, lm):
            raise NotContained(f"{p} is not a multiple of {f}")
        shift = mono_div(lm, lmf)
        scale = field.div(c, lcf)
        out[shift] = scale
        for m, fc in f.terms.items():
            if m == lmf:
                continue
            mm = mono_mul(m, shift)
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

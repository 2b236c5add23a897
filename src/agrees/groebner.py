"""Buchberger-based ideal arithmetic.

The engine keeps polynomials as exponent->coefficient dicts and runs classic
Buchberger with the sugar selection strategy, pruning pairs with the coprime
leading-term criterion and the chain criterion (Gebauer-Moeller style
bookkeeping).  Each pair is keyed once, when it is added.  A run may be
truncated by a weight bound (see `_buchberger`).  Reduced bases are unique,
so every operation here is deterministic for a fixed input and order.

The three kernels, `_nf_dict`, `_buchberger` and `_echelon_reduce`, work on
rows of plain integers, one kernel for both fields; the field supplies what
differs.  `field.clear` writes field values as a unit times integers (over
q it clears denominators; over fp a residue is already an integer),
`field.cross(c, b)` gives multipliers (a, s) with a*c = s*b, so that a step
r := a*r - s*row cancels r's leading c against a row led by b, and
`field.normalize` keeps every stored row primitive (over q: content 1, lead
positive) or monic (over fp, where a is therefore always 1).  This is
fraction-free elimination (Bareiss 1968) and the primitive-part Buchberger
algorithm (Cox-Little-O'Shea).

A reduced basis is stored in one form, the kernels' entries (lm, lc, row)
that `_buchberger` returns.  Field values are made again only where a value
leaves a kernel: the remainder `_nf_dict` returns (`GroebnerBasis.reduce`),
the monic polynomials `_monic_polynomial` builds once from a basis's
entries, and a kernel vector a caller reads off an echelon.
"""

from __future__ import annotations

from operator import le
from typing import Sequence

from .errors import (
    NotZeroDimensional,
    RingMismatch,
    ZeroDivisorIdeal,
    ZeroIdeal,
)
from .poly import (
    GREVLEX,
    BlockElimination,
    Exponent,
    MonomialOrder,
    Polynomial,
    Ring,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

_Term = dict  # exponent tuple -> coefficient


# -- dict-level engine -------------------------------------------------------

def _lead(p: _Term, keyf) -> Exponent:
    return max(p, key=keyf)


def _nf_dict(p: _Term, basis: list, keyf, field) -> _Term:
    """Full normal form of p against basis entries (lm, lc, row) made by
    `_entry`, returned as field values.

    The work is an integer row (see the module docstring): `field.clear`
    writes p as unit * work, and a step that cancels the leading c of work
    against an entry with leading integer lc sets work := a * work - s *
    shift * row with (a, s) = `field.cross(c, lc)`, dividing unit by a.  A
    term that no leading monomial divides leaves as its value times unit.
    A step's divisor is the first entry in list order whose leading monomial
    divides.  Each monomial's order key is computed once, when it first
    enters `work`; the leading term picked at every step is the same as with
    keyf itself.
    """
    work = dict(p)
    unit = field.clear(work)
    keys = {m: keyf(m) for m in work}
    rem: _Term = {}
    mul, sub = field.mul, field.sub
    while work:
        lm = max(work, key=keys.__getitem__)
        c = work.pop(lm)
        for blm, blc, bterms in basis:
            if all(map(le, blm, lm)):  # mono_divides(blm, lm), inlined
                a, s = field.cross(c, blc)
                if a != 1:
                    for m, v in work.items():
                        work[m] = mul(a, v)
                    unit = field.div(unit, a)
                shift = mono_div(lm, blm)
                for m, bc in bterms.items():
                    if m == blm:
                        continue
                    mm = mono_mul(m, shift)
                    nv = sub(work.get(mm, 0), mul(s, bc))
                    if nv == 0:
                        work.pop(mm, None)
                    else:
                        if mm not in keys:
                            keys[mm] = keyf(mm)
                        work[mm] = nv
                break
        else:
            rem[lm] = mul(c, unit)
    return rem


def _sub_scaled(row: dict, other: dict, scale, field) -> None:
    """row -= scale * other, in place, dropping zero entries."""
    mul, sub = field.mul, field.sub
    for k, v in other.items():
        nv = sub(row.get(k, 0), mul(scale, v))
        if nv == 0:
            row.pop(k, None)
        else:
            row[k] = nv


def _echelon_reduce(r: _Term, rows: dict, keyf, field) -> Exponent | None:
    """Reduce r in place against an echelon {lead column: row}, columns
    ordered by keyf (by their own order when keyf is None); the lead of what
    is left, a row the echelon lacks, or None when r reduces to 0.

    r arrives with field values and is cleared to an integer row first.  A
    step cancels r's lead c against the row's lead b as r := a * r - s * row
    with (a, s) = `field.cross(c, b)`; a rank or a kernel's span does not
    depend on row scale (fraction-free elimination, Bareiss 1968).  What is
    left is `field.normalize`d, so the rows a caller stores are primitive
    (over q) or monic (over fp); a caller reading a kernel vector off r
    takes its integers back to field values.
    """
    field.clear(r)
    mul = field.mul
    while r:
        lm = _lead(r, keyf)
        row = rows.get(lm)
        if row is None:
            field.normalize(r, lm)
            return lm
        a, s = field.cross(r[lm], row[lm])
        if a != 1:
            for m, v in r.items():
                r[m] = mul(a, v)
        _sub_scaled(r, row, s, field)
    return None


def _spoly(f, g, lcm: Exponent, field) -> _Term:
    """a * (lcm/lm f) * f - s * (lcm/lm g) * g for integer entries f, g, with
    (a, s) = `field.cross` of their leading integers."""
    lmf, lcf, tf = f
    lmg, lcg, tg = g
    sf = mono_div(lcm, lmf)
    sg = mono_div(lcm, lmg)
    a, s = field.cross(lcf, lcg)
    mul, sub = field.mul, field.sub
    out: _Term = {mono_mul(m, sf): mul(a, c) for m, c in tf.items()}
    for m, c in tg.items():
        mm = mono_mul(m, sg)
        nv = sub(out.get(mm, 0), mul(s, c))
        if nv == 0:
            out.pop(mm, None)
        else:
            out[mm] = nv
    return out


def _update_pairs(G, sugars, P, f_entry, f_sugar, keyf, max_weight=None):
    """Add f to the basis, pruning pairs by the chain and coprime criteria.

    P maps (i, j) to (sugar, keyf(lcm), (i, j), lcm), so the smallest value
    is the next pair to reduce and each pair's key is computed once.
    """
    lmf = f_entry[0]
    m = len(G)
    kept = {}
    for ij, entry in P.items():
        L = entry[3]
        if (
            mono_divides(lmf, L)
            and mono_lcm(G[ij[0]][0], lmf) != L
            and mono_lcm(G[ij[1]][0], lmf) != L
        ):
            continue  # chain criterion
        kept[ij] = entry
    groups: dict[Exponent, list[int]] = {}
    for i in range(m):
        groups.setdefault(mono_lcm(G[i][0], lmf), []).append(i)
    minimal: list[Exponent] = []
    for L in sorted(groups, key=keyf):
        if all(not mono_divides(Lp, L) for Lp in minimal):
            minimal.append(L)
    for L in minimal:
        if max_weight is not None and sum(L[2:]) > max_weight:
            continue  # above the weight bound
        if any(mono_lcm(G[i][0], lmf) == mono_mul(G[i][0], lmf) for i in groups[L]):
            continue  # coprime leading terms reduce to zero
        i = min(groups[L])
        sug = max(
            sugars[i] + mono_deg(L) - mono_deg(G[i][0]),
            f_sugar + mono_deg(L) - mono_deg(lmf),
        )
        kept[(i, m)] = (sug, keyf(L), (i, m), L)
    G.append(f_entry)
    sugars.append(f_sugar)
    return kept


def _entry(p: _Term, keyf, field):
    """Basis entry (lm, lc, row) of p: its integer row, `field.normalize`d
    (primitive over q, monic over fp), with lc = row[lm]."""
    row = dict(p)
    field.clear(row)
    lm = _lead(row, keyf)
    field.normalize(row, lm)
    return (lm, row[lm], row)


def _monic_polynomial(ring: Ring, field, entry) -> Polynomial:
    """The monic polynomial of a basis entry (lm, lc, row), in field values:
    the one conversion from a reduced basis's integer rows."""
    _, lc, row = entry
    if lc == 1:
        return Polynomial(ring, field, {m: field.from_int(c) for m, c in row.items()})
    return Polynomial(ring, field, {m: field.div(c, lc) for m, c in row.items()})


def _buchberger(inputs: list[_Term], keyf, field, max_weight=None) -> list:
    """Reduced basis of the ideal of `inputs`, as `_entry`s sorted by
    descending leading monomial.

    The run keeps each basis element as an `_entry`, an integer row with its
    content removed (the primitive-part Buchberger algorithm, Cox-Little-
    O'Shea); S-polynomials cross-multiply by integer leads, and every
    reduction is one `_nf_dict`.  The interreduced elements are returned as
    entries too: primitive over q, monic over fp.

    Pairs are reduced by smallest sugar, then smallest lcm, then index.
    `max_weight` drops every S-pair whose lcm weighs more than it, where an
    exponent's weight is its degree in the variables after the first two
    (x and y weigh 0).  For inputs homogeneous in that weight, S-polynomials
    and their reductions stay homogeneous, and a leading monomial divides
    only monomials of equal or higher weight; so the result is exactly the
    part of weight <= max_weight of the unbounded reduced basis.  A run
    terminates on every input (Dickson's lemma), so nothing else bounds it.
    """
    G: list = []
    sugars: list[int] = []
    P: dict = {}
    for p in inputs:
        if not p:
            continue
        sug = max(mono_deg(m) for m in p)
        P = _update_pairs(G, sugars, P, _entry(p, keyf, field), sug, keyf, max_weight)
    while P:
        sug, _, (i, j), L = P.pop(min(P.values())[2])
        s = _spoly(G[i], G[j], L, field)
        r = _nf_dict(s, G, keyf, field)
        if r:
            P = _update_pairs(G, sugars, P, _entry(r, keyf, field), sug, keyf,
                              max_weight)
    # minimalize: leading monomials must form a divisibility antichain
    order_asc = sorted(range(len(G)), key=lambda i: keyf(G[i][0]))
    minimal: list = []
    for i in order_asc:
        if all(not mono_divides(e[0], G[i][0]) for e in minimal):
            minimal.append(G[i])
    # interreduce to the unique reduced basis
    reduced = []
    for k, entry in enumerate(minimal):
        others = [e for idx, e in enumerate(minimal) if idx != k]
        reduced.append(_entry(_nf_dict(entry[2], others, keyf, field), keyf, field))
    reduced.sort(key=lambda e: keyf(e[0]), reverse=True)
    return reduced


def _monomial_basis(inputs: list[_Term], keyf) -> list:
    """Reduced basis of a monomial ideal: its minimal monomials, as entries
    (e, 1, {e: 1}) in the order `_buchberger` returns them.  Every monomial
    order refines divisibility, so scanning upwards meets each divisor before
    its multiples."""
    minimal: list[Exponent] = []
    for e in sorted({e for p in inputs for e in p}, key=keyf):
        if all(not mono_divides(m, e) for m in minimal):
            minimal.append(e)
    return [(e, 1, {e: 1}) for e in reversed(minimal)]


# -- public layer ------------------------------------------------------------

class GroebnerBasis:
    """Reduced Groebner basis: monic elements, leading monomials an antichain.

    `entries` are the basis as `_buchberger` returns it, `_entry`s sorted by
    descending leading monomial: primitive integer rows over q, monic rows
    over fp.  They are kept as `_lead_data`, which `reduce` divides by, and
    the monic `elements` are made from them once.
    """

    __slots__ = ("ring", "field", "order", "elements", "_lead_data", "_key")

    def __init__(self, ring: Ring, field, order: MonomialOrder, entries: list):
        self.ring = ring
        self.field = field
        self.order = order
        self._lead_data = entries
        self._key = order.key(ring)
        self.elements = tuple(_monic_polynomial(ring, field, e) for e in entries)

    def __iter__(self):
        return iter(self.elements)

    def reduce(self, terms: _Term) -> _Term:
        """Normal form of a term dict modulo the basis, as a term dict of
        field values.  Normal forms are k-linear: the normal form of
        sum_j c_j * p_j is sum_j c_j * NF(p_j)."""
        # looked up on the module, so a wrapper bound there sees this call too
        return _nf_dict(terms, self._lead_data, self._key, self.field)

    def leading_exponents(self) -> list[Exponent]:
        return [lm for lm, _, _ in self._lead_data]


class Ideal:
    """Generator list plus a write-once cache of reduced bases per order.

    Instances are immutable apart from the cache; concurrent readers may
    race to insert, but both compute the same reduced basis so either
    insertion is correct.
    """

    __slots__ = ("ring", "field", "generators", "_gb_cache")

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ZeroIdeal("an ideal needs at least one generator")
        first = gens[0]
        for g in gens[1:]:
            if g.ring != first.ring or g.field != first.field:
                raise RingMismatch("generators live in different rings or fields")
        self.ring = first.ring
        self.field = first.field
        self.generators = gens
        self._gb_cache: dict[MonomialOrder, GroebnerBasis] = {}

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        cached = self._gb_cache.get(order)
        if cached is not None:
            return cached
        keyf = order.key(self.ring)
        inputs = [g.terms for g in self.generators]
        if self.is_monomial():
            entries = _monomial_basis(inputs, keyf)
        else:
            entries = _buchberger(inputs, keyf, self.field)
        gb = GroebnerBasis(self.ring, self.field, order, entries)
        self._gb_cache[order] = gb
        return gb

    def is_monomial(self) -> bool:
        return all(g.is_monomial or g.is_zero for g in self.generators)

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def groebner_basis(I: Ideal, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    return I.groebner_basis(order)


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    if p.ring != gb.ring or p.field != gb.field:
        raise RingMismatch("polynomial and basis live in different rings or fields")
    return Polynomial(gb.ring, gb.field, gb.reduce(p.terms))


def ideal_contains(I: Ideal, p: Polynomial) -> bool:
    return normal_form(p, I.groebner_basis()).is_zero


def _contains_all(I: Ideal, polys: Sequence[Polynomial]) -> bool:
    gb = I.groebner_basis()
    return all(not gb.reduce(p.terms) for p in polys)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.ring != J.ring or I.field != J.field:
        raise RingMismatch("ideals live in different rings or fields")
    return _contains_all(J, I.generators) and _contains_all(I, J.generators)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring or I.field != J.field:
        raise RingMismatch("ideals live in different rings or fields")
    gens = []
    seen = set()
    for f in I.generators:
        for g in J.generators:
            p = f * g
            if p.is_zero or p in seen:
                continue
            seen.add(p)
            gens.append(p)
    if not gens:
        gens = [Polynomial.zero(I.ring, I.field)]
    return Ideal(gens)


def ideal_pow(I: Ideal, k: int) -> Ideal:
    if k == 0:
        return Ideal([Polynomial.one(I.ring, I.field)])
    result = I
    for _ in range(k - 1):
        result = ideal_product(result, I)
    return result


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """I and J meet via one auxiliary variable: (u I + (1-u) J) with u eliminated."""
    if I.ring != J.ring or I.field != J.field:
        raise RingMismatch("ideals live in different rings or fields")
    ring, field = I.ring, I.field
    aux = Ring(("u",) + ring.vars)
    u = Polynomial.variable(aux, field, "u")
    one_minus_u = Polynomial.one(aux, field) - u

    def lift(p: Polynomial) -> Polynomial:
        return Polynomial(aux, field, {(0,) + e: c for e, c in p.terms.items()})

    gens = [u * lift(f) for f in I.generators] + [one_minus_u * lift(g) for g in J.generators]
    order = BlockElimination(front=("u",))
    keyf = order.key(aux)
    basis = _buchberger([g.terms for g in gens if not g.is_zero], keyf, field)
    keep = tuple(range(1, aux.arity))
    trimmed = [
        _monic_polynomial(aux, field, entry).project(ring, keep)
        for entry in basis
        if all(e[0] == 0 for e in entry[2])
    ]
    if not trimmed:
        trimmed = [Polynomial.zero(ring, field)]
    return Ideal(trimmed)


def _colon(A: Ideal, B: Ideal, C: Ideal) -> Ideal:
    """A : B for a sub-ideal C of A : B of finite colength in k[x,y],
    generated by its reduced basis, which it carries cached.

    C*B lies in A, so f -> (NF_A(f*b)) over the nonzero generators b of B is
    a k-linear map R/C -> (R/A)^mu whose kernel is (A : B)/C; so A : B is C
    plus that kernel, exactly and globally, wherever A's components lie.
    The images, one per standard monomial s of C, are filled by walking the
    staircase in degree order with NF_A(v*s*b) = NF_A(v*NF_A(s*b)) for a
    variable v, so each product is reduced from an already reduced one.
    The row of s holds its image columns (j, e) and a combination column
    (-1, s) that sorts below them; a row whose reduced lead lands in a
    (-1, .) column has a zero image, and its combination columns are a
    kernel element.
    """
    from .staircase import staircase_normalize, standard_monomials

    fld = A.field
    top = A.groebner_basis()
    gb = C.groebner_basis()
    gens = [b.terms for b in B.generators if not b.is_zero]
    forms: dict = {}     # s -> [NF_A(s*b) for b in gens]
    echelon: dict = {}   # lead column -> augmented row with a nonzero image
    kernel: list[Polynomial] = []
    for s in standard_monomials(staircase_normalize(gb.leading_exponents())):
        if s == (0, 0):
            prods = gens
        else:
            v = (1, 0) if s[0] else (0, 1)
            parent = forms[(s[0] - v[0], s[1] - v[1])]
            prods = [{(e[0] + v[0], e[1] + v[1]): c for e, c in f.items()} for f in parent]
        forms[s] = nfs = [top.reduce(p) for p in prods]
        row = {(j, e): c for j, f in enumerate(nfs) for e, c in f.items()}
        row[(-1, s)] = fld.one  # no earlier row has this column: never cancelled
        lead = _echelon_reduce(row, echelon, None, fld)
        if lead[0] >= 0:
            echelon[lead] = row
        else:
            kernel.append(Polynomial(A.ring, fld, {e: fld.from_int(c) for (_, e), c in row.items()}))
    basis = Ideal(list(gb) + kernel).groebner_basis()
    J = Ideal(list(basis))
    J._gb_cache[basis.order] = basis  # already reduced: no second Buchberger run
    return J


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J for I of finite colength in k[x,y], exact globally: the kernel
    `_colon` reads off R/I.  Raises NotZeroDimensional for any other I."""
    if I.ring != J.ring or I.field != J.field:
        raise RingMismatch("ideals live in different rings or fields")
    if all(f.is_zero for f in J.generators):
        raise ZeroDivisorIdeal("colon by the zero ideal")
    colength(I)  # raises outside k[x,y] and for infinite colength
    return _colon(I, J, I)


def colength(I: Ideal) -> int:
    """Length of R/I as the count of standard monomials (2-variable rings)."""
    if I.ring.arity != 2:
        raise NotZeroDimensional(f"colength requires a 2-variable ring, got {I.ring}")
    from .staircase import mono_colength, staircase_normalize

    gb = I.groebner_basis()
    if not gb.elements:
        raise NotZeroDimensional("zero ideal has infinite colength")
    return mono_colength(staircase_normalize(gb.leading_exponents()))


def is_origin_primary(I: Ideal) -> bool:
    """True when V(I) is exactly the origin, i.e. rad(I) = (x, y) globally.

    Finite colength alone admits zeros away from the origin; those are ruled
    out by checking that pure variable powers lie in the ideal itself (the
    nilpotency index on R/I is at most its length).
    """
    if I.ring.arity != 2:
        return False
    gb = I.groebner_basis()
    if not gb.elements:
        return False
    leads = gb.leading_exponents()
    if any(e == (0, 0) for e in leads):
        return False  # unit ideal
    if not any(e[1] == 0 for e in leads) or not any(e[0] == 0 for e in leads):
        return False
    from .staircase import mono_colength, staircase_normalize

    ell = mono_colength(staircase_normalize(leads))
    powers = [Polynomial.variable(I.ring, I.field, v) ** ell for v in ("x", "y")]
    return all(normal_form(pw, gb).is_zero for pw in powers)


def maximal_ideal(ring: Ring, field) -> Ideal:
    return Ideal([Polynomial.variable(ring, field, v) for v in ring.vars])


def min_gens(I: Ideal) -> int:
    """mu(I) = len(I/mI) via colength(mI) - colength(I), valid at the origin."""
    m = maximal_ideal(I.ring, I.field)
    return colength(ideal_product(m, I)) - colength(I)


def ideal_order(I: Ideal) -> int:
    """Largest n with I inside m^n: minimum term degree over the generators."""
    degs = [g.min_degree() for g in I.generators if not g.is_zero]
    if not degs:
        raise ZeroIdeal("the zero ideal has no order")
    return min(degs)


def minimal_generators(I: Ideal, mI: Ideal | None = None) -> list[Polynomial]:
    """A minimal generating set, extracted greedily against (vars) * I;
    `mI`, when the caller already built (vars) * I, shares its basis."""
    if I.is_monomial():
        from .staircase import staircase_of_ideal

        # None outside k[x,y] and for the zero ideal: the general path covers both
        stair = staircase_of_ideal(I)
        if stair is not None:
            return [Polynomial.monomial(I.ring, I.field, e) for e in stair.gens]
    keyf = GREVLEX.key(I.ring)
    return _nakayama_prune(list(I.groebner_basis().elements),
                           key=lambda g: (g.min_degree(), keyf(g.leading()[0])), N=mI)


def _nakayama_prune(gens: list[Polynomial], key, N: Ideal | None = None,
                    max_weight: int | None = None) -> list[Polynomial]:
    """Graded Nakayama: scanning gens sorted by key, keep g unless it lies in
    the ideal of the kept ones plus N = (vars) * gens.

    Every a in S is a constant plus an element of (vars), and the kept ones
    lie in L = (gens), so (kept) + N = span_k(kept) + N: g is redundant iff
    NF_N(g) lies in span_k(NF_N(kept)).  One reduced basis of N serves every
    candidate; the span is an echelon of the kept normal forms, one row per
    leading monomial.  `N`, when the caller already built that ideal, is used
    in place of a new one.  Otherwise N's basis is built here, bounded by
    `max_weight` as in `_buchberger`; the prune stays exact for
    weight-homogeneous gens that weigh no more than the bound.
    """
    if not gens:
        return []
    ring, field = gens[0].ring, gens[0].field
    if N is None:
        keyf = GREVLEX.key(ring)
        lead_data = _buchberger([(Polynomial.variable(ring, field, v) * g).terms
                                 for v in ring.vars for g in gens],
                                keyf, field, max_weight=max_weight)
    else:
        gb = N.groebner_basis()
        keyf, lead_data = gb._key, gb._lead_data
    rows: dict[Exponent, _Term] = {}
    kept: list[Polynomial] = []
    for g in sorted(gens, key=key):
        r = _nf_dict(g.terms, lead_data, keyf, field)
        lm = _echelon_reduce(r, rows, keyf, field)
        if lm is not None:
            rows[lm] = r
            kept.append(g)
    return kept

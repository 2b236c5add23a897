"""Buchberger-based ideal arithmetic.

The engine keeps polynomials as exponent->coefficient dicts and runs classic
Buchberger with the sugar selection strategy, pruning pairs by the criteria
of Gebauer and Moeller (1988): the chain criterion, the lcm divisibility
scan of the new pairs and the coprime leading-term criterion, in one pass
that computes one lcm per basis element (`_update_pairs`).  A run may be
truncated by a weight bound (see `_buchberger`).  Reduced bases are unique,
so every operation here is deterministic for a fixed input.

Every ideal and basis is grevlex.  Only the two elimination runs,
`ideal_intersection` and `rees._t_free_kernel`, call `_buchberger` under a
block order and read its basis into their target ring (`_front_free_elements`).
The Rees kernel of a monomial ideal is toric, and `_fiber_kernel` reads the
elimination's bounded basis off its fibers with no run, in packed words
formed by sums, as a kernel forms its shifted terms.

Inside the kernels `_nf_dict`, `_spoly`, `_update_pairs`, `_entry`,
`_buchberger`, `_interreduce`, `_times_maximal`, `_walk`, `_colon` and
`_sum` a monomial is one packed int (`poly.Packer`): the order key on top
and one bit field per exponent below.  A lead is `max` of a row's words, a
shifted term is `m + shift`, and "lm divides m" is `(m - lm) & guard == 0`,
so no step builds a tuple or calls a key.  A run packs each input monomial
once, and `_update_pairs` packs each distinct lcm once, computing lcms,
degrees and weights on the lead tuples it keeps next to the words.  A
normal form whose scale does not matter, one a rank or a zero test reads,
stays an integer row: `GroebnerBasis.reduce_row` packs its input and
hands back the row `_nf_dict` returns.  Everything else outside the
kernels is on exponent tuples: `GroebnerBasis.reduce`, read only by
`normal_form` and the refuter, packs its input and unpacks the remainder,
and `elements` and `leading_exponents` unpack.  Only this module and
`poly` know the packed format, and a caller of `reduce_row` reads its rows
only as columns that compare.

The three kernels, `_nf_dict`, `_buchberger` and `_echelon_reduce`, work on
rows of plain integers, one kernel for both fields; the field supplies what
differs.  Every row a kernel steps on is an integer row: `field.clear`
writes field values as a unit times integers (over q it clears
denominators, and a row of ints enters as it is with unit 1; over fp a
residue is already an integer), and it runs once at each place where field
values enter: both branches of `reduce_row`, a Buchberger run's inputs,
`_nf_dict`'s exact mode, `_colon`'s augmented rows, `_sum`'s forms and
`engine._rank`'s copies.  `_echelon_reduce` takes integer rows only.
`field.cross(c, b)` gives multipliers (a, s) with a*c = s*b, and
`field.normalize` keeps every stored row primitive (over q: content 1, lead
positive) or monic (over fp, where a is therefore always 1).  Every kernel
steps through one function, `_cancel`: r := a*r - s*row cancels r's c
against a row's b shifted onto it, in native `int` arithmetic reduced
modulo `field.modulus` when that is nonzero (over fp), with no field method
call per term.  This is fraction-free elimination (Bareiss 1968) and the
primitive-part Buchberger algorithm (Cox-Little-O'Shea).

A reduced basis is stored in one form, the kernels' packed entries (lm, lc,
row) that `_buchberger` returns.  A run clears its inputs once; its S-pair and
interreduction remainders stay integer rows.  Field values are made again
only where a value leaves a kernel: the remainder `GroebnerBasis.reduce`
returns (`reduce_row` makes none), the walk's exact forms, the monic
polynomials `_monic_polynomial` builds once from a basis's entries, and a
kernel vector a caller reads off an echelon.

Every reduced basis not read off a staircase or fibers ends in one finisher,
`_interreduce`, one ascending sweep over a Groebner basis: an element is
kept when no kept lead divides its lead and reduced against the kept ones
only, as a lead dividing a term below its own is smaller, so swept.  A
Buchberger run hands it its basis; three kernels read one with no run and
hand it on through `_finish`.  The colon (`_colon`) and the sum C + (F)
(`_sum`) read the forms NF(s*b) over standard monomials s off one walk
(`_walk`), in exact field values, which each clears as it enters them in
its echelon: the colon hands on the basis it starts from plus its kernel
rows, the sum C's basis plus an echelon of the forms.  For m*P with P of
finite colength in k[x,y] (`_times_maximal`), the products x*g and y*g
over P's reduced basis plus an echelon of its consecutive S-pairs'
remainders are a Groebner basis (Schreyer 1980).

Monomial ideals of k[x,y] take the staircase instead (`staircase`, a
lattice module that knows no ideals).  This module is the one bridge
between the two: `staircase_of_ideal` reads an ideal's staircase once and
caches it on the ideal, and `ideal_of_staircase` builds the ideal of a
staircase with it cached.  A monomial ideal's `colength`, order and
reduced basis are read off its staircase, and its basis's `reduce_row` is
a term filter in place of `_nf_dict`; `reduce` runs `_nf_dict` on every
basis.  Every other ideal, the zero ideal and monomial ideals in more
variables included, goes through Buchberger.

A polynomial is built only where one is read.  A derived ideal, the ideal
of a staircase or a finished one, builds its generators from its source on
their first read (`Ideal._derived`): the corners' monomials in
`stair.gens` order, or the basis's monic elements by descending lead, the
tuples the eager build made; most products are read only through their
staircase or their basis.  A finished ideal carries the staircase its
generators would give, the leads' when every element is one term.  A
staircase basis packs its corners into `entries` only when a kernel reads
them, as the term filter reads the corners themselves.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, combinations_with_replacement
from operator import itemgetter
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
    Packer,
    Polynomial,
    Ring,
)
from .staircase import Staircase, mono_colength, staircase_normalize, standard_monomials

_Term = dict  # exponent tuple -> coefficient
_Row = dict   # packed word -> integer (or field value, entering `_nf_dict`)

_lead = itemgetter(0)  # an entry's leading word


# -- packed-row engine -------------------------------------------------------

def _cancel(row: _Row, c: int, other: _Row, b: int, shift: int, field) -> int:
    """The one elimination step of every kernel: row := a*row - s*(shift*other)
    in place, (a, s) = `field.cross(c, b)`, cancelling row's c against
    other's b shifted onto it (shift 0 adds nothing, so tuple columns
    pass).  Int arithmetic, modulo `field.modulus` when it is nonzero, so a
    kept integer is the field's canonical value; zeros are dropped.  Returns a."""
    a, s = field.cross(c, b)
    if a != 1:  # over q only: fp leads are monic
        for m, v in row.items():
            row[m] = a * v
    mod = field.modulus
    for m, v in other.items():
        if shift:
            m += shift
        nv = row.get(m, 0) - s * v
        if mod:
            nv %= mod
        if nv == 0:
            row.pop(m, None)
        else:
            row[m] = nv
    return a


def _nf_dict(p: _Row, basis: list, guard: int, field, integral: bool = False) -> _Row:
    """Full normal form of p, keyed by packed words, against basis entries
    (lm, lc, row) made by `_entry`: of field values, or, when `integral`, of
    an integer row, returned as an integer row (a positive multiple of the
    normal form, which a Buchberger run's `_entry` normalizes).

    The work is an integer row (see the module docstring); field values
    enter as unit * work by `field.clear`.  The lead is the largest word.  A
    step's divisor is the first entry in list order whose lm divides it,
    `(lead - lm) & guard == 0` (`poly.Packer`), and that difference is the
    shift; the step is one `_cancel` of the lead against the entry's lc,
    and its multiplier a scales the kept terms too.  Field values leave as
    the kept integers times unit / (the product of the a), with no
    `field.mul` when that is 1 (always over fp).
    """
    work = dict(p)
    if not integral:
        unit = field.clear(work)
    rem: _Row = {}
    den = 1
    while work:
        lm = max(work)
        for blm, blc, brow in basis:
            shift = lm - blm
            if shift & guard:
                continue  # blm does not divide lm
            a = _cancel(work, work[lm], brow, blc, shift, field)
            if a != 1:
                for m, v in rem.items():
                    rem[m] = a * v
                den *= a
            break
        else:
            rem[lm] = work.pop(lm)
    if not integral:
        scale = unit if den == 1 else field.div(unit, den)
        if scale != 1:
            for m, c in rem.items():
                rem[m] = field.mul(c, scale)
    return rem


def _echelon_reduce(r: dict, rows: dict, field):
    """Reduce the integer row r in place against an echelon {lead column:
    row}, columns ordered as they compare (packed words in their monomial
    order, tuples as tuples), and store what is left in the echelon under
    its lead, a column the echelon lacks; return that lead, or None when r
    reduces to 0.

    A caller holding field values clears them first (`field.clear`).  A
    step is one unshifted `_cancel` of r's lead against the row's; a rank
    or a kernel's span does not depend on row scale (fraction-free
    elimination, Bareiss 1968).  What is left is `field.normalize`d, so the
    stored rows are primitive (over q) or monic (over fp); a caller reading
    a kernel vector off r takes its integers back to field values.
    """
    while r:
        lm = max(r)
        row = rows.get(lm)
        if row is None:
            field.normalize(r, lm)
            rows[lm] = r
            return lm
        _cancel(r, r[lm], row, row[lm], 0, field)
    return None


def _spoly(f, g, lcm: int, field) -> _Row:
    """The S-polynomial of integer entries f, g at the packed lcm of their
    leads: (lcm/lm f) * f, then one `_cancel` of its lcm term against g
    shifted by lcm/lm g."""
    lmf, lcf, tf = f
    lmg, lcg, tg = g
    sf = lcm - lmf
    out: _Row = {m + sf: c for m, c in tf.items()}
    _cancel(out, lcf, tg, lcg, lcm - lmg, field)
    return out


def _update_pairs(G, leads, sugars, P, f_entry, f_sugar, pk: Packer, max_weight=None):
    """Add f to the basis, pruning pairs by Gebauer-Moeller's criteria.

    G holds the entries, `leads` their leading exponent tuples and `sugars`
    their sugars, index for index.  P maps (i, j) to (sugar, packed lcm,
    (i, j), lcm tuple), so the smallest value is the next pair to reduce.
    One pass computes L_i = lcm(lm g_i, lm f) once per basis element, on the
    tuples, and reads it in all three criteria: the chain criterion on the
    old pairs; the grouping of the new pairs by L_i, where a group gets one
    pair, from its smallest i, when no smaller L_j divides its L_i; and the
    coprime test, as L_i = lm g_i * lm f exactly when its word is the sum of
    theirs.  Each distinct L_i is packed once, and the pair keeps that word;
    the divisor tests are on the words.  An L_i that weighs more than
    `max_weight` (see `_buchberger`) is dropped before the divisibility
    scan: a divisor of a light L_j weighs no more than L_j, so no dropped
    L_i could have pruned a kept one.
    """
    wf = f_entry[0]
    lmf = pk.unpack(wf)
    deg_f = sum(lmf)
    guard = pk.guard
    m = len(G)
    lcms = [tuple(map(max, g, lmf)) for g in leads]  # lcm(g, lm f), on the tuples
    kept = {}
    for ij, entry in P.items():
        L = entry[3]
        if not (entry[1] - wf) & guard and lcms[ij[0]] != L and lcms[ij[1]] != L:
            continue  # chain criterion: lm f divides L
        kept[ij] = entry
    groups: dict[Exponent, list[int]] = {}
    for i, L in enumerate(lcms):
        if max_weight is None or sum(L[2:]) <= max_weight:
            if L in groups:
                groups[L].append(i)
            else:
                groups[L] = [i]
    pack = pk.pack
    words = sorted((pack(L), L) for L in groups)
    minimal: list[int] = []
    for w, L in words:
        if any(not (w - v) & guard for v in minimal):
            continue  # a smaller lcm divides L
        minimal.append(w)
        group = groups[L]
        if any(w == G[i][0] + wf for i in group):
            continue  # coprime leading terms reduce to zero
        i = group[0]  # the smallest index: groups fill in index order
        deg_L = sum(L)
        sug = max(sugars[i] + deg_L - sum(leads[i]), f_sugar + deg_L - deg_f)
        kept[(i, m)] = (sug, w, (i, m), L)
    G.append(f_entry)
    leads.append(lmf)
    sugars.append(f_sugar)
    return kept


def _entry(row: _Row, field):
    """Basis entry (lm, lc, row) of an integer row, `field.normalize`d in
    place (primitive over q, monic over fp), with lm its largest word and
    lc = row[lm]."""
    lm = max(row)
    field.normalize(row, lm)
    return (lm, row[lm], row)


def _monic_polynomial(ring: Ring, field, entry, unpack) -> Polynomial:
    """The monic polynomial of a basis entry (lm, lc, row), in field values
    on exponent tuples: the one conversion from a reduced basis's integer
    rows."""
    _, lc, row = entry
    if lc == 1:
        return Polynomial(ring, field, {unpack(m): field.from_int(c) for m, c in row.items()})
    return Polynomial(ring, field, {unpack(m): field.div(c, lc) for m, c in row.items()})


def _front_free_elements(ring: Ring, field, order: BlockElimination, entries,
                         target: Ring) -> list[Polynomial]:
    """The monic elements free of the front block among a reduced basis on
    ring under a block elimination order, given as `_buchberger` returns
    it, as polynomials of `target`, ring's variables but the front's in
    order: those whose lead is free of the front, since a term involving it
    sorts above every term free of it, so that none of their terms does."""
    unpack = order.packer(ring).unpack
    front = [ring.index(v) for v in order.front]
    rest = [i for i in range(ring.arity) if i not in front]

    def unpack_target(w: int) -> Exponent:
        e = unpack(w)
        return tuple([e[i] for i in rest])

    return [_monic_polynomial(target, field, e, unpack_target) for e in entries
            if not any(unpack(e[0])[i] for i in front)]


def _buchberger(inputs: list[_Term], pk: Packer, field, max_weight=None) -> list:
    """Reduced basis of the ideal of `inputs`, term dicts on exponent
    tuples, as `_entry`s of packed words (`pk`, see `poly.Packer`) sorted by
    descending leading monomial.

    The run packs each input monomial once and then works on packed words
    only: a lead is `max`, a shift is `+` and a divisor test a subtraction
    and a mask.  It keeps each basis element as an `_entry`, an integer row
    with its content removed (the primitive-part Buchberger algorithm,
    Cox-Little-O'Shea); S-polynomials cross-multiply by integer leads, and
    every reduction is one `_nf_dict` that returns an integer row, so after
    the inputs are cleared no field value is made until the run returns.
    The interreduced elements are returned as entries too: primitive over q,
    monic over fp.  Under a block order each of their words is `check`ed,
    and a term of degree 2^32 or more raises DegreeOverflow.

    Pairs are reduced by smallest sugar, then smallest lcm, then index.
    `max_weight` drops every S-pair whose lcm weighs more than it, where an
    exponent's weight is its degree in the variables after the first two
    (x and y weigh 0).  For inputs homogeneous in that weight, S-polynomials
    and their reductions stay homogeneous, and a leading monomial divides
    only monomials of equal or higher weight; so the result is exactly the
    part of weight <= max_weight of the unbounded reduced basis.  A run
    terminates on every input (Dickson's lemma), so nothing else bounds it.
    """
    pack, guard = pk.pack, pk.guard
    G: list = []
    leads: list[Exponent] = []
    sugars: list[int] = []
    P: dict = {}
    for p in inputs:
        if not p:
            continue
        sug = max(map(sum, p))
        row = {pack(m): c for m, c in p.items()}
        field.clear(row)
        P = _update_pairs(G, leads, sugars, P, _entry(row, field), sug, pk, max_weight)
    while P:
        sug, L, (i, j), _ = P.pop(min(P.values())[2])
        r = _nf_dict(_spoly(G[i], G[j], L, field), G, guard, field, True)
        if r:
            P = _update_pairs(G, leads, sugars, P, _entry(r, field), sug, pk, max_weight)
    return _interreduce(G, pk, field)


def _interreduce(G: list, pk: Packer, field) -> list:
    """The reduced basis of the ideal of which the entries G are a Groebner
    basis, as `_entry`s sorted by descending leading word, in one ascending
    sweep: an entry is kept when no kept lead divides its lead, and reduced
    against the kept entries, already reduced.  A lead dividing a term below
    lm(g) is below lm(g), so swept already; reduced bases are unique.  It
    finishes every reduced basis not read off a staircase or fibers:
    `_buchberger`'s, and through `_finish` those of `_times_maximal`,
    `_colon` and `_sum`, read with no run.  Under a block order
    (elimination runs only) each word is `check`ed, and a term of degree
    2^32 or more raises DegreeOverflow."""
    guard = pk.guard
    reduced: list = []
    for g in sorted(G, key=_lead):
        if all((g[0] - e[0]) & guard for e in reduced):
            reduced.append(_entry(_nf_dict(g[2], reduced, guard, field, True), field))
    reduced.reverse()
    if not pk.graded:
        for _, _, row in reduced:
            pk.check(row)
    return reduced


def _fiber_kernel(gens: list[Polynomial], target: Ring, max_weight: int) -> list[Polynomial]:
    """The part of T-degree <= max_weight of the reduced grevlex basis of
    the kernel K of x, y, T_i -> x, y, c_i*u_i*t, for single-term gens
    c_i*u_i of k[x,y], as monic polynomials of target = k[x, y, T_1..T_s]
    sorted by descending lead: the t-free part of the elimination basis
    that `_buchberger` returns under that weight bound, read off K's
    fibers with no run.  It is tied to `presentation_ring`'s layout, which
    `rees` reads too: slot 0 is x, slot 1 is y, slots 2.. are T_1..T_s.

    A monomial m = x^a*y^b*T^A maps to c^A * x^a*y^b*u^A * t^d, d = |A|;
    its fiber F(m) is the finite set of monomials with the same image up to
    a constant.  K is toric: it is spanned by the binomials
    c^B*m - c^A*n within fibers, so each fiber holds exactly one standard
    monomial, its least, and K's reduced basis is m - (c^A/c^B)*min F(m),
    x^a'*y^b'*T^B = min F(m), over the minimal generators m of in(K)
    (Sturmfels, Groebner Bases and Convex Polytopes, 1996, Ch. 4).  Those
    of T-degree d are read off pairs A != B of T-monomials of degree d: with
    L = lcm(u^A, u^B), the pair's candidate is the larger of (L/u^A)*T^A and
    (L/u^B)*T^B, which share their image.  Each candidate lies in in(K),
    and a non-standard m is a multiple of the candidate of A and B with
    B the T-part of min F(m), since both monomials are that pair's
    monomials times one monomial and the order is multiplicative.  So the
    leads of T-degree d are the candidates minimal under divisibility that
    no lead of lower T-degree divides.  A pair with a common T_k is skipped:
    its candidate is T_k times the candidate of the pair without it, a
    multiple of a lower lead.  Words are formed as sums of packed words,
    like a kernel's shifted terms, after one `pack` of the largest degree.
    """
    field = gens[0].field
    pk = GREVLEX.packer(target)
    pack, unpack, guard = pk.pack, pk.unpack, pk.guard
    s = len(gens)
    units = [g.monomial_exponent() for g in gens]
    coeffs = [g.terms[u] for g, u in zip(gens, units)]
    px, py = pack((1, 0) + (0,) * s), pack((0, 1) + (0,) * s)
    leads: list[int] = []
    out = []
    for d in range(1, max_weight + 1):
        monos = []  # (a, b, word, c^A, mask) for T^A of degree d, u^A = x^a*y^b
        for idx in combinations_with_replacement(range(s), d):
            T = [0] * s
            a = b = mask = 0
            c = field.one
            for i in idx:
                T[i] += 1
                a += units[i][0]
                b += units[i][1]
                c = field.mul(c, coeffs[i])
                mask |= 1 << i
            monos.append((a, b, pack((0, 0) + tuple(T)), c, mask))
        # no monomial below has a larger degree than x^X*y^Y*T_1^d, so this
        # one pack raises DegreeOverflow wherever a sum of words could be inexact
        pack((max(m[0] for m in monos), max(m[1] for m in monos), d) + (0,) * (s - 1))
        candidates = {}  # word -> the index in monos of its T-monomial
        for (i, (a1, b1, t1, _, m1)), (j, (a2, b2, t2, _, m2)) in combinations(
                enumerate(monos), 2):
            if m1 & m2:
                continue  # a common T_k: the candidate is T_k times a lower one's
            x, y = max(a1, a2), max(b1, b2)
            w1 = (x - a1) * px + (y - b1) * py + t1
            w2 = (x - a2) * px + (y - b2) * py + t2
            if w1 > w2:
                candidates[w1] = i
            else:
                candidates[w2] = j
        for w in sorted(candidates):
            if any(not (w - v) & guard for v in leads):
                continue  # a smaller lead divides w
            leads.append(w)
            a1, b1, _, c1, _ = monos[candidates[w]]
            e = unpack(w)
            x, y = e[0] + a1, e[1] + b1  # the x, y part of w's image
            n, c2 = min(((x - a) * px + (y - b) * py + t, c) for a, b, t, c, _ in monos
                        if a <= x and b <= y)
            out.append((w, Polynomial(target, field, {
                e: field.one, unpack(n): field.neg(field.div(c1, c2))})))
    out.sort(key=_lead, reverse=True)
    return [p for _, p in out]


# -- public layer ------------------------------------------------------------

class GroebnerBasis:
    """Reduced grevlex basis: monic elements, leading monomials an antichain.

    `entries` are the basis as `_buchberger` returns it, `_entry`s of packed
    grevlex words sorted by descending lead: primitive integer rows over
    q, monic rows over fp, which a kernel such as `_walk` divides by.
    `reduce` divides by them for `normal_form` and the refuter, packing its
    input and unpacking the remainder, and `reduce_row` hands back an
    integer row, a positive multiple of the normal form; the monic
    `elements` are unpacked from them once, when first read, and so is
    `staircase`, the staircase of the leads, which `colength` reads;
    `leading_exponents` unpacks the leads on each call.
    `minimal_generators` keeps its Nakayama prune of the elements beside
    them (`_mingens`), so each basis is pruned once.

    A monomial ideal's basis in k[x,y] is made from its staircase `stair`
    alone, with no run: `_corners` is the staircase, the x-exponents
    ascending and their y-exponents, which `reduce_row` filters terms by
    (None for every other basis), and its entries, the corners' packed
    words sorted as they compare, are packed on their first read.  So a
    basis keeps three write-once caches beside its entries: the elements,
    the staircase and the prune.
    """

    __slots__ = ("ring", "field", "_entries", "_pk", "_elements", "_corners", "_stair",
                 "_mingens")

    def __init__(self, ring: Ring, field, entries: list | None = None, stair=None):
        self.ring = ring
        self.field = field
        self._pk = GREVLEX.packer(ring)
        self._elements = None
        self._mingens = None
        self._corners = None
        self._stair = stair
        self._entries = entries
        if stair is not None:
            # an antichain: x-exponents distinct, y-exponents falling
            corners = stair.gens[::-1]
            self._corners = ([a for a, _ in corners], [b for _, b in corners])

    @property
    def entries(self) -> list:
        """The kernels' entries; a staircase basis packs its corners on the
        first read, as only the term filter reads most of them."""
        entries = self._entries
        if entries is None:
            pack = self._pk.pack
            entries = self._entries = [(w, 1, {w: 1}) for w in
                                       sorted(map(pack, self._stair.gens), reverse=True)]
        return entries

    @property
    def elements(self) -> tuple[Polynomial, ...]:
        elements = self._elements
        if elements is None:
            unpack = self._pk.unpack
            elements = self._elements = tuple(
                _monic_polynomial(self.ring, self.field, e, unpack) for e in self.entries)
        return elements

    def __iter__(self):
        return iter(self.elements)

    def reduce(self, terms: _Term) -> _Term:
        """Normal form of a term dict modulo the basis, as a term dict of
        field values, for `normal_form` and the refuter: `_nf_dict`'s exact
        mode on the packed terms, unpacked.  Normal forms are k-linear: the
        normal form of sum_j c_j * p_j is sum_j c_j * NF(p_j)."""
        pk = self._pk
        pack, unpack = pk.pack, pk.unpack
        # looked up on the module, so a wrapper bound there sees this call too
        rem = _nf_dict({pack(m): c for m, c in terms.items()}, self.entries, pk.guard,
                       self.field)
        return {unpack(w): c for w, c in rem.items()}

    def reduce_row(self, terms: _Term) -> dict:
        """A positive multiple of the normal form of a term dict, as an
        integer row, for a caller that reads only its span or whether it is
        zero: a rank, a membership test.  The terms are cleared once
        (`field.clear`), and no field value is made.  Modulo a staircase
        basis it is the term filter, keyed by exponent tuples: a term stays
        exactly when no corner divides it, and the corner with the largest
        x-exponent <= a has the smallest y-exponent among those, so one
        bisection decides (a, b).  Modulo any other basis it is `_nf_dict`'s
        integer row, keyed by packed words, none of them unpacked."""
        corners = self._corners
        if corners is not None:
            xs, ys = corners
            kept = {m: c for m, c in terms.items()
                    if not (i := bisect_right(xs, m[0])) or ys[i - 1] > m[1]}
            self.field.clear(kept)
            return kept
        pk = self._pk
        pack = pk.pack
        row = {pack(m): c for m, c in terms.items()}
        self.field.clear(row)
        # looked up on the module, so a wrapper bound there sees this call too
        return _nf_dict(row, self.entries, pk.guard, self.field, True)

    def leading_exponents(self) -> list[Exponent]:
        unpack = self._pk.unpack
        return [unpack(lm) for lm, _, _ in self.entries]

    def staircase(self) -> Staircase:
        """The `staircase.Staircase` of the leading monomials, normalized
        once (k[x,y], a nonzero ideal)."""
        stair = self._stair
        if stair is None:
            stair = self._stair = staircase_normalize(self.leading_exponents())
        return stair


# an Ideal's `_staircase` until `staircase_of_ideal` first reads it
_UNREAD = object()


class Ideal:
    """Generator tuple plus five write-once caches: the generators of a
    derived ideal (`_generators`, built on first read), the reduced grevlex
    basis, the staircase (`staircase_of_ideal`, None included), the engine's
    products with this ideal as right factor (`_products`, keyed by the left
    factor), and `engine.is_stable`'s I^2 = QI by Q's generators (`_stable`).

    An input ideal, `Ideal(gens)`, holds its generators.  A derived ideal
    (`_derived`) holds the function that builds them from its source, the
    corners of its staircase (`ideal_of_staircase`) or its reduced basis's
    elements (`_finish`), and `generators` calls it on the first read: most
    products are read only through their staircase or their basis.

    The product cache holds its left factors, so an `id` is never reused
    while it is keyed; products go on the right factor, so the shared
    `maximal_ideal`, always a left factor, holds none.  Instances are
    immutable apart from the caches; concurrent readers may race to insert,
    but both compute the same value so either insertion is correct.
    """

    __slots__ = ("ring", "field", "_generators", "_gb_cache", "_staircase", "_products",
                 "_stable")

    def __init__(self, generators: Sequence[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ZeroIdeal("an ideal needs at least one generator")
        first = gens[0]
        for g in gens[1:]:
            if g.ring != first.ring or g.field != first.field:
                raise RingMismatch("generators live in different rings or fields")
        self._setup(first.ring, first.field, gens)

    @classmethod
    def _derived(cls, ring: Ring, field, build) -> Ideal:
        """The ideal whose generators `build()` returns, as a tuple, on the
        first read of `generators`."""
        I = cls.__new__(cls)
        I._setup(ring, field, build)
        return I

    def _setup(self, ring: Ring, field, generators) -> None:
        self.ring = ring
        self.field = field
        self._generators = generators  # a tuple, or the function that builds it
        # {GREVLEX: basis}: a dict keyed by the order, as perfbench/tracing.py
        # reads `GREVLEX in ideal._gb_cache` (ROADMAP item 8 retires that)
        self._gb_cache: dict = {}
        self._staircase = _UNREAD
        self._products: dict[Ideal, Ideal] = {}
        self._stable: dict[tuple[Polynomial, ...], bool] = {}

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        gens = self._generators
        if not isinstance(gens, tuple):
            gens = self._generators = gens()
        return gens

    def groebner_basis(self) -> GroebnerBasis:
        """The reduced grevlex basis, built once."""
        cached = self._gb_cache.get(GREVLEX)
        if cached is not None:
            return cached
        stair = staircase_of_ideal(self)
        if stair is not None:
            gb = GroebnerBasis(self.ring, self.field, stair=stair)
        else:
            gb = GroebnerBasis(self.ring, self.field, _buchberger(
                [g.terms for g in self.generators], GREVLEX.packer(self.ring), self.field))
        self._gb_cache[GREVLEX] = gb
        return gb

    def __repr__(self):
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


# -- the ideal <-> staircase bridge ---------------------------------------------

def staircase_of_ideal(I: Ideal) -> Staircase | None:
    """The staircase of an ideal of k[x,y] whose generators are all single
    terms; None for any other ideal.  Read once and cached on I, None
    included."""
    stair = I._staircase
    if stair is _UNREAD:
        stair = I._staircase = _read_staircase(I.generators)
    return stair


def _read_staircase(generators) -> Staircase | None:
    pairs = []
    for g in generators:
        if g.is_zero:
            continue
        if not g.is_monomial:
            return None
        pairs.append(g.monomial_exponent())
    if not pairs or any(len(e) != 2 for e in pairs):
        return None
    return staircase_normalize(pairs)


def _corner_monomials(stair: Staircase, ring: Ring, field) -> tuple[Polynomial, ...]:
    """The monomials of stair's corners, in `stair.gens` order."""
    return tuple(Polynomial.monomial(ring, field, e) for e in stair.gens)


def ideal_of_staircase(stair: Staircase, ring: Ring, field) -> Ideal:
    """The ideal of stair's corners, with stair already in its cache; its
    generators, the corners' monomials, are built when first read."""
    I = Ideal._derived(ring, field, lambda: _corner_monomials(stair, ring, field))
    I._staircase = stair
    return I


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    if p.ring != gb.ring or p.field != gb.field:
        raise RingMismatch("polynomial and basis live in different rings or fields")
    return Polynomial(gb.ring, gb.field, gb.reduce(p.terms))


def _contains_all(I: Ideal, polys: Sequence[Polynomial]) -> bool:
    gb = I.groebner_basis()
    return all(not gb.reduce_row(p.terms) for p in polys)


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
    basis = _buchberger([g.terms for g in gens if not g.is_zero], order.packer(aux), field)
    trimmed = _front_free_elements(aux, field, order, basis, ring)
    if not trimmed:
        trimmed = [Polynomial.zero(ring, field)]
    return Ideal(trimmed)


def _walk(top: GroebnerBasis, gens: Sequence[Polynomial], D: GroebnerBasis):
    """Yield each standard monomial s of the basis D, of finite colength in
    k[x,y], in ascending grevlex order, with its nonzero forms
    (j, NF_top(s*g_j)), j the index of g_j in gens: packed rows of exact
    field values, `_nf_dict`'s exact mode.  A form is its parent's (s with
    one variable less) shifted by that variable and reduced again, as
    NF(v*s*g) = NF(v*NF(s*g)); a vanished form has no successor."""
    field, pk, entries = top.field, top._pk, top.entries
    pack, guard = pk.pack, pk.guard
    px, py = pack((1, 0)), pack((0, 1))
    start = [(j, {pack(m): c for m, c in g.terms.items()}) for j, g in enumerate(gens)]
    forms: dict = {}  # s -> its nonzero forms
    for s in standard_monomials(D.staircase()):
        a, b = s
        if a:
            prods = [(j, {m + px: c for m, c in f.items()}) for j, f in forms[a - 1, b]]
        elif b:
            prods = [(j, {m + py: c for m, c in f.items()}) for j, f in forms[a, b - 1]]
        else:
            prods = start
        # looked up on the module, so a wrapper bound there sees these calls too
        forms[s] = nfs = [(j, r) for j, p in prods
                          if (r := _nf_dict(p, entries, guard, field))]
        yield s, nfs


def _finish(gb: GroebnerBasis, base: list, rows: dict) -> Ideal:
    """The ideal of gb's ring of which the entries `base` plus the rows of
    an echelon {lead word: integer row} are a Groebner basis, carrying the
    reduced basis `_interreduce` makes: the one finisher of the bases
    `_colon`, `_sum` and `_times_maximal` read with no run.  The first two
    hand it the reduced basis of an ideal C and rows with distinct leads,
    normal forms modulo C spanning K/C for the ideal K they read.  An
    element g + k of K, g in C and k in the span, has g's lead in LM(C) and
    k's terms standard for C, so its lead is g's or k's, which is a row's,
    as their leads are distinct.  Reduced bases are unique, so it is the
    basis a Buchberger run returns.  The ideal's generators are the basis's
    monic elements, built on their first read, and its staircase, which
    `engine._mul` reads of every factor, is set here from the entries."""
    field, pk = gb.field, gb._pk
    entries = _interreduce(base + [(lm, row[lm], row) for lm, row in rows.items()], pk, field)
    basis = GroebnerBasis(gb.ring, field, entries)
    I = Ideal._derived(gb.ring, field, lambda: basis.elements)
    I._gb_cache[GREVLEX] = basis
    # the staircase `_read_staircase` would read off the elements: the
    # leads' when every element is one term, else none
    I._staircase = basis.staircase() if all(len(row) == 1 for _, _, row in entries) else None
    return I


def _colon(A: Ideal, B: Sequence[Polynomial], C: Ideal) -> Ideal:
    """A : (B) for a sub-ideal C of A : (B) of finite colength in k[x,y],
    generated by its reduced basis, which it carries cached.

    C*b_j lies in A, so f -> (NF_A(f*b_j))_j is a k-linear map
    R/C -> (R/A)^|B| whose kernel is (A : (B))/C, exactly and globally.
    The row of a standard monomial s of C holds its image, `_walk`'s exact
    forms, in columns (j, m), and a combination column (-1, w), w the word
    of s, below them; it is cleared as one row, so its components keep one
    scale.  The walk is ascending, so w is the largest combination column
    yet, never cancelled: a row whose reduced lead is (-1, w) has a zero
    image, and its combination columns are a kernel row led by s (with no
    nonzero b every row is one).
    """
    field = A.field
    gb = C.groebner_basis()
    pack = gb._pk.pack
    echelon: dict = {}  # lead column -> reduced augmented row, kernel rows included
    for s, forms in _walk(A.groebner_basis(), B, gb):
        row = {(j, m): c for j, f in forms for m, c in f.items()}
        row[-1, pack(s)] = field.one
        field.clear(row)
        _echelon_reduce(row, echelon, field)
    return _finish(gb, gb.entries, {w: {m: c for (_, m), c in row.items()}
                                    for (j, w), row in echelon.items() if j < 0})


def _sum(C: Ideal, F: Sequence[Polynomial], D: Ideal) -> Ideal:
    """C + (F) for C of finite colength in k[x,y], given D of finite
    colength with D*F inside C, generated by its reduced basis, which it
    carries cached.  D*f lies in C, so r*f = NF_D(r)*f modulo C, and
    (C + (F))/C is the k-span of NF_C(s*f) over the standard monomials s of
    D and the f in F, exactly and globally: `_walk`'s forms, each cleared to
    an integer row on its own, as a span reads no scale, echeloned."""
    gb = C.groebner_basis()
    field = gb.field
    echelon: dict = {}
    for _, forms in _walk(gb, F, D.groebner_basis()):
        for _, f in forms:
            r = dict(f)
            field.clear(r)
            _echelon_reduce(r, echelon, field)
    return _finish(gb, gb.entries, echelon)


def _times_maximal(P: Ideal) -> Ideal:
    """m*P for m = (x, y) and an ideal P of finite colength in k[x,y],
    generated by its reduced grevlex basis, which it carries cached: read
    off P's reduced grevlex basis G = (g_1, ..., g_s) with no Buchberger
    run (Schreyer 1980; Cox-Little-O'Shea, Using Algebraic Geometry, Ch. 5
    Thm 3.3).  Raises NotZeroDimensional for any other P.

    An element sum f_k g_k of P is sum f_k(0) g_k modulo m*G = (x g_k,
    y g_k), so m*P is m*G plus the constant combinations sum c_k g_k that
    lie in m*P; c is such a vector iff it is the value at the origin of a
    syzygy of G.  With the leads (a_k, b_k) sorted by x-exponent, the lead
    syzygies of consecutive corners generate those of LM(P), so their lifts
    generate the syzygies of G (Schreyer).  Each lift is read off the full
    reduction of the S-polynomial at lcm (a_(k+1), b_k), which lies in m*P,
    modulo m*G: its remainder's terms are corners and standard monomials,
    so, lying in P, it is sum c_k g_k with c_k its corner coefficients, the
    lift's value at the origin.  An echelon of the remainders has one row
    per independent relation, each led by a new corner, so the leads of m*G
    and of the rows give colength(P) + s - (s - mu(P)) = colength(m*P)
    standard monomials: m*G plus the rows is a Groebner basis of m*P, which
    `_finish` hands on.
    """
    colength(P)  # raises outside k[x,y], for the zero ideal and for infinite colength
    gb = P.groebner_basis()
    field, pk = gb.field, gb._pk
    pack, guard = pk.pack, pk.guard
    shifted = [(lm + v, lc, {m + v: c for m, c in row.items()})
               for v in (pack((1, 0)), pack((0, 1))) for lm, lc, row in gb.entries]
    corners = sorted(zip(gb.leading_exponents(), gb.entries))
    rows: dict = {}
    for ((_, b), f), ((a, _), g) in zip(corners, corners[1:]):
        r = _nf_dict(_spoly(f, g, pack((a, b)), field), shifted, guard, field, True)
        _echelon_reduce(r, rows, field)
    return _finish(gb, shifted, rows)


def ideal_colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J for I of finite colength in k[x,y], exact globally: the kernel
    `_colon` reads off R/I.  Raises NotZeroDimensional for any other I."""
    if I.ring != J.ring or I.field != J.field:
        raise RingMismatch("ideals live in different rings or fields")
    if all(f.is_zero for f in J.generators):
        raise ZeroDivisorIdeal("colon by the zero ideal")
    colength(I)  # raises outside k[x,y] and for infinite colength
    return _colon(I, J.generators, I)


def colength(I: Ideal) -> int:
    """Length of R/I as the count of standard monomials (2-variable rings),
    read off I's own staircase (`staircase_of_ideal`) when I is monomial,
    a corner sum with no basis built, and otherwise off the staircase of
    its reduced basis's leads, which the basis keeps."""
    if I.ring.arity != 2:
        raise NotZeroDimensional(f"colength requires a 2-variable ring, got {I.ring}")
    stair = staircase_of_ideal(I)
    if stair is not None:
        return mono_colength(stair)
    gb = I.groebner_basis()
    if not gb.entries:
        raise NotZeroDimensional("zero ideal has infinite colength")
    return mono_colength(gb.staircase())


def is_origin_primary(I: Ideal) -> bool:
    """True when V(I) is exactly the origin, i.e. rad(I) = (x, y) globally.

    A monomial ideal answers from its staircase, with no basis built, as
    `colength` does: exactly when the staircase holds pure powers of x and y
    and is not (1).  Any other needs a finite nonzero `colength`, which
    alone admits zeros away from the origin; those are ruled out by checking
    that pure variable powers lie in the ideal itself (the nilpotency index
    on R/I is at most its length).
    """
    stair = staircase_of_ideal(I)
    if stair is not None:
        return stair.is_m_primary and stair.gens != ((0, 0),)
    try:
        ell = colength(I)
    except NotZeroDimensional:
        return False  # another ring, the zero ideal or infinite colength
    gb = I.groebner_basis()
    powers = [Polynomial.monomial(I.ring, I.field, e) for e in ((ell, 0), (0, ell))]
    return ell > 0 and all(normal_form(pw, gb).is_zero for pw in powers)


_MAXIMAL: dict = {}  # (ring, field) -> its maximal_ideal


def maximal_ideal(ring: Ring, field) -> Ideal:
    """The ideal of all variables: one object per (ring, field), so that its
    reduced basis is built once and products with it are found in the
    engine's cache."""
    m = _MAXIMAL.get((ring, field))
    if m is None:
        m = _MAXIMAL[(ring, field)] = Ideal(
            [Polynomial.variable(ring, field, v) for v in ring.vars])
    return m


def ideal_order(I: Ideal) -> int:
    """Largest n with I inside m^n: minimum term degree over the generators,
    read off the corners when I has a staircase (`staircase_of_ideal`)."""
    stair = staircase_of_ideal(I)
    if stair is not None:
        return stair.order()
    degs = [g.min_degree() for g in I.generators if not g.is_zero]
    if not degs:
        raise ZeroIdeal("the zero ideal has no order")
    return min(degs)


def minimal_generators(I: Ideal, mI: Ideal | None = None) -> list[Polynomial]:
    """A minimal generating set, extracted greedily against (vars) * I;
    `mI`, when the caller already built (vars) * I, shares its basis.  The
    prune of I's reduced basis is kept on that basis, so it runs once."""
    stair = staircase_of_ideal(I)  # None outside k[x,y] and for the zero ideal
    if stair is not None:
        return list(_corner_monomials(stair, I.ring, I.field))
    gb = I.groebner_basis()
    if gb._mingens is None:
        pack = gb._pk.pack
        gb._mingens = _nakayama_prune(list(gb.elements), N=mI,
                                      key=lambda g: (g.min_degree(), max(map(pack, g.terms))))
    return list(gb._mingens)


def _nakayama_prune(gens: list[Polynomial], key, N: Ideal | None = None,
                    max_weight: int | None = None) -> list[Polynomial]:
    """Graded Nakayama: scanning gens sorted by key, keep g unless it lies in
    the ideal of the kept ones plus N = (vars) * gens.

    Every a in S is a constant plus an element of (vars), and the kept ones
    lie in L = (gens), so (kept) + N = span_k(kept) + N: g is redundant iff
    NF_N(g) lies in span_k(NF_N(kept)).  One reduced basis of N serves every
    candidate, through `GroebnerBasis.reduce_row`, as a span does not depend
    on row scale; the span is an echelon of the kept normal forms, one row
    per leading monomial.  `N`, when the caller already built that ideal, is
    used in place of a new one.  Otherwise N's basis is built here, bounded
    by `max_weight` as in `_buchberger`; the prune stays exact for
    weight-homogeneous gens that weigh no more than the bound.
    """
    if not gens:
        return []
    ring, field = gens[0].ring, gens[0].field
    if N is None:
        gb = GroebnerBasis(ring, field, _buchberger(
            [(Polynomial.variable(ring, field, v) * g).terms for v in ring.vars for g in gens],
            GREVLEX.packer(ring), field, max_weight=max_weight))
    else:
        gb = N.groebner_basis()
    rows: dict = {}
    kept: list[Polynomial] = []
    for g in sorted(gens, key=key):
        if _echelon_reduce(gb.reduce_row(g.terms), rows, field) is not None:
            kept.append(g)
    return kept

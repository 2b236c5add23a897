"""Classifier for the almost Gorenstein property of Rees algebras.

Everything is decided in the local ring k[x,y]_(x,y) by linear algebra in
quotients by m-primary ideals, and every rank, kernel and span test is one
sparse echelon (`groebner._echelon_reduce`, here only through `_rank`).  A
Nakayama test ranks classes in P/m*P read off P's own reduced basis
(`groebner.classes`), with no m*P built.
The pipeline: find a 2-generated reduction Q of I, a function of I (Q may
vanish away from the origin), and require stability, I^2 = QI (`_stable`,
one Nakayama test `_spans`, or for a monomial I a count of lengths; r = 0
iff mu(I) <= 2), read everything off the local colon ideal J = Q : I (for a
monomial I, the staircase colon when Q is the pure-power pair, else, when I
is integrally closed, its adjoint read off the corners by Howald's rule,
which is Q : I by Lipman's theorem; otherwise a kernel on R/I,
`_kernel_colon`: I^2 = QI lies in Q locally, so T = Q + I^2 is the origin
component of Q and J/I is the kernel of f -> (f*a mod T) over the
generators a of I; T is read off I^2's reduced basis by `groebner._sum`,
with no Buchberger run),
then either certify with a witness triple (f, g, h) satisfying

    IJ = gJ + Ih    and    mJ = fJ + mh,

or refute by showing that no h in J can keep mu(IJ/Ih) + mu(mJ/mh) within
the generator-count budget 2*(mu(J) - 1), from the ranks of sampled h,
sampling until each side's rank meets the term rank of its support (capped
by its mu), which no sample can exceed.  Both witness conditions are
Zariski-open ranks (Nakayama), so one generic triple decides the first.
The triple and the refuter's samples are ranked on one table, the exact
classes of the products of minimal generators in IJ/m*IJ and mJ/m^2*J,
kept as its nonzero cells (`_product_tables`), read off the corners of IJ
and mJ for a monomial I and J, from which one pass builds a sample's rows
(`_table_rows`); the validator re-checks a reported triple by forming its
products as polynomials (`verify_witness`).  Every product ideal is built
once per analysis (`_mul` caches it on its right factor), and that cache
is the one way stages share work: the powers I^k, I^2 for the colon, IJ
and mJ, with the relations every mu and class reads kept on each.
Ideals with neither a certificate nor a refutation stay UNKNOWN; that
verdict is first-class.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import random
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import (BadParameters, NoReductionFound, NotContained, NotStable,
                     NotZeroDimensional, ZeroIdeal)
from .fields import MIN_PRIME, PrimeField
from .groebner import (
    Ideal,
    colength,
    ideal_of_staircase,
    ideal_order,
    ideal_product,
    is_origin_primary,
    maximal_ideal,
    minimal_generators,
    staircase_of_ideal,
    _colon,
    _contains_all,
    _echelon_reduce,
    _relations,
    _sum,
    classes,
    independent,
)
from .poly import Polynomial
from .staircase import (
    Staircase,
    adjoint,
    hull_vertices,
    is_integrally_closed,
    mono_colength,  # unused here; perfbench/tracing.py binds engine.mono_colength
    newton_closure,  # unused here; perfbench/tracing.py binds engine.newton_closure
    newton_multiplicity,
    staircase_colon,
    staircase_normalize,  # unused here; perfbench/tracing.py binds engine.staircase_normalize
    staircase_product,
)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from the given parts; hash-seed independent."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class Verdict(enum.Enum):
    GORENSTEIN = "GORENSTEIN"
    AG_CERTIFIED = "AG_CERTIFIED"
    NOT_AG = "NOT_AG"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ClassifyConfig:
    seed: int = 0


@dataclass(frozen=True)
class ReductionData:
    Q: tuple[Polynomial, Polynomial]
    reduction_number: int

    @property
    def stable(self) -> bool:
        """I^2 = QI."""
        return self.reduction_number <= 1


@dataclass(frozen=True)
class AGWitness:
    f: Polynomial
    g: Polynomial
    h: Polynomial


@dataclass(frozen=True)
class RefutationData:
    mu_IJ: int
    mu_mJ: int
    mu_J: int
    threshold: int
    min_sum: int
    rank_I: int
    rank_m: int
    trials: int
    seeds: tuple[int, ...]
    primes: tuple[int, ...]
    failure_bound: float


@dataclass(frozen=True)
class AGReport:
    verdict: Verdict
    order: int
    min_gens: int
    colength: int
    contracted: bool
    integrally_closed: bool | None
    reduction: ReductionData | None
    colon_gens: tuple[Polynomial, ...] | None
    colon_order: int | None
    colon_min_gens: int | None
    witness: AGWitness | None
    refutation: RefutationData | None
    notes: tuple[str, ...]


# -- representation dispatch -------------------------------------------------
# Products of two monomial ideals are built on their staircases and carry
# them cached.  No Nakayama test builds an m*P (`groebner.classes`), so the
# one product with m is the table's mJ.  Every other product, a
# non-monomial J's mJ included, goes through `groebner.ideal_product`,
# whose run starts from the products formed on packed words; `_stable`,
# `_reduction_number` and the table hand `classes` the factors, and only the
# validator's `verify_witness` and `_is_linked_colon` multiply polynomials.
# Each product is cached on its right factor, keyed by the left one
# (`Ideal._products`), so its basis, staircase and relations are built once
# per analysis, and the shared maximal ideal, always the left factor here,
# pins no product.

def _mul(A: Ideal, B: Ideal) -> Ideal:
    """A*B from `_mul`'s cache: on the staircases when both are monomial,
    else by `ideal_product`."""
    P = B._products.get(A)
    if P is None:
        sa, sb = staircase_of_ideal(A), staircase_of_ideal(B)
        if sa is not None and sb is not None:
            P = ideal_of_staircase(staircase_product(sa, sb), A.ring, A.field)
        else:
            P = ideal_product(A, B)
        B._products[A] = P
    return P


# -- linear algebra in P/m*P ----------------------------------------------------

def _rank(rows: list[dict], fld) -> int:
    """dim_k of the span of sparse rows {column: field value}, such as
    classes in P/m*P, with mutually comparable columns, leaving the rows as
    they are: one echelon keyed by the largest column, built from copies of
    the rows without their zero entries (a `_table_rows` sum can cancel to
    one), each cleared to an integer row (`field.clear`).  The engine's only
    reader of `_echelon_reduce`: every Nakayama test, witness side on the
    table and refuter sample is a `_rank`."""
    echelon: dict = {}
    zero = fld.zero
    for row in rows:
        r = {col: v for col, v in row.items() if v != zero}
        fld.clear(r)
        _echelon_reduce(r, echelon, fld)
    return len(echelon)


# -- reductions ---------------------------------------------------------------

_REDUCTION_PAIRS = 32  # power-sum pairs tried for an ideal without a staircase
_REDUCTION_CAP = 4     # largest reduction number searched for on those pairs


def _power(I: Ideal, k: int) -> Ideal:
    """I^k for k >= 1, walking `_mul(I, .)`: each power is built once, cached
    on the one below it."""
    P = I
    for _ in range(k - 1):
        P = _mul(I, P)
    return P


def _mu(P: Ideal) -> int:
    """mu(P) = dim P/m*P for an m-primary P: a monomial P's number of
    corners, else the size of its reduced basis less its relations
    (`groebner._relations`, kept on P).  Raises NotZeroDimensional unless
    P has finite colength, a monomial P included."""
    stair = staircase_of_ideal(P)
    if stair is not None and stair.is_m_primary:
        return len(stair.gens)
    colength(P)  # raises for infinite colength
    cols, rels = _relations(P)
    return len(cols) - len(rels)


def _spans(P: Ideal, parts: Sequence[Polynomial], by: Sequence[Polynomial] | None = None
           ) -> bool:
    """Do the parts, inside the m-primary P, generate P in k[x,y]_(x,y)?
    Given `by`, they are the products p*b, b in `by`, formed on packed
    words.  The one Nakayama test: they do iff their classes in P/m*P
    (`groebner.classes`) have rank mu(P)."""
    return _rank(classes(P, parts, by), P.field) == _mu(P)


def _stable(I: Ideal, Q: Ideal) -> bool:
    """I^2 = QI in k[x,y]_(x,y) for Q inside I: one `_spans` of the
    products q*a over the generators a of I in I^2, formed on packed words,
    kept on I, keyed by Q's generators (`Ideal._stable`)."""
    stable = I._stable.get(Q.generators)
    if stable is None:
        stable = I._stable[Q.generators] = _spans(_power(I, 2), Q.generators, I.generators)
    return stable


def _reduction_number(I: Ideal, Q: Ideal, cap: int | None) -> int | None:
    """Minimal r <= cap (cap >= 1, or None for no cap) with I^{r+1} = Q I^r
    in k[x,y]_(x,y), for a two-generated Q inside I, a reduction if cap is
    None.  r <= 1 is `_stable`, and then r = 0 iff mu(I) <= 2: Q is a
    reduction, so if I is a parameter ideal the parameter ideal Q inside it
    has colength e(I) = l(R/I) and is I.  Each r >= 2 is one `_spans` of
    the products q*p, p in gens(I^r), in I^{r+1}."""
    if _stable(I, Q):
        return 0 if _mu(I) <= 2 else 1
    for r in itertools.count(2) if cap is None else range(2, cap + 1):
        if _spans(_power(I, r + 1), Q.generators, _power(I, r).generators):
            return r
    return None


def find_reduction(I: Ideal) -> ReductionData:
    """Find a two-generated reduction Q of I in k[x,y]_(x,y) and its
    reduction number.

    A monomial ideal gets one pair, read off its Newton polygon's vertices:
    Q = (x^a, y^b) when there are fewer than three, the pure powers then
    spanning the polygon (the unit ideal's one vertex gives Q = (1, 1)),
    else the even/odd split of the vertices.  On every edge of the polygon
    each member of the split has a single term, so the pair is Newton
    non-degenerate and hence a reduction.
    Whether I^2 = QI is read off colengths, and kept on I (`Ideal._stable`):
    1. Q is a parameter ideal, so Q/QI = (R/I)^2 and
       l(R/QI) = e(I) + 2 l(R/I), with e(I) = l(R/Q) twice the area under
       the Newton polygon (Kouchnirenko 1976; `newton_multiplicity`).
    2. QI lies in I^2, so I^2 = QI iff l(R/I^2) = e(I) + 2 l(R/I)
       (Huneke 1987, Ooishi 1987).
    r is then `_reduction_number`'s, which reads that answer back: on a
    stable pair r = 0 iff mu(I) <= 2, that is iff I = Q, iff l(R/I) = e(I);
    otherwise r is searched from r = 2 with no cap.

    Other ideals try `_REDUCTION_PAIRS` fixed pairs, each decided by that
    rank test: with b_0, b_1, ... I's reduced grevlex basis by descending
    lead, pair k is (sum_i s^i b_i, sum_i t^i b_i) for the k-th (s, t) of
    (1, 2), (1, 3), (2, 3), (1, 4), ..., so Q is a function of I, and no
    member is zero (each is led by b_0).  The list ends in a minimal
    reduction (Northcott-Rees 1954): the first member fails only in the
    degree-1 parts of the fiber cone's top-dimensional minimal primes,
    finitely many proper subspaces of I/mI, and as the b_i span I/mI and
    (1, s, s^2, ...) lies in no hyperplane (Vandermonde), each rules out
    fewer than len(b) values of s; likewise t once s is good.  The budget
    of 32 is an implementation limit.  The first pair with r <=
    `_REDUCTION_CAP` wins.  It is a two-generated reduction, so I^2 = QI
    holds for it iff l(R/I^2) = e(I) + 2 l(R/I), as above, whatever the
    pair: no pair with r <= 1 comes after one with r >= 2.  The zero ideal
    raises ZeroIdeal.  The outcome, the reduction found or the
    NoReductionFound raised, is kept on I (`Ideal._reduction`), so a
    second call, such as `rees._relation_type_bound`'s after `classify`,
    returns or raises it again and searches no more.
    """
    if isinstance(I._reduction, NoReductionFound):
        raise I._reduction.with_traceback(None)
    if I._reduction is not None:
        return I._reduction
    stair = staircase_of_ideal(I)
    if stair is not None and stair.is_m_primary:
        pts = hull_vertices(stair.gens)
        if len(pts) < 3:
            pts = [stair.gens[0], stair.gens[-1]]
        monos = [Polynomial.monomial(I.ring, I.field, e) for e in pts]
        Q = Ideal([sum(monos[2::2], monos[0]), sum(monos[3::2], monos[1])])
        I._stable[Q.generators] = (
            colength(_power(I, 2)) == newton_multiplicity(stair) + 2 * colength(I))
        I._reduction = ReductionData(Q.generators, _reduction_number(I, Q, None))
        return I._reduction

    basis = I.groebner_basis().elements
    if not basis:
        raise ZeroIdeal("the zero ideal has no reduction")
    for pair in itertools.islice(((s, t) for t in itertools.count(2) for s in range(1, t)),
                                 _REDUCTION_PAIRS):
        Q = Ideal([_span([I.field.from_int(v ** i) for i in range(len(basis))], basis)
                   for v in pair])
        r = _reduction_number(I, Q, _REDUCTION_CAP)
        if r is not None:
            I._reduction = ReductionData(Q.generators, r)
            return I._reduction
    I._reduction = NoReductionFound(
        f"no reduction with r <= {_REDUCTION_CAP} among {_REDUCTION_PAIRS} pairs")
    raise I._reduction


def is_stable(I: Ideal, Q: Ideal) -> bool:
    """I^2 = QI in k[x,y]_(x,y) (`_stable`); raises if Q is not inside I.
    A pair `find_reduction` tested, inside I by construction, is a lookup."""
    if Q.generators not in I._stable and not _contains_all(I, Q.generators):
        raise NotContained("Q is not contained in I")
    return _stable(I, Q)


def _kernel_colon(I: Ideal, Q: Ideal) -> Ideal:
    """J = Q : I in k[x,y]_(x,y) for a stable Q inside the m-primary I, as
    a kernel on R/I: J = T : I for T = Q + I^2, found by
    `groebner._colon(T, B, I)` (I*B lies in T, so the walk starts from I
    and not from T, whose colength e(I) is larger).  Q may vanish away
    from the origin.  T's reduced basis is read off I^2's by
    `groebner._sum(I^2, Q, I)`, with no Buchberger run: Q*I lies in I^2 for
    any Q inside I, so T/I^2 is the span of the normal forms of s*q modulo
    I^2 over the standard monomials s of I, exactly and globally, stable or
    not.  I^2 = QI lies in Q locally, so T is m-primary and is the origin
    component of Q; hence T : I = (Q : I) + I^2 is m-primary with the
    localization of the local colon, and two m-primary ideals with one
    localization are equal.  The walk multiplies only by B, the generators
    of I whose classes in I/m*I are independent of Q's and of those before
    them (`groebner.independent`): Q + B = I locally and Q lies in T, so
    T : B and T : I are m-primary with one localization."""
    T = _sum(_power(I, 2), Q.generators, I)
    kept = independent(I, Q.generators + I.generators)
    return _colon(T, [g for g in kept if all(g is not q for q in Q.generators)], I)


def canonical_colon(I: Ideal, Q: Ideal) -> Ideal:
    """J = Q : I in k[x,y]_(x,y), as an m-primary ideal, for a minimal
    reduction Q: raises BadParameters unless Q is two-generated, NotStable
    unless I^2 = QI, and NotZeroDimensional unless I has finite colength.
    For contracted I the orders satisfy o(I) = o(J) + 1.

    Three routes:
    1. A monomial Q is the pure-power pair (a stable monomial pair is
       m-primary) and takes the staircase colon.
    2. A monomial, integrally closed I takes Howald's adjoint
       (`staircase.adjoint`), read off the Newton polygon's edges.  For a
       complete ideal of a two-dimensional regular local ring, Q : I =
       adj(I) for every minimal reduction Q (Lipman 1994; Huneke-Swanson
       2006, Ch. 18), and for a monomial I, x^a*y^b lies in adj(I) iff
       (a+1, b+1) lies strictly inside the Newton polyhedron (Howald
       2001).  No T basis is built and no kernel walked.
    3. Every other pair takes the kernel on R/I (`_kernel_colon`).
    I is contracted iff mu(I) = o(I) + 1.
    """
    if len(Q.generators) != 2:
        raise BadParameters("the canonical colon needs a two-generated Q")
    if not is_stable(I, Q):
        raise NotStable("the canonical colon needs I^2 = QI")
    colength(I)  # raises unless I has finite colength
    sQ, sI = staircase_of_ideal(Q), staircase_of_ideal(I)
    if sQ is not None and sI is not None:
        J = ideal_of_staircase(staircase_colon(sQ, sI), I.ring, I.field)
    elif sI is not None and is_integrally_closed(sI):
        J = ideal_of_staircase(adjoint(sI), I.ring, I.field)
    else:
        J = _kernel_colon(I, Q)
    if _mu(I) == ideal_order(I) + 1:
        o_i, o_j = ideal_order(I), ideal_order(J)
        if o_i != o_j + 1:
            raise RuntimeError(
                f"order drop violated: o(I)={o_i}, o(J)={o_j} for contracted stable input")
    return J


# -- certificates --------------------------------------------------------------

def _sum_equals(ref: Ideal, ref_stair: Staircase | None, ref_min: Sequence[Polynomial],
                parts: list[Polynomial]) -> bool:
    """Does (parts) + m*ref equal ref (`_spans`)?  `ref_stair` and
    `ref_min` are not read: they keep the positional signature perfbench's
    tracer reads (`args[1]` and `args[3]`); `verify_witness` passes `()`
    for `ref_min`, so ref's generators are not built for it."""
    return _spans(ref, parts)


def _span(coeffs: list, gens: list[Polynomial]) -> Polynomial:
    """sum_j c_j * g_j, a witness polynomial: `_combine` over the
    generators' terms."""
    fld = gens[0].field
    return Polynomial(gens[0].ring, fld, _combine([g.terms for g in gens], coeffs, fld))


def verify_witness(I: Ideal, J: Ideal, f: Polynomial, g: Polynomial,
                   h: Polynomial) -> bool:
    """Check both witness equalities in the local ring k[x,y]_(x,y).

    With f in m, g in I and h in J (by normal form), gJ + Ih = IJ holds
    locally iff gJ + Ih + m*IJ = IJ (Nakayama), a quotient killed by m, so
    local and global agree: a `_sum_equals` in IJ; likewise mJ = fJ + mh.
    This is `validate_report`'s check of a reported triple: it forms the
    products g*w, a*h, f*w and v*h over the generators of I and J as
    polynomials, a route independent of the table `certificate_search`
    decides on (`_witness_on_table`), which it equals."""
    m = maximal_ideal(I.ring, I.field)
    if not (_contains_all(m, [f]) and _contains_all(I, [g]) and _contains_all(J, [h])):
        return False
    IJ, mJ = _mul(I, J), _mul(m, J)
    sides = ((IJ, [g * w for w in J.generators] + [a * h for a in I.generators]),
             (mJ, [f * w for w in J.generators] + [v * h for v in m.generators]))
    return all(_sum_equals(ref, staircase_of_ideal(ref), (), parts) for ref, parts in sides)


def _product_tables(I: Ideal, J: Ideal):
    """The table of generator products that the certificate and the
    refuter read, one side at a time, as its nonzero cells: (IJ, cells),
    then (mJ, cells), with a cell (i, j, class) for each product u_i*w_j of
    u_i in mingens(I) and w_j in mingens(J) whose class in IJ/m*IJ is not
    zero, then likewise for v*w_j in mJ/m^2*J, v in {x, y}, in exact field
    values and row-major order.  A caller that stops after the IJ side
    builds no mJ side.  The ideals come from `_mul`'s cache.

    When the side's P (IJ or mJ), its left factor (I or m) and J all have
    staircases, the minimal generators are the corners' monomials, so the
    product of corners u and w is the monomial at u + w, whose class is
    {u + w: 1} when u + w is a corner of P and zero otherwise: the cells
    are read off the corners alone, with no polynomial, product or basis
    built.  Every other side forms its products and reads their exact
    classes (`groebner.classes`), dropping the zero ones."""
    m = maximal_ideal(I.ring, I.field)
    s_J = staircase_of_ideal(J)
    for P, left in ((_mul(I, J), I), (_mul(m, J), m)):
        stair, s_left = staircase_of_ideal(P), staircase_of_ideal(left)
        if stair is not None and s_left is not None and s_J is not None:
            corners, one = set(stair.gens), I.field.one
            yield P, [(i, j, {e: one}) for i, (a, b) in enumerate(s_left.gens)
                      for j, (c, d) in enumerate(s_J.gens) if (e := (a + c, b + d)) in corners]
            continue
        j_min = minimal_generators(J)
        yield P, [(*divmod(k, len(j_min)), c) for k, c in enumerate(
            classes(P, minimal_generators(left), j_min, exact=True)) if c]


def _combine(per_w: list[dict], c: list, fld) -> dict:
    """sum_j c_j * per_w[j] of term dicts in field values, for `_span`'s
    witness polynomials."""
    row: dict = {}
    for cj, entries in zip(c, per_w):
        for col, v in entries.items():
            row[col] = fld.add(row.get(col, fld.zero), fld.mul(cj, v))
    return row


def _table_rows(cells: list, n: int, c: list, fld, a: list | None = None) -> list[dict]:
    """A side's rows, from its nonzero cells (i, j, [u_i*w_j]) in one pass:
    for h = sum_j c_j w_j the classes [u_i*h] = sum_j c_j [u_i*w_j], i < n,
    and, given a, before them for g = sum_i a_i u_i the classes [g*w_j] =
    sum_i a_i [u_i*w_j], j < len(c).  Entries are summed in the kernels'
    native arithmetic and reduced once modulo `field.modulus` over fp; over
    q they stay values that `_rank` clears once per row.  A sum can cancel
    to zero, which `_rank` drops."""
    by_u = [{} for _ in range(n)]
    by_w = [] if a is None else [{} for _ in c]
    for i, j, cls in cells:
        row, cj = by_u[i], c[j]
        for col, v in cls.items():
            row[col] = row.get(col, 0) + cj * v
        if by_w:
            row, ai = by_w[j], a[i]
            for col, v in cls.items():
                row[col] = row.get(col, 0) + ai * v
    rows = by_w + by_u
    mod = fld.modulus
    if mod:
        for row in rows:
            for col, v in row.items():
                row[col] = v % mod
    return rows


def _witness_on_table(I: Ideal, J: Ideal, a: list, c: list, b: list) -> bool:
    """Do g = sum a_i u_i, h = sum c_j w_j and f = b_x x + b_y y (u_i in
    mingens(I), w_j in mingens(J)) satisfy both witness equalities?  Classes
    are linear, so [g*w_j] = sum_i a_i [u_i*w_j] and [u_i*h] =
    sum_j c_j [u_i*w_j], built in one pass over the IJ side's cells
    (`_product_tables`, `_table_rows`), and the IJ side holds iff these
    mu(J) + mu(I) rows have rank mu(IJ); then the mJ side likewise with b,
    its cells and mu(mJ).

    This equals `verify_witness(I, J, f, g, h)`: f, g and h lie in m, I
    and J by construction, and modulo m*IJ the products g*w over any
    generators w of J span what those over mingens(J) do, as w is a
    combination of them modulo mJ and g*mJ lies in I*mJ = m*IJ; likewise
    for a*h, and for the mJ side modulo m^2*J."""
    fld = I.field
    return all(_rank(_table_rows(cells, len(coeffs), c, fld, coeffs), fld) == _mu(P)
               for (P, cells), coeffs in zip(_product_tables(I, J), (a, b)))


def certificate_search(I: Ideal, Q: Ideal, J: Ideal, seed: int = 0) -> AGWitness | None:
    """One generic witness triple, decided on the table of generator
    products (`_witness_on_table`); None if it fails.  Raises NotStable
    unless I^2 = QI (`is_stable`).

    g, h and f combine mingens(I), mingens(J) and {x, y} with seeded random
    coefficients from S = {1..|S|}, |S| = `fields.MIN_PRIME`: distinct nonzero
    field elements, as a prime field's p exceeds it.  By Nakayama each
    condition is a rank in the coefficients, full iff some maximal minor, of
    degree mu(IJ) or mu(mJ), is nonzero; if a witness exists, Schwartz-Zippel
    on the product of two such minors bounds the miss probability by
    (mu(IJ) + mu(mJ))/|S|.  The polynomials f, g and h are built only for a
    triple that passes.
    """
    if not is_stable(I, Q):
        raise NotStable("certificate search requires I^2 = QI")
    fld = I.field
    i_gens, j_min = minimal_generators(I), minimal_generators(J)
    rng = random.Random(derive_seed(seed, "certificate"))

    def draw(n: int) -> list:
        return [fld.from_int(rng.randint(1, MIN_PRIME)) for _ in range(n)]

    a, c, b = draw(len(i_gens)), draw(len(j_min)), draw(2)
    if not _witness_on_table(I, J, a, c, b):
        return None
    return AGWitness(f=_span(b, maximal_ideal(I.ring, fld).generators),
                     g=_span(a, i_gens), h=_span(c, j_min))


# -- refutation ----------------------------------------------------------------

def _sample_vector(rng: random.Random, fld, n: int, space: int) -> list:
    while True:
        draws = [rng.randint(0, space - 1) for _ in range(n)]
        if any(draws):
            return [fld.from_int(d) for d in draws]


def _term_rank(per_row: list[set]) -> int:
    """Largest matching of rows to columns, row i to a column of per_row[i]
    (Kuhn's augmenting paths): the term rank of that support pattern, which
    bounds the rank of every matrix with its nonzero entries there, since a
    nonzero k x k minor has a nonzero term, a matching of size k (Koenig)."""
    owner: dict = {}

    def augment(i: int, seen: set) -> bool:
        for col in per_row[i]:
            if col not in seen:
                seen.add(col)
                if col not in owner or augment(owner[col], seen):
                    owner[col] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(per_row)))


_TRIALS = 16  # the refuter's sample budget, which classify records


def necessary_bound(I: Ideal, J: Ideal, seed: int = 0, Q: Ideal | None = None,
                    trials: int = _TRIALS) -> RefutationData:
    """Minimum over generic h in J of mu(IJ/Ih) + mu(mJ/mh), versus 2(mu(J)-1).

    Both quotient sizes depend only on the class of h in J/mJ and are
    ranks of matrices linear in h's coefficients, so sampling h computes
    the generic minimum with a reported failure probability.  By Nakayama,
    (Ih + mIJ)/mIJ is spanned by the classes of a*h, a in mingens(I), and
    (mh + m^2 J)/m^2 J by those of x h, y h: each sample's rows are built
    in one pass over the nonzero cells of the table of generator products
    (`_product_tables`, `_table_rows`) that the certificate decided on.  A
    given Q is checked for I^2 = QI; callers that already know it pass
    none.

    `trials` is the sample budget, `_TRIALS` by default; classify records
    it and `validate_report` accepts no other.  Each side's rank is at most
    its bound, the term rank of its cells' supports, row by row
    (`_term_rank`), capped by its mu.  Each trial draws one vector, shared
    by both sides, and ranks only a side still short of its bound; once
    both meet their bounds sampling stops, as no later sample could raise
    either rank, so the record equals that of the whole budget, and where
    both bounds are met its ranks are the generic ranks exactly.  The
    monomial ideals tested meet both at the first sample; a non-monomial I
    side may draw the whole budget.
    """
    if trials < 1:
        raise BadParameters(f"a refutation needs at least one sample, got trials={trials}")
    if Q is not None and not is_stable(I, Q):
        raise NotStable("the generator-count refutation needs I^2 = QI")
    fld = I.field
    (IJ, cells_I), (mJ, cells_m) = _product_tables(I, J)
    mu_IJ = _mu(IJ)
    mu_mJ = _mu(mJ)
    mu_J = _mu(J)
    if mu_J < 2:
        raise BadParameters("refutation needs mu(J) >= 2; mu(J) = 1 is the Gorenstein case")
    threshold = 2 * (mu_J - 1)
    run_seed = derive_seed(seed, "refuter")
    rng = random.Random(run_seed)

    space = fld.p if isinstance(fld, PrimeField) else MIN_PRIME
    n_I = len(minimal_generators(I))
    bounds = []
    for mu, n, cells in ((mu_IJ, n_I, cells_I), (mu_mJ, 2, cells_m)):
        support = [set() for _ in range(n)]
        for i, _, cls in cells:
            support[i].update(cls)
        bounds.append(min(mu, _term_rank(support)))
    bound_I, bound_m = bounds
    best_I = best_m = 0
    for _ in range(trials):
        if best_I == bound_I and best_m == bound_m:
            break  # no later sample can raise either rank
        c = _sample_vector(rng, fld, mu_J, space)
        if best_I < bound_I:
            best_I = max(best_I, _rank(_table_rows(cells_I, n_I, c, fld), fld))
        if best_m < bound_m:
            best_m = max(best_m, _rank(_table_rows(cells_m, 2, c, fld), fld))
    min_sum = mu_IJ + mu_mJ - best_I - best_m
    degree = min(mu_IJ, n_I) + min(mu_mJ, 2)
    failure_bound = float((degree / space) ** trials)
    primes = (fld.p,) if isinstance(fld, PrimeField) else ()
    return RefutationData(
        mu_IJ=mu_IJ, mu_mJ=mu_mJ, mu_J=mu_J, threshold=threshold,
        min_sum=min_sum, rank_I=best_I, rank_m=best_m, trials=trials,
        seeds=(run_seed,), primes=primes, failure_bound=failure_bound,
    )


# -- the pipeline --------------------------------------------------------------

def classify(I: Ideal, config: ClassifyConfig | None = None) -> AGReport:
    """Full verdict pipeline; deterministic for a fixed (input, seed, field)."""
    cfg = config or ClassifyConfig()
    stair = staircase_of_ideal(I)
    if not is_origin_primary(I):
        raise NotZeroDimensional("input ideal is not m-primary at the origin")
    colen = colength(I)
    o = ideal_order(I)
    mu = _mu(I)
    contracted = mu == o + 1
    integrally_closed = None
    if stair is not None:
        integrally_closed = is_integrally_closed(stair)
    notes: list[str] = []

    base = dict(
        order=o, min_gens=mu, colength=colen, contracted=contracted,
        integrally_closed=integrally_closed, reduction=None, colon_gens=None,
        colon_order=None, colon_min_gens=None, witness=None, refutation=None,
    )

    try:
        reduction = find_reduction(I)
    except NoReductionFound as exc:
        notes.append(f"verdict undecided: {exc}")
        return AGReport(verdict=Verdict.UNKNOWN, notes=tuple(notes), **base)
    base["reduction"] = reduction
    if reduction.reduction_number > 1:
        notes.append(
            f"reduction number {reduction.reduction_number} exceeds 1; "
            "the colon-ideal criteria assume a stable ideal")
        return AGReport(verdict=Verdict.UNKNOWN, notes=tuple(notes), **base)

    Q = Ideal(list(reduction.Q))
    J = canonical_colon(I, Q)  # find_reduction left I^2 = QI on I
    j_min = minimal_generators(J)
    base["colon_gens"] = tuple(j_min)
    base["colon_order"] = ideal_order(J)
    base["colon_min_gens"] = len(j_min)

    if len(j_min) == 1:
        return AGReport(verdict=Verdict.GORENSTEIN, notes=tuple(notes), **base)

    witness = certificate_search(I, Q, J, seed=cfg.seed)
    if witness is not None:
        base["witness"] = witness
        return AGReport(verdict=Verdict.AG_CERTIFIED, notes=tuple(notes), **base)

    refutation = necessary_bound(I, J, seed=cfg.seed)
    base["refutation"] = refutation
    notes.append(
        f"refutation threshold 2*(mu(J)-1) = {refutation.threshold} from the "
        "two-generated bound on the cokernel's maximal-ideal multiple")
    if refutation.min_sum > refutation.threshold:
        return AGReport(verdict=Verdict.NOT_AG, notes=tuple(notes), **base)

    miss = (refutation.mu_IJ + refutation.mu_mJ) / MIN_PRIME
    notes.append(f"no witness at a generic triple (failure <= {miss:.1e}) and the "
                 "generator-count bound is inconclusive")
    return AGReport(verdict=Verdict.UNKNOWN, notes=tuple(notes), **base)


def _is_linked_colon(I: Ideal, Q: Ideal, J: Ideal) -> bool:
    """Is J = Q : I in k[x,y]_(x,y) for a stable reduction Q of I?  Only
    colengths and containments, no colon.

    Q inside I with I^2 = QI makes T = Q + I^2 the origin component of the
    two-generated Q, so R/T is an Artinian complete intersection, and T
    lies in I; by linkage colength(T : I) = colength(T) - colength(I).
    J*I inside T puts J inside T : I, so the two are equal exactly when J
    has that colength.  T is built here by a Buchberger run on Q's and
    I^2's generators on purpose, not read off I^2's basis as
    `canonical_colon` reads it: the validator re-derives the colon by
    independent means.
    """
    try:
        if len(Q.generators) != 2 or not is_stable(I, Q):
            return False
    except NotContained:
        return False
    T = Ideal(list(Q.generators) + list(_power(I, 2).generators))
    if not _contains_all(T, [a * w for a in I.generators for w in J.generators]):
        return False
    try:
        ell_J = colength(J)
    except NotZeroDimensional:
        return False  # J has infinite colength
    return ell_J + colength(I) == colength(T)


def validate_report(I: Ideal, report: AGReport) -> bool:
    """Re-check the verdict's supporting evidence.

    The check runs on a copy of I and on ideals built fresh from the report,
    so it builds every basis it reads: `_mul`'s cache on the analyzed I
    does not reach it.  A reported colon is first re-derived by
    `_is_linked_colon` against the reported reduction.  Then mu(J) = 1 is
    recomputed from the colon by `_mu`; a witness is re-verified by
    `verify_witness`, which builds and reduces the products themselves, a
    route independent of the table `certificate_search` decided on; a
    refutation needs classify's budget, `trials` = `_TRIALS` (any other is
    rejected before a sample is drawn, so a forged budget costs nothing),
    mu(J) >= 2 and min_sum > threshold, and is recomputed from the reported
    colon with a fresh seed: the re-run must equal the record in every
    field but `seeds`, so no recorded number is taken on trust.
    """
    if report.verdict is Verdict.UNKNOWN:
        return True
    if report.colon_gens is None or report.reduction is None:
        return False
    I = Ideal(list(I.generators))
    J = Ideal(list(report.colon_gens))
    if not _is_linked_colon(I, Ideal(list(report.reduction.Q)), J):
        return False
    if report.verdict is Verdict.GORENSTEIN:
        return report.colon_min_gens == 1 and _mu(J) == 1
    if report.verdict is Verdict.AG_CERTIFIED:
        w = report.witness
        return w is not None and verify_witness(I, J, w.f, w.g, w.h)
    r = report.refutation
    if r is None or r.trials != _TRIALS or _mu(J) < 2:
        return False  # classify samples _TRIALS times, and mu(J) = 1 is Gorenstein
    # the linkage check above already showed I^2 = QI: no Q for the refuter
    again = necessary_bound(I, J, seed=derive_seed(*r.seeds, "validate"))
    return r.min_sum > r.threshold and replace(again, seeds=r.seeds) == r

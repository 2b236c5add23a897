"""Classifier for the almost Gorenstein property of Rees algebras.

Everything is decided in the local ring k[x,y]_(x,y) by linear algebra in
quotients by m-primary ideals, and every rank, kernel and span test is one
sparse echelon (`groebner._echelon_reduce`) over normal forms keyed by
monomial, each taken modulo one reduced basis by `GroebnerBasis.reduce`.
The pipeline: find a 2-generated reduction Q of I (a rank in
I^(r+1)/m*I^(r+1); Q may vanish away from the origin), require stability
(I^2 = QI), read everything off the local colon ideal J = Q : I (a kernel
on R/I, `groebner._colon`: I^2 = QI lies in Q locally, so T = Q + I^2 is
the origin component of Q and J/I is the kernel of f -> (f*a mod T) over
the generators a of I),
then either certify with a witness triple (f, g, h) satisfying

    IJ = gJ + Ih    and    mJ = fJ + mh,

or refute by showing that no h in J can keep mu(IJ/Ih) + mu(mJ/mh) within
the generator-count budget 2*(mu(J) - 1).  Both witness conditions are
Zariski-open ranks (Nakayama), so one generic triple decides the first; a
triple that passes is re-checked exactly by one echelon of normal forms
modulo each of freshly built bases of m*IJ and m^2*J.
Ideals with neither a certificate nor a refutation stay UNKNOWN; that
verdict is first-class.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import random
from dataclasses import dataclass

from .errors import NoReductionFound, NotContained, NotStable, NotZeroDimensional
from .fields import PrimeField
from .groebner import (
    Ideal,
    colength,
    ideal_order,
    ideal_product,
    is_origin_primary,
    maximal_ideal,
    minimal_generators,
    _colon,
    _contains_all,
    _echelon_reduce,
)
from .poly import Polynomial
from .staircase import (
    Staircase,
    hull_vertices,
    ideal_of_staircase,
    mono_colength,  # unused here; perfbench/tracing.py binds engine.mono_colength
    newton_closure,
    staircase_colon,
    staircase_normalize,  # unused here; perfbench/tracing.py binds engine.staircase_normalize
    staircase_of_ideal,
    staircase_product,
)

_RAND_RANGE = 1 << 20  # sample space for random coefficients (Schwartz-Zippel)


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
    stable: bool


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
# Products of two monomial ideals are built on their staircases, keeping the
# generator lists of monomial powers minimal.  Everything else, colengths and
# containments included, goes through the Groebner kernel.

def _mul(A: Ideal, B: Ideal) -> Ideal:
    sa, sb = staircase_of_ideal(A), staircase_of_ideal(B)
    if sa is not None and sb is not None:
        return ideal_of_staircase(staircase_product(sa, sb), A.ring, A.field)
    return ideal_product(A, B)


# -- linear algebra modulo m-primary ideals ------------------------------------

# Elements of R/top are normal forms modulo top's reduced basis
# (`GroebnerBasis.reduce`), term dicts keyed by monomial, and so are rows for
# `_rank` with one column per monomial.  For a monomial top a product keeps
# its single term exactly when it lies outside top.

def _rank(rows: list[dict], fld) -> int:
    """dim_k of the span of sparse rows {column: value}, with mutually
    comparable columns: one echelon keyed by the largest column, built from
    copies of the rows without their zero entries (a `_combine` can cancel
    one)."""
    echelon: dict = {}
    zero = fld.zero
    for row in rows:
        r = {col: v for col, v in row.items() if v != zero}
        lead = _echelon_reduce(r, echelon, None, fld)
        if lead is not None:
            echelon[lead] = r
    return len(echelon)


# -- reductions ---------------------------------------------------------------

_REDUCTION_PAIRS = 32  # seeded menu draws tried for an ideal without a staircase
_REDUCTION_CAP = 4     # largest reduction number searched for on those draws


class _Powers:
    """Level r of I, built once and shared by every candidate pair: gens(I^r),
    m*I^(r+1) with its reduced basis, and mu(I^(r+1)) = colength(m*I^(r+1))
    - colength(I^(r+1)).  Later stages share the powers I^k, level 0's m*I
    and its mu(I)."""

    def __init__(self, I: Ideal):
        self._I = I
        self._m = maximal_ideal(I.ring, I.field)
        self._powers = [I]  # I^(k+1) at index k
        self._levels: list = []

    def power(self, k: int) -> Ideal:
        """I^k for k >= 1, each built once."""
        while len(self._powers) < k:
            self._powers.append(_mul(self._I, self._powers[-1]))
        return self._powers[k - 1]

    def level(self, r: int) -> tuple:
        while len(self._levels) <= r:
            n = len(self._levels)
            gens = (list(self.power(n).generators) if n
                    else [Polynomial.one(self._I.ring, self._I.field)])
            power = self.power(n + 1)
            top = _mul(self._m, power)
            self._levels.append((gens, top, top.groebner_basis(),
                                 colength(top) - colength(power)))
        return self._levels[r]


def _reduction_number(I: Ideal, Q: Ideal, cap: int | None,
                      powers: _Powers | None = None) -> int | None:
    """Minimal r <= cap (any r when cap is None) with I^{r+1} = Q I^r in
    k[x,y]_(x,y); Q <= I is assumed, and Q must be a reduction when cap is None.

    Both sides lie between m*I^{r+1} and I^{r+1}, so by Nakayama they agree
    locally iff the classes of q * p (q in Q, p in gens(I^r)) span
    I^{r+1}/m*I^{r+1}, i.e. have rank mu(I^{r+1}).  That quotient is
    supported at the origin, so Q may vanish elsewhere.
    """
    powers = powers or _Powers(I)
    for r in itertools.count() if cap is None else range(cap + 1):
        gens, _, top, mu = powers.level(r)
        rows = [top.reduce((q * p).terms) for q in Q.generators for p in gens]
        if _rank(rows, I.field) == mu:
            return r
    return None


def find_reduction(I: Ideal, seed: int = 0, powers: _Powers | None = None) -> ReductionData:
    """Find a two-generated reduction Q of I in k[x,y]_(x,y) and its
    reduction number, decided by `_reduction_number`'s local rank test.

    A monomial ideal gets one pair: Q = (x^a, y^b) when those pure powers
    dominate the Newton polygon, else the even/odd split of the polygon's
    vertices.  On every edge of the polygon each member of the split has a
    single term, so the pair is Newton non-degenerate and hence a reduction.
    Its reduction number is therefore searched with no cap.  Other ideals
    try seeded sparse combinations of their generators.  Every draw is
    tested for r <= 1 before any is tested up to `_REDUCTION_CAP`, so a
    pair with r <= 1 is found before any pair builds I^3 and beyond.
    `powers`, when the caller already holds the levels of I, is shared.
    """
    ring, fld = I.ring, I.field
    stair = staircase_of_ideal(I)
    if stair is not None and stair.is_m_primary:
        a, b = stair.gens[0][0], stair.gens[-1][1]
        if all(i * b + j * a >= a * b for i, j in stair.gens):
            pts = [(a, 0), (0, b)]
        else:
            pts = hull_vertices(stair.gens)
        monos = [Polynomial.monomial(ring, fld, e) for e in pts]
        pairs = [Ideal([sum(monos[2::2], monos[0]), sum(monos[3::2], monos[1])])]
        cap = None
    else:
        rng = random.Random(derive_seed(seed, "reduction"))
        gens = [g for g in I.generators if not g.is_zero]

        def menu() -> int:
            pick = rng.randrange(6)
            return (0, 0, 1, -1, 2, rng.randint(3, 99))[pick]

        def combo() -> Polynomial:
            return sum((g.scale(fld.from_int(menu())) for g in gens), Polynomial.zero(ring, fld))

        def draws():
            for _ in range(_REDUCTION_PAIRS):
                q1, q2 = combo(), combo()
                if not (q1.is_zero or q2.is_zero):
                    yield Ideal([q1, q2])

        pairs = draws()  # lazily: the first draw is usually a stable reduction
        cap = _REDUCTION_CAP

    powers = powers or _Powers(I)
    tried: list[Ideal] = []
    for Q in pairs:
        r = _reduction_number(I, Q, 1, powers)
        if r is not None:
            return ReductionData(Q=Q.generators, reduction_number=r, stable=r <= 1)
        tried.append(Q)
    for Q in tried:
        r = _reduction_number(I, Q, cap, powers)
        if r is not None:
            return ReductionData(Q=Q.generators, reduction_number=r, stable=r <= 1)
    raise NoReductionFound(f"no reduction with r <= {_REDUCTION_CAP} among {len(tried)} pairs")


def is_stable(I: Ideal, Q: Ideal) -> bool:
    """I^2 = QI in k[x,y]_(x,y); raises if Q is not inside I."""
    if not _contains_all(I, Q.generators):
        raise NotContained("Q is not contained in I")
    return _reduction_number(I, Q, 1) is not None


def canonical_colon(I: Ideal, Q: Ideal, stable: bool | None = None,
                    powers: _Powers | None = None) -> Ideal:
    """J = Q : I in k[x,y]_(x,y), as an m-primary ideal; raises NotStable
    unless I^2 = QI, and NotZeroDimensional unless I has finite colength.
    For contracted I the orders satisfy o(I) = o(J) + 1.

    A monomial Q is the pure-power pair (a stable monomial pair is
    m-primary) and takes the staircase colon.  Any other Q may vanish away
    from the origin; then J = T : I for T = Q + I^2, found by
    `groebner._colon(T, I, I)` as a kernel on R/I (I*I lies in T, so the
    walk starts from I and not from T, whose colength e(I) is larger).
    I^2 = QI lies in Q locally, so T is m-primary and is the origin
    component of Q; hence T : I = (Q : I) + I^2 is m-primary with the
    localization of the local colon, and two m-primary ideals with one
    localization are equal.  `stable`, when the caller already knows it,
    skips recomputing I^2 = QI.  I is contracted iff mu(I) = o(I) + 1,
    with mu(I) read off level 0 of `powers`; a caller that already holds
    the levels of I shares them, and with them I^2.
    """
    if not (is_stable(I, Q) if stable is None else stable):
        raise NotStable("the canonical colon needs I^2 = QI")
    colength(I)  # raises unless I has finite colength
    powers = powers or _Powers(I)
    sQ, sI = staircase_of_ideal(Q), staircase_of_ideal(I)
    if sQ is not None and sI is not None:
        J = ideal_of_staircase(staircase_colon(sQ, sI), I.ring, I.field)
    else:
        T = Ideal(list(Q.generators) + list(powers.power(2).groebner_basis()))
        J = _colon(T, I, I)
    if powers.level(0)[-1] == ideal_order(I) + 1:
        o_i, o_j = ideal_order(I), ideal_order(J)
        if o_i != o_j + 1:
            raise RuntimeError(
                f"order drop violated: o(I)={o_i}, o(J)={o_j} for contracted stable input")
    return J


# -- witness quotients ------------------------------------------------------------

def _combine(per_w: list[dict], c: list, fld) -> dict:
    """Normal form of a * h for h = sum c_j w_j, from those of each a * w_j;
    an entry can cancel to zero, which `_rank` drops."""
    row: dict = {}
    for cj, entries in zip(c, per_w):
        for col, v in entries.items():
            row[col] = fld.add(row.get(col, fld.zero), fld.mul(cj, v))
    return row


class _WitnessSpaces:
    """IJ/mIJ and mJ/m^2J for one pair (I, J), the spaces in which both the
    certificate's triple and the refuter's samples are rank-tested.

    By Nakayama, an ideal P inside IJ satisfies P + mIJ = IJ exactly when
    the normal forms of its generators modulo mIJ have rank mu(IJ); likewise
    for mJ.  Every product a * w_j (a in mingens(I) for IJ, a in {x, y} for
    mJ, w_j in mingens(J)) is reduced once, here.  `mJ` and `i_min`, when
    the caller already built m*J or mingens(I), are shared.
    """

    def __init__(self, I: Ideal, J: Ideal, j_min: list[Polynomial],
                 mJ: Ideal | None = None, i_min: list[Polynomial] | None = None):
        m = maximal_ideal(I.ring, I.field)
        self.IJ = _mul(I, J)
        self.mJ = mJ or _mul(m, J)
        mIJ = _mul(m, self.IJ)
        m2J = _mul(m, self.mJ)
        self.i_min = i_min or minimal_generators(I)
        self.j_min = j_min
        self.mu_IJ = colength(mIJ) - colength(self.IJ)
        self.mu_mJ = colength(m2J) - colength(self.mJ)
        ij, mj = mIJ.groebner_basis(), m2J.groebner_basis()
        self.by_I = [[ij.reduce((a * w).terms) for w in j_min] for a in self.i_min]
        self.by_m = [[mj.reduce((v * w).terms) for w in j_min] for v in m.generators]

    def full_ranks(self, a: list, b: list, c: list, fld) -> bool:
        """Do g = sum a_i i_i, f = b_1 x + b_2 y, h = sum c_j w_j pass both ranks?"""
        cols = range(len(self.j_min))
        ij_rows = ([_combine([per_w[j] for per_w in self.by_I], a, fld) for j in cols]
                   + [_combine(per_w, c, fld) for per_w in self.by_I])
        mj_rows = ([_combine([per_w[j] for per_w in self.by_m], b, fld) for j in cols]
                   + [_combine(per_w, c, fld) for per_w in self.by_m])
        return _rank(ij_rows, fld) == self.mu_IJ and _rank(mj_rows, fld) == self.mu_mJ


# -- certificates --------------------------------------------------------------

def _sum_equals(ref: Ideal, ref_stair: Staircase | None, ref_min: list[Polynomial],
                parts: list[Polynomial]) -> bool:
    """Does (parts) + m*ref equal ref?  parts <= ref is assumed, and ref_min
    generates ref.

    ref/m*ref is killed by m, so modulo m*ref the ideal (parts) is the
    k-span of the parts' normal forms: the sum is ref iff the normal form of
    every member of ref_min reduces to zero against one echelon of that
    span.  The basis of m*ref is built here, apart from the rank test's
    spaces; `_mul` makes it a staircase when ref has one, so `ref_stair` is
    not read.
    """
    fld = ref.field
    top = _mul(maximal_ideal(ref.ring, fld), ref).groebner_basis()
    echelon: dict = {}
    for p in parts:
        r = top.reduce(p.terms)
        lead = _echelon_reduce(r, echelon, None, fld)
        if lead is not None:
            echelon[lead] = r
    return all(_echelon_reduce(top.reduce(q.terms), echelon, None, fld) is None
               for q in ref_min)


def _draw_size(fld) -> int:
    """|S| for coefficients drawn from S = {1..size}: distinct nonzero field elements."""
    return min(_RAND_RANGE, fld.p - 1) if isinstance(fld, PrimeField) else _RAND_RANGE


def _span(coeffs: list, gens: list[Polynomial]) -> Polynomial:
    zero = Polynomial.zero(gens[0].ring, gens[0].field)
    return sum((p.scale(c) for c, p in zip(coeffs, gens)), zero)


def verify_witness(I: Ideal, J: Ideal, f: Polynomial, g: Polynomial,
                   h: Polynomial) -> bool:
    """Check both witness equalities in the local ring k[x,y]_(x,y).

    With f in m, g in I and h in J (by normal form), gJ + Ih = IJ holds
    locally iff gJ + Ih + m*IJ = IJ (Nakayama); that quotient is killed by
    m, so local and global agree.  `_sum_equals` tests it by one echelon of
    normal forms modulo a freshly built m*IJ, apart from the rank test.
    Likewise mJ = fJ + mh against m^2*J.
    """
    m = maximal_ideal(I.ring, I.field)
    if not (_contains_all(m, [f]) and _contains_all(I, [g]) and _contains_all(J, [h])):
        return False
    IJ, mJ = _mul(I, J), _mul(m, J)
    sides = ((IJ, [g * w for w in J.generators] + [a * h for a in I.generators]),
             (mJ, [f * w for w in J.generators] + [v * h for v in m.generators]))
    return all(_sum_equals(ref, staircase_of_ideal(ref), list(ref.generators), parts)
               for ref, parts in sides)


def certificate_search(I: Ideal, Q: Ideal, J: Ideal, seed: int = 0,
                       spaces: _WitnessSpaces | None = None,
                       stable: bool | None = None) -> AGWitness | None:
    """One generic witness triple, decided by two ranks; None if it fails.

    g, h and f combine mingens(I), mingens(J) and {x, y} with seeded random
    coefficients from S = {1..|S|}.  A condition holds iff some maximal minor
    of its rank, of degree mu(IJ) or mu(mJ) in the coefficients, is nonzero;
    if a witness exists, Schwartz-Zippel on the product of two such minors
    bounds the miss probability by (mu(IJ) + mu(mJ))/|S|.  A passing triple
    is re-checked by `verify_witness`; `stable` skips the I^2 = QI check.
    """
    if stable is None:
        stable = is_stable(I, Q)
    if not stable:
        raise NotStable("certificate search requires I^2 = QI")
    fld = I.field
    sp = spaces or _WitnessSpaces(I, J, minimal_generators(J))
    rng = random.Random(derive_seed(seed, "certificate"))
    size = _draw_size(fld)

    def draw(n: int) -> list:
        return [fld.from_int(rng.randint(1, size)) for _ in range(n)]

    a, c, b = draw(len(sp.i_min)), draw(len(sp.j_min)), draw(2)
    if not sp.full_ranks(a, b, c, fld):
        return None
    m = maximal_ideal(I.ring, fld)
    f, g, h = _span(b, m.generators), _span(a, sp.i_min), _span(c, sp.j_min)
    if not verify_witness(I, J, f, g, h):
        raise RuntimeError("witness rank test passed but the exact check failed")
    return AGWitness(f=f, g=g, h=h)


# -- refutation ----------------------------------------------------------------

def _sample_vector(rng: random.Random, fld, n: int, space: int) -> list:
    while True:
        draws = [rng.randint(0, space - 1) for _ in range(n)]
        if any(draws):
            return [fld.from_int(d) for d in draws]


def necessary_bound(I: Ideal, J: Ideal, seed: int = 0, Q: Ideal | None = None,
                    trials: int = 16, spaces: _WitnessSpaces | None = None
                    ) -> RefutationData:
    """Minimum over generic h in J of mu(IJ/Ih) + mu(mJ/mh), versus 2(mu(J)-1).

    Both quotient sizes depend only on the class of h in J/mJ and are
    determined by ranks of matrices whose entries are linear in the
    coefficients of h, so sampling h at random computes the generic minimum
    with quantifiable failure probability (reported).  A given Q is checked
    for I^2 = QI; callers that already know it pass none.
    """
    if Q is not None and not is_stable(I, Q):
        raise NotStable("the generator-count refutation needs I^2 = QI")
    fld = I.field
    sp = spaces or _WitnessSpaces(I, J, minimal_generators(J))
    mu_IJ, mu_mJ = sp.mu_IJ, sp.mu_mJ
    mu_J = colength(sp.mJ) - colength(J)
    if mu_J < 2:
        raise ValueError("refutation needs mu(J) >= 2; mu(J) = 1 is the Gorenstein case")
    threshold = 2 * (mu_J - 1)
    run_seed = derive_seed(seed, "refuter")
    rng = random.Random(run_seed)

    space = fld.p if isinstance(fld, PrimeField) else _RAND_RANGE
    # (Ih + mIJ)/mIJ is spanned over k by {a * h : a in mingens(I)}, and
    # likewise (mh + m^2 J)/m^2 J by {x h, y h}
    best_I = best_m = 0
    for _ in range(trials):
        c = _sample_vector(rng, fld, len(sp.j_min), space)
        best_I = max(best_I, _rank([_combine(per_w, c, fld) for per_w in sp.by_I], fld))
        best_m = max(best_m, _rank([_combine(per_w, c, fld) for per_w in sp.by_m], fld))
    min_sum = mu_IJ + mu_mJ - best_I - best_m
    degree = min(mu_IJ, len(sp.by_I)) + min(mu_mJ, 2)
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
    if stair is not None:
        primary = stair.is_m_primary and stair.gens != ((0, 0),)
    else:
        colength(I)  # raises when no pure variable power leads the basis
        primary = is_origin_primary(I)
    if not primary:
        raise NotZeroDimensional("input ideal is not m-primary at the origin")
    colen = colength(I)
    o = ideal_order(I)
    powers = _Powers(I)
    _, mI, _, mu = powers.level(0)
    contracted = mu == o + 1
    integrally_closed = None
    if stair is not None:
        integrally_closed = newton_closure(stair) == stair
    notes: list[str] = []

    base = dict(
        order=o, min_gens=mu, colength=colen, contracted=contracted,
        integrally_closed=integrally_closed, reduction=None, colon_gens=None,
        colon_order=None, colon_min_gens=None, witness=None, refutation=None,
    )

    try:
        reduction = find_reduction(I, seed=cfg.seed, powers=powers)
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
    # r <= 1 already means I^2 = QI: no stage below re-checks it on a new Q*I
    J = canonical_colon(I, Q, stable=True, powers=powers)
    mJ = _mul(maximal_ideal(I.ring, I.field), J)  # one basis for the prune and the spaces
    j_min = minimal_generators(J, mJ)
    base["colon_gens"] = tuple(j_min)
    base["colon_order"] = ideal_order(J)
    base["colon_min_gens"] = len(j_min)

    if len(j_min) == 1:
        return AGReport(verdict=Verdict.GORENSTEIN, notes=tuple(notes), **base)

    spaces = _WitnessSpaces(I, J, j_min, mJ, minimal_generators(I, mI))
    witness = certificate_search(I, Q, J, seed=cfg.seed, spaces=spaces, stable=True)
    if witness is not None:
        base["witness"] = witness
        return AGReport(verdict=Verdict.AG_CERTIFIED, notes=tuple(notes), **base)

    refutation = necessary_bound(I, J, seed=cfg.seed, spaces=spaces)
    base["refutation"] = refutation
    notes.append(
        f"refutation threshold 2*(mu(J)-1) = {refutation.threshold} from the "
        "two-generated bound on the cokernel's maximal-ideal multiple")
    if refutation.min_sum > refutation.threshold:
        return AGReport(verdict=Verdict.NOT_AG, notes=tuple(notes), **base)

    miss = (spaces.mu_IJ + spaces.mu_mJ) / _draw_size(I.field)
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
    has that colength.
    """
    try:
        if len(Q.generators) != 2 or not is_stable(I, Q):
            return False
    except NotContained:
        return False
    T = Ideal(list(Q.generators) + list(_mul(I, I).generators))
    if not _contains_all(T, [a * w for a in I.generators for w in J.generators]):
        return False
    try:
        ell_J = colength(J)
    except NotZeroDimensional:
        return False  # J has infinite colength
    return ell_J + colength(I) == colength(T)


def validate_report(I: Ideal, report: AGReport) -> bool:
    """Re-check the verdict's supporting evidence.

    A reported colon is first re-derived by `_is_linked_colon` against the
    reported reduction.  Then mu(J) = 1 is recomputed from the colon as
    colength(m*J) - colength(J); a witness is re-verified by
    `verify_witness`; a refutation is recomputed from the reported colon
    with a fresh seed.
    """
    if report.verdict is Verdict.UNKNOWN:
        return True
    if report.colon_gens is None or report.reduction is None:
        return False
    J = Ideal(list(report.colon_gens))
    if not _is_linked_colon(I, Ideal(list(report.reduction.Q)), J):
        return False
    if report.verdict is Verdict.GORENSTEIN:
        return (report.colon_min_gens == 1
                and colength(_mul(maximal_ideal(I.ring, I.field), J)) - colength(J) == 1)
    if report.verdict is Verdict.AG_CERTIFIED:
        w = report.witness
        return w is not None and verify_witness(I, J, w.f, w.g, w.h)
    r = report.refutation
    if r is None:
        return False
    # the linkage check above already showed I^2 = QI: no Q for the refuter
    again = necessary_bound(I, J, seed=derive_seed(*r.seeds, "validate"), trials=r.trials)
    return r.min_sum > r.threshold and again.min_sum > again.threshold

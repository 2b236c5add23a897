"""Classifier for the almost Gorenstein property of Rees algebras.

The pipeline: find a 2-generated reduction Q of I, require stability
(I^2 = QI), read everything off the colon ideal J = Q : I, then either
certify with a witness triple (f, g, h) satisfying

    IJ = gJ + Ih    and    mJ = fJ + mh,

or refute by showing that no h in J can keep mu(IJ/Ih) + mu(mJ/mh) within
the generator-count budget 2*(mu(J) - 1).  Ideals with neither a certificate
nor a refutation stay UNKNOWN; that verdict is first-class.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass, replace

from .errors import NoReductionFound, NotContained, NotStable, NotZeroDimensional
from .fields import CONFIRM_PRIME, DEFAULT_SURVEY_PRIME, PrimeField
from .groebner import (
    Ideal,
    colength,
    ideal_colon,
    ideal_equal,
    ideal_order,
    ideal_product,
    is_origin_primary,
    maximal_ideal,
    min_gens,
    minimal_generators,
    normal_form,
    _contains_all,
)
from .poly import Polynomial
from .staircase import (
    Staircase,
    hull_vertices,
    ideal_of_staircase,
    is_contracted,
    mono_colength,
    newton_closure,
    staircase_colon,
    staircase_normalize,
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
    certificate_budget: int = 64
    reduction_pairs: int = 32
    reduction_cap: int = 4
    refuter_trials: int = 16
    # second prime confirming NOT_AG over a prime field; None picks the default
    confirm_prime: int | None = None


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
# Monomial inputs route through staircases; everything else uses the Groebner
# kernel.  The two paths agree (checked by the oracle-equivalence suite).

def _mul(A: Ideal, B: Ideal) -> Ideal:
    sa, sb = staircase_of_ideal(A), staircase_of_ideal(B)
    if sa is not None and sb is not None:
        return ideal_of_staircase(staircase_product(sa, sb), A.ring, A.field)
    return ideal_product(A, B)


def _contained_in(A: Ideal, B: Ideal) -> bool:
    sa, sb = staircase_of_ideal(A), staircase_of_ideal(B)
    if sa is not None and sb is not None:
        return all(sb.contains(e) for e in sa.gens)
    return _contains_all(B, A.generators)


def _colength(I: Ideal) -> int:
    s = staircase_of_ideal(I)
    return mono_colength(s) if s is not None else colength(I)


def _mu(I: Ideal) -> int:
    s = staircase_of_ideal(I)
    return len(s.gens) if s is not None else min_gens(I)


# -- reductions ---------------------------------------------------------------

def _reduction_number(I: Ideal, Q: Ideal, cap: int) -> int | None:
    """Minimal r <= cap with I^{r+1} = Q I^r; Q <= I is assumed."""
    if _contained_in(I, Q):
        return 0
    power = I
    for r in range(1, cap + 1):
        lhs = _mul(I, power)
        rhs = _mul(Q, power)
        if _contained_in(lhs, rhs):  # the reverse inclusion holds since Q <= I
            return r
        power = lhs
    return None


def find_reduction(I: Ideal, seed: int = 0, pairs: int = 32, cap: int = 4) -> ReductionData:
    """Find a parameter reduction Q of I together with its reduction number.

    Monomial ideals whose pure powers x^a, y^b dominate the Newton polygon
    get Q = (x^a, y^b).  Otherwise pairs of linear combinations of the
    generators are tried: first the even/odd splits of the Newton-polygon
    vertices (their supports cover the polygon, so they are always local
    reductions), then seeded random sparse combinations.  A pair is only
    accepted when it is m-primary as a global ideal; combinations that pick
    up zeros away from the origin would silently corrupt every later colon,
    so they are rejected rather than trusted.
    """
    ring, fld = I.ring, I.field
    stair = staircase_of_ideal(I)
    candidates: list[tuple[Polynomial, Polynomial]] = []
    if stair is not None and stair.is_m_primary:
        a = stair.gens[0][0]
        b = stair.gens[-1][1]
        if all(i * b + j * a >= a * b for i, j in stair.gens):
            Q = Ideal([
                Polynomial.monomial(ring, fld, (a, 0)),
                Polynomial.monomial(ring, fld, (0, b)),
            ])
            r = _reduction_number(I, Q, cap)
            if r is None:
                raise NoReductionFound(
                    f"pure-power reduction exceeds reduction number {cap}")
            return ReductionData(Q=(Q.generators[0], Q.generators[1]),
                                 reduction_number=r, stable=r <= 1)
        seen_splits = set()
        for pts in (tuple(hull_vertices(stair.gens)), stair.gens):
            if len(pts) < 2 or pts in seen_splits:
                continue
            seen_splits.add(pts)
            even = [Polynomial.monomial(ring, fld, e) for e in pts[0::2]]
            odd = [Polynomial.monomial(ring, fld, e) for e in pts[1::2]]
            q1 = sum(even[1:], even[0])
            q2 = sum(odd[1:], odd[0])
            candidates.append((q1, q2))

    rng = random.Random(derive_seed(seed, "reduction"))
    gens = [g for g in I.generators if not g.is_zero]
    zero = Polynomial.zero(ring, fld)

    def menu() -> int:
        pick = rng.randrange(6)
        return (0, 0, 1, -1, 2, rng.randint(3, 99))[pick]

    while len(candidates) < pairs:
        combos = []
        for _ in range(2):
            q = zero
            for g in gens:
                q = q + g.scale(fld.from_int(menu()))
            combos.append(q)
        candidates.append((combos[0], combos[1]))

    skipped = 0
    for q1, q2 in candidates[:pairs]:
        if q1.is_zero or q2.is_zero:
            skipped += 1
            continue
        Q = Ideal([q1, q2])
        if not is_origin_primary(Q):
            continue
        r = _reduction_number(I, Q, cap)
        if r is not None:
            return ReductionData(Q=(q1, q2), reduction_number=r, stable=r <= 1)
    raise NoReductionFound(f"no reduction with r <= {cap} found in {pairs - skipped} attempts; "
                           f"{skipped} of {pairs} draws had a zero member and were skipped")


def is_stable(I: Ideal, Q: Ideal) -> bool:
    """I^2 = QI for the given reduction; raises if Q is not inside I."""
    if not _contained_in(Q, I):
        raise NotContained("Q is not contained in I")
    return _contained_in(_mul(I, I), _mul(Q, I))


def canonical_colon(I: Ideal, Q: Ideal, stable: bool | None = None,
                    contracted: bool | None = None) -> Ideal:
    """J = Q : I; for contracted stable I the orders must satisfy o(I) = o(J)+1.

    `stable` and `contracted`, when the caller already knows them, skip
    recomputing I^2 = QI and mu(I) = o(I) + 1.
    """
    sQ, sI = staircase_of_ideal(Q), staircase_of_ideal(I)
    if sQ is not None and sI is not None:
        J = ideal_of_staircase(staircase_colon(sQ, sI), I.ring, I.field)
    else:
        J = ideal_colon(Q, I)
    if stable is None:
        stable = is_stable(I, Q)
    if stable and (is_contracted(I) if contracted is None else contracted):
        o_i, o_j = ideal_order(I), ideal_order(J)
        if o_i != o_j + 1:
            raise RuntimeError(
                f"order drop violated: o(I)={o_i}, o(J)={o_j} for contracted stable input")
    return J


# -- witness quotients ------------------------------------------------------------

class _Quotient:
    """R/top with one column per standard monomial met so far.

    Normal forms modulo `top` are k-linear, so the coordinates of
    sum_j c_j * p_j are sum_j c_j * coords(p_j).  For a monomial `top` a
    product keeps its single term exactly when it lies outside `top`.
    """

    def __init__(self, top: Ideal):
        self._gb = top.groebner_basis()
        self._columns: dict = {}

    def coords(self, p: Polynomial) -> dict:
        cols = self._columns
        return {cols.setdefault(e, len(cols)): v
                for e, v in normal_form(p, self._gb).terms.items()}

    def rank(self, rows: list[dict], fld) -> int:
        """dim_k of the span of the given coordinate rows."""
        dense = []
        for row in rows:
            d = [fld.zero] * len(self._columns)
            for col, v in row.items():
                d[col] = v
            dense.append(d)
        return _rank(dense, fld)


def _combine(per_w: list[dict], c: list, fld) -> dict:
    """Coordinates of a * h for h = sum c_j w_j, from those of each a * w_j."""
    row: dict = {}
    for cj, entries in zip(c, per_w):
        for col, v in entries.items():
            row[col] = fld.add(row.get(col, fld.zero), fld.mul(cj, v))
    return row


class _WitnessSpaces:
    """IJ/mIJ and mJ/m^2J for one pair (I, J), the spaces in which both the
    certificate's candidates and the refuter's samples are rank-tested.

    By Nakayama, an ideal P inside IJ satisfies P + mIJ = IJ exactly when
    the coordinates of its generators in IJ/mIJ have rank mu(IJ); likewise
    for mJ.  Every product a * w_j (a in mingens(I) for IJ, a in {x, y} for
    mJ, w_j in mingens(J)) is reduced once, here.
    """

    def __init__(self, I: Ideal, J: Ideal, j_min: list[Polynomial]):
        m = maximal_ideal(I.ring, I.field)
        self.IJ = _mul(I, J)
        self.mJ = _mul(m, J)
        mIJ = _mul(m, self.IJ)
        m2J = _mul(m, self.mJ)
        self.j_min = j_min
        self.mu_IJ = _colength(mIJ) - _colength(self.IJ)
        self.mu_mJ = _colength(m2J) - _colength(self.mJ)
        self.ij = _Quotient(mIJ)
        self.mj = _Quotient(m2J)
        self.by_I = [[self.ij.coords(a * w) for w in j_min] for a in minimal_generators(I)]
        self.by_m = [[self.mj.coords(v * w) for w in j_min] for v in m.generators]


# -- certificates --------------------------------------------------------------

def _sum_equals(ref: Ideal, ref_stair: Staircase | None, ref_min: list[Polynomial],
                parts: list[Polynomial]) -> bool:
    """Does the ideal generated by `parts` equal `ref`?  parts <= ref is assumed."""
    nonzero = [p for p in parts if not p.is_zero]
    if not nonzero:
        return False
    if ref_stair is not None and all(p.is_monomial for p in nonzero):
        s = staircase_normalize([p.monomial_exponent() for p in nonzero])
        return s == ref_stair
    return _contains_all(Ideal(nonzero), ref_min)


def _menu_coeff(rng: random.Random, fld):
    pick = rng.randrange(5)
    if pick < 4:
        return fld.from_int((1, -1, 2, -2)[pick])
    return fld.from_int(rng.randint(3, _RAND_RANGE))


def _candidate_pools(I: Ideal, Q: Ideal, j_min: list[Polynomial], budget: int,
                     seed: int) -> tuple[list, list, list]:
    """Pools (h, g, f); each h comes with its coefficient vector over j_min."""
    ring, fld = I.ring, I.field
    one, zero = fld.one, fld.zero
    seen: set[Polynomial] = set()
    hs: list[tuple[Polynomial, list]] = []

    def push(c: list):
        h = sum((w.scale(cj) for cj, w in zip(c, j_min)), Polynomial.zero(ring, fld))
        if h.is_zero:
            return
        key = h.monic()
        if key in seen:
            return
        seen.add(key)
        hs.append((h, c))

    n = len(j_min)
    for i in range(n):
        push([one if k == i else zero for k in range(n)])
    for i in range(n):
        for j in range(n):
            if i != j:
                push([one if k == i else fld.neg(one) if k == j else zero
                      for k in range(n)])
    rng = random.Random(derive_seed(seed, "certificate"))
    for _ in range(budget):
        push([_menu_coeff(rng, fld) for _ in j_min])

    gs: list[Polynomial] = []
    gseen: set[Polynomial] = set()
    for g in list(I.generators) + list(Q.generators):
        if not g.is_zero and g not in gseen:
            gseen.add(g)
            gs.append(g)

    x = Polynomial.variable(ring, fld, "x")
    y = Polynomial.variable(ring, fld, "y")
    fs: list[Polynomial] = []
    fseen: set[Polynomial] = set()
    for f in (x, y, x - y, y - x):
        key = f.monic()
        if key not in fseen:
            fseen.add(key)
            fs.append(f)
    return hs, gs, fs


def witness_candidates(I: Ideal, Q: Ideal, J: Ideal, budget: int = 64,
                       seed: int = 0) -> tuple[list, list, list]:
    """Candidate pools (h, g, f) scanned by the certificate search."""
    hs, gs, fs = _candidate_pools(I, Q, minimal_generators(J), budget, seed)
    return [h for h, _ in hs], gs, fs


def verify_witness(I: Ideal, J: Ideal, f: Polynomial, g: Polynomial,
                   h: Polynomial) -> bool:
    """Check both witness equalities with full Groebner comparisons."""
    ring, fld = I.ring, I.field
    m = maximal_ideal(ring, fld)
    IJ = _mul(I, J)
    mJ = _mul(m, J)
    left = Ideal([g * w for w in J.generators] + [gi * h for gi in I.generators])
    right = Ideal([f * w for w in J.generators] + [v * h for v in m.generators])
    return ideal_equal(IJ, left) and ideal_equal(mJ, right)


def certificate_search(I: Ideal, Q: Ideal, J: Ideal, budget: int = 64,
                       seed: int = 0, spaces: _WitnessSpaces | None = None,
                       stable: bool | None = None) -> AGWitness | None:
    """Scan the candidate pools for a verified witness triple; None if exhausted.

    Each (g, h) and (f, h) first costs one rank in IJ/mIJ or mJ/m^2J: a
    candidate whose ideal misses IJ (or mJ) modulo the maximal ideal cannot
    equal it, so only candidates that pass reach the exact comparison.  A
    returned witness is always re-verified with full Groebner equality, so
    false positives are impossible; exhaustion proves nothing.  `stable`
    skips the I^2 = QI check when the caller already knows it.
    """
    if stable is None:
        stable = is_stable(I, Q)
    if not stable:
        raise NotStable("certificate search requires I^2 = QI")
    fld = I.field
    sp = spaces or _WitnessSpaces(I, J, minimal_generators(J))
    m = maximal_ideal(I.ring, fld)
    IJ_stair, mJ_stair = staircase_of_ideal(sp.IJ), staircase_of_ideal(sp.mJ)
    IJ_gens, mJ_gens = list(sp.IJ.generators), list(sp.mJ.generators)
    i_gens = [g for g in I.generators if not g.is_zero]
    j_gens = [w for w in J.generators if not w.is_zero]
    hs, gs, fs = _candidate_pools(I, Q, sp.j_min, budget, seed)
    g_rows = [[sp.ij.coords(g * w) for w in sp.j_min] for g in gs]
    f_rows = [[sp.mj.coords(f * w) for w in sp.j_min] for f in fs]
    for h, c in hs:
        h_rows = [_combine(per_w, c, fld) for per_w in sp.by_I]
        i_part = [gi * h for gi in i_gens]
        for g, rows in zip(gs, g_rows):
            if sp.ij.rank(rows + h_rows, fld) < sp.mu_IJ:
                continue
            parts = [g * w for w in j_gens] + i_part
            if not _sum_equals(sp.IJ, IJ_stair, IJ_gens, parts):
                continue
            mh_rows = [_combine(per_w, c, fld) for per_w in sp.by_m]
            for f, rows_f in zip(fs, f_rows):
                if sp.mj.rank(rows_f + mh_rows, fld) < sp.mu_mJ:
                    continue
                mparts = [f * w for w in j_gens] + [v * h for v in m.generators]
                if _sum_equals(sp.mJ, mJ_stair, mJ_gens, mparts):
                    if verify_witness(I, J, f, g, h):
                        return AGWitness(f=f, g=g, h=h)
            break  # the IJ equality held; other g values cannot improve the mJ side
    return None


# -- refutation ----------------------------------------------------------------

def _rank(rows: list[list], fld) -> int:
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
    mu_J = _colength(sp.mJ) - _colength(J)
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
        best_I = max(best_I, sp.ij.rank([_combine(per_w, c, fld) for per_w in sp.by_I], fld))
        best_m = max(best_m, sp.mj.rank([_combine(per_w, c, fld) for per_w in sp.by_m], fld))
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

def _lift_ideal(I: Ideal, new_field) -> Ideal:
    """Re-read an ideal over another field via symmetric integer representatives."""
    old = I.field
    gens = []
    for g in I.generators:
        terms = {}
        for e, c in g.terms.items():
            if isinstance(old, PrimeField):
                rep = c - old.p if c > old.p // 2 else c
                terms[e] = new_field.from_int(rep)
            else:
                terms[e] = new_field.fraction(c.numerator, c.denominator)
        gens.append(Polynomial(I.ring, new_field, terms))
    return Ideal(gens)


def classify(I: Ideal, config: ClassifyConfig | None = None) -> AGReport:
    """Full verdict pipeline; deterministic for a fixed (input, seed, field)."""
    cfg = config or ClassifyConfig()
    stair = staircase_of_ideal(I)
    if stair is not None:
        primary = stair.is_m_primary and stair.gens != ((0, 0),)
    else:
        _colength(I)  # raises when no pure variable power leads the basis
        primary = is_origin_primary(I)
    if not primary:
        raise NotZeroDimensional("input ideal is not m-primary at the origin")
    colen = _colength(I)
    o = ideal_order(I)
    mu = _mu(I)
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
        reduction = find_reduction(I, seed=cfg.seed, pairs=cfg.reduction_pairs,
                                   cap=cfg.reduction_cap)
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
    J = canonical_colon(I, Q, stable=True, contracted=contracted)
    j_min = minimal_generators(J)
    base["colon_gens"] = tuple(j_min)
    base["colon_order"] = ideal_order(J)
    base["colon_min_gens"] = len(j_min)

    if len(j_min) == 1:
        return AGReport(verdict=Verdict.GORENSTEIN, notes=tuple(notes), **base)

    spaces = _WitnessSpaces(I, J, j_min)
    witness = certificate_search(I, Q, J, budget=cfg.certificate_budget,
                                 seed=cfg.seed, spaces=spaces, stable=True)
    if witness is not None:
        base["witness"] = witness
        return AGReport(verdict=Verdict.AG_CERTIFIED, notes=tuple(notes), **base)

    refutation = necessary_bound(I, J, seed=cfg.seed, trials=cfg.refuter_trials,
                                 spaces=spaces)
    base["refutation"] = refutation
    notes.append(
        f"refutation threshold 2*(mu(J)-1) = {refutation.threshold} from the "
        "two-generated bound on the cokernel's maximal-ideal multiple")
    if refutation.min_sum > refutation.threshold:
        confirm = cfg.confirm_prime
        if confirm is None and isinstance(I.field, PrimeField):
            confirm = CONFIRM_PRIME if I.field.p != CONFIRM_PRIME else DEFAULT_SURVEY_PRIME
        if isinstance(I.field, PrimeField) and confirm:
            field2 = PrimeField(confirm)
            I2 = _lift_ideal(I, field2)
            J2 = _lift_ideal(J, field2)
            second = necessary_bound(I2, J2, seed=cfg.seed, trials=cfg.refuter_trials)
            if second.min_sum > second.threshold:
                base["refutation"] = replace(
                    refutation, primes=refutation.primes + second.primes)
                return AGReport(verdict=Verdict.NOT_AG, notes=tuple(notes), **base)
            notes.append("second-prime confirmation disagreed; verdict withheld")
            return AGReport(verdict=Verdict.UNKNOWN, notes=tuple(notes), **base)
        return AGReport(verdict=Verdict.NOT_AG, notes=tuple(notes), **base)

    notes.append("certificate search exhausted and the generator-count bound "
                 "is inconclusive")
    return AGReport(verdict=Verdict.UNKNOWN, notes=tuple(notes), **base)


def validate_report(I: Ideal, report: AGReport) -> bool:
    """Re-check the verdict's supporting evidence.

    A witness is re-verified with full Groebner equality; a refutation is
    recomputed from the reported colon and reduction with a fresh seed.
    """
    if report.verdict is Verdict.GORENSTEIN:
        return report.colon_min_gens == 1
    if report.verdict is Verdict.AG_CERTIFIED:
        w = report.witness
        if w is None or report.colon_gens is None:
            return False
        J = Ideal(list(report.colon_gens))
        return verify_witness(I, J, w.f, w.g, w.h)
    if report.verdict is Verdict.NOT_AG:
        r = report.refutation
        if r is None or report.colon_gens is None or report.reduction is None:
            return False
        again = necessary_bound(I, Ideal(list(report.colon_gens)),
                                seed=derive_seed(*r.seeds, "validate"),
                                Q=Ideal(list(report.reduction.Q)), trials=r.trials)
        return r.min_sum > r.threshold and again.min_sum > again.threshold
    return True

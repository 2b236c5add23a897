"""Defining ideal of the Rees algebra R[It], by elimination or off fibers.

For I = (f_1, ..., f_s) the kernel K of x,y,T_i -> x,y,f_i*t is computed as
(T_1 - f_1 t, ..., T_s - f_s t) intersected with the t-free subring, using a
block order that eliminates t.  Each generator is reported with its
(T-degree, coefficient xy-degree) bidegree.

The elimination basis is truncated at T-degree r + 1 when that bound is
proven.  With t and every T_i of weight 1 and x, y of weight 0 the inputs
T_i - f_i t are weight-homogeneous, so a Buchberger run that drops the
S-pairs of weight above D returns exactly the weight <= D part of the full
reduced basis (see `groebner._buchberger`).  If V(I) is the origin and
I^2 = QI for a minimal reduction Q, then G(I) is Cohen-Macaulay (Valla 1979)
and K is generated in T-degree <= r + 1 (Trung 1987), so the minimal
generators are the same as without the bound.  Whether I^2 = QI does
not depend on the minimal reduction Q (Huneke 1987, Ooishi 1987), so r is
that of the one `engine.find_reduction` finds, which after `classify`
returns the outcome it kept on I with no search.  Otherwise (r >= 2, no
reduction found, or zeros of I away from the origin) the basis runs
unbounded.

A monomial I with the bound runs no elimination.  With f_i = c_i*u_i, c_i
a constant and u_i a monomial, K is toric: the binomials within its fibers,
the sets of monomials with one image up to a constant, span it, so its
reduced grevlex basis is m - (c^A/c^B)*min F(m) over the minimal generators
m = x^a*y^b*T^A of in(K), x^a'*y^b'*T^B = min F(m) the least monomial of
m's fiber (Sturmfels, Groebner Bases and Convex Polytopes, 1996, Ch. 4;
Eisenbud-Sturmfels, "Binomial ideals", 1996).  `groebner._fiber_kernel`
reads its part of T-degree <= r + 1 off pairs of T-monomials: the same
list, element for element and in order, as the bounded elimination, so
everything below holds on either path.  Every other input (a generator
with two terms, or no bound) runs the elimination.

A minimal generating set is then read off that basis, by counting where the
count is a proof and by graded Nakayama otherwise.  Write mu_d(K) for
dim (K/MK)_d with M = (x, y, T_1..T_s); any T-homogeneous generating set has
at least mu_d(K) elements of T-degree d.  In degree 1, K_1 is the syzygy
module of I, locally free of rank s - 1 (Hilbert-Burch), so mu_1 = s - 1.
In degree 2, K/MK maps onto P/(T)P for the ideal P of the fiber cone F(I);
when the s generators are minimal, mu(I) = s, P_1 = 0 and
mu_2 >= dim P_2 = C(s+1, 2) - mu(I^2).  So when the bound D = r + 1 is
proven, mu(I) = s and the bounded basis has exactly s - 1 elements of
T-degree 1 and, for D = 2, exactly C(s+1, 2) - mu(I^2) of T-degree 2, it is
already minimal.  mu(I) and mu(I^2) are `engine._mu`'s: corner counts for
a monomial I, else read off the relations kept on I and on I^2 in
`engine._mul`'s cache, which the reduction search behind the bound found.
Everywhere else (no bound, a redundant input generator, or a count above
those numbers) the prune runs, on the relations read off the basis's own
S-pairs with no Buchberger run (`groebner._nakayama_prune`).  So after
`classify` a monomial I with the bound runs no Buchberger, and every other
I only its elimination.  The count and the prune return the basis sorted
by the prune's key, so a certified basis is what the prune would keep.

The presentation is local, like every verdict: the prune is Nakayama at
(x, y, T), so the kept generators generate K after localizing there.  When
I has zeros away from the origin they may generate less than K globally;
`substitution_check` still holds, since every kept generator lies in K.
Buchberger terminates on every input, so the T-degree bound is the only
truncation.

Generator bookkeeping follows the user's generator order; comparing a
presentation against a source that fixes a particular generator order
requires supplying the generators in that same order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from . import engine
from .errors import NoReductionFound
from .groebner import (
    Ideal,
    colength,
    is_origin_primary,
    staircase_of_ideal,
    _buchberger,
    _fiber_kernel,
    _front_free_elements,
    _inputs,
    _nakayama_prune,
)
from .poly import (
    GREVLEX,
    BlockElimination,
    Polynomial,
    presentation_ring,
    rees_ring,
)


@dataclass(frozen=True)
class ReesPresentation:
    defining_gens: tuple[Polynomial, ...]
    bidegrees: tuple[tuple[int, int], ...]  # (T-degree, xy-degree of lowest term)


def _t_degree(p: Polynomial) -> int:
    # arity = 2 + s in the presentation ring; T exponents start at slot 2
    degs = {sum(e[2:]) for e in p.terms}
    if len(degs) != 1:
        raise RuntimeError("kernel elements must be homogeneous in the T-grading")
    return degs.pop()


def _xy_degree(p: Polynomial) -> int:
    return min(e[0] + e[1] for e in p.terms)


def _lift(g: Polynomial, big) -> Polynomial:
    """g in k[x, y] as an element of the Rees ring `big`, whose first two
    slots are x and y."""
    pad = (0,) * (big.arity - 2)
    return Polynomial(big, g.field, {e + pad: c for e, c in g.terms.items()})


def _relation_type_bound(I: Ideal) -> int | None:
    """r + 1 when V(I) is the origin and a reduction of I has reduction
    number r <= 1, else None.  r is decided in the local ring at the origin,
    which speaks for all of V(I) only when V(I) is the origin.  Which
    reduction is found only decides whether the bound is used; it is
    `engine.find_reduction`'s, a function of I, which after `classify`
    returns the reduction it kept on I or raises its NoReductionFound
    again, and so is classify's answer on the origin (`is_origin_primary`);
    with neither on I they are found here."""
    if not is_origin_primary(I):
        return None
    try:
        r = engine.find_reduction(I).reduction_number
    except NoReductionFound:
        return None
    return r + 1 if r <= 1 else None


def _minimal_by_count(t_degrees: list[int], s: int, bound: int, I: Ideal) -> bool:
    """Whether the bounded t-free basis of I, of T-degrees `t_degrees`, is
    minimal by the module docstring's count, with `engine._mu`'s mus."""
    if engine._mu(I) != s:
        return False
    want = Counter({1: s - 1})
    if bound == 2:
        want[2] = comb(s + 1, 2) - engine._mu(engine._power(I, 2))
    return Counter(t_degrees) == want


def _t_free_kernel(gens: list[Polynomial], field, max_weight: int | None) -> list[Polynomial]:
    """The t-free elements of the elimination basis of (T_i - f_i t), in the
    presentation ring, bounded by `max_weight` as in `_buchberger`.  Each
    input is a term dict: T_i, and f_i's terms shifted by t and negated."""
    s = len(gens)
    big = rees_ring(s)  # x, y, t, T_1..T_s
    t = (1,) + (0,) * s
    kernel_gens = [{(0, 0, 0) + tuple(int(k == i) for k in range(s)): field.one,
                    **{e + t: field.neg(c) for e, c in g.terms.items()}}
                   for i, g in enumerate(gens)]

    order = BlockElimination(front=("t",))
    pk = order.packer(big)
    basis = _buchberger(_inputs(kernel_gens, pk.pack, field), pk, field, max_weight=max_weight)
    return _front_free_elements(big, field, order, basis, presentation_ring(s))


def _prune_key(s: int):
    """Scanning order of the prune, and the order of every presentation:
    T-degree, then xy-degree, then the leading monomial in grevlex."""
    pack = GREVLEX.packer(presentation_ring(s)).pack
    return lambda g: (_t_degree(g), _xy_degree(g), max(map(pack, g.terms)))


def rees_defining_ideal(I: Ideal) -> ReesPresentation:
    """Minimal defining generators of R[It] with their bidegrees."""
    colength(I)  # rejects inputs that are not m-primary
    gens = [g for g in I.generators if not g.is_zero]
    bound = _relation_type_bound(I)
    if bound is not None and staircase_of_ideal(I) is not None:
        t_free = _fiber_kernel(gens, presentation_ring(len(gens)), bound)
    else:
        t_free = _t_free_kernel(gens, I.field, bound)

    key = dict(zip(t_free, map(_prune_key(len(gens)), t_free))).__getitem__  # one key per element
    kept = sorted(t_free, key=key)
    if bound is None or not _minimal_by_count([key(g)[0] for g in kept], len(gens), bound, I):
        # graded Nakayama at (x, y, T_1..T_s), on the relations of the basis's S-pairs
        kept = _nakayama_prune(kept, key=key, max_weight=bound)
    bidegrees = tuple(key(g)[:2] for g in kept)  # kept is in key order
    return ReesPresentation(defining_gens=tuple(kept), bidegrees=bidegrees)


def substitution_check(I: Ideal, pres: ReesPresentation) -> bool:
    """Every defining generator must vanish under T_i -> f_i * t."""
    gens = [g for g in I.generators if not g.is_zero]
    s = len(gens)
    field = I.field
    big = rees_ring(s)
    t = Polynomial.variable(big, field, "t")
    images = {
        "x": Polynomial.variable(big, field, "x"),
        "y": Polynomial.variable(big, field, "y"),
    }
    for i, g in enumerate(gens, start=1):
        images[f"T{i}"] = _lift(g, big) * t
    return all(p.substitute(big, images).is_zero for p in pres.defining_gens)

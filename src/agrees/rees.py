"""Defining ideal of the Rees algebra R[It] by elimination.

For I = (f_1, ..., f_s) the kernel K of x,y,T_i -> x,y,f_i*t is computed as
(T_1 - f_1 t, ..., T_s - f_s t) intersected with the t-free subring, using a
block order that eliminates t.  A minimal generating set is then extracted
from that basis by graded Nakayama against (x, y, T_1..T_s) * K: one basis
of that product, then one normal form per candidate (see
`groebner._nakayama_prune`).  Each generator is reported with its
(T-degree, coefficient xy-degree) bidegree.

The presentation is local, like every verdict: the prune is Nakayama at
(x, y, T), so the kept generators generate K after localizing there.  When
I has zeros away from the origin they may generate less than K globally;
`substitution_check` still holds, since every kept generator lies in K.
Buchberger terminates on every input, so the T-degree bound below is the
only truncation.

Both bases are truncated at T-degree r + 1 when that bound is proven.  With
t and every T_i of weight 1 and x, y of weight 0 the inputs T_i - f_i t are
weight-homogeneous, so a Buchberger run that drops the S-pairs of weight
above D returns exactly the weight <= D part of the full reduced basis (see
`groebner._buchberger`).  If V(I) is the origin and I^2 = QI for a minimal
reduction Q, then G(I) is Cohen-Macaulay (Valla 1979) and K is generated in
T-degree <= r + 1 (Trung 1987), so the minimal generators are the same as
without the bound.  Otherwise (r >= 2, no reduction found, or zeros of I
away from the origin) both bases run unbounded.

Generator bookkeeping follows the user's generator order; comparing a
presentation against a source that fixes a particular generator order
requires supplying the generators in that same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .errors import NoReductionFound
from .groebner import (
    Ideal,
    colength,
    is_origin_primary,
    _buchberger,
    _monic_polynomial,
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
    reduction is found only decides whether the bound is used."""
    if not is_origin_primary(I):
        return None
    try:
        r = engine.find_reduction(I).reduction_number
    except NoReductionFound:
        return None
    return r + 1 if r <= 1 else None


def _t_free_kernel(gens: list[Polynomial], field, max_weight: int | None) -> list[Polynomial]:
    """The t-free elements of the elimination basis of (T_i - f_i t), in the
    presentation ring, bounded by `max_weight` as in `_buchberger`."""
    s = len(gens)
    big = rees_ring(s)
    t = Polynomial.variable(big, field, "t")
    kernel_gens = [Polynomial.variable(big, field, f"T{i}") - _lift(g, big) * t
                   for i, g in enumerate(gens, start=1)]

    keyf = BlockElimination(front=("t",)).key(big)
    basis = _buchberger([g.terms for g in kernel_gens], keyf, field,
                        max_weight=max_weight)
    target = presentation_ring(s)
    keep = (0, 1) + tuple(range(3, big.arity))  # drop the t slot
    return [_monic_polynomial(big, field, entry).project(target, keep)
            for entry in basis if all(e[2] == 0 for e in entry[2])]


def rees_defining_ideal(I: Ideal) -> ReesPresentation:
    """Minimal defining generators of R[It] with their bidegrees."""
    colength(I)  # rejects inputs that are not m-primary
    gens = [g for g in I.generators if not g.is_zero]
    bound = _relation_type_bound(I)
    t_free = _t_free_kernel(gens, I.field, bound)

    # minimal generators by graded Nakayama against (x, y, T_1..T_s) * kernel
    keyg = GREVLEX.key(presentation_ring(len(gens)))
    kept = _nakayama_prune(
        t_free, key=lambda g: (_t_degree(g), _xy_degree(g), keyg(g.leading()[0])),
        max_weight=bound)
    bidegrees = tuple(sorted((_t_degree(g), _xy_degree(g)) for g in kept))
    return ReesPresentation(defining_gens=tuple(kept), bidegrees=bidegrees)


def presentation_bidegrees(I: Ideal) -> tuple[tuple[int, int], ...]:
    return rees_defining_ideal(I).bidegrees


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

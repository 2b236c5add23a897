"""Defining ideal of the Rees algebra R[It] by elimination.

For I = (f_1, ..., f_s) the kernel of x,y,T_i -> x,y,f_i*t is computed as
(T_1 - f_1 t, ..., T_s - f_s t) intersected with the t-free subring, using a
block order that eliminates t.  A minimal generating set is then extracted
from that basis by graded Nakayama against (x, y, T_1..T_s) * kernel: one
basis of that product, then one normal form per candidate (see
`groebner._nakayama_prune`).  Each generator is reported with its
(T-degree, coefficient xy-degree) bidegree.

Generator bookkeeping follows the user's generator order; comparing a
presentation against a source that fixes a particular generator order
requires supplying the generators in that same order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal, colength, _buchberger, _nakayama_prune
from .poly import (
    GREVLEX,
    BlockElimination,
    Polynomial,
    presentation_ring,
    rees_ring,
)

MAX_BASIS = 5000
MAX_DEGREE = 40


@dataclass(frozen=True)
class ReesPresentation:
    defining_gens: tuple[Polynomial, ...]
    bidegrees: tuple[tuple[int, int], ...]  # (T-degree, xy-degree of lowest term)


def _t_degree(p: Polynomial) -> int:
    # arity = 2 + s in the presentation ring; T exponents start at slot 2
    degs = {sum(e[2:]) for e in p.terms}
    assert len(degs) == 1, "kernel elements must be homogeneous in the T-grading"
    return degs.pop()


def _xy_degree(p: Polynomial) -> int:
    return min(e[0] + e[1] for e in p.terms)


def rees_defining_ideal(I: Ideal, max_basis: int = MAX_BASIS,
                        max_deg: int = MAX_DEGREE) -> ReesPresentation:
    """Minimal defining generators of R[It] with their bidegrees."""
    colength(I)  # rejects inputs that are not m-primary
    gens = [g for g in I.generators if not g.is_zero]
    s = len(gens)
    field = I.field
    big = rees_ring(s)
    target = presentation_ring(s)

    def lift(g: Polynomial) -> Polynomial:
        return Polynomial(big, field, {e + (0,) * (s + 1): c for e, c in g.terms.items()})

    t = Polynomial.variable(big, field, "t")
    kernel_gens = []
    for i, g in enumerate(gens, start=1):
        Ti = Polynomial.variable(big, field, f"T{i}")
        kernel_gens.append(Ti - lift(g) * t)

    order = BlockElimination(front=("t",))
    keyf = order.key(big)
    basis = _buchberger([dict(g.terms) for g in kernel_gens], keyf, field,
                        max_basis=max_basis, max_deg=max_deg)
    keep = (0, 1) + tuple(range(3, big.arity))  # drop the t slot
    t_free = [
        Polynomial(big, field, d).project(target, keep)
        for d in basis
        if all(e[2] == 0 for e in d)
    ]

    # minimal generators by graded Nakayama against (x, y, T_1..T_s) * kernel
    keyg = GREVLEX.key(target)
    kept = _nakayama_prune(
        t_free, key=lambda g: (_t_degree(g), _xy_degree(g), keyg(g.leading()[0])))
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
        lifted = Polynomial(big, field, {e + (0,) * (s + 1): c for e, c in g.terms.items()})
        images[f"T{i}"] = lifted * t
    return all(p.substitute(big, images).is_zero for p in pres.defining_gens)

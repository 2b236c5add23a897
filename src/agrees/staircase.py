"""Fast exact path for bivariate monomial ideals.

A staircase is the divisibility antichain of minimal monomial generators,
sorted with x-exponents strictly decreasing.  Each `Ideal` reads its
staircase once (`Ideal.staircase`) and keeps it; `groebner` answers a
monomial ideal's colength and normal forms from it.  Integral closure is computed
on the Newton polygon with integer arithmetic only: a lattice point belongs
to the closure exactly when it sits on or above every lower-boundary edge.
The closure's colength is a count over the polygon's edges by Pick's
theorem (`closure_colength`), so I is integrally closed iff it has that
colength, however long the staircase's columns.
The multiplicity e(I) is twice the area under that polygon
(`newton_multiplicity`), so with colengths it decides the reduction number
of the engine's Newton pair Q up to 1: I^2 = QI iff
colength(I^2) = e(I) + 2*colength(I) (see `engine.find_reduction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import EmptyInput, NotZeroDimensional
from .groebner import Ideal

Pair = tuple[int, int]


@dataclass(frozen=True)
class Staircase:
    """Minimal generators (a, b) of a monomial ideal, a strictly decreasing."""

    gens: tuple[Pair, ...]

    @property
    def is_m_primary(self) -> bool:
        return self.gens[0][1] == 0 and self.gens[-1][0] == 0

    def contains(self, point: Pair) -> bool:
        a, b = point
        return any(g[0] <= a and g[1] <= b for g in self.gens)

    def order(self) -> int:
        return min(a + b for a, b in self.gens)

    def __str__(self):
        return "{" + ", ".join(f"x^{a}*y^{b}" for a, b in self.gens) + "}"


def staircase_normalize(pairs: Iterable[Pair]) -> Staircase:
    """Drop non-minimal generators and sort canonically."""
    pts = sorted(set((int(a), int(b)) for a, b in pairs))
    if not pts:
        raise EmptyInput("staircase needs at least one exponent pair")
    # sweep with a ascending: a point is redundant iff an earlier kept one
    # has b no larger (its a is already no larger)
    kept: list[Pair] = []
    best_b = None
    for p in pts:
        if best_b is None or p[1] < best_b:
            kept.append(p)
            best_b = p[1]
    kept.reverse()
    return Staircase(tuple(kept))


def _require_primary(s: Staircase):
    if not s.is_m_primary:
        raise NotZeroDimensional(f"staircase {s} lacks a pure power of x or y")


def mono_colength(s: Staircase) -> int:
    """Lattice points under the staircase, summed over consecutive corners:
    the columns a_{i+1} <= a < a_i stand b_{i+1} points high."""
    _require_primary(s)
    g = s.gens
    return sum((a - a_next) * b_next for (a, _), (a_next, b_next) in zip(g, g[1:]))


def standard_monomials(s: Staircase) -> list[Pair]:
    """Lattice points under the staircase, by total degree."""
    _require_primary(s)
    pts = [(a, b) for a in range(s.gens[0][0])
           for b in range(min(gb for ga, gb in s.gens if ga <= a))]
    return sorted(pts, key=sum)


def staircase_product(s: Staircase, t: Staircase) -> Staircase:
    return staircase_normalize(
        (a1 + a2, b1 + b2) for a1, b1 in s.gens for a2, b2 in t.gens
    )


def staircase_power(s: Staircase, k: int) -> Staircase:
    if k == 0:
        return Staircase(((0, 0),))
    out = s
    for _ in range(k - 1):
        out = staircase_product(out, s)
    return out


def staircase_intersection(s: Staircase, t: Staircase) -> Staircase:
    return staircase_normalize(
        (max(a1, a2), max(b1, b2)) for a1, b1 in s.gens for a2, b2 in t.gens
    )


def staircase_colon(s: Staircase, t: Staircase) -> Staircase:
    """s : t as the meet over t's generators of the shifted staircases."""
    result = None
    for a, b in t.gens:
        shifted = staircase_normalize(
            (max(ga - a, 0), max(gb - b, 0)) for ga, gb in s.gens
        )
        result = shifted if result is None else staircase_intersection(result, shifted)
    return result


def hull_vertices(points: Sequence[Pair]) -> list[Pair]:
    """Lower-left hull of the generator points, x increasing."""
    pts = sorted(points)
    hull: list[Pair] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            # non-left turns and collinear middles are not hull vertices
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_multiplicity(s: Staircase) -> int:
    """e(I) of an m-primary monomial ideal: twice the area under its Newton
    polygon (Kouchnirenko), the shoelace sum over the hull's vertices closed
    through the origin, whose own terms vanish."""
    _require_primary(s)
    hull = hull_vertices(s.gens)
    return sum(x2 * y1 - x1 * y2 for (x1, y1), (x2, y2) in zip(hull, hull[1:]))


def closure_colength(s: Staircase) -> int:
    """colength of the integral closure, by Pick's theorem in O(|hull|): its
    standard monomials are the lattice points under the Newton polygon, the
    axes counted and the polygon not, so with a = s's x-power, b its
    y-power and the sum over the polygon's edges there are
    (e(I) + a + b - sum gcd(dx, dy)) / 2 of them."""
    hull = hull_vertices(s.gens)
    on_edges = sum(gcd(x2 - x1, y1 - y2) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return (newton_multiplicity(s) + s.gens[0][0] + s.gens[-1][1] - on_edges) // 2


def newton_closure(s: Staircase) -> Staircase:
    """Integral closure: lattice points on or above the Newton polygon boundary."""
    _require_primary(s)
    hull = hull_vertices(s.gens)
    edges = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        # half-plane (y2-y1)(a-x1) + (x1-x2)(b-y1) <= 0 flipped to alpha*a+beta*b >= c
        alpha = y1 - y2
        beta = x2 - x1
        c = alpha * x1 + beta * y1
        edges.append((alpha, beta, c))
    a_max = s.gens[0][0]
    gens = []
    for a in range(a_max + 1):
        b = 0
        for alpha, beta, c in edges:
            need = c - alpha * a
            if need > 0:
                b = max(b, -(-need // beta))  # ceil division
        gens.append((a, b))
    return staircase_normalize(gens)


def staircase_of_ideal(I: Ideal) -> Staircase | None:
    """Staircase view of an ideal of k[x,y] whose generators are all single
    terms; None for any other ideal.  Cached on the ideal (`Ideal.staircase`)."""
    return I.staircase()


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


def ideal_of_staircase(s: Staircase, ring, field) -> Ideal:
    """The ideal of s's corners, with s already in its staircase cache."""
    return Ideal.of_staircase(s, ring, field)


def is_contracted(s: Staircase) -> bool:
    """mu(I) = o(I) + 1, the generator-count characterization, for the
    m-primary monomial ideal of s.  A polynomial ideal's answer is
    `classify(I).contracted`."""
    _require_primary(s)
    return len(s.gens) == s.order() + 1


def render_staircase(s: Staircase) -> str:
    """ASCII art: rows are y-exponents descending, '#' inside the ideal."""
    a_max = max(a for a, _ in s.gens)
    b_max = max(b for _, b in s.gens)
    rows = []
    for b in range(b_max, -1, -1):
        rows.append("".join("#" if s.contains((a, b)) else "." for a in range(a_max + 1)))
    return "\n".join(rows)

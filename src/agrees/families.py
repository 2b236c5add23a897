"""Named parameter families of monomial ideals used by the survey tooling."""

from __future__ import annotations

from numbers import Rational
from typing import Mapping, Sequence

from .errors import BadParameters
from .fields import QQ
from .groebner import Ideal
from .poly import BASE_RING, Polynomial
from .staircase import staircase_normalize, staircase_product

# family name -> ordered parameter names
FAMILY_PARAMS: dict[str, tuple[str, ...]] = {
    "contracted-o3": ("n", "alpha", "beta"),
    "power-order": ("m", "n"),
    "three-gen": ("n", "alpha"),
    "remark43": ("m",),
    "products": ("m1", "n1", "m2", "n2"),
}


def family_exponents(name: str, params: Mapping[str, int]) -> list[tuple[int, int]]:
    """Generator exponents for the named family; raises on constraint violations."""
    if name == "contracted-o3":
        n, alpha, beta = params["n"], params["alpha"], params["beta"]
        if not 0 < alpha < beta < n:
            raise BadParameters(
                f"contracted-o3 needs 0 < alpha < beta < n, got (n,alpha,beta)=({n},{alpha},{beta})")
        return [(3, 0), (2, alpha), (1, beta), (0, n)]
    if name == "power-order":
        m, n = params["m"], params["n"]
        if not 2 <= m <= n:
            raise BadParameters(f"power-order needs 2 <= m <= n, got (m,n)=({m},{n})")
        # (x^m) + y^(n-m+1) * m^(m-1)
        return [(m, 0)] + [(m - 1 - j, n - m + 1 + j) for j in range(m)]
    if name == "three-gen":
        n, alpha = params["n"], params["alpha"]
        if not 0 < alpha < n:
            raise BadParameters(f"three-gen needs 0 < alpha < n, got (n,alpha)=({n},{alpha})")
        if 2 * alpha < n:
            raise BadParameters(f"three-gen needs 2*alpha >= n, got (n,alpha)=({n},{alpha})")
        return [(3, 0), (2, alpha), (0, n)]
    if name == "remark43":
        m = params["m"]
        if m < 4:
            raise BadParameters(f"remark43 needs m >= 4, got m={m}")
        return [(m, 0), (0, 2 * m)] + [(m - i, 2 * i + 1) for i in range(1, m)]
    if name == "products":
        # the staircase product of two power-order members, each checked by its own rule
        s1, s2 = (staircase_normalize(family_exponents("power-order", {"m": m, "n": n}))
                  for m, n in ((params["m1"], params["n1"]), (params["m2"], params["n2"])))
        return list(staircase_product(s1, s2).gens)
    raise BadParameters(f"unknown family {name!r}; choose from {sorted(FAMILY_PARAMS)}")


def make_family(name: str, params: Mapping[str, int], field=QQ) -> Ideal:
    """Build the named family member as an ideal over the given field."""
    return Ideal([Polynomial.monomial(BASE_RING, field, e)
                  for e in family_exponents(name, params)])


def coordinate_twin(exps: Sequence[tuple[int, int]], c: Rational, field=QQ) -> Ideal:
    """The ideal of (x + c*y)^a * y^b for (a, b) in exps: the image of the
    monomial ideal under the linear change x -> x + c*y, for a rational c
    (an int or a Fraction) taken into the field."""
    x, y = (Polynomial.variable(BASE_RING, field, v) for v in ("x", "y"))
    shifted = x + y.scale(field.fraction(c.numerator, c.denominator))
    return Ideal([shifted ** a * y ** b for a, b in exps])

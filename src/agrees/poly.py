"""Rings, monomial orders, and exact sparse polynomials.

Monomials are plain exponent tuples; the ambient ring (an ordered tuple of
variable names) travels with each Polynomial.  All values are immutable, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, mul, sub
from typing import Callable, Iterable, Mapping

from .errors import DegreeOverflow, NotContained, RingMismatch

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class Ring:
    """An ordered tuple of variable names; position = exponent slot."""

    vars: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.vars)

    def index(self, name: str) -> int:
        return self.vars.index(name)

    def __str__(self):
        return "k[" + ",".join(self.vars) + "]"


BASE_RING = Ring(("x", "y"))


def rees_ring(s: int) -> Ring:
    """Extended ring k[x, y, t, T1..Ts] hosting the Rees algebra presentation."""
    return Ring(("x", "y", "t") + tuple(f"T{i}" for i in range(1, s + 1)))


def presentation_ring(s: int) -> Ring:
    """Target ring k[x, y, T1..Ts] of the defining ideal after eliminating t."""
    return Ring(("x", "y") + tuple(f"T{i}" for i in range(1, s + 1)))


# -- monomial helpers --------------------------------------------------------
# Exponents are plain tuples; divisibility, lcm and order keys run on
# map/operator, with no cache, so no primitive runs a Python frame per
# coordinate.

def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def mono_div(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def mono_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def mono_deg(a: Exponent) -> int:
    return sum(a)


# -- monomial orders ---------------------------------------------------------

_ORDER_KEYS: dict = {}  # (order, ring) -> the order's key function on ring


class MonomialOrder:
    """Total multiplicative order on exponent tuples of a fixed ring."""

    def key(self, ring: Ring) -> Callable[[Exponent], object]:
        """The order's sort key on ring's exponents: one function per equal
        (order, ring), built once, so a caller may ask for it per call."""
        k = _ORDER_KEYS.get((self, ring))
        if k is None:
            k = _ORDER_KEYS[(self, ring)] = self._build_key(ring)
        return k

    def _build_key(self, ring: Ring) -> Callable[[Exponent], object]:
        raise NotImplementedError


# Grevlex and block keys are ints, one weighted sum of the exponents per
# monomial, sum(map(mul, e, W)), with one digit in base B = ORDER_BASE per
# variable.  Grevlex orders as the tuples (deg(e), -e[n-1], ..., -e[0]) while
# the total degree is below B, so that no digit carries; at or above it a key
# raises DegreeOverflow rather than misorder.
_DIGIT_BITS = 32
ORDER_BASE = 1 << _DIGIT_BITS


def _grevlex_weights(n: int) -> list[int]:
    """W with sum(e[i] * W[i]) = deg(e) * B^n - sum(e[i] * B^i): the degree
    on top, then -e[i] with the last variable most significant.  The value
    lies in ((deg - 1) * B^n, deg * B^n] and is >= 0 while every e[i] < B."""
    top = 1 << _DIGIT_BITS * n
    return [top - (1 << _DIGIT_BITS * i) for i in range(n)]


def _degree_overflow(e: Exponent) -> DegreeOverflow:
    return DegreeOverflow(
        f"monomial {e} has total degree {sum(e)}, at or above 2^32: "
        "beyond the integer order keys")


@dataclass(frozen=True)
class _Grevlex(MonomialOrder):
    def _build_key(self, ring):
        n = ring.arity
        weights = _grevlex_weights(n)
        # the key reaches (B - 1) * B^n exactly when deg(e) >= B: below, it
        # is at most (B - 1) * (B^n - 1); from there, at least B * (B^n - B^(n-1))
        limit = (ORDER_BASE - 1) << _DIGIT_BITS * n

        def k(e):
            v = sum(map(mul, e, weights))
            if v >= limit:
                raise _degree_overflow(e)
            return v

        return k

    def __repr__(self):
        return "grevlex"


@dataclass(frozen=True)
class _Lex(MonomialOrder):
    def _build_key(self, ring):
        return lambda e: e

    def __repr__(self):
        return "lex"


@dataclass(frozen=True)
class BlockElimination(MonomialOrder):
    """Front block compared by grevlex, then the rest by grevlex.

    Any monomial involving a front variable sorts above every monomial free
    of them, which is what elimination needs.  The key is the front block's
    grevlex weight times B^(nb+1) plus the rest's grevlex weight, nb the
    rest's arity: the rest's weight lies in [0, B^(nb+1)) while its degree is
    below B, so the two compare as a pair.
    """

    front: tuple[str, ...]

    def _build_key(self, ring):
        fidx = [ring.index(v) for v in self.front]
        bidx = [i for i in range(ring.arity) if i not in fidx]
        shift = _DIGIT_BITS * (len(bidx) + 1)
        weights = [0] * ring.arity
        for i, w in zip(fidx, _grevlex_weights(len(fidx))):
            weights[i] = w << shift
        for i, w in zip(bidx, _grevlex_weights(len(bidx))):
            weights[i] = w

        def k(e):
            if sum(e) >= ORDER_BASE:
                raise _degree_overflow(e)
            return sum(map(mul, e, weights))

        return k

    def __repr__(self):
        return f"block({','.join(self.front)} >> {GREVLEX!r})"


GREVLEX = _Grevlex()
LEX = _Lex()


def compare_monomials(a: Exponent, b: Exponent, ring: Ring, order: MonomialOrder) -> int:
    """Return -1, 0, or 1 as a <, =, > b under the order."""
    if len(a) != ring.arity or len(b) != ring.arity:
        raise RingMismatch(f"exponent arity does not match {ring}")
    if a == b:
        return 0
    k = order.key(ring)
    return 1 if k(a) > k(b) else -1


# -- polynomials -------------------------------------------------------------

class Polynomial:
    """Immutable sparse polynomial with exact coefficients.

    Terms are held as an exponent -> coefficient mapping with no zero
    coefficients; printing and iteration use descending grevlex so that equal
    polynomials always render identically.
    """

    __slots__ = ("ring", "field", "terms", "_hash")

    def __init__(self, ring: Ring, field, terms: Mapping[Exponent, object]):
        self.ring = ring
        self.field = field
        clean = {e: c for e, c in terms.items() if c != field.zero}
        self.terms = clean
        self._hash = None

    # construction helpers

    @staticmethod
    def zero(ring: Ring, field) -> "Polynomial":
        return Polynomial(ring, field, {})

    @staticmethod
    def constant(ring: Ring, field, value) -> "Polynomial":
        return Polynomial(ring, field, {(0,) * ring.arity: value})

    @staticmethod
    def one(ring: Ring, field) -> "Polynomial":
        return Polynomial.constant(ring, field, field.one)

    @staticmethod
    def variable(ring: Ring, field, name: str) -> "Polynomial":
        e = [0] * ring.arity
        e[ring.index(name)] = 1
        return Polynomial(ring, field, {tuple(e): field.one})

    @staticmethod
    def monomial(ring: Ring, field, exponent: Iterable[int], coeff=None) -> "Polynomial":
        c = field.one if coeff is None else coeff
        return Polynomial(ring, field, {tuple(exponent): c})

    # predicates and views

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_exponent(self) -> Exponent:
        """Exponent of a single-term polynomial."""
        (e,) = self.terms
        return e

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list[tuple[Exponent, object]]:
        key = order.key(self.ring)
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple[Exponent, object]:
        key = order.key(self.ring)
        e = max(self.terms, key=key)
        return e, self.terms[e]

    def min_degree(self) -> int:
        """Smallest total degree among the terms (m-adic order of the element)."""
        return min(mono_deg(e) for e in self.terms)

    def total_degree(self) -> int:
        return max(mono_deg(e) for e in self.terms)

    # arithmetic

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring or self.field != other.field:
            raise RingMismatch(f"cannot combine {self.ring}/{self.field} with {other.ring}/{other.field}")

    def __add__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.add(out.get(e, f.zero), c)
        return Polynomial(self.ring, f, out)

    def __sub__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = f.sub(out.get(e, f.zero), c)
        return Polynomial(self.ring, f, out)

    def __neg__(self):
        f = self.field
        return Polynomial(self.ring, f, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        f = self.field
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, f, f.from_int(other))
        self._check(other)
        out: dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                prod = f.mul(c1, c2)
                if e in out:
                    out[e] = f.add(out[e], prod)
                else:
                    out[e] = prod
        return Polynomial(self.ring, f, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one(self.ring, self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, coeff) -> "Polynomial":
        f = self.field
        return Polynomial(self.ring, f, {e: f.mul(c, coeff) for e, c in self.terms.items()})

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if self.is_zero:
            return self
        _, lc = self.leading(order)
        return self.scale(self.field.inv(lc))

    def substitute(self, target_ring: Ring, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Evaluate under var -> image; images live in the target ring."""
        f = self.field
        out = Polynomial.zero(target_ring, f)
        for e, c in self.sorted_terms():
            term = Polynomial.constant(target_ring, f, c)
            for i, exp in enumerate(e):
                if exp:
                    term = term * (images[self.ring.vars[i]] ** exp)
            out = out + term
        return out

    def project(self, target_ring: Ring, positions: tuple[int, ...]) -> "Polynomial":
        """Keep only the exponent slots in `positions`; the rest must be zero."""
        out = {}
        for e, c in self.terms.items():
            if any(e[i] for i in range(len(e)) if i not in positions):
                raise NotContained(f"{self} has a term outside {target_ring}")
            out[tuple(e[i] for i in positions)] = c
        return Polynomial(target_ring, self.field, out)

    # equality, hashing, printing

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.field, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        if self.is_zero:
            return "0"
        f = self.field
        pieces = []
        for i, (e, c) in enumerate(self.sorted_terms()):
            neg = f.is_negative(c)
            mag = f.abs(c)
            body = self._term_str(e, mag)
            if i == 0:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def _term_str(self, e: Exponent, mag) -> str:
        factors = []
        for name, exp in zip(self.ring.vars, e):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        if not factors:
            return self.field.coeff_str(mag)
        mono = "*".join(factors)
        if mag == self.field.one:
            return mono
        return f"{self.field.coeff_str(mag)}*{mono}"

    def __repr__(self):
        return f"Polynomial({self})"

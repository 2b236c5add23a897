"""Rings, monomial orders, and exact sparse polynomials.

Monomials are plain exponent tuples; the ambient ring (an ordered tuple of
variable names) travels with each Polynomial.  All values are immutable, so
everything here is safe to share across threads.

Grevlex orders every ideal, basis and polynomial; a block order
(`BlockElimination`) only the two elimination runs.  An order has one
encoding, the packed word of its `Packer`: the order's key above one 34-bit
field per exponent, so that words compare as the order, add as the
monomials multiply and pass a mask test exactly when they divide.
`Polynomial.sorted_terms` sorts by the grevlex word, and inside the Groebner
kernels a monomial is its word.  A word is exact while its monomial's total
degree is below 2^32, and `pack` raises DegreeOverflow from there on, under
every order.  Under grevlex no degree a kernel derives exceeds that of a
packed word; under a block order it is bounded by nothing but the run, so
an elimination run checks its basis against 2^32 (see "packed monomials"
below).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Callable, Iterable, Mapping

from .errors import DegreeOverflow, RingMismatch

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
    """Target ring k[x, y, T1..Ts] of the defining ideal after eliminating t:
    slot 0 is x, slot 1 is y, slots 2.. are T1..Ts.  `rees` and
    `groebner._fiber_kernel` read that layout."""
    return Ring(("x", "y") + tuple(f"T{i}" for i in range(1, s + 1)))


# -- monomial helpers --------------------------------------------------------
# Exponents are plain tuples outside the Groebner kernels; inside them a
# monomial is one packed int (`MonomialOrder.packer`), on which a product,
# a quotient and a divisor test are `+`, `-` and a mask.

def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def mono_deg(a: Exponent) -> int:
    return sum(a)


# -- monomial orders ---------------------------------------------------------

_PACKERS: dict = {}  # (order, ring) -> the order's Packer on ring


class MonomialOrder:
    """Total multiplicative order on exponent tuples of a fixed ring.

    Every order here is keyed by one linear form in the exponents,
    sum(map(mul, e, W)) with the weights W of `_linear`, which orders the
    monomials of total degree below B = ORDER_BASE.  The key is read only
    as the top of a packed word (`packer`), whose `pack` is the sort key of
    the order and raises DegreeOverflow from degree B on, rather than
    misorder.  A `graded` order compares total degrees first."""

    graded = False

    def packer(self, ring: Ring) -> "Packer":
        """The order's `Packer` on ring: one per equal (order, ring), built
        once, so a caller may ask for it per call."""
        pk = _PACKERS.get((self, ring))
        if pk is None:
            pk = _PACKERS[(self, ring)] = Packer(self._linear(ring), ring.arity, self.graded)
        return pk

    def _linear(self, ring: Ring) -> list[int]:
        """W: the key's weights on ring."""
        raise NotImplementedError


# Keys are ints with one digit in base B = ORDER_BASE per variable.  Grevlex
# orders as the tuples (deg(e), -e[n-1], ..., -e[0]) while the total degree
# is below B, so that no digit carries.
_DIGIT_BITS = 32
ORDER_BASE = 1 << _DIGIT_BITS


def _linear_form(weights: list[int]) -> Callable[[Exponent], int]:
    """e -> sum(e[i] * weights[i]), raising DegreeOverflow where the total
    degree reaches B, under every order."""
    def f(e):
        if sum(e) >= ORDER_BASE:
            raise DegreeOverflow(f"monomial {e} has total degree {sum(e)}, at or above "
                                 "2^32: beyond the integer order keys")
        return sum(map(mul, e, weights))
    return f


def _grevlex_weights(n: int) -> list[int]:
    """W with sum(e[i] * W[i]) = deg(e) * B^n - sum(e[i] * B^i): the degree
    on top, then -e[i] with the last variable most significant.  The value
    lies in ((deg - 1) * B^n, deg * B^n] and is >= 0 while every e[i] < B."""
    top = 1 << _DIGIT_BITS * n
    return [top - (1 << _DIGIT_BITS * i) for i in range(n)]


@dataclass(frozen=True)
class _Grevlex(MonomialOrder):
    graded = True

    def _linear(self, ring):
        return _grevlex_weights(ring.arity)

    def __repr__(self):
        return "grevlex"


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

    def _linear(self, ring):
        fidx = [ring.index(v) for v in self.front]
        bidx = [i for i in range(ring.arity) if i not in fidx]
        shift = _DIGIT_BITS * (len(bidx) + 1)
        weights = [0] * ring.arity
        for i, w in zip(fidx, _grevlex_weights(len(fidx))):
            weights[i] = w << shift
        for i, w in zip(bidx, _grevlex_weights(len(bidx))):
            weights[i] = w
        return weights

    def __repr__(self):
        return f"block({','.join(self.front)} >> {GREVLEX!r})"


GREVLEX = _Grevlex()


# -- packed monomials ----------------------------------------------------------
# The Groebner kernels hold each monomial as one int (Monagan-Pearce 2007,
# packed exponent vectors): the order key on top, then one F-bit field per
# exponent, the first variable highest,
#     pack(e) = key(e) << F*n | e[0] << F*(n-1) | ... | e[n-1],    F = 34.
# Every key above is a linear form in e that orders the monomials and is
# injective while the total degree is below B = 2^32, so there
#   - integer comparison is the monomial order, which the key decides;
#   - pack(a) + pack(b) == pack(a * b): keys add, and fields add with no
#     carry, as every exponent is below 2^32 and a field holds 2^34 - 1;
#   - a divides b exactly when (pack(b) - pack(a)) & guard == 0, guard the
#     top bit of every field: a field of b - a is b[i] - a[i] in [0, 2^32)
#     when no lower field borrows, and the lowest negative one borrows from
#     above, which leaves 2^34 + b[i] - a[i] >= 2^33 there, its guard set;
#   - pack(b) - pack(a) is pack(b / a) when a divides b, and unpack reads
#     the fields back.
# `pack` is the key's linear form with one more term per weight, W[i] << F*n
# plus the field bit 1 << F*(n-1-i), and `_linear_form` makes it raise
# DegreeOverflow from total degree 2^32 on.  A kernel packs its inputs and
# every lcm it forms; every other monomial it derives is a term of a stored
# row shifted by a difference of packed words (`m + (lcm - lead)` in an
# S-polynomial, `m + (lead - lead)` in a reduction step), and its word is
# exact while that term's total degree is below 2^32.  Under grevlex no
# term of a row has a larger degree than the row's lead, so every derived
# degree is at most that of an lcm or a reduced lead, which were checked;
# under a block order a tail term may outgrow its lead, and the words stay
# exact only while every derived degree stays below 2^32.  Block orders
# live only in the elimination runs, whose reduced basis `_interreduce`
# `check`s, raising DegreeOverflow on a word of degree 2^32 or more; a
# word that outgrew the bound and then cancelled inside a run is not seen.

_FIELD_BITS = 34


class Packer:
    """`pack` and `unpack` between exponent tuples of one ring and the
    packed words described above, and the `guard` mask of the divisor test.
    Built once per (order, ring) by `MonomialOrder.packer`, from the key's
    `_linear` weights; `pack` raises DegreeOverflow from total degree 2^32
    on.  `graded` is the order's, and tells `_interreduce` whether the words
    a run derived need a `check`."""

    __slots__ = ("pack", "unpack", "guard", "graded")

    def __init__(self, weights: list[int], n: int, graded: bool):
        shifts = [_FIELD_BITS * (n - 1 - i) for i in range(n)]
        top = _FIELD_BITS * n
        self.pack = _linear_form([w << top | 1 << s for w, s in zip(weights, shifts)])
        mask = (1 << _FIELD_BITS) - 1

        def unpack(w: int) -> Exponent:
            return tuple([w >> s & mask for s in shifts])

        self.unpack = unpack
        self.guard = sum(1 << s + _FIELD_BITS - 1 for s in shifts)
        self.graded = graded

    def check(self, words: Iterable[int]) -> None:
        """Raise DegreeOverflow if a word of a reduced basis that a block
        elimination run derived has a monomial of total degree 2^32 or
        more, whose word may have compared wrongly; it is repacked, and
        `pack` raises there."""
        pack, unpack = self.pack, self.unpack
        for w in words:
            pack(unpack(w))


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

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        pack = GREVLEX.packer(self.ring).pack
        return sorted(self.terms.items(), key=lambda t: pack(t[0]), reverse=True)

    def min_degree(self) -> int:
        """Smallest total degree among the terms (m-adic order of the element)."""
        return min(mono_deg(e) for e in self.terms)

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
            return str(mag)
        mono = "*".join(factors)
        if mag == self.field.one:
            return mono
        return f"{mag}*{mono}"

    def __repr__(self):
        return f"Polynomial({self})"

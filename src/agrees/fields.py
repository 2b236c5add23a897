"""Exact coefficient fields: arbitrary-precision rationals and large prime fields."""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameters

# Prime moduli below this give too little Schwartz-Zippel headroom.
MIN_PRIME = 1 << 20


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin with the standard witness set (exact for n < 3.3e24).
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """Exact rationals; elements are Fraction values in lowest terms."""

    name = "q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def fraction(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_negative(self, a) -> bool:
        return a < 0

    def abs(self, a):
        return -a if a < 0 else a

    def coeff_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime p > 2^20; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BadParameters(f"field modulus {p} is not prime")
        if p <= MIN_PRIME:
            raise BadParameters(f"field modulus {p} must exceed 2^20")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def fraction(self, num: int, den: int) -> int:
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError("denominator vanishes modulo p")
        return num % self.p * pow(d, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    # Symmetric representative (-p/2, p/2] keeps printed coefficients small.
    def is_negative(self, a) -> bool:
        return a > self.p // 2

    def abs(self, a):
        return self.p - a if a > self.p // 2 else a

    def coeff_str(self, a) -> str:
        return str(a - self.p if a > self.p // 2 else a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

DEFAULT_SURVEY_PRIME = 2147483647


def field_from_config(text: str):
    """Build a field from a CLI config string: "q" or "fp:<prime>"."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise BadParameters(f"bad field config {text!r}") from None
        return PrimeField(p)
    raise BadParameters(f"bad field config {text!r}; use q or fp:<prime>")

"""Exact coefficient fields: arbitrary-precision rationals and large prime fields."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BadParameters

# The certificate's and the refuter's sample space over q, {1..MIN_PRIME}
# (engine, Schwartz-Zippel): a prime modulus must exceed it, so that its
# draws are distinct nonzero field elements.
MIN_PRIME = 1 << 20


# Miller-Rabin with the first 13 primes as witnesses is exact below
# psi_13 = 3317044064679887385961981, the least strong pseudoprime to all of
# them (Sorenson-Webster 2017), so a prime modulus must lie below it.
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin, exact for n < PRIME_LIMIT.
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
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


def _exact(v):
    """A rational value as the field holds it: an int when it is integral."""
    return v.numerator if v.denominator == 1 else v


class RationalField:
    """Exact rationals on Python's numeric tower: an element is an int when
    its value is integral and a Fraction in lowest terms otherwise, never a
    float.

    Every operation returns that canonical form, with a fast path for two
    ints; `str`, `==` and `hash` agree between an int and the equal
    Fraction, so callers may still pass integral Fractions.  The Groebner
    and echelon kernels work on rows of plain integers (see `groebner`):
    `clear` turns field values into integers (a row of ints is one
    already), `cross` gives the integer multipliers of one reduction step
    and `normalize` keeps a stored row primitive, with content 1 and a
    positive leading coefficient.  `modulus` 0 says that the kernels'
    integer arithmetic is exact, with no reduction.
    """

    name = "q"
    zero = 0
    one = 1
    modulus = 0

    def from_int(self, n: int) -> int:
        return n

    def fraction(self, num: int, den: int):
        q, r = divmod(num, den)
        return q if r == 0 else Fraction(num, den)

    def add(self, a, b):
        if type(a) is int and type(b) is int:
            return a + b
        return _exact(a + b)

    def sub(self, a, b):
        if type(a) is int and type(b) is int:
            return a - b
        return _exact(a - b)

    def mul(self, a, b):
        if type(a) is int and type(b) is int:
            return a * b
        return _exact(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        return self.div(1, a)

    def div(self, a, b):
        if type(a) is int and type(b) is int:
            return self.fraction(a, b)
        return _exact(Fraction(a, b))

    # -- integer rows -------------------------------------------------------

    def clear(self, row: dict):
        """Scale row in place by the lcm of its denominators, so its values
        become ints; the unit u with old row = u * new row.  A row of ints
        (an integral polynomial) stays as it is, with unit 1; an integral
        Fraction becomes its numerator."""
        if all(type(c) is int for c in row.values()):
            return 1
        den = lcm(*[c.denominator for c in row.values()])
        for m, c in row.items():
            row[m] = c.numerator * (den // c.denominator)
        return self.fraction(1, den)

    def cross(self, c: int, b: int) -> tuple[int, int]:
        """(a, s) with a * c = s * b and a > 0 for b > 0: the smallest
        multipliers that cancel c against a leading coefficient b."""
        g = gcd(c, b)
        return b // g, c // g

    def normalize(self, row: dict, lm) -> None:
        """Divide row in place by its content, signed so that row[lm] > 0."""
        g = gcd(*row.values())
        if row[lm] < 0:
            g = -g
        if g != 1:
            for m, v in row.items():
                row[m] = v // g

    def is_negative(self, a) -> bool:
        return a < 0

    def abs(self, a):
        return -a if a < 0 else a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime 2^20 < p < PRIME_LIMIT; elements are ints in
    [0, p).

    Elements are already the integers the kernels work on, so `clear` leaves
    a row as it is, `normalize` makes it monic and `cross` against a monic
    leading coefficient gives the multiplier 1.  The kernels reduce their
    integer arithmetic modulo `modulus`, which is p.
    """

    def __init__(self, p: int):
        if not _is_prime(p) or p >= PRIME_LIMIT:
            raise BadParameters(f"field modulus {p} is not a prime below {PRIME_LIMIT}")
        if p <= MIN_PRIME:
            raise BadParameters(f"field modulus {p} must exceed 2^20")
        self.p = p
        self.modulus = p
        self.name = f"fp:{p}"
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def fraction(self, num: int, den: int) -> int:
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError("denominator vanishes modulo p")
        return num % self.p * pow(d, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        # pow(0, -1, p) raises ValueError: keep the field's ZeroDivisionError
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    # -- integer rows -------------------------------------------------------

    def clear(self, row: dict) -> int:
        """Residues are already integers: row stays, with unit 1."""
        return 1

    def cross(self, c: int, b: int) -> tuple[int, int]:
        """(1, c) with 1 * c = c * b: every lead b a kernel cancels against
        is monic, made 1 by `normalize`."""
        return 1, c

    def normalize(self, row: dict, lm) -> None:
        """Scale row in place so that row[lm] = 1, by one inverse (extended
        Euclid, `pow(c, -1, p)`)."""
        c = row[lm]
        if c != 1:
            inv = self.inv(c)
            for m, v in row.items():
                row[m] = v * inv % self.p

    # Symmetric representative (-p/2, p/2] keeps printed coefficients small.
    def is_negative(self, a) -> bool:
        return a > self.p // 2

    def abs(self, a):
        return self.p - a if a > self.p // 2 else a

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

DEFAULT_SURVEY_PRIME = 2147483647

_PRIME_FIELDS: dict[int, PrimeField] = {}  # modulus -> its field_from_config field


def field_from_config(text: str):
    """The field of a CLI config string, "q" or "fp:<prime>": one object per
    modulus, so its primality is tested once per process."""
    if text == "q":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise BadParameters(f"bad field config {text!r}") from None
        field = _PRIME_FIELDS.get(p)
        if field is None:
            field = _PRIME_FIELDS[p] = PrimeField(p)
        return field
    raise BadParameters(f"bad field config {text!r}; use q or fp:<prime>")

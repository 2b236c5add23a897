"""Exception types shared across the package."""


class AgreesError(Exception):
    """Base class for all package errors."""


class ParseError(AgreesError):
    """Malformed ideal or polynomial text."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class UnknownVariable(ParseError):
    """Variable name not present in the active ring."""


class EmptyIdeal(AgreesError):
    """Ideal specification with no generators."""


class EmptyInput(AgreesError):
    """Staircase built from an empty exponent list."""


class RingMismatch(AgreesError):
    """Operands live in different rings or over different fields."""


class ZeroIdeal(AgreesError):
    """Operation undefined for the zero ideal."""


class ZeroDivisorIdeal(AgreesError):
    """Colon by the zero ideal."""


class NotZeroDimensional(AgreesError):
    """Ideal is not m-primary at the origin, so local counts are undefined."""


class DegreeOverflow(AgreesError):
    """A monomial's total degree is at or above 2^32, beyond the integer
    monomial-order keys."""


class NotContained(AgreesError):
    """Claimed subideal is not contained in the ambient ideal."""


class NotStable(AgreesError):
    """Operation requires I^2 = QI."""


class NoReductionFound(AgreesError):
    """Reduction search exhausted its budget."""


class BadParameters(AgreesError):
    """Survey or family parameters are invalid."""


class UnknownCheckId(AgreesError):
    """Reproduction check id not in the registry."""

"""Exception types shared across the package.

Every failure that a caller can provoke with bad (but well-typed) input
gets its own class, so tests and the CLI can react to the exact cause
instead of string-matching messages.
"""


class AdelicError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatch(AdelicError, TypeError):
    """Two exact reals live in different quadratic fields."""


class PrimeSetMismatch(AdelicError, ValueError):
    """Two adelic objects are indexed by different prime sets."""


class NegativeVolume(AdelicError, ValueError):
    """A requested target volume is negative, so no set can realize it."""


class ZeroGamma(AdelicError, ValueError):
    """gamma = 0 where a witness or a Weyl average needs a nonzero index."""


class NegativeIndicator(AdelicError, ArithmeticError):
    """A weighted lift count came out negative; the box set is invalid."""

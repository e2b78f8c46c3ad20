"""Exception types shared across the package."""


class FrobettiError(Exception):
    """Base class for all package errors."""


class NotPrime(FrobettiError):
    """The requested coefficient characteristic is not a prime."""


class NotHomogeneous(FrobettiError):
    """An input polynomial or column is not homogeneous."""


class ParseError(FrobettiError):
    """Input text does not match the expression or problem-file grammar."""

    def __init__(self, message, position=None, line=None):
        super().__init__(message)
        self.position = position
        self.line = line


class UnknownVariable(ParseError):
    """A name in an expression is not a ring variable."""


class UnitIdeal(FrobettiError):
    """The defining ideal contains a unit, so the quotient ring is zero."""


class AmbientMismatch(FrobettiError):
    """Two module-level objects live in incompatible free modules."""


class ZeroDivisorQuery(FrobettiError):
    """A colon ideal was requested against the zero element."""


class NotMonomial(FrobettiError):
    """An operation restricted to monomial ideals received a non-monomial."""


class NotPrimary(FrobettiError):
    """An ideal that must be irrelevant-primary has a positive-dimensional quotient."""


class InfiniteLength(FrobettiError):
    """A finite-length module was required but the module has positive dimension."""


class WrongDimension(FrobettiError):
    """An operation restricted to one-dimensional rings was called elsewhere."""


class MissingMultiplicities(FrobettiError):
    """Additivity verification needs local multiplicities that were not supplied."""


class NoParameterFound(FrobettiError):
    """Parameter search exhausted its attempt budget.

    Retry with a larger budget or a bigger coefficient field; tiny fields may
    not contain a linear parameter among the sampled candidates.
    """


class LiftFailure(FrobettiError):
    """A column that must lie in a computed kernel failed to lift.

    This signals an internal invariant violation (a non-complex), never a
    user error.
    """


class ResourceBound(FrobettiError):
    """A Groebner or resolution computation exceeded its configured size cap."""


class Overflow(FrobettiError):
    """A bracket power would push an exponent past the configured width."""


class InconsistentBlocks(ParseError):
    """Problem-file blocks disagree (for example localmult vs minprimes)."""


class CacheCorrupt(FrobettiError):
    """An on-disk cache entry failed its header or payload check."""

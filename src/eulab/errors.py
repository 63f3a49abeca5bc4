"""Exception hierarchy shared across the engine.

The CLI maps these onto distinct exit codes, so raising the right class is
part of the external contract: size guards must not be silently swallowed
and malformed input must be distinguishable from a failed identity.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitError(EngineError):
    """An enumeration guard would be exceeded (factorial / product / tree-count)."""


class OutOfRangeError(SizeLimitError):
    """A table index lies outside the supported (memoized) range: a size guard too."""


class NonInvertibleConstantTermError(EngineError):
    """Series division needs an invertible constant term (or exactly divisible coefficients)."""


class NonzeroConstantTermError(EngineError):
    """The argument of a series exp must have zero constant term."""


class InexactDivisionError(EngineError):
    """Exact polynomial division was requested but the quotient is not polynomial."""


class InvalidParamError(EngineError):
    """A closed-form builder or a command received parameters outside their domain."""


class NotPalindromicError(EngineError):
    """Input polynomial is not palindromic, so no gamma-basis expansion exists."""


class NotSymmetricError(EngineError):
    """Input polynomial is not symmetric in the given variables."""


class NotExpandableError(EngineError):
    """Basis expansion left a nonzero residual (or an asymmetric slice)."""


class PolyParseError(EngineError):
    """Polynomial JSON did not conform to the canonical wire form, or a coefficient is too long to write in it."""


class UnknownIdentityError(EngineError):
    """The verification harness has no identity registered under that name."""

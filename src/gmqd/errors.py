"""Exception hierarchy for input validation and domain errors."""


class GmqdError(ValueError):
    """Base class for every validation error raised by this package."""


class NonSquareError(GmqdError):
    """A square matrix was required."""


class DimensionMismatchError(GmqdError):
    """Operands have incompatible shapes."""


class NotHermitianError(GmqdError):
    """Matrix deviates from Hermitian beyond tolerance."""


class TraceNotOneError(GmqdError):
    """Density matrix trace differs from one."""


class NotPositiveError(GmqdError):
    """Matrix has an eigenvalue below the positivity tolerance."""


class InvalidParametersError(GmqdError):
    """State, scenario or sweep parameters violate their constraints."""


class NegativeInputError(GmqdError):
    """A nonnegative quantity was required."""


class OutOfRangeError(GmqdError):
    """A bounded parameter (e.g. a channel strength) is outside its range."""

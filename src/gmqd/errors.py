"""Exception hierarchy for input validation and domain errors."""

import operator


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


def check_integer(value, name: str) -> None:
    """Reject a count or seed that is not a Python or numpy integer, before any range check."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidParametersError(f"{name} must be an integer, got {value!r}") from None

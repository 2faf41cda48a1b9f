"""The package's one exception class and the input rules several modules share.

Every input or domain error gmqd raises is a :class:`GmqdError`, a
``ValueError`` whose message names the rule that failed; the CLI maps it to
exit code 2.  A rule that more than one module applies lives here, once:
:func:`check_count` for counts and seeds, :func:`check_nonnegative` for
decay rates and times, :func:`check_gamma` for channel strengths.
"""

import math
import operator


class GmqdError(ValueError):
    """Every validation or domain error raised by this package."""


def check_count(value, name: str, minimum: int) -> None:
    """Reject a count or seed that is not a Python or numpy integer, then one below ``minimum``."""
    try:
        operator.index(value)
    except TypeError:
        raise GmqdError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise GmqdError(f"{name} must be >= {minimum}, got {value}")


def check_nonnegative(value: float, name: str) -> None:
    """Reject a rate or time that is not finite, then one that is negative."""
    if not math.isfinite(value):
        raise GmqdError(f"{name} must be finite, got {value!r}")
    if value < 0.0:
        raise GmqdError(f"{name} must be nonnegative, got {value!r}")


def check_gamma(value: float, name: str) -> None:
    """Reject a channel strength outside [0, 1], NaN included."""
    if not 0.0 <= value <= 1.0:
        raise GmqdError(f"{name} must lie in [0, 1], got {value!r}")

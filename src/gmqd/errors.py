"""The package's one exception class and the input rules several modules share.

Every input or domain error gmqd raises is a :class:`GmqdError`, a
``ValueError`` whose message names the rule that failed; the CLI maps it to
exit code 2.  A rule that more than one module applies lives here, once:
:func:`check_count` for counts and seeds, :func:`check_nonnegative` for
decay rates and times, :func:`check_gamma` for channel strengths,
:func:`broadcast_shape` for strength arrays that must fit together, and
:func:`reject_first` for a rule applied to a stack of states or channels.
"""

import operator

import numpy as np


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


def check_nonnegative(value, name: str) -> None:
    """Reject a rate or time that is not finite, then one that is negative; an array names its first offender."""
    values = np.asarray(value, dtype=float)
    first = values[~(np.isfinite(values) & (values >= 0.0))][:1]
    reject_first(~np.isfinite(first), first, f"{name} must be finite, got {{!r}}")
    reject_first(first < 0.0, first, f"{name} must be nonnegative, got {{!r}}")


def check_gamma(value, name: str) -> None:
    """Reject a channel strength, or an array holding one, outside [0, 1], NaN included."""
    values = np.asarray(value, dtype=float)
    reject_first(~((values >= 0.0) & (values <= 1.0)), values, f"{name} must lie in [0, 1], got {{!r}}")


def broadcast_shape(what: str, *shapes: tuple) -> tuple:
    """The shape ``shapes`` broadcast to; raise naming ``what`` and the shapes where they do not."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise GmqdError(f"{what} do not broadcast together, got shapes {', '.join(map(str, shapes))}") from None


def reject_first(bad, values, message: str) -> None:
    """Raise ``message`` formatted with the first value flagged ``bad`` (equal-shape arrays, 0-d for one)."""
    if bad.any():
        raise GmqdError(message.format(float(values[bad][0])))

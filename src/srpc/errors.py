"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter/input problems exit with 2,
I/O problems (plain OSError) with 3, and internal invariant violations
with 4.

So does the parameter contract: every constructor and public entry point
checks its integers, edge probabilities and positive reals with
:func:`check_int`, :func:`check_probability` and :func:`check_positive`.
"""

import math
import numbers


class ParameterError(ValueError):
    """A numeric or structural parameter is outside its allowed range."""


class InputError(ValueError):
    """Malformed caller-supplied data (vertices out of range, bad files, ...)."""


class BudgetExceededError(ParameterError):
    """An enumeration was refused because it would exceed the configured budget."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def check_int(name: str, value, low: int, high: int | None = None):
    """``value`` if it is an integer (not a bool) in [low, high]; no upper bound if high is None."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ParameterError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def check_probability(name: str, value):
    """``value`` if it is a real number (not a bool) strictly inside (0, 1); NaN is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < 1:
        raise ParameterError(f"{name} must be a number in (0, 1), got {value!r}")
    return value


def check_positive(name: str, value):
    """``value`` if it is a finite real number (not a bool) > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ParameterError(f"{name} must be a finite number > 0, got {value!r}")
    return value

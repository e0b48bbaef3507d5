"""Exception types, and the one test for a real number, the one rule for a size or a count,
the one for a scale or a tolerance and the one way to freeze a shared array, used across
the package."""

import math
import numbers

import numpy as np


class ConfigurationError(ValueError):
    """A requested configuration is invalid (bad basis size, bad process parameters, ...)."""


class FeasibilityError(RuntimeError):
    """A requested computation is combinatorially infeasible (e.g. too many candidate sets)."""


def is_real(value) -> bool:
    """The one test for a real number: a Python or numpy real that is not a bool."""
    if type(value) is float or type(value) is int:  # the common cases, before the ABC check
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_real(name: str, value) -> float:
    """``value`` as a float, or ``ConfigurationError`` unless it is a real number (``is_real``)
    that a float can hold (a Python int may not); the caller checks its range."""
    if not is_real(value):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # its repr can be too long to print
        raise ConfigurationError(f"{name} must lie in float range") from None


def check_count(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int`` of at least ``low``: the one rule for a size or a count.

    Python and numpy integers pass, and whole-number floats such as ``8.0`` convert; a
    bool, any other float, NaN, infinity and a non-number raise ``ConfigurationError``.
    """
    integral = type(value) is int or (  # an exact int needs no ABC check
        is_real(value)
        and (isinstance(value, numbers.Integral) or float(value).is_integer())  # not NaN, inf
    )
    if not integral:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigurationError(f"{name} must be >= {low}")
    return int(value)


def check_positive(name: str, value: float) -> None:
    """The one rule for a scale or a tolerance: a real number, positive and finite, else
    ``ConfigurationError``."""
    check_real(name, value)
    if not (value > 0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be positive, got {value}")


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` copied onto an immutable buffer, so that no view of it can be made writable: the
    rule for an array that a cache hands to every caller."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)

"""Exception types, and the one rule for a size or a count and the one for a scale or a
tolerance, shared across the package."""

import math
import numbers


class ConfigurationError(ValueError):
    """A requested configuration is invalid (bad basis size, bad process parameters, ...)."""


class FeasibilityError(RuntimeError):
    """A requested computation is combinatorially infeasible (e.g. too many candidate sets)."""


def check_count(name: str, value, low: int = 1) -> int:
    """``value`` as an ``int`` of at least ``low``: the one rule for a size or a count.

    Python and numpy integers pass, and whole-number floats such as ``8.0`` convert; a
    bool, any other float, NaN, infinity and a non-number raise ``ConfigurationError``.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()  # false for NaN and inf
    )
    if isinstance(value, bool) or not integral:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigurationError(f"{name} must be >= {low}")
    return int(value)


def check_positive(name: str, value: float) -> None:
    """The one rule for a scale or a tolerance: positive and finite, else ``ConfigurationError``."""
    if not (value > 0 and math.isfinite(value)):
        raise ConfigurationError(f"{name} must be positive, got {value}")

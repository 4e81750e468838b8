"""Exception types shared across the package, and the checks that raise them on
integers and numbers arriving from callers or configuration files."""

import math
import numbers

import numpy as np


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class GridError(ValueError):
    """A frequency grid is incompatible with the requested computation."""


class UndefinedRatioError(ValueError):
    """A ratio is requested for an input with zero total weight."""


class NonConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap.

    The best iterate found so far is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def _integer(value, what: str, minimum: int | None = None) -> int:
    """``value`` as a Python int, or ParameterError unless it is an integer >= ``minimum``.

    A bool is not an integer here, nor is a float with an integral value.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ParameterError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a finite float, or ParameterError.

    A value float() refuses (a non-numeric string, a list, None, an int past the
    float range), a bool, NaN and +-inf raise; a numeric string reads as its float.
    """
    try:
        number = math.nan if isinstance(value, (bool, np.bool_)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ParameterError(f"{what} must be a finite number, got {value!r}")
    return number


def _positive(value, what: str) -> float:
    """``value`` as a finite float > 0, or ParameterError."""
    number = _real(value, what)
    if not number > 0.0:
        raise ParameterError(f"{what} must be positive, got {value!r}")
    return number


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a float ndarray of finite entries, or ParameterError."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        array = np.array(math.nan)
    if not np.all(np.isfinite(array)):
        raise ParameterError(f"{what} must be finite numbers")
    return array

"""Exception types shared across the package, and the checks that raise them on
integers and numbers arriving from callers or configuration files."""

import numbers


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
    """``float(value)``, or ParameterError where float() refuses it (a string, list or None)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{what} must be a number, got {value!r}") from None

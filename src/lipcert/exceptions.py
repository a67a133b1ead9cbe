"""Exception types shared across the package, and a shared integer check."""

import numbers


class LipcertError(Exception):
    """Base class for package-specific errors."""


class UnsupportedNormError(LipcertError, ValueError):
    """Raised for (p, q) operator-norm pairs outside the supported set."""


class ModelFormatError(LipcertError, ValueError):
    """Raised when a model or region file fails validation."""


class InfeasibleRegionError(LipcertError, ValueError):
    """Raised when an operation requires a non-empty region."""


class LpSolverError(LipcertError, RuntimeError):
    """Numerical failure inside the LP engine."""

    def __init__(self, message, phase=None):
        super().__init__(message)
        self.phase = phase


class GuardrailExceededError(LipcertError, RuntimeError):
    """Raised when the brute-force oracle would enumerate too many combinations."""

    def __init__(self, message, combination_count=None):
        super().__init__(message)
        self.combination_count = combination_count


class SamplingError(LipcertError, RuntimeError):
    """Raised when rejection sampling cannot hit the target region."""


def _integer(value, name: str, error=ValueError) -> int:
    # an integer only: int() would truncate 2.9 to 2 and read True as 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)

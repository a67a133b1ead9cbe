"""Exception types shared across the package."""


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

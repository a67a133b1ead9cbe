"""Exception types shared across the package, and what model and region
files share: the reader `_read_json` and the number checks `_integer` and
`_reals`."""

import json
import numbers

import numpy as np


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


def _reals(values, name: str, error=ValueError, null=None) -> np.ndarray:
    """A real number, or nested lists, tuples or arrays of them, as a float
    array. Booleans, strings and NaN are not numbers here (np.asarray would
    read "1.5" as 1.5 and True as 1); None reads as `null` where that is
    given, as for an unbounded box side."""
    def real(v):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return [real(u) for u in v]
        if v is None and null is not None:
            return null
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real) or v != v:
            raise error(f"{name} must hold real numbers, got {v!r}")
        return v
    checked = real(values)
    try:
        return np.array(checked, dtype=float)
    except (ValueError, OverflowError) as err:  # ragged lists, ints past the float range
        raise error(f"{name} is not numeric: {err}") from err


def _read_json(path, what: str):
    """The JSON document in a model or region file; a file that is not
    UTF-8 JSON raises `ModelFormatError` naming `what` the file holds."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ModelFormatError(f"{what} file is not valid UTF-8 JSON: {err}") from err

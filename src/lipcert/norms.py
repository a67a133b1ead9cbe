"""Induced operator norms ||A||_{p->q} for the supported (p, q) pairs.

Supported: p == q in {1, 2, inf}; p == 1 with any q (max column q-norm);
q == inf with any p (max row dual-norm). The remaining combinations
(inf->1, inf->2, 2->1) are NP-hard or have no closed form and are rejected.

`induced_norm` takes one matrix or a stack of them (..., m, n), such as the
Jacobians of a batch of sample points, and computes every norm of a stack in
one numpy call: column or row vector norms for p == 1 and q == inf, and the
largest singular value of each matrix (LAPACK) for 2->2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedNormError

# each norm order by its spelling in a norm spec
_ORDERS = {"1": 1.0, "2": 2.0, "inf": float("inf")}

_SPECTRAL_SLACK = 4.0 * np.finfo(float).eps


def _order_name(v: float) -> str:
    return "inf" if np.isinf(v) else str(int(v))


@dataclass(frozen=True)
class NormPair:
    """Validated (p, q) pair for the input/output vector norms."""

    p: float
    q: float

    def __post_init__(self):
        p = float(self.p)
        q = float(self.q)
        if p not in _ORDERS.values() or q not in _ORDERS.values():
            raise UnsupportedNormError(
                f"norm orders must be 1, 2, or inf, got ({self.p}, {self.q})"
            )
        if not (p == q or p == 1.0 or np.isinf(q)):
            raise UnsupportedNormError(
                f"unsupported norm pair {_order_name(p)}->{_order_name(q)}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text: str) -> "NormPair":
        """Parse 'P' or 'P:Q' with P, Q in {1, 2, inf}."""
        parts = [part.strip() for part in text.split(":")]
        if len(parts) > 2 or not all(part in _ORDERS for part in parts):
            raise UnsupportedNormError(f"cannot parse norm spec {text!r}")
        return cls(_ORDERS[parts[0]], _ORDERS[parts[-1]])

    def __str__(self):
        if self.p == self.q:
            return _order_name(self.p)
        return f"{_order_name(self.p)}:{_order_name(self.q)}"


def _spectral_norm(A: np.ndarray):
    """Largest singular value (LAPACK) of each matrix of the stack A, rounded
    up past its rounding error.

    The computed value can sit a few units in the last place per dimension
    below the true one; a relative margin of 4 * max(m, n) machine epsilons
    keeps the result an upper bound, as the gub path needs.
    """
    sigma = np.linalg.norm(A, 2, axis=(-2, -1))
    return sigma * (1.0 + _SPECTRAL_SLACK * max(A.shape[-2:]))


def induced_norm(A, pair: NormPair):
    """Operator norm sup_{x != 0} ||A x||_q / ||x||_p.

    Given one (m, n) matrix, returns a float; given a stack (..., m, n),
    returns the array of the norms of its matrices.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim {A.ndim}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    if A.size == 0:
        norms = np.zeros(A.shape[:-2])
    elif pair.p == 1.0:
        # unit-ball vertices are signed basis vectors: the largest column q-norm
        norms = np.linalg.norm(A, pair.q, axis=-2).max(-1)
    elif np.isinf(pair.q):
        # the largest row norm in the dual of p
        dual = 1.0 if np.isinf(pair.p) else 2.0
        norms = np.linalg.norm(A, dual, axis=-1).max(-1)
    elif pair.p == 2.0 and pair.q == 2.0:
        norms = _spectral_norm(A)
    else:
        raise UnsupportedNormError(f"unsupported norm pair {pair}")
    return float(norms) if A.ndim == 2 else norms

"""Induced operator norms ||A||_{p->q} for the supported (p, q) pairs.

Supported: p == q in {1, 2, inf}; p == 1 with any q (max column q-norm);
q == inf with any p (max row dual-norm). The remaining combinations
(inf->1, inf->2, 2->1) are NP-hard or have no closed form and are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedNormError

_ORDERS = (1.0, 2.0, float("inf"))

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
        if p not in _ORDERS or q not in _ORDERS:
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
        parts = text.split(":")
        if len(parts) > 2 or not all(parts):
            raise UnsupportedNormError(f"cannot parse norm spec {text!r}")
        vals = []
        for tok in parts:
            tok = tok.strip()
            if tok == "inf":
                vals.append(float("inf"))
            elif tok in ("1", "2"):
                vals.append(float(tok))
            else:
                raise UnsupportedNormError(f"unsupported norm order {tok!r}")
        if len(vals) == 1:
            vals.append(vals[0])
        return cls(vals[0], vals[1])

    def __str__(self):
        if self.p == self.q:
            return _order_name(self.p)
        return f"{_order_name(self.p)}:{_order_name(self.q)}"


def _vector_norm(v: np.ndarray, order: float) -> float:
    if np.isinf(order):
        return float(np.abs(v).max()) if v.size else 0.0
    if order == 1.0:
        return float(np.abs(v).sum())
    return float(np.sqrt(np.dot(v, v)))


def _spectral_norm(A: np.ndarray) -> float:
    """Largest singular value (LAPACK), rounded up past its rounding error.

    The computed value can sit a few units in the last place per dimension
    below the true one; a relative margin of 4 * max(m, n) machine epsilons
    keeps the result an upper bound, as the gub path needs.
    """
    sigma = float(np.linalg.norm(A, 2))
    return sigma * (1.0 + _SPECTRAL_SLACK * max(A.shape))


def induced_norm(A, pair: NormPair) -> float:
    """Operator norm sup_{x != 0} ||A x||_q / ||x||_p."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {A.ndim}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    if A.size == 0:
        return 0.0
    if pair.p == 1.0:
        # unit-ball vertices are signed basis vectors
        return max(_vector_norm(A[:, j], pair.q) for j in range(A.shape[1]))
    if np.isinf(pair.q):
        dual = 1.0 if np.isinf(pair.p) else (2.0 if pair.p == 2.0 else float("inf"))
        return max(_vector_norm(A[i], dual) for i in range(A.shape[0]))
    if pair.p == 2.0 and pair.q == 2.0:
        return _spectral_norm(A)
    raise UnsupportedNormError(f"unsupported norm pair {pair}")

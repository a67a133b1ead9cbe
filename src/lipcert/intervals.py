"""Elementwise interval matrices and a sound interval matrix product.

Interval matrices carry the per-layer hulls of activation slopes and the
interval Jacobian accumulated through the undecided part of a network.
Vectors are stored as n-by-1 matrices so a single code path serves both.

`interval_matmul` is the general product of two interval matrices, with no
structure assumed. The node bound does not call it: `bnb.interval_jacobian`
forms its products from their structure (exact weight matrices by a signed
split, slope hulls by groups), with the same bracket up to the order of
summation. `interval_matmul` stays the public product, and the reference
the tests hold the node bound to.
"""
from __future__ import annotations

import numpy as np

# elements per broadcast block in interval_matmul; keeps the temporary
# m*k*n workspace bounded for larger inner dimensions
_BLOCK = 1 << 22


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A.reshape(-1, 1)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {A.ndim}")
    return A


class IntervalMatrix:
    """Entrywise closed interval [lower, upper] around a real matrix."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lo = _as_matrix(lower).copy()
        hi = _as_matrix(upper).copy()
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.lower = lo
        self.upper = hi

    @property
    def shape(self):
        return self.lower.shape

    def is_degenerate(self) -> bool:
        return bool(np.all(self.lower == self.upper))

    def contains(self, M, tol: float = 0.0) -> bool:
        A = _as_matrix(M)
        if A.shape != self.shape:
            raise ValueError(f"shape mismatch: {A.shape} vs {self.shape}")
        return bool(np.all(A >= self.lower - tol) and np.all(A <= self.upper + tol))

    def __repr__(self):
        return f"IntervalMatrix(shape={self.shape}, degenerate={self.is_degenerate()})"


def owned_interval(lo: np.ndarray, hi: np.ndarray) -> IntervalMatrix:
    """[lo, hi] over 2-D float arrays this package has just built and hands
    over: finite, ordered and referenced nowhere else, so neither copied nor
    checked again."""
    M = object.__new__(IntervalMatrix)
    lo.setflags(write=False)
    hi.setflags(write=False)
    M.lower = lo
    M.upper = hi
    return M


def exact(M) -> IntervalMatrix:
    """Degenerate interval matrix [M, M]: one copy of M serves both bounds."""
    A = _as_matrix(M).copy()
    if not np.isfinite(A).all():
        raise ValueError("interval bounds must be finite")
    return owned_interval(A, A)


def interval_matmul(A: IntervalMatrix, B: IntervalMatrix) -> IntervalMatrix:
    """Tightest entrywise-accumulated interval enclosure of the product A @ B.

    Each scalar interval product is resolved by endpoint enumeration (the
    min/max over the four endpoint products) and the results are summed over
    the inner dimension.
    """
    m, k = A.shape
    k2, n = B.shape
    if k != k2:
        raise ValueError(f"inner dimensions differ: {A.shape} @ {B.shape}")
    lo = np.zeros((m, n))
    hi = np.zeros((m, n))
    step = max(1, _BLOCK // max(1, m * n))
    for s in range(0, k, step):
        e = min(k, s + step)
        al = A.lower[:, s:e, None]
        au = A.upper[:, s:e, None]
        bl = B.lower[None, s:e, :]
        bu = B.upper[None, s:e, :]
        p1 = al * bl
        p2 = al * bu
        p3 = au * bl
        p4 = au * bu
        lo += np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)).sum(axis=1)
        hi += np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)).sum(axis=1)
    return owned_interval(lo, hi)


def abs_upper_envelope(J: IntervalMatrix) -> np.ndarray:
    """Entrywise max(|lower|, |upper|); dominates |M| for every M in J."""
    return np.maximum(np.abs(J.lower), np.abs(J.upper))


def hull(pieces) -> IntervalMatrix:
    """Entrywise interval hull of a set of real matrices."""
    mats = [_as_matrix(P) for P in pieces]
    if not mats:
        raise ValueError("hull of an empty piece set")
    shape = mats[0].shape
    for M in mats[1:]:
        if M.shape != shape:
            raise ValueError(f"piece shapes differ: {M.shape} vs {shape}")
    stacked = np.stack(mats)
    if not np.isfinite(stacked).all():
        raise ValueError("interval bounds must be finite")
    return owned_interval(stacked.min(axis=0), stacked.max(axis=0))

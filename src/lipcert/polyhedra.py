"""Half-space polyhedra with LP-backed feasibility and bound queries."""
from __future__ import annotations

import json
import math
import numbers

import numpy as np

from . import simplex
from .exceptions import ModelFormatError, _integer

FEAS_TOL = simplex.FEAS_TOL
_ZERO_ROW_TOL = 1e-12


class Polyhedron:
    """Closed region {x : C x <= c} in R^dim; zero constraint rows mean all of R^dim.

    Rows are normalized to unit Euclidean norm at construction and exact
    duplicates are dropped, which keeps repeatedly stacked systems from
    accumulating copies of the same constraint. Rows that reduce to
    0.x <= c with c >= 0 are vacuous and removed; with c < 0 they are kept
    and encode infeasibility (the LP detects it). The region's LP is built on
    first use by `region_lp` and kept with it.
    """

    __slots__ = ("C", "c", "dim", "_lp")

    def __init__(self, C, c, dim: int | None = None):
        C = np.asarray(C, dtype=float)
        c = np.asarray(c, dtype=float).reshape(-1)
        if C.size == 0:
            if dim is None:
                if C.ndim == 2:
                    dim = C.shape[1]
                else:
                    raise ValueError("dim is required for an empty constraint matrix")
            C = C.reshape(0, dim)
        if C.ndim != 2:
            raise ValueError("constraint matrix must be two-dimensional")
        if dim is None:
            dim = C.shape[1]
        if dim <= 0:
            raise ValueError("dimension must be positive")
        if C.shape[1] != dim:
            raise ValueError(f"constraint matrix has {C.shape[1]} columns, expected {dim}")
        if C.shape[0] != c.shape[0]:
            raise ValueError("constraint matrix and offsets disagree on row count")
        if not (np.isfinite(C).all() and np.isfinite(c).all()):
            raise ValueError("constraints must be finite")
        C = C.copy()
        c = c.copy()
        norms = np.linalg.norm(C, axis=1)
        big = norms > _ZERO_ROW_TOL
        C[big] /= norms[big, None]
        c[big] /= norms[big]
        C[~big] = 0.0
        keep = big | (c < 0.0)
        C = C[keep]
        c = c[keep]
        if C.shape[0] > 1:
            # first occurrence of each row, in order; + 0.0 turns -0.0 into
            # 0.0 so that rows equal in value have equal bytes
            first = {}
            for i, row in enumerate(np.hstack([C, c[:, None]]) + 0.0):
                first.setdefault(row.tobytes(), i)
            order = list(first.values())
            C = C[order]
            c = c[order]
        C.setflags(write=False)
        c.setflags(write=False)
        self.C = C
        self.c = c
        self.dim = int(dim)
        self._lp = None

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @classmethod
    def universe(cls, dim: int) -> "Polyhedron":
        return cls(np.zeros((0, dim)), np.zeros(0), dim=dim)

    @classmethod
    def from_box(cls, lower, upper) -> "Polyhedron":
        """Axis-aligned box; infinite entries contribute no constraint row."""
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.shape != upper.shape:
            raise ValueError("box bounds disagree on dimension")
        d = lower.shape[0]
        rows = []
        offs = []
        for i in range(d):
            if np.isfinite(upper[i]):
                e = np.zeros(d)
                e[i] = 1.0
                rows.append(e)
                offs.append(upper[i])
            if np.isfinite(lower[i]):
                e = np.zeros(d)
                e[i] = -1.0
                rows.append(e)
                offs.append(-lower[i])
        if not rows:
            return cls.universe(d)
        return cls(np.array(rows), np.array(offs), dim=d)

    def contains(self, x, tol: float = FEAS_TOL) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dim:
            raise ValueError(f"point has dimension {x.shape[0]}, expected {self.dim}")
        if self.m == 0:
            return True
        return bool(np.all(self.C @ x <= self.c + tol))

    def __repr__(self):
        return f"Polyhedron(dim={self.dim}, m={self.m})"


def stack(P: Polyhedron, Q: Polyhedron) -> Polyhedron:
    """Intersection of two polyhedra over the same space."""
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    return Polyhedron(np.vstack([P.C, Q.C]), np.concatenate([P.c, Q.c]), dim=P.dim)


def affine_preimage(Q: Polyhedron, J, b) -> Polyhedron:
    """{x : J x + b in Q}; lives in the domain of the affine map."""
    J = np.asarray(J, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if J.ndim != 2 or J.shape[0] != Q.dim or b.shape[0] != Q.dim:
        raise ValueError("affine map does not match the polyhedron's space")
    return Polyhedron(Q.C @ J, Q.c - Q.C @ b, dim=J.shape[1])


def region_lp(P: Polyhedron) -> simplex.RegionLP:
    """The LPs of P: phase 1 on the first call, then one phase 2 per objective
    asked of it. Every later call returns the same object."""
    if P._lp is None:
        P._lp = simplex.RegionLP(P.C, P.c)
    return P._lp


def feasible_point(P: Polyhedron) -> np.ndarray | None:
    """A point of P (within the LP feasibility slack), or None if P is empty."""
    return region_lp(P).point()


def is_feasible(P: Polyhedron) -> bool:
    return region_lp(P).feasible


def _objective(P: Polyhedron, objective) -> np.ndarray:
    obj = np.asarray(objective, dtype=float).reshape(-1)
    if obj.shape[0] != P.dim:
        raise ValueError("objective dimension mismatch")
    return obj


def linear_bounds(P: Polyhedron, objective) -> tuple[float, float]:
    """(inf, sup) of objective.x over P; +-inf when unbounded.

    Raises InfeasibleRegionError when P is empty.
    """
    return region_lp(P).bounds(_objective(P, objective))


def support_value(P: Polyhedron, objective) -> float:
    """sup of objective.x over P (+inf if unbounded); P must be non-empty."""
    return region_lp(P).support(_objective(P, objective))


def coordinate_bounds(P: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate (lower, upper) bounds of P; the tightest enclosing box."""
    lo = np.full(P.dim, float("-inf"))
    hi = np.full(P.dim, float("inf"))
    if P.m == 0:
        return lo, hi
    lp = region_lp(P)
    for i, e in enumerate(np.eye(P.dim)):
        lo[i], hi[i] = lp.bounds(e)
    return lo, hi


def region_from_json(data) -> Polyhedron:
    """Build a region from its JSON object form.

    Accepted forms: {"dim": d, "C": [[...]], "c": [...]},
    {"box": {"lower": [...], "upper": [...]}} (null entries mean unbounded),
    {"global": d}.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("region must be a JSON object")
    keys = set(data)
    if keys == {"global"}:
        d = _integer(data["global"], "'global'", ModelFormatError)
        if d <= 0:
            raise ModelFormatError("'global' must be a positive integer dimension")
        return Polyhedron.universe(d)
    if keys == {"box"}:
        box = data["box"]
        if not isinstance(box, dict) or set(box) != {"lower", "upper"}:
            raise ModelFormatError("'box' must hold exactly 'lower' and 'upper'")
        lower, upper = _box_side(box, "lower", -math.inf), _box_side(box, "upper", math.inf)
        if len(lower) != len(upper) or not lower:
            raise ModelFormatError("box bounds disagree on dimension")
        for lo_i, hi_i in zip(lower, upper):
            if lo_i > hi_i:
                raise ModelFormatError("box has a lower bound above its upper bound")
        return Polyhedron.from_box(lower, upper)
    if keys == {"dim", "C", "c"}:
        dim = _integer(data["dim"], "'dim'", ModelFormatError)
        try:
            return Polyhedron(data["C"], data["c"], dim=dim)
        except (TypeError, ValueError) as err:
            raise ModelFormatError(f"bad half-space region: {err}") from err
    raise ModelFormatError(f"unrecognized region keys: {sorted(keys)}")


def _box_side(box, side: str, unbounded: float) -> list[float]:
    values = box[side]
    if not isinstance(values, list) or not all(
            v is None or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                          and not math.isnan(v))
            for v in values):
        raise ModelFormatError(f"box '{side}' must be a list of numbers or null")
    return [unbounded if v is None else float(v) for v in values]


def load_region(path) -> Polyhedron:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"region file is not valid JSON: {err}") from err
    return region_from_json(data)

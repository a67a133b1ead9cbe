"""Half-space polyhedra with LP-backed feasibility and bound queries.

Each region keeps the LP object `region_lp` builds for it on first use, and
every feasibility and bound query of the region asks that object. A region
whose rows each bound a single coordinate, but for at most one general row
(a box or the whole space, either cut by one half-space), gets a `BoxLP`,
which answers from the box's sides and the cut's dual in closed form; every
other region gets a `simplex.RegionLP`. Region files read every number
through `exceptions._reals`, the check model files use too.
"""
from __future__ import annotations

import math

import numpy as np

from . import simplex
from .exceptions import InfeasibleRegionError, ModelFormatError, _integer, _read_json, _reals

FEAS_TOL = simplex.FEAS_TOL
_ZERO_ROW_TOL = 1e-12
# elements of the (objectives x candidates x coordinates) temporaries of one
# chunk of `BoxLP`'s dual values; keeps them small whatever the sizes
_CHUNK = 1 << 15


class Polyhedron:
    """Closed region {x : C x <= c} in R^dim; zero constraint rows mean all of R^dim.

    Rows are normalized to unit Euclidean norm at construction, so a
    tolerance on a row (as in `contains`) is a distance to its hyperplane.
    Rows that reduce to 0.x <= c with c >= 0 are vacuous and removed; with
    c < 0 they are kept and encode infeasibility (the LP detects it). Every
    other row is kept as given, duplicates included. The region's LP is built
    on first use by `region_lp` and kept with it.
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
        """Axis-aligned box; an infinite lower (-inf) or upper (+inf) side
        contributes no constraint row. Raises ValueError for a NaN side, a
        lower side of +inf or an upper side of -inf."""
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.shape != upper.shape:
            raise ValueError("box bounds disagree on dimension")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("box sides must not be NaN")
        if (lower == np.inf).any() or (upper == -np.inf).any():
            raise ValueError("box has a lower side of +inf or an upper side of -inf")
        d = lower.shape[0]
        # row 2i is x_i <= upper_i, row 2i + 1 is -x_i <= -lower_i
        C = np.zeros((2 * d, d))
        C[np.arange(2 * d), np.arange(2 * d) // 2] = np.tile([1.0, -1.0], d)
        c = np.stack([upper, -lower], axis=1).reshape(-1)
        keep = np.isfinite(c)
        return cls(C[keep], c[keep], dim=d)

    def contains(self, x, tol: float = FEAS_TOL):
        """Whether the point x satisfies every row within tol; given points as
        the rows of a matrix, the mask of those that do."""
        X = np.asarray(x, dtype=float)
        single = X.ndim < 2
        X = X.reshape(1, -1) if single else X
        if X.shape[-1] != self.dim:
            raise ValueError(f"point has dimension {X.shape[-1]}, expected {self.dim}")
        # matrix-vector products per point, as for a single point
        inside = np.all(np.matmul(self.C, X[..., None])[..., 0] <= self.c + tol, axis=-1)
        return bool(inside[0]) if single else inside

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


class BoxLP:
    """The LPs of a region whose rows each bound one coordinate, except at
    most one general row a.x <= beta (a box, the whole space, or either cut
    by one half-space), answered in closed form with the queries this module
    asks of a `simplex.RegionLP` (`feasible` and `bounds()`): each
    coordinate i lies in [lo_i, hi_i], the tightest of its rows' bounds c / a.

    The region is empty when the box's total inversion
    sum_i max(0, lo_i - hi_i) plus the cut's least violation over the box
    max(0, min a.x - beta) exceeds FEAS_TOL. A box row is a unit axis row, so
    violating it by t buys at most t of the cut's violation: the sum never
    exceeds the phase-1 optimum of the simplex (and is that optimum on an
    uncut box with one row per side), so a region is called empty only where
    the simplex would call it empty.

    Over a cut box, sup o.x is the least value at lambda = 0 or at a positive
    ratio o_i / a_i of the convex piecewise-linear dual
    g(lambda) = lambda beta + sum_i sup over [lo_i, hi_i] of (o_i - lambda a_i) x_i,
    whose kinks are those ratios. Every lambda >= 0 bounds the sup from
    above, so a multiplier off the optimum errs upward, the sound side for a
    star range. A reduced coefficient o_i - lambda a_i within
    `simplex.PIVOT_TOL` of zero opens no infinite side, as in the simplex's
    reduced-cost test, and is exactly zero at its own ratio.
    """

    __slots__ = ("dim", "feasible", "_lo", "_hi", "_a", "_beta")

    def __init__(self, C, c):
        dim = C.shape[1]
        general = np.count_nonzero(C, axis=1) > 1
        self._a = self._beta = None
        if general.any():
            if general.sum() > 1:
                raise ValueError("a BoxLP region has at most one row over several coordinates")
            g = int(general.argmax())
            self._a, self._beta = C[g], float(c[g])
            C, c = C[~general], c[~general]
        i, j = np.nonzero(C)
        bound = c[i] / C[i, j]
        upper = C[i, j] > 0
        lo, hi = np.full(dim, -np.inf), np.full(dim, np.inf)
        np.maximum.at(lo, j[~upper], bound[~upper])
        np.minimum.at(hi, j[upper], bound[upper])
        self.dim = dim
        self._lo, self._hi = lo, hi
        # sides near +-1.8e308: inf is the outward sum
        with np.errstate(over="ignore", invalid="ignore"):
            excess = np.maximum(lo - hi, 0.0).sum()
            if self._a is not None:
                # the cut's least value over the box (0 * inf masked to 0); a
                # sum of -inf and a finite overflow is NaN, which fmax drops
                a = self._a
                least = np.where(a != 0.0, np.minimum(a * lo, a * hi), 0.0).sum()
                excess += np.fmax(least - self._beta, 0.0)
        self.feasible = bool(excess <= FEAS_TOL)

    def bounds(self, objectives, stop=None) -> np.ndarray:
        """(inf, sup) of o.x over the region for each row o of the (k, dim)
        matrix `objectives`, as a (k, 2) array; +-inf where unbounded.
        `stop` is `RegionLP.bounds`'s; a closed form answers exactly anyway.

        Raises InfeasibleRegionError when the region is empty.
        """
        if not self.feasible:
            raise InfeasibleRegionError("bounds queried on an empty region")
        O = np.asarray(objectives, dtype=float)
        if O.ndim != 2 or O.shape[1] != self.dim:
            raise ValueError("objectives must be a matrix with one column per variable")
        if self._a is not None:
            sup = self._cut_sup(np.concatenate([-O, O]))
            return np.stack([-sup[: len(O)], sup[len(O):]], axis=1)
        # a zero coefficient times an infinite side is NaN, and is masked to 0;
        # a product or sum past the float range is +-inf, the outward answer
        with np.errstate(invalid="ignore", over="ignore"):
            at_lo, at_hi = O * self._lo, O * self._hi
            inf = np.where(O > 0, at_lo, np.where(O < 0, at_hi, 0.0)).sum(axis=1)
            sup = np.where(O > 0, at_hi, np.where(O < 0, at_lo, 0.0)).sum(axis=1)
        return np.stack([inf, sup], axis=1)

    @np.errstate(invalid="ignore", over="ignore")
    def _cut_sup(self, S) -> np.ndarray:
        """sup of s.x over the cut box for each row s of S: the least dual
        value g over lambda = 0 and the positive ratios s_i / a_i."""
        a, lo, hi = self._a, self._lo, self._hi
        on = a != 0.0
        # coordinates off the cut add the same term at every lambda
        fixed = _sup_terms(S[:, ~on], lo[~on], hi[~on]).sum(axis=1)
        a, lo, hi, S = a[on], lo[on], hi[on], S[:, on]
        m = a.size
        own = np.arange(m)
        ratio = S / a
        lam = np.concatenate([np.zeros((len(S), 1)), np.maximum(ratio, 0.0)], axis=1)
        sup = np.empty(len(S))
        step = max(1, _CHUNK // ((m + 1) * m))
        for s in range(0, len(S), step):
            L = lam[s : s + step]
            R = S[s : s + step, None, :] - L[:, :, None] * a
            R[:, 1 + own, own] = 0.0
            g = L * self._beta + _sup_terms(R, lo, hi).sum(axis=2)
            # a negative ratio is no kink; inf - inf is an unbounded side
            g[:, 1:][ratio[s : s + step] < 0.0] = np.inf
            sup[s : s + step] = np.where(np.isnan(g), np.inf, g).min(axis=1)
        return sup + fixed


def _sup_terms(R, lo, hi):
    """sup of r_i x_i over [lo_i, hi_i] for each reduced coefficient r_i in R;
    0 where |r_i| is within `simplex.PIVOT_TOL` of zero and its side is
    infinite."""
    side = np.where(R > 0.0, hi, lo)
    return np.where((np.abs(R) <= simplex.PIVOT_TOL) & np.isinf(side), 0.0, R * side)


def region_lp(P: Polyhedron) -> BoxLP | simplex.RegionLP:
    """The LPs of P: a `BoxLP` when every row of P bounds one coordinate but
    at most one (a box or the whole space, either cut by one half-space),
    else a `simplex.RegionLP`, which runs phase 1 when it is built and phase
    2 for the objectives asked of it. Either answers `feasible` and
    `bounds()` only. Every later call returns the same object."""
    if P._lp is None:
        # no row without a non-zero entry, and at most one with several
        entries = np.count_nonzero(P.C, axis=1)
        if entries.all() and np.count_nonzero(entries > 1) <= 1:
            P._lp = BoxLP(P.C, P.c)
        else:
            P._lp = simplex.RegionLP(P.C, P.c)
    return P._lp


def feasible_point(P: Polyhedron) -> np.ndarray | None:
    """A point of P (within the LP feasibility slack), or None if P is empty;
    a phase 1 of its own on P's rows, apart from P's kept LP."""
    return simplex.feasible_point(P.C, P.c)


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
    lo, hi = region_lp(P).bounds(_objective(P, objective)[None])[0]
    return float(lo), float(hi)


def support_value(P: Polyhedron, objective) -> float:
    """sup of objective.x over P (+inf if unbounded); P must be non-empty."""
    return float(region_lp(P).bounds(_objective(P, objective)[None])[0, 1])


def coordinate_bounds(P: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate (lower, upper) bounds of P; the tightest enclosing box."""
    lohi = region_lp(P).bounds(np.eye(P.dim))
    return lohi[:, 0].copy(), lohi[:, 1].copy()


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
        lower, upper = (_reals(box[side], f"box '{side}'", ModelFormatError, null=unbounded)
                        for side, unbounded in (("lower", -math.inf), ("upper", math.inf)))
        if lower.ndim != 1 or upper.ndim != 1:
            raise ModelFormatError("box sides must be lists of numbers or null")
        if len(lower) != len(upper) or not len(lower):
            raise ModelFormatError("box bounds disagree on dimension")
        if (lower > upper).any():
            raise ModelFormatError("box has a lower bound above its upper bound")
        try:
            return Polyhedron.from_box(lower, upper)
        except ValueError as err:
            raise ModelFormatError(f"bad box region: {err}") from err
    if keys == {"dim", "C", "c"}:
        dim = _integer(data["dim"], "'dim'", ModelFormatError)
        C = _reals(data["C"], "'C'", ModelFormatError)
        c = _reals(data["c"], "'c'", ModelFormatError)
        try:
            return Polyhedron(C, c, dim=dim)
        except ValueError as err:
            raise ModelFormatError(f"bad half-space region: {err}") from err
    raise ModelFormatError(f"unrecognized region keys: {sorted(keys)}")


def load_region(path) -> Polyhedron:
    return region_from_json(_read_json(path, "region"))

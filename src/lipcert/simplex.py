"""Dense two-phase simplex with Bland's rule, for small LPs over free variables.

Solves min cost.x subject to A x <= b with x unrestricted in sign. The LPs in
this package are small and dense (region feasibility, support values, piece
containment), so a tableau method with anti-cycling pivoting is simpler and
more predictable here than sparse machinery or interior-point codes.

The queries come in batches over one region: the range of every neuron's
pre-activation, every row of a piece-containment test. `RegionLP` therefore
builds the tableau of a region and runs phase 1 once, saves the feasible basis
it reaches, and answers each objective with phase 2 alone, started from a copy
of that saved basis. Every answer is thus independent of the order in which
the objectives are asked. `polyhedra.region_lp` keeps one per region, so every
query of a region shares its phase 1. `solve_lp` and `feasible_point` are the
one-query uses of the same object, so tableau setup exists in one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleRegionError, LpSolverError

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
_MAX_PIVOTS = 100000


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    value: float


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row]
    prow /= prow[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * prow
    T[:, col] = 0.0
    T[row, col] = 1.0


def _run_simplex(T, basis, budget):
    """Pivot until optimal or unbounded. Returns (status, pivots_used).

    Bland's rule: the lowest-index column with a negative reduced cost enters;
    the row of least ratio leaves, ties going to the lowest basic index.
    """
    used = 0
    while True:
        negative = T[-1, :-1] < -PIVOT_TOL
        entering = int(negative.argmax())
        if not negative[entering]:
            return "optimal", used
        col = T[:-1, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded", used
        ratios = T[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        leave = int(tied[basis[tied].argmin()])
        _pivot(T, leave, entering)
        basis[leave] = entering
        used += 1
        if used > budget:
            raise LpSolverError(
                f"simplex exceeded {budget} pivots", phase="pivot-budget"
            )


def _build_tableau(A, b):
    """Standard-form tableau for A x <= b with x free (split x = u - v).

    Columns are u, v, one slack per row, one artificial per row with a
    negative right-hand side, then the right-hand side. Those rows are negated
    and start with their artificial basic; the rest start with their slack
    basic. Returns (T, basis, first artificial column).
    """
    m, d = A.shape
    art_rows = np.flatnonzero(b < 0)
    n_art = art_rows.size
    first_art = 2 * d + m
    T = np.zeros((m + 1, first_art + n_art + 1))
    T[:m, :d] = A
    T[:m, d : 2 * d] = -A
    T[np.arange(m), 2 * d + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[art_rows, :-1] *= -1.0
    T[art_rows, -1] *= -1.0
    T[art_rows, first_art + np.arange(n_art)] = 1.0
    basis = 2 * d + np.arange(m)
    basis[art_rows] = first_art + np.arange(n_art)
    return T, basis, first_art


def _set_objective(T, basis, obj):
    """Install the reduced-cost row of the full cost vector `obj` (rhs included)."""
    for r in np.flatnonzero(obj[basis]):
        obj -= obj[basis[r]] * T[r]
    T[-1] = obj


def _basic_point(T, basis, d):
    vals = np.zeros(T.shape[1] - 1)
    vals[basis] = T[:-1, -1]
    return vals[:d] - vals[d : 2 * d]


class RegionLP:
    """The LPs of one region A x <= b: phase 1 once, phase 2 per objective.

    `feasible` is settled at construction. The first objective drives the
    remaining artificial variables out of the phase-1 basis and drops their
    columns; the resulting tableau replaces the phase-1 one. Each objective
    then runs phase 2 on a copy of it.
    """

    __slots__ = ("dim", "feasible", "_T", "_basis", "_first_art", "_budget", "_point")

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("constraint shapes are inconsistent")
        self.dim = A.shape[1]
        T, basis, first_art = _build_tableau(A, b)
        obj = np.zeros(T.shape[1])
        obj[first_art:-1] = 1.0
        _set_objective(T, basis, obj)
        status, used = _run_simplex(T, basis, _MAX_PIVOTS)
        if status != "optimal":
            raise LpSolverError("phase-1 simplex did not terminate", phase="phase1")
        self.feasible = bool(-T[-1, -1] <= FEAS_TOL)
        self._T = T
        self._basis = basis
        self._first_art = first_art
        self._budget = _MAX_PIVOTS - used
        self._point = _basic_point(T, basis, self.dim) if self.feasible else None

    def point(self) -> np.ndarray | None:
        """The basic point phase 1 ends at (within FEAS_TOL), or None if empty."""
        return None if self._point is None else self._point.copy()

    def _start_phase2(self) -> None:
        T, basis, first_art = self._T, self._basis, self._first_art
        # an artificial still basic (at zero) in row r always has a pivot: the
        # slack of its own constraint stays the negated artificial column
        # through every pivot, so it holds -1 in row r
        for r in np.flatnonzero(basis >= first_art):
            j = int(np.flatnonzero(np.abs(T[r, :first_art]) > PIVOT_TOL)[0])
            _pivot(T, r, j)
            basis[r] = j
        # artificial columns may never re-enter phase 2
        self._T = np.delete(T, np.s_[first_art:-1], axis=1)

    def minimize(self, cost) -> LpResult:
        """min cost.x over the region, from the saved post-phase-1 basis."""
        cost = np.asarray(cost, dtype=float).reshape(-1)
        if cost.shape[0] != self.dim:
            raise ValueError("cost length does not match the variable count")
        if not self.feasible:
            return LpResult("infeasible", None, float("inf"))
        if self._T.shape[1] > self._first_art + 1:  # still the phase-1 tableau
            self._start_phase2()
        d = self.dim
        T = self._T.copy()
        basis = self._basis.copy()
        obj = np.zeros(T.shape[1])
        obj[:d] = cost
        obj[d : 2 * d] = -cost
        _set_objective(T, basis, obj)
        status, _ = _run_simplex(T, basis, self._budget)
        x = _basic_point(T, basis, d)
        if status == "unbounded":
            return LpResult("unbounded", x, float("-inf"))
        return LpResult("optimal", x, float(-T[-1, -1]))

    def bounds(self, objective) -> tuple[float, float]:
        """(inf, sup) of objective.x over the region; +-inf when unbounded.

        Raises InfeasibleRegionError when the region is empty.
        """
        if not self.feasible:
            raise InfeasibleRegionError("bounds queried on an empty region")
        objective = np.asarray(objective, dtype=float).reshape(-1)
        lo = self.minimize(objective)
        hi = self.minimize(-objective)
        return (float("-inf") if lo.status == "unbounded" else lo.value,
                float("inf") if hi.status == "unbounded" else -hi.value)

    def support(self, objective) -> float:
        """sup of objective.x over the region (+inf if unbounded).

        Raises InfeasibleRegionError when the region is empty.
        """
        if not self.feasible:
            raise InfeasibleRegionError("support value queried on an empty region")
        res = self.minimize(-np.asarray(objective, dtype=float).reshape(-1))
        return float("inf") if res.status == "unbounded" else -res.value


def solve_lp(A, b, cost) -> LpResult:
    """min cost.x subject to A x <= b, x free."""
    return RegionLP(A, b).minimize(cost)


def feasible_point(A, b) -> np.ndarray | None:
    """A point satisfying A x <= b (within FEAS_TOL), or None."""
    return RegionLP(A, b).point()

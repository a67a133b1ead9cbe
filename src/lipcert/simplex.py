"""Dense two-phase simplex with Bland's rule, for small LPs over free variables.

Solves min cost.x subject to A x <= b with x unrestricted in sign. The LPs in
this package are small and dense (region feasibility, support values, piece
containment), so a tableau method with anti-cycling pivoting is simpler and
more predictable here than sparse machinery or interior-point codes.

The queries come in batches over one region: the range of every neuron's
pre-activation, every row of a piece-containment test. `RegionLP` therefore
builds the tableau of a region and runs phase 1 once, saves the feasible basis
it reaches, and starts each objective's phase 2 from a copy of that saved
basis, so every answer is independent of the order and the company in which
it is asked. `RegionLP.bounds` takes a matrix of objectives and solves their
2k phase-2 LPs together: a stack of copies of the saved tableau pivots in
lock-step, each LP as the 2-D kernel would pivot it alone, and an LP leaves
the stack when it ends. Stacks are cut to a fixed number of tableau elements;
a stack of fewer than four tableaux (large tableaux, or the last few LPs)
runs them one by one in the 2-D kernel, which costs less per pivot there.
`polyhedra.region_lp` keeps one `RegionLP` per region, so every query of a
region shares its phase 1. `solve_lp` and `feasible_point` are the one-query
uses of the same object, so tableau setup exists in one place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleRegionError, LpSolverError

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
_MAX_PIVOTS = 100000
# tableau elements per stack of phase-2 LPs solved in lock-step; keeps the
# temporaries of one stacked pivot small whatever the number of objectives
_STACK = 1 << 15
# fewer tableaux than this per stack cost more per pivot in lock-step than
# one by one, so they run the 2-D kernel
_MIN_STACK = 4


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


def _run_stack(T, basis, budget):
    """`_run_simplex` on a stack of tableaux T (k x rows x columns) with bases
    (k x rows), in lock-step: each pivot is the one, and does the arithmetic,
    that the 2-D kernel would do on that tableau alone. An LP leaves the stack
    when it ends. Returns (values, unbounded): -T[-1, -1] of each LP that
    ends optimal, and which LPs end unbounded, in stack order.
    """
    k, _, n = T.shape
    values = np.empty(k)
    unbounded = np.zeros(k, dtype=bool)
    live = np.arange(k)
    at = np.arange(k)
    work = np.empty_like(T)
    used = 0
    while True:
        negative = T[:, -1, :-1] < -PIVOT_TOL
        entering = negative.argmax(axis=1)
        col = T[at, :-1, entering]
        pos = col > PIVOT_TOL
        optimal = ~negative[at, entering]
        go = ~optimal & pos.any(axis=1)
        if not go.all():
            values[live[optimal]] = -T[optimal, -1, -1]
            unbounded[live[~(go | optimal)]] = True
            if not go.any():
                return values, unbounded
            T, basis, live = T[go], basis[go], live[go]
            entering, col, pos = entering[go], col[go], pos[go]
            at = np.arange(live.size)
            work = work[: live.size]
        ratios = np.divide(T[:, :-1, -1], col, out=np.full(col.shape, np.inf), where=pos)
        tied = pos & (ratios == ratios.min(axis=1, keepdims=True))
        leave = np.where(tied, basis, n).argmin(axis=1)
        # _pivot, one tableau per stack entry
        prow = T[at, leave]
        prow /= prow[at, entering][:, None]
        T[at, leave] = prow
        factors = T[at, :, entering]
        factors[at, leave] = 0.0
        np.multiply(factors[:, :, None], prow[:, None, :], out=work)
        T -= work
        T[at, :, entering] = 0.0
        T[at, leave, entering] = 1.0
        basis[at, leave] = entering
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


def _set_objectives(T, basis, objs):
    """`_set_objective` of each row of `objs` (k x columns) on the tableau T,
    in place on `objs`: a row whose cost on row r's basic column is zero
    skips row r, as the 2-D loop does, so each row's arithmetic is its own."""
    for r in np.flatnonzero(objs[:, basis].any(axis=0)):
        coef = objs[:, basis[r]]
        np.subtract(objs, coef[:, None] * T[r], out=objs, where=(coef != 0)[:, None])


def _basic_point(T, basis, d):
    vals = np.zeros(T.shape[1] - 1)
    vals[basis] = T[:-1, -1]
    return vals[:d] - vals[d : 2 * d]


class RegionLP:
    """The LPs of one region A x <= b: phase 1 once, then phase 2 from its basis.

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

    def _phase2_start(self) -> np.ndarray:
        """The saved tableau phase 2 starts from, without artificial columns."""
        T, basis, first_art = self._T, self._basis, self._first_art
        if T.shape[1] > first_art + 1:  # still the phase-1 tableau
            # an artificial still basic (at zero) in row r always has a pivot:
            # the slack of its own constraint stays the negated artificial
            # column through every pivot, so it holds -1 in row r
            for r in np.flatnonzero(basis >= first_art):
                j = int(np.flatnonzero(np.abs(T[r, :first_art]) > PIVOT_TOL)[0])
                _pivot(T, r, j)
                basis[r] = j
            # artificial columns may never re-enter phase 2
            self._T = np.delete(T, np.s_[first_art:-1], axis=1)
        return self._T

    def _objectives(self, costs) -> np.ndarray:
        """The full cost rows (u, v, slack columns, rhs) of the rows of `costs`."""
        d = self.dim
        objs = np.zeros((costs.shape[0], self._phase2_start().shape[1]))
        objs[:, :d] = costs
        objs[:, d : 2 * d] = -costs
        return objs

    def _solve(self, obj):
        """Phase 2 of the full cost row `obj` on a copy of the saved tableau:
        (tableau, basis, status) at its end."""
        T = self._T.copy()
        basis = self._basis.copy()
        _set_objective(T, basis, obj)
        status, _ = _run_simplex(T, basis, self._budget)
        return T, basis, status

    def minimize(self, cost) -> LpResult:
        """min cost.x over the region, from the saved post-phase-1 basis."""
        cost = np.asarray(cost, dtype=float).reshape(-1)
        if cost.shape[0] != self.dim:
            raise ValueError("cost length does not match the variable count")
        if not self.feasible:
            return LpResult("infeasible", None, float("inf"))
        T, basis, status = self._solve(self._objectives(cost[None])[0])
        x = _basic_point(T, basis, self.dim)
        if status == "unbounded":
            return LpResult("unbounded", x, float("-inf"))
        return LpResult("optimal", x, float(-T[-1, -1]))

    def bounds(self, objectives) -> np.ndarray:
        """(inf, sup) of o.x over the region for each row o of the (k, dim)
        matrix `objectives`, as a (k, 2) array; +-inf where unbounded.

        The 2k phase-2 LPs run in stacks of up to _STACK tableau elements;
        a stack of fewer than _MIN_STACK tableaux runs them one by one. Each
        answer is bit for bit that of `minimize(o)` and `minimize(-o)`.
        Raises InfeasibleRegionError when the region is empty.
        """
        if not self.feasible:
            raise InfeasibleRegionError("bounds queried on an empty region")
        O = np.asarray(objectives, dtype=float)
        if O.ndim != 2 or O.shape[1] != self.dim:
            raise ValueError("objectives must be a matrix with one column per variable")
        k = O.shape[0]
        T, basis = self._phase2_start(), self._basis
        objs = self._objectives(np.concatenate([O, -O]))
        values = np.empty(2 * k)
        unbounded = np.empty(2 * k, dtype=bool)
        step = max(1, _STACK // T.size)
        for s in range(0, 2 * k, step):
            chunk = objs[s : s + step]
            if len(chunk) < _MIN_STACK:
                for i, obj in enumerate(chunk, start=s):
                    end, _, status = self._solve(obj)
                    values[i], unbounded[i] = -end[-1, -1], status == "unbounded"
                continue
            _set_objectives(T, basis, chunk)
            stack = np.repeat(T[None], len(chunk), axis=0)
            stack[:, -1] = chunk
            bases = np.repeat(basis[None], len(chunk), axis=0)
            values[s : s + step], unbounded[s : s + step] = _run_stack(stack, bases, self._budget)
        lo = np.where(unbounded[:k], -np.inf, values[:k])
        hi = np.where(unbounded[k:], np.inf, -values[k:])
        return np.stack([lo, hi], axis=1)

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

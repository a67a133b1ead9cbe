"""Dense two-phase simplex with Bland's rule, for small LPs over free variables.

Solves min cost.x subject to A x <= b with x unrestricted in sign. The LPs in
this package are small and dense (region feasibility, support values, piece
containment), so a tableau method with anti-cycling pivoting is simpler and
more predictable here than sparse machinery or interior-point codes.

The queries come in batches over one region: the range of every neuron's
pre-activation, every row of a piece-containment test. So `RegionLP` settles
phase 1 when it is built, drives the artificial variables out of the basis
it reaches and keeps that one tableau; each objective's phase 2 starts from a
copy of it, so every answer is independent of the order and the company in
which it is asked. `RegionLP.bounds` solves the 2k phase-2 LPs of a matrix
of objectives together: a stack of copies of the saved tableau pivots in
lock-step, each LP as the 2-D kernel would pivot it alone, and an LP leaves
the stack when it ends. Stacks are cut to a fixed number of tableau elements;
a stack of fewer than four tableaux (large tableaux, or the last few LPs)
runs them one by one in the 2-D kernel, which costs less per pivot there.
`polyhedra.region_lp` keeps one `RegionLP` per region with two or more rows
over several coordinates, so every query of such a region shares its phase 1;
the LPs of a box, or of a box cut by one half-space, are answered in closed
form there (`polyhedra.BoxLP`) and never reach this module.
A region answers `feasible` and `bounds()` only; `solve_lp` and
`feasible_point` build one and read a single answer off its tableau.
No answer is read from a tableau whose pivots overflowed to inf or NaN.
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


def _finite(T):
    """Raise when the tableau T holds an inf or NaN: no answer is read from it."""
    if not np.isfinite(T).all():
        raise LpSolverError("simplex tableau overflowed: a non-finite entry", phase="overflow")


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
        if tied.size == 0:  # a NaN ratio
            _finite(T)
        leave = int(tied[basis[tied].argmin()])
        _pivot(T, leave, entering)
        basis[leave] = entering
        used += 1
        if used > budget:
            _finite(T)
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
            _finite(T[~go])
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
        if not tied.any(axis=1).all():  # a NaN ratio
            _finite(T)
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
            _finite(T)
            raise LpSolverError(
                f"simplex exceeded {budget} pivots", phase="pivot-budget"
            )


def _build_tableau(A, b):
    """Phase-1 tableau for A x <= b with x free (split x = u - v).

    Columns are u, v, one slack per row, one artificial per row with a
    negative right-hand side, then the right-hand side. Those rows are negated
    and start with their artificial basic; the rest start with their slack
    basic; the last row is the reduced cost of 1 per artificial (their rows
    subtracted in order). Returns (T, basis, first artificial column).
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
    T[-1, first_art:-1] = 1.0
    T[-1] = np.subtract.reduce(np.vstack([T[-1:], T[art_rows]]), axis=0)
    basis = 2 * d + np.arange(m)
    basis[art_rows] = first_art + np.arange(n_art)
    return T, basis, first_art


def _set_objectives(T, basis, objs):
    """The reduced-cost rows of the cost rows `objs` (k x columns, rhs
    included) on T: basic row r times each row's cost on r's basic column
    (which no other basic row changes) is subtracted in order of r; a zero
    cost subtracts +0.0, so each row's arithmetic is its own."""
    coef = objs[:, basis].T
    rows = coef.any(axis=1).nonzero()[0]
    coef = coef[rows]
    terms = np.empty((len(rows) + 1,) + objs.shape)
    terms[0] = objs
    np.multiply(coef[:, :, None], T[rows, None], out=terms[1:])
    terms[1:][coef == 0] = 0.0
    return np.subtract.reduce(terms, axis=0)


def _basic_point(T, basis, d):
    vals = np.zeros(T.shape[1] - 1)
    vals[basis] = T[:-1, -1]
    return vals[:d] - vals[d : 2 * d]


class RegionLP:
    """The LPs of one region A x <= b: phase 1 once, then phase 2 from its basis.

    Phase 1 is settled at construction: it sets `feasible`, and on a
    feasible region it drives the remaining artificial variables out of the
    basis and drops their columns. The tableau it leaves is the only one
    kept; each objective runs phase 2 on a copy of it.
    """

    __slots__ = ("dim", "feasible", "_T", "_basis", "_budget")

    # `_finite` refuses what overflows, so numpy's warnings would only repeat it
    @np.errstate(all="ignore")
    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("constraint shapes are inconsistent")
        self.dim = A.shape[1]
        T, basis, first_art = _build_tableau(A, b)
        status, used = _run_simplex(T, basis, _MAX_PIVOTS)
        if status != "optimal":
            raise LpSolverError("phase-1 simplex did not terminate", phase="phase1")
        _finite(T)
        self.feasible = bool(-T[-1, -1] <= FEAS_TOL)
        if self.feasible and T.shape[1] > first_art + 1:
            # an artificial still basic (at zero) in row r always has a pivot:
            # the slack of its own constraint stays the negated artificial
            # column through every pivot, so it holds -1 in row r
            for r in np.flatnonzero(basis >= first_art):
                j = int(np.flatnonzero(np.abs(T[r, :first_art]) > PIVOT_TOL)[0])
                _pivot(T, r, j)
                basis[r] = j
            # artificial columns may never re-enter phase 2
            T = np.delete(T, np.s_[first_art:-1], axis=1)
        self._T, self._basis, self._budget = T, basis, _MAX_PIVOTS - used

    def _objectives(self, costs) -> np.ndarray:
        """The full cost rows (u, v, slack columns, rhs) of the rows of `costs`."""
        d = self.dim
        objs = np.zeros((costs.shape[0], self._T.shape[1]))
        objs[:, :d] = costs
        objs[:, d : 2 * d] = -costs
        return objs

    def _solve(self, obj):
        """Phase 2 of the full cost row `obj` on a copy of the saved tableau:
        (tableau, basis, status) at its end."""
        T, basis = self._T.copy(), self._basis.copy()
        T[-1] = _set_objectives(T, basis, obj[None])[0]
        status, _ = _run_simplex(T, basis, self._budget)
        _finite(T)
        return T, basis, status

    @np.errstate(all="ignore")
    def bounds(self, objectives) -> np.ndarray:
        """(inf, sup) of o.x over the region for each row o of the (k, dim)
        matrix `objectives`, as a (k, 2) array; +-inf where unbounded.

        The 2k phase-2 LPs run in stacks of up to _STACK tableau elements;
        a stack of fewer than _MIN_STACK tableaux runs them one by one. Each
        answer is bit for bit that of `solve_lp` on the same rows for o and -o.
        Raises InfeasibleRegionError on an empty region, LpSolverError on overflow.
        """
        if not self.feasible:
            raise InfeasibleRegionError("bounds queried on an empty region")
        O = np.asarray(objectives, dtype=float)
        if O.ndim != 2 or O.shape[1] != self.dim:
            raise ValueError("objectives must be a matrix with one column per variable")
        k = O.shape[0]
        T, basis = self._T, self._basis
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
            stack = np.repeat(T[None], len(chunk), axis=0)
            stack[:, -1] = _set_objectives(T, basis, chunk)
            bases = np.repeat(basis[None], len(chunk), axis=0)
            values[s : s + step], unbounded[s : s + step] = _run_stack(stack, bases, self._budget)
        lo = np.where(unbounded[:k], -np.inf, values[:k])
        hi = np.where(unbounded[k:], np.inf, -values[k:])
        return np.stack([lo, hi], axis=1)


@np.errstate(all="ignore")
def solve_lp(A, b, cost) -> LpResult:
    """min cost.x subject to A x <= b, x free: one phase 2 on a `RegionLP`."""
    lp = RegionLP(A, b)
    cost = np.asarray(cost, dtype=float).reshape(-1)
    if cost.shape[0] != lp.dim:
        raise ValueError("cost length does not match the variable count")
    if not lp.feasible:
        return LpResult("infeasible", None, float("inf"))
    T, basis, status = lp._solve(lp._objectives(cost[None])[0])
    x = _basic_point(T, basis, lp.dim)
    if status == "unbounded":
        return LpResult("unbounded", x, float("-inf"))
    return LpResult("optimal", x, float(-T[-1, -1]))


def feasible_point(A, b) -> np.ndarray | None:
    """A point satisfying A x <= b (within FEAS_TOL), or None: the basic
    point of the tableau phase 1 leaves."""
    lp = RegionLP(A, b)
    return _basic_point(lp._T, lp._basis, lp.dim) if lp.feasible else None

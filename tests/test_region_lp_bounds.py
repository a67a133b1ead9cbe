"""`RegionLP.bounds` solves a matrix of objectives in stacks of tableaux; every
answer must be the one `solve_lp` gives for that objective alone on the same
rows, bit for bit. Given stops, an answer may end early, but only past its
stop and at a value the region attains."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lipcert import InfeasibleRegionError, LpSolverError
from lipcert import simplex
from lipcert.simplex import FEAS_TOL, RegionLP, solve_lp


def _region(kind: str, rng, d: int):
    """(A, b) of a region of the given kind in R^d. Integer data and rows
    through one point make exact ties in the ratio test common."""
    if kind == "whole space":
        return np.zeros((0, d)), np.zeros(0)
    if kind == "degenerate":  # many rows through the origin: ratio ties at zero
        A = rng.normal(size=(int(rng.integers(d + 1, 3 * d + 3)), d))
        A = np.vstack([A, np.eye(d), -np.eye(d)])
        return A, np.concatenate([np.zeros(len(A) - 2 * d), rng.uniform(0.5, 2.0, size=2 * d)])
    if kind == "cone":  # fewer rows than variables: unbounded directions
        A = rng.integers(-3, 4, size=(int(rng.integers(1, d + 1)), d)).astype(float)
        return A, A @ rng.integers(-2, 3, size=d) + rng.integers(0, 2, size=len(A))
    A = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), d)).astype(float)
    A = np.vstack([A, np.eye(d), -np.eye(d)])  # a box keeps it bounded
    b = A @ rng.integers(-2, 3, size=d) + rng.integers(0, 3, size=len(A))
    if kind == "redundant":  # repeated, scaled and equality rows: degenerate ties
        A = np.vstack([A, A[:2], 2.0 * A[:2], A[:1], -A[:1]])
        b = np.concatenate([b, b[:2], 2.0 * b[:2], b[:1], -b[:1]])
    return A, b.astype(float)


def _objectives(rng, A, d: int, k: int):
    O = rng.normal(size=(k, d))
    pick = rng.integers(0, 4, size=k)
    O[pick == 1] = 0.0
    if len(A):
        rows = A[rng.integers(0, len(A), size=k)]
        O[pick == 2] = rows[pick == 2]  # parallel to a constraint: ties at the optimum
    O[pick == 3] = np.eye(d)[rng.integers(0, d, size=k)][pick == 3]
    return O


def _one_by_one(A, b, O):
    """bounds as a loop of single `solve_lp` calls, with their statuses."""
    out = []
    for o in O:
        lo, hi = solve_lp(A, b, o), solve_lp(A, b, -o)
        out.append((lo.status, hi.status,
                    float("-inf") if lo.status == "unbounded" else lo.value,
                    float("inf") if hi.status == "unbounded" else -hi.value))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["bounded", "degenerate", "cone", "whole space", "redundant"]),
       k=st.integers(1, 12),
       per_stack=st.sampled_from([1, 2, 3, 5, 24]),
       min_stack=st.sampled_from([2, 4]))
def test_bounds_match_solve_lp_one_by_one(seed, kind, k, per_stack, min_stack):
    # the element budget holds `per_stack` tableaux, which cuts the 2k LPs into
    # several stacks; stacks of fewer than `min_stack` run one by one
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    A, b = _region(kind, rng, d)
    O = _objectives(rng, A, d, k)
    lp = RegionLP(A, b)
    if not lp.feasible:
        with pytest.raises(InfeasibleRegionError):
            lp.bounds(O)
        return
    want = _one_by_one(A, b, O)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_MIN_STACK", min_stack)
        mp.setattr(simplex, "_STACK", per_stack * lp._T.size)
        got = lp.bounds(O)
    assert got.shape == (k, 2)
    for (lo_status, hi_status, lo, hi), (glo, ghi) in zip(want, got):
        assert (lo_status == "unbounded") == (glo == -np.inf)
        assert (hi_status == "unbounded") == (ghi == np.inf)
        assert (float(glo).hex(), float(ghi).hex()) == (float(lo).hex(), float(hi).hex())
    # the same LP answers alike when asked again, in another order and
    # under the default stack sizes
    assert lp.bounds(O[::-1])[::-1].tobytes() == got.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["bounded", "degenerate", "cone", "redundant"]),
       k=st.integers(1, 12),
       per_stack=st.sampled_from([1, 3, 24]))
def test_a_stopped_answer_is_past_its_stop_and_attained(seed, kind, k, per_stack):
    # regions with two or more general rows: boxes and single cuts never
    # reach the simplex (polyhedra.region_lp)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    A, b = _region(kind, rng, d)
    assume(np.count_nonzero(np.count_nonzero(A, axis=1) > 1) >= 2)
    lp = RegionLP(A, b)
    assume(lp.feasible)
    O = _objectives(rng, A, d, k)
    exact = lp.bounds(O)
    # stops anywhere around [inf, sup], at its ends, or none
    ends = np.where(np.isfinite(exact), exact, rng.normal(size=(k, 2)))
    ends.sort(axis=1)
    stops = ends[:, :1] + rng.uniform(-0.5, 1.5, size=(k, 2)) * (ends[:, 1:] - ends[:, :1])
    at_end = rng.random((k, 2)) < 0.2
    stops[at_end] = exact[at_end]
    none = rng.random((k, 2)) < 0.2
    lo, hi = np.where(none[:, 0], -np.inf, stops[:, 0]), np.where(none[:, 1], np.inf, stops[:, 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_STACK", per_stack * lp._T.size)
        got = lp.bounds(O, (lo, hi))
    for (glo, ghi), (wlo, whi), lo_i, hi_i in zip(got, exact, lo, hi):
        tol = FEAS_TOL * max(1.0, abs(glo), abs(ghi))
        for g, w, past in ((glo, wlo, glo < lo_i), (ghi, whi, ghi > hi_i)):
            if g.hex() != w.hex():
                assert past and wlo - tol <= g <= whi + tol, (g, w, (lo_i, hi_i), (wlo, whi))


def test_bounds_of_one_and_of_zero_objectives():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    lp = RegionLP(A, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(lp.bounds([[1.0, -1.0]]), [[-5.0, 5.0]])
    assert lp.bounds(np.zeros((0, 2))).shape == (0, 2)
    zero = lp.bounds(np.zeros((6, 2)))
    assert [v.hex() for v in zero.ravel()] == [v.hex() for v in [-0.0, 0.0] * 6]
    with pytest.raises(ValueError):
        lp.bounds([1.0, -1.0])  # one objective is a 1 x dim matrix
    with pytest.raises(ValueError):
        lp.bounds(np.zeros((2, 3)))


@pytest.mark.parametrize("k", [1, 8])
def test_bounds_keeps_the_pivot_budget(k):
    # both kernels, the one-by-one and the stacked, stop at the pivot budget
    d = 3
    A = np.vstack([np.eye(d), -np.eye(d)])
    lp = RegionLP(A, np.ones(2 * d))
    assert lp.bounds(np.ones((k, d))) == pytest.approx(np.tile([-3.0, 3.0], (k, 1)))
    lp._budget = 0
    with pytest.raises(LpSolverError) as err:
        lp.bounds(np.ones((k, d)))
    assert err.value.phase == "pivot-budget"

import numpy as np
import pytest
from scipy.optimize import linprog

import lipcert as lc
from lipcert import InfeasibleRegionError, LpSolverError, simplex
from lipcert.simplex import FEAS_TOL, LpResult, RegionLP, feasible_point, solve_lp


def test_simple_bounded_lp():
    # min x0 + x1 over the triangle x0 >= 0, x1 >= 0, x0 + x1 >= 1 is 1
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
    b = np.array([0.0, 0.0, -1.0])
    res = solve_lp(A, b, np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.all(A @ res.x <= b + FEAS_TOL)


def test_vertex_solution():
    # min x0 - x1 over the triangle with vertices (0,0), (1,0), (0,1) is -1 at (0,1)
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(A, b, np.array([1.0, -1.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-9)


def test_infeasible():
    # x <= -1 and x >= 1
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, -1.0])
    res = solve_lp(A, b, np.array([1.0]))
    assert res.status == "infeasible"
    assert feasible_point(A, b) is None


def test_unbounded():
    # min -x subject to x >= 0
    res = solve_lp(np.array([[-1.0]]), np.array([0.0]), np.array([-1.0]))
    assert res.status == "unbounded"


def test_free_variables():
    # min x over -3 <= x <= 5 with x free (negative optimum)
    A = np.array([[-1.0], [1.0]])
    b = np.array([3.0, 5.0])
    res = solve_lp(A, b, np.array([1.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(-3.0, abs=1e-9)


def test_no_constraints_unbounded():
    res = solve_lp(np.zeros((0, 2)), np.zeros(0), np.array([1.0, 0.0]))
    assert res.status == "unbounded"
    res = solve_lp(np.zeros((0, 2)), np.zeros(0), np.zeros(2))
    assert res.status == "optimal"
    assert res.value == 0.0


def test_degenerate_redundant_rows():
    # duplicated and implied rows must not break phase 1
    A = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 2.0, 1.0, 0.0, 0.0])
    res = solve_lp(A, b, np.array([-1.0, -1.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(-2.0, abs=1e-9)


def test_equality_via_paired_rows():
    # x0 + x1 = 1 encoded as two inequalities, minimize x0
    A = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0]])
    b = np.array([1.0, -1.0, 0.0])
    res = solve_lp(A, b, np.array([1.0, 0.0]))
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-9)


def random_bounded_lp(rng, d, m):
    """Feasible by construction around x0, bounded by a box."""
    A = rng.normal(size=(m, d))
    x0 = rng.normal(size=d)
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
    box = np.vstack([np.eye(d), -np.eye(d)])
    box_b = np.full(2 * d, 10.0 + np.abs(x0).max())
    return np.vstack([A, box]), np.concatenate([b, box_b])


def test_cross_check_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(150):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        A, b = random_bounded_lp(rng, d, m)
        cost = rng.normal(size=d)
        res = solve_lp(A, b, cost)
        ref = linprog(cost, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        assert res.status == "optimal"
        assert ref.status == 0
        assert res.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
        assert np.all(A @ res.x <= b + 1e-7)


def test_cross_check_infeasible_detection():
    rng = np.random.default_rng(6)
    hits = 0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(d + 1, d + 5))
        A = rng.normal(size=(m, d))
        b = rng.normal(size=m) - 1.5
        res = solve_lp(A, b, np.zeros(d))
        ref = linprog(np.zeros(d), A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")
        if ref.status == 2:
            assert res.status == "infeasible"
            hits += 1
        elif ref.status == 0:
            assert res.status == "optimal"
    assert hits > 5


def test_feasible_point_certificate():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        A, b = random_bounded_lp(rng, d, int(rng.integers(1, 6)))
        x = feasible_point(A, b)
        assert x is not None
        assert np.all(A @ x <= b + FEAS_TOL)


def test_result_type():
    res = solve_lp(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    assert isinstance(res, LpResult)
    assert res.status == "unbounded"


# RegionLP: phase 1 once per region, phase 2 per objective; solve_lp runs
# the same phase 1 and one phase 2 of its own

def _linprog(A, b, cost):
    d = A.shape[1]
    return linprog(cost, A_ub=A, b_ub=b, bounds=[(None, None)] * d, method="highs")


def _random_system(rng):
    """Systems of every kind: bounded, unbounded, infeasible, with negative
    right-hand sides (artificials), redundant copies and zero rows."""
    d = int(rng.integers(1, 5))
    m = int(rng.integers(0, 8))
    A = rng.normal(size=(m, d))
    b = rng.normal(size=m) + rng.uniform(-1.0, 2.0)
    if m and rng.random() < 0.3:
        A[rng.integers(m)] = 0.0
    if m > 1 and rng.random() < 0.3:
        A[-1], b[-1] = 2.0 * A[0], 2.0 * b[0]
    return A, b


def _bound_of(lp, cost):
    """min cost.x as `bounds` answers it, -inf where unbounded."""
    return lp.bounds(np.asarray(cost, dtype=float)[None])[0, 0]


def test_region_lp_matches_solve_lp_and_scipy():
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(200):
        A, b = _random_system(rng)
        lp = RegionLP(A, b)
        for _ in range(3):
            cost = rng.normal(size=A.shape[1])
            res = solve_lp(A, b, cost)
            if lp.feasible:
                assert _bound_of(lp, cost).hex() == float(res.value).hex()
            ref = _linprog(A, b, cost)
            kinds.add(res.status)
            if ref.status == 0:
                assert res.status == "optimal"
                assert res.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)
                assert np.all(A @ res.x <= b + 1e-7)
            elif ref.status == 2:
                assert res.status == "infeasible"
                assert not lp.feasible
            else:
                assert ref.status == 3
                assert res.status == "unbounded"
        assert lp.feasible == (feasible_point(A, b) is not None)
    assert kinds == {"optimal", "infeasible", "unbounded"}


def test_region_lp_negative_rhs_needs_artificials():
    # x0 >= 1, x1 >= 2, x0 + x1 <= 5: both lower bounds start infeasible
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([-1.0, -2.0, 5.0])
    lp = RegionLP(A, b)
    assert lp.feasible
    assert np.all(A @ feasible_point(A, b) <= b + FEAS_TOL)
    assert tuple(lp.bounds([[1.0, 0.0]])[0]) == pytest.approx((1.0, 3.0), abs=1e-9)
    assert tuple(lp.bounds([[0.0, 1.0]])[0]) == pytest.approx((2.0, 4.0), abs=1e-9)
    assert lp.bounds([[1.0, 1.0]])[0, 1] == pytest.approx(5.0, abs=1e-9)


def test_region_lp_redundant_rows_drive_out():
    # x = 1 written four times: three artificials end phase 1 basic at zero
    # in redundant rows and must be driven out without changing any answer
    A = np.array([[1.0], [-1.0], [-1.0], [-2.0]])
    b = np.array([1.0, -1.0, -1.0, -2.0])
    lp = RegionLP(A, b)
    assert lp.feasible
    for cost in ([1.0], [-1.0], [0.0]):
        res = solve_lp(A, b, cost)
        assert _bound_of(lp, cost).hex() == float(res.value).hex()
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0], abs=1e-9)


def test_region_lp_zero_rows():
    A = np.zeros((3, 2))
    lp = RegionLP(A, np.array([0.0, 1.0, 2.0]))
    assert lp.feasible
    np.testing.assert_array_equal(lp.bounds([[1.0, 0.0], [0.0, 0.0]]),
                                  [[-np.inf, np.inf], [0.0, 0.0]])
    empty = RegionLP(A, np.array([0.0, -1.0, 2.0]))  # 0 <= -1
    assert not empty.feasible
    assert feasible_point(A, np.array([0.0, -1.0, 2.0])) is None
    assert solve_lp(A, np.array([0.0, -1.0, 2.0]), [1.0, 0.0]).status == "infeasible"
    with pytest.raises(InfeasibleRegionError):
        empty.bounds([[1.0, 0.0]])
    none = RegionLP(np.zeros((0, 2)), np.zeros(0))
    assert none.feasible
    np.testing.assert_array_equal(feasible_point(np.zeros((0, 2)), np.zeros(0)), np.zeros(2))
    assert none.bounds([[0.0, 1.0]])[0, 1] == np.inf


def test_region_lp_answers_do_not_depend_on_query_order():
    rng = np.random.default_rng(12)
    for _ in range(40):
        A, b = random_bounded_lp(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        A = np.vstack([A, -A[:2]])
        b = np.concatenate([b, -b[:2] + 0.5])  # rows with negative offsets
        costs = rng.normal(size=(8, A.shape[1]))
        order = rng.permutation(len(costs))
        forward = RegionLP(A, b)
        shuffled = RegionLP(A, b)
        if not forward.feasible:
            assert not shuffled.feasible
            continue
        first = forward.bounds(costs)
        second = np.empty_like(first)
        second[order] = shuffled.bounds(costs[order])
        again = forward.bounds(costs)
        assert first.tobytes() == second.tobytes() == again.tobytes()


def test_region_lp_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RegionLP(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        solve_lp(np.zeros((2, 2)), np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("min_stack", [4, 100])
def test_region_lp_refuses_an_overflowed_tableau(monkeypatch, min_stack):
    # a box with sides near the float range cut by two oblique rows: pivoting
    # them overflows, so every phase-2 answer, stacked or one by one, raises
    # (the suite turns any RuntimeWarning into an error)
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 2.0], [3.0, -1.0]])
    b = np.array([1e308] * 4 + [0.0, 0.0])
    lp = RegionLP(A, b)
    monkeypatch.setattr(simplex, "_MIN_STACK", min_stack)
    with pytest.raises(LpSolverError, match="overflow"):
        lp.bounds([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(LpSolverError, match="overflow"):
        solve_lp(A, b, [1.0, 1.0])


def test_solve_on_sides_near_the_float_range_raises():
    # the grandchild regions carry two cuts, so their LPs reach the simplex,
    # whose pivots overflow on offsets near 1e308
    net = lc.Network([lc.AffineLayer([[1.0, 2.0], [3.0, -1.0]], [0.0, 0.0]), lc.relu(2),
                      lc.AffineLayer([[1.0, -2.0], [2.0, 1.0]], [0.0, 0.0]), lc.relu(2),
                      lc.AffineLayer([[1.0, 1.0]], [0.0])])
    with pytest.raises(LpSolverError, match="overflow"):
        lc.solve(net, lc.Polyhedron.from_box([-1e308] * 2, [1e308] * 2))


def test_lps_with_offsets_near_the_float_range_answer_or_raise(monkeypatch):
    # some of these overflow in phase 1, some in phase 2, some leave a NaN
    # ratio mid-pivot: each LP answers without NaN or raises LpSolverError,
    # stacked or one by one, and nothing else is raised or warned
    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(150):
        d = int(rng.integers(1, 4))
        A = rng.integers(-3, 4, size=(int(rng.integers(d + 1, 8)), d)).astype(float)
        b = rng.choice([1e308, -1e308, 1e307, -5e307, 0.0, 1.0], size=len(A))
        O = rng.integers(-2, 3, size=(3, d)).astype(float)
        for min_stack in (4, 100):
            monkeypatch.setattr(simplex, "_MIN_STACK", min_stack)
            try:
                lp = RegionLP(A, b)
                if lp.feasible:
                    assert not np.isnan(lp.bounds(O)).any()
                outcomes.add(lp.feasible)
            except LpSolverError as err:
                assert err.phase == "overflow"
                outcomes.add("overflow")
    assert outcomes == {True, False, "overflow"}


def test_stacked_lps_that_overflow_end_in_an_overflow_error(monkeypatch):
    # an overflow leaves a NaN ratio, which picks no leaving row: the stack
    # stops at that pivot, at the default pivot budget, and the error names
    # the overflow
    A = np.array([[-1.0, 1.0], [1.0, 2.0], [-3.0, 3.0], [2.0, -2.0], [-3.0, 2.0], [1.0, 0.0]])
    b = np.array([0.0, -1e308, 0.0, 1.0, 1e308, 1e307])
    monkeypatch.setattr(simplex, "_MIN_STACK", 4)
    with pytest.raises(LpSolverError) as err:
        RegionLP(A, b).bounds([[-1.0, 0.0], [-2.0, 1.0], [-1.0, -2.0]])
    assert err.value.phase == "overflow"

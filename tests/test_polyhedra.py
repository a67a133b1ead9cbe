import json

import numpy as np
import pytest
from scipy.optimize import linprog

import lipcert as lc
from lipcert import (
    InfeasibleRegionError,
    ModelFormatError,
    Polyhedron,
    affine_preimage,
    coordinate_bounds,
    is_feasible,
    linear_bounds,
    region_from_json,
    stack,
)
from lipcert import simplex
from lipcert.polyhedra import BoxLP, feasible_point, region_lp, support_value


def test_rows_normalized_and_kept():
    # every row is scaled to unit length; a repeated row is kept
    P = Polyhedron([[2.0, 0.0], [1.0, 0.0], [0.0, 3.0]], [4.0, 2.0, 6.0])
    assert P.m == 3
    np.testing.assert_allclose(P.C, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(P.c, [2.0, 2.0, 2.0])


def test_zero_rows():
    # 0 <= 1 is vacuous and dropped, 0 <= -1 marks infeasibility and stays
    P = Polyhedron([[0.0], [1.0]], [1.0, 3.0])
    assert P.m == 1
    Q = Polyhedron([[0.0]], [-1.0])
    assert Q.m == 1
    assert not is_feasible(Q)


def test_universe_and_box():
    U = Polyhedron.universe(3)
    assert U.m == 0 and U.dim == 3
    assert U.contains([100.0, -50.0, 0.0])
    B = Polyhedron.from_box([-1.0, -np.inf], [1.0, 2.0])
    assert B.m == 3
    assert B.contains([0.0, -1000.0])
    assert not B.contains([0.0, 2.5])


def test_contains_is_closed():
    B = Polyhedron.from_box([0.0], [1.0])
    assert B.contains([0.0]) and B.contains([1.0])
    assert not B.contains([1.0 + 1e-6])


def test_read_only():
    P = Polyhedron.from_box([0.0], [1.0])
    with pytest.raises(ValueError):
        P.C[0, 0] = 9.0


def test_stack():
    P = Polyhedron.from_box([0.0], [2.0])
    Q = Polyhedron([[1.0]], [1.0])
    S = stack(P, Q)
    assert S.contains([0.5]) and not S.contains([1.5])
    with pytest.raises(ValueError):
        stack(P, Polyhedron.universe(2))


def test_feasibility():
    assert is_feasible(Polyhedron.universe(2))
    assert not is_feasible(Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]))
    x = feasible_point(Polyhedron.from_box([3.0, -1.0], [4.0, 0.0]))
    assert x is not None and 3.0 - 1e-9 <= x[0] <= 4.0 + 1e-9


def test_linear_bounds_examples():
    B = Polyhedron.from_box([-1.0], [1.0])
    lo, hi = linear_bounds(B, [1.0])
    assert lo == pytest.approx(-1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)
    lo, hi = linear_bounds(Polyhedron.universe(1), [1.0])
    assert lo == -np.inf and hi == np.inf
    with pytest.raises(InfeasibleRegionError):
        linear_bounds(Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]), [1.0])


def test_linear_bounds_triangle_vertices():
    # triangle (0,0), (1,0), (0,1); objective (1,1) spans [0, 1]
    T = Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    lo, hi = linear_bounds(T, [1.0, 1.0])
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)
    assert support_value(T, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-9)


def test_linear_bounds_cross_check_scipy():
    rng = np.random.default_rng(8)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-2.0, 0.0, size=d)
        hi = rng.uniform(0.1, 2.0, size=d)
        P = Polyhedron.from_box(lo, hi)
        extra = rng.normal(size=(2, d))
        P = stack(P, Polyhedron(extra, extra @ ((lo + hi) / 2) + 0.5))
        obj = rng.normal(size=d)
        blo, bhi = linear_bounds(P, obj)
        for sign, val in ((1.0, blo), (-1.0, -bhi)):
            ref = linprog(sign * obj, A_ub=P.C, b_ub=P.c,
                          bounds=[(None, None)] * d, method="highs")
            assert ref.status == 0
            assert val == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)


def test_linear_bounds_sandwich_random_points():
    rng = np.random.default_rng(9)
    P = Polyhedron([[1.0, 1.0], [-1.0, 2.0], [0.0, -1.0]], [2.0, 1.0, 0.5])
    obj = np.array([0.7, -0.3])
    lo, hi = linear_bounds(P, obj)
    pts = 0
    while pts < 200:
        x = rng.uniform(-4, 4, size=2)
        if P.contains(x):
            v = obj @ x
            assert lo - 1e-9 <= v <= hi + 1e-9
            pts += 1


def test_coordinate_bounds():
    P = Polyhedron([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
    lo, hi = coordinate_bounds(P)
    np.testing.assert_allclose(lo, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(hi, [1.0, 1.0], atol=1e-9)
    lo, hi = coordinate_bounds(Polyhedron.universe(2))
    assert np.all(np.isinf(lo)) and np.all(np.isinf(hi))


def test_affine_preimage_membership():
    # preimage of [0, inf) under x -> x - 1 is x >= 1
    Q = Polyhedron([[-1.0]], [0.0])
    P = affine_preimage(Q, [[1.0]], [-1.0])
    assert P.contains([1.0]) and P.contains([2.0])
    assert not P.contains([0.5])


def test_affine_preimage_random_equivalence():
    rng = np.random.default_rng(10)
    for _ in range(40):
        dq, dp = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Q = Polyhedron(rng.normal(size=(3, dq)), rng.uniform(0.5, 2.0, size=3))
        J = rng.normal(size=(dq, dp))
        b = rng.normal(size=dq)
        P = affine_preimage(Q, J, b)
        for _ in range(25):
            x = rng.normal(size=dp)
            assert P.contains(x, tol=1e-9) == Q.contains(J @ x + b, tol=1e-9) or (
                # row normalization rescales tolerances; decide off the boundary
                min(np.abs(Q.C @ (J @ x + b) - Q.c)) < 1e-6)


def test_region_json_forms():
    R = region_from_json({"global": 2})
    assert R.m == 0 and R.dim == 2
    R = region_from_json({"box": {"lower": [-1.0, None], "upper": [1.0, 0.0]}})
    assert R.dim == 2
    assert R.contains([0.0, -99.0]) and not R.contains([0.0, 0.5])
    R = region_from_json({"dim": 2, "C": [[1.0, 0.0]], "c": [3.0]})
    assert R.contains([2.0, 50.0]) and not R.contains([3.5, 0.0])


def test_region_json_errors(tmp_path):
    for bad in [
        {"box": {"lower": [0.0], "upper": [1.0, 2.0]}},
        {"dim": 2, "C": [[1.0, 0.0]]},
        {"global": 0},
        {"box": {"lower": [2.0], "upper": [1.0]}},
        [],
        {"global": True},
        {"dim": 1.9, "C": [[1.0]], "c": [1.0]},
        {"box": {"lower": ["a"], "upper": [1]}},
        {"box": {"lower": [0], "upper": 1}},
        {"box": {"lower": [float("nan")], "upper": [1.0]}},
        {"dim": 1, "C": {}, "c": [1.0]},
        # no JSON string or boolean is read as a number
        {"dim": 1, "C": [["1"]], "c": [2.0]},
        {"dim": 1, "C": [[True]], "c": [2.0]},
        {"dim": 1, "C": [[1.0]], "c": ["2"]},
        {"dim": 1, "C": [[1.0]], "c": [True]},
        {"box": {"lower": [-10 ** 400], "upper": [1]}},  # JSON int past the float range
    ]:
        with pytest.raises(ModelFormatError):
            region_from_json(bad)
    p = tmp_path / "r.json"
    p.write_text("{not json")
    with pytest.raises(ModelFormatError):
        lc.load_region(str(p))


def test_load_region_roundtrip(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"box": {"lower": [-2.0], "upper": [2.0]}}))
    R = lc.load_region(str(p))
    assert R.contains([1.5]) and not R.contains([2.5])


# one LP per region: every query of a region shares its phase 1

def test_queries_of_one_region_build_one_lp(region_lps):
    # two rows over both coordinates keep the region off the closed-form path
    P = Polyhedron([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])
    assert is_feasible(P)
    assert linear_bounds(P, [1.0, 2.0]) == pytest.approx((0.0, 2.0))
    assert support_value(P, [1.0, -1.0]) == pytest.approx(1.0)
    lo, hi = coordinate_bounds(P)
    np.testing.assert_allclose(lo, [0.0, 0.0])
    np.testing.assert_allclose(hi, [1.0, 1.0])
    assert len(region_lps) == 1
    # feasible_point runs a phase 1 of its own
    assert P.contains(feasible_point(P))
    assert len(region_lps) == 2


def test_kept_lp_answers_like_a_fresh_one():
    # the kept LP serves every query in any order, bit for bit as a new one
    # would; two or more rows with several non-zero entries keep the region
    # off the closed-form path
    rng = np.random.default_rng(23)
    for _ in range(40):
        d, m = int(rng.integers(2, 5)), int(rng.integers(2, 9))
        C = rng.normal(size=(m, d))
        P = Polyhedron(C, C @ rng.normal(size=d) + rng.uniform(-0.5, 1.0, size=m))
        kept = region_lp(P)
        assert isinstance(kept, simplex.RegionLP)
        assert region_lp(P) is kept
        for _ in range(15):
            cost = rng.normal(size=d)
            fresh = simplex.RegionLP(P.C, P.c)
            if not fresh.feasible:
                assert not is_feasible(P) and feasible_point(P) is None
                assert simplex.solve_lp(P.C, P.c, cost).status == "infeasible"
                continue
            got = [float(v).hex() for v in kept.bounds(cost[None])[0]]
            assert got == [float(v).hex() for v in fresh.bounds(cost[None])[0]]
            # inf cost.x is the min of a one-query LP, sup cost.x is -min(-cost.x)
            inf, neg_sup = (simplex.solve_lp(P.C, P.c, s * cost).value for s in (1.0, -1.0))
            assert got == [float(inf).hex(), float(-neg_sup).hex()]
            assert support_value(P, cost).hex() == got[1]
        if kept.feasible:
            lo, hi = coordinate_bounds(P)
            for i, e in enumerate(np.eye(d)):
                want = simplex.RegionLP(P.C, P.c).bounds(e[None])[0]
                assert (lo[i].hex(), hi[i].hex()) == tuple(v.hex() for v in want)
        assert region_lp(P) is kept


def test_box_regions_build_no_simplex_lp(region_lps):
    # every row bounds one coordinate: region_lp answers in closed form
    boxes = (Polyhedron.from_box([-1.0, 0.0], [1.0, np.inf]), Polyhedron.universe(3),
             Polyhedron([[2.0, 0.0], [1.0, 0.0]], [3.0, 1.0]))
    for P in boxes:
        lp = region_lp(P)
        assert isinstance(lp, BoxLP) and region_lp(P) is lp
        assert is_feasible(P)
        coordinate_bounds(P)
        linear_bounds(P, np.ones(P.dim))
    assert region_lps == []
    # feasible_point runs a phase 1 of its own
    assert all(P.contains(feasible_point(P)) for P in boxes)


def test_rowless_and_multi_entry_regions_use_the_simplex():
    # a zero row encodes emptiness; two rows over several coordinates are
    # more than one cut
    assert isinstance(region_lp(Polyhedron([[0.0, 0.0]], [-1.0])), simplex.RegionLP)
    assert isinstance(region_lp(Polyhedron([[1.0, 1.0], [1.0, -1.0]], [1.0, 1.0])),
                      simplex.RegionLP)


def test_regions_with_one_cut_build_no_simplex_lp(region_lps):
    # a box or the whole space cut by one half-space is answered in closed
    # form, with the answers of the simplex on the same rows
    cut = (Polyhedron([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0]),
           Polyhedron([[1.0, 1.0]], [1.0]))
    for P in cut:
        lp = region_lp(P)
        assert isinstance(lp, BoxLP) and region_lp(P) is lp
        assert is_feasible(P)
    assert region_lps == []
    assert all(P.contains(feasible_point(P)) for P in cut)
    P = Polyhedron([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
    assert linear_bounds(P, [1.0, 2.0]) == pytest.approx((0.0, 2.0))
    assert support_value(P, [1.0, -1.0]) == pytest.approx(1.0)
    lo, hi = coordinate_bounds(P)
    np.testing.assert_allclose(lo, [0.0, 0.0])
    np.testing.assert_allclose(hi, [1.0, 1.0])
    H = Polyhedron([[1.0, 1.0]], [1.0])
    assert linear_bounds(H, [2.0, 2.0]) == (-np.inf, pytest.approx(2.0))
    assert linear_bounds(H, [1.0, 0.0]) == (-np.inf, np.inf)


def test_box_lp_answers():
    P = Polyhedron.from_box([-1.0, 2.0, -np.inf], [1.0, 2.0, 0.5])
    lp = region_lp(P)
    np.testing.assert_array_equal(lp.bounds([[1.0, 0.0, 0.0], [-2.0, 1.0, 0.0],
                                             [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
                                  [[-1.0, 1.0], [0.0, 4.0], [-np.inf, 0.5], [0.0, 0.0]])
    assert support_value(P, [-1.0, 1.0, 0.0]) == 3.0
    assert support_value(P, [0.0, 0.0, -1.0]) == np.inf
    E = Polyhedron.from_box([1.0], [0.0])
    empty = region_lp(E)
    assert not empty.feasible and feasible_point(E) is None
    with pytest.raises(InfeasibleRegionError):
        empty.bounds([[1.0]])
    with pytest.raises(InfeasibleRegionError):
        support_value(E, [1.0])


@pytest.mark.parametrize("lower, upper", [
    ([np.nan, 0.0], [1.0, 1.0]),
    ([0.0], [np.nan]),
    ([np.inf], [np.inf]),
    ([-np.inf, 0.0], [-np.inf, 1.0]),
])
def test_from_box_rejects_invalid_sides(lower, upper):
    # each side used to be dropped as "no constraint", which widened the box
    # (a NaN side) or turned an empty box into the whole space (+inf, -inf)
    with pytest.raises(ValueError):
        Polyhedron.from_box(lower, upper)


def test_contains_on_rows_equals_per_point_contains():
    # points drawn at random, on a face, and half a tol inside and one and two
    # tols beyond it; each row of the mask is the per-point answer, and that
    # answer is the single-point formula C @ x <= c + tol
    rng = np.random.default_rng(41)
    for _ in range(40):
        d, m = int(rng.integers(1, 5)), int(rng.integers(0, 7))
        C = rng.normal(size=(m, d))
        P = Polyhedron(C, C @ rng.normal(size=d) + rng.uniform(0.0, 1.0, size=m), dim=d)
        X = [rng.normal(size=(20, d))]
        for a, c in zip(P.C, P.c):
            on = rng.normal(size=(4, d))
            on += np.outer(c - on @ a, a)  # rows of P.C have unit norm
            X += [on + np.outer(t, a) for t in (0.0, -0.5e-9, 1e-9, 2e-9)]
        X = np.concatenate(X)
        for tol in (0.0, 1e-9, 1e-6):
            mask = P.contains(X, tol)
            assert mask.dtype == bool and mask.shape == (len(X),)
            assert mask.tolist() == [P.contains(x, tol) for x in X]
            assert mask.tolist() == [bool(np.all(P.C @ x <= P.c + tol)) for x in X]
        assert P.contains(np.zeros((0, d))).shape == (0,)
    assert Polyhedron.universe(3).contains(rng.normal(size=(5, 3))).all()
    with pytest.raises(ValueError):
        Polyhedron.universe(3).contains(np.zeros((5, 2)))


def test_from_box_rows_in_order():
    # per coordinate the upper row, then the lower row; infinite sides add none
    P = Polyhedron.from_box([-1.0, -np.inf, 0.0, 3.0], [2.0, 5.0, np.inf, 3.0])
    assert P.C.tobytes() == np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0, 1.0, 0, 0],
                                      [0, 0, -1.0, 0], [0, 0, 0, 1.0],
                                      [0, 0, 0, -1.0]]).tobytes()
    assert P.c.tobytes() == np.array([2.0, 1.0, 5.0, -0.0, 3.0, -3.0]).tobytes()
    assert Polyhedron.from_box([-np.inf] * 2, [np.inf] * 2).m == 0

"""`region_lp` answers the LPs of a box, or of a box cut by one half-space, in
closed form (`polyhedra.BoxLP`); its answers must be those of the simplex on
the same rows, and the symbolic pass must reach the same decisions and star
ranges with either."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipcert as lc
from lipcert import InfeasibleRegionError, polyhedra, simplex, symprop_trace
from lipcert.polyhedra import FEAS_TOL, BoxLP, Polyhedron, feasible_point, region_lp

from conftest import random_net

SIDES = ["finite", "lower only", "upper only", "free", "point",
         "inverted within tol", "inverted beyond tol"]


def _box_rows(rng, d: int, sides, tight: bool):
    """Rows of a box in R^d, one kind of side per coordinate, in shuffled
    order, each side with a redundant parallel row scaled by 2 or 0.5 beside
    it half of the time: `tight` ones lie 1e-10 outside their side, the rest
    between 1e-3 and 1 outside it (x <= 1 with 2x <= 3)."""
    rows, offs = [], []

    def side(i, sign, bound):
        e = np.zeros(d)
        e[i] = sign
        rows.append(e)
        offs.append(sign * bound)
        if rng.random() < 0.5:
            scale = rng.choice([0.5, 2.0])
            loose = 1e-10 if tight else rng.uniform(1e-3, 1.0)
            rows.append(scale * e)
            offs.append(scale * (sign * bound + loose))

    for i, kind in enumerate(sides):
        lo = rng.uniform(-2.0, 2.0)
        hi = {"point": lo, "inverted within tol": lo - 0.3 * FEAS_TOL,
              "inverted beyond tol": lo - 3.0 * FEAS_TOL}.get(kind, lo + rng.uniform(0.1, 2.0))
        if kind != "upper only" and kind != "free":
            side(i, -1.0, lo)
        if kind != "lower only" and kind != "free":
            side(i, 1.0, hi)
    if not rows:
        return np.zeros((0, d)), np.zeros(0)
    order = rng.permutation(len(rows))
    return np.array(rows)[order], np.array(offs)[order]


def _objectives(rng, d: int, k: int):
    O = rng.normal(size=(k, d))
    O[rng.random(size=(k, d)) < 0.3] = 0.0  # zero costs on infinite sides
    return O


def _close(a, b, scale, slack=0.0):
    """Equal infinities, or finite values within 1e-12 of the magnitude of
    the terms summed, plus `slack`."""
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * (1.0 + scale) + slack


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       sides=st.lists(st.sampled_from(SIDES), min_size=1, max_size=4),
       tight=st.booleans())
def test_box_lp_answers_like_the_simplex(seed, sides, tight):
    rng = np.random.default_rng(seed)
    d = len(sides)
    P = Polyhedron(*_box_rows(rng, d, sides, tight), dim=d)
    box, lp = region_lp(P), simplex.RegionLP(P.C, P.c)
    assert isinstance(box, BoxLP)
    # the inversion sum never exceeds the simplex's phase-1 optimum, and is
    # that optimum when only each coordinate's tightest sides are violated
    assert box.feasible or not lp.feasible
    if not tight:
        assert box.feasible == lp.feasible
    if not lp.feasible:
        if not box.feasible:
            with pytest.raises(InfeasibleRegionError):
                box.bounds(np.ones((1, d)))
        return
    assert P.contains(feasible_point(P))
    O = _objectives(rng, d, 6)
    mag = np.abs(P.c).max(initial=0.0) * 2.0
    # on a box inverted within FEAS_TOL the simplex ends anywhere between the
    # crossed sides, given a second violated row to trade against
    inverted = "inverted within tol" in sides
    got, want = box.bounds(O), lp.bounds(O)
    for o, g, w in zip(O, got, want):
        scale, slack = np.abs(o).sum() * mag, np.abs(o).sum() * FEAS_TOL * inverted
        assert _close(g[0], w[0], scale, slack) and _close(g[1], w[1], scale, slack), (o, g, w)


CUTS = ["through the box", "tangent", "missing the box", "far off"]


def _cut_row(rng, box_lp, d: int, cut: str):
    """A row a.x <= beta over R^d with zero entries a third of the time (two
    non-zero ones at least), placed against the box by `cut`."""
    a = rng.normal(size=d)
    a[rng.random(size=d) < 0.3] = 0.0
    two = rng.choice(d, size=2, replace=False)
    a[two] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 2.0, size=2)
    if not box_lp.feasible:
        return a, rng.normal()
    least = box_lp.bounds(a[None])[0, 0]
    # the point of the box nearest the origin
    through = a @ np.clip(0.0, *box_lp.bounds(np.eye(d)).T) + rng.uniform(0.0, 1.0)
    if not np.isfinite(least) or cut == "through the box":
        return a, through
    return a, least + {"tangent": 0.0, "missing the box": -rng.uniform(1e-3, 1.0),
                       "far off": 1e3}[cut]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       sides=st.lists(st.sampled_from(SIDES), min_size=2, max_size=5),
       cut=st.sampled_from(CUTS))
def test_cut_box_lp_answers_like_the_simplex(seed, sides, cut):
    # a box cut by one half-space: the closed form's feasibility and bounds
    # against the simplex on the same rows, objectives parallel to the cut
    # included
    rng = np.random.default_rng(seed)
    d = len(sides)
    C, c = _box_rows(rng, d, sides, tight=False)
    a, beta = _cut_row(rng, region_lp(Polyhedron(C, c, dim=d)), d, cut)
    P = Polyhedron(np.vstack([C, a]), np.append(c, beta), dim=d)
    got, lp = region_lp(P), simplex.RegionLP(P.C, P.c)
    assert isinstance(got, BoxLP)
    assert got.feasible == lp.feasible
    if not got.feasible:
        with pytest.raises(InfeasibleRegionError):
            got.bounds(np.ones((1, d)))
        return
    assert P.contains(feasible_point(P))
    O = np.vstack([_objectives(rng, d, 6), 2.0 * a, -0.5 * a])
    # a cut tangent to a box inverted within FEAS_TOL leaves the simplex
    # anywhere in a band of that width, as in the test above
    inverted = "inverted within tol" in sides
    for o, g, w in zip(O, got.bounds(O), lp.bounds(O)):
        slack = np.abs(o).sum() * FEAS_TOL * inverted
        for u, v in zip(g, w):
            tol = 1e-9 * max(1.0, abs(v)) + slack
            assert u == v if np.isinf(v) else abs(u - v) <= tol, (o, g, w)


def test_a_large_objective_on_a_free_coordinate_stays_bounded():
    # the dual sits at o_0 / a_0, where o_0 - (o_0 / a_0) a_0 rounds to as
    # much as 1e-7 for o_0 near 1e9: the free coordinate's term must still be
    # exactly zero there, not an infinite side opened by the rounding
    P = Polyhedron([[0.0, 1.0], [0.0, -1.0], [1.0, 3.0]], [1.0, 1.0, 0.5])
    O = np.column_stack([np.linspace(1e7, 1e9, 41), np.linspace(-1.0, 1.0, 41)])
    got, want = region_lp(P).bounds(O), simplex.RegionLP(P.C, P.c).bounds(O)
    assert np.isfinite(got[:, 1]).all()
    np.testing.assert_allclose(got, want, rtol=1e-9)


@pytest.mark.parametrize("engine", [BoxLP, simplex.RegionLP])
def test_both_lp_engines_answer_the_same_queries(engine):
    # region_lp hands out either, so neither may grow a query the other lacks
    assert {n for n in dir(engine) if not n.startswith("_")} == {"bounds", "dim", "feasible"}


def test_regions_with_two_general_rows_use_the_simplex():
    # a box cut by two half-spaces is past the closed form
    P = Polyhedron(np.vstack([np.eye(3), [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]]), np.ones(5))
    assert isinstance(region_lp(P), simplex.RegionLP)
    with pytest.raises(ValueError):
        BoxLP(P.C, P.c)


def _maxpool_net(rng):
    return lc.Network([
        lc.AffineLayer(rng.normal(size=(6, 3)), rng.normal(size=6)),
        lc.MaxPoolActivation(6, [(0, 1, 2), (3, 4), (5,)]),
        lc.AffineLayer(rng.normal(size=(4, 3)), rng.normal(size=4)),
        lc.relu(4),
        lc.AffineLayer(rng.normal(size=(2, 4)), rng.normal(size=2)),
    ])


NETS = {
    "relu": lambda rng: random_net(rng, max_hidden=3, max_width=8, kinds=("relu",)),
    "leaky_relu": lambda rng: random_net(rng, max_hidden=3, max_width=8, kinds=("leaky_relu",)),
    "maxmin": lambda rng: random_net(rng, max_hidden=3, max_width=8, kinds=("maxmin",)),
    "maxpool": _maxpool_net,
}


@pytest.mark.parametrize("kind", sorted(NETS))
def test_symbolic_pass_over_a_box_matches_the_simplex(kind, monkeypatch):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        net = NETS[kind](rng)
        d = net.input_dim
        lo = rng.uniform(-1.0, 0.0, size=d)
        hi = lo + rng.uniform(0.1, 1.5, size=d)
        for omega in (Polyhedron.from_box(lo, hi),
                      Polyhedron.from_box(np.r_[-np.inf, lo[1:]], hi),
                      Polyhedron.universe(d)):
            with monkeypatch.context() as m:
                m.setattr(polyhedra, "BoxLP", simplex.RegionLP)
                want, want_trace = symprop_trace(net, Polyhedron(omega.C, omega.c, dim=d))
            got, trace = symprop_trace(net, omega)
            assert isinstance(region_lp(omega), BoxLP)
            assert got.first_star_layer == want.first_star_layer
            assert got.prefix.J.tobytes() == want.prefix.J.tobytes()
            assert got.prefix.b.tobytes() == want.prefix.b.tobytes()
            for g, w in zip(got.layers, want.layers):
                assert np.array_equal(g.pieces, w.pieces) and g.stars == w.stars
            for g, w in zip(trace, want_trace):
                assert g["stars"] == w["stars"] and sorted(g["aux_bounds"]) == sorted(w["aux_bounds"])
                for n, (glo, ghi) in g["aux_bounds"].items():
                    wlo, whi = w["aux_bounds"][n]
                    for a, b in ((glo, wlo), (ghi, whi)):
                        assert a == b or abs(a - b) <= 1e-12 * abs(b), (kind, seed, n, a, b)


def test_sides_near_the_float_range_answer_without_overflow_warnings():
    # the suite turns warnings into errors: an inversion sum or an objective
    # past the float range is +-inf, the outward answer, and warns nothing
    B = Polyhedron.from_box([-1e308] * 2, [1e308] * 2)
    assert lc.is_feasible(B)
    lo, hi = lc.coordinate_bounds(B)
    assert (lo == -1e308).all() and (hi == 1e308).all()
    net = lc.Network([lc.AffineLayer([[2.0, 1.0], [-3.0, 1.0]], [0.0, 0.0]), lc.relu(2),
                      lc.AffineLayer([[1.0, 1.0]], [0.0])])
    assert np.isfinite(lc.symprop_bound(net, B, lc.NormPair(2, 2)))
    assert not lc.is_feasible(Polyhedron.from_box([1e308], [-1e308]))


def test_solve_on_sides_near_the_float_range_answers_exact():
    # every child region is the box cut by one half-space, so no simplex
    # tableau overflows on offsets near 1e308, and nothing warns
    net = lc.Network([lc.AffineLayer([[1.0, 2.0], [3.0, -1.0]], [0.0, 0.0]), lc.relu(2),
                      lc.AffineLayer([[1.0, 1.0]], [0.0])])
    res = lc.solve(net, Polyhedron.from_box([-1e308] * 2, [1e308] * 2))
    assert res.status == "exact" and res.gub >= np.sqrt(17.0)
    assert res.gub == pytest.approx(np.sqrt(17.0), rel=1e-12)

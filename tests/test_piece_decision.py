"""The piece decision of `analyze_activation_layer` against a per-piece reference.

The reference is the decision the table-driven procedure replaced: for each
group that keeps more than one piece, stack each kept piece's region onto the
input region, test it with `is_feasible`, test containment row by row with
one support LP per normalised row, and stop at the first containing piece.
Star output ranges come from LPs over the feasible piece regions.
"""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipcert as lc
from lipcert import analyze_activation_layer
from lipcert.activations import PieceTable
from lipcert.polyhedra import (
    FEAS_TOL, affine_preimage, is_feasible, linear_bounds, region_lp, stack, support_value)
from lipcert.simplex import RegionLP

from conftest import piece_regions


def _spline3(width):
    breaks, slopes = [-0.5, 0.0, 0.5], [0.2, 1.0, -0.5, 2.0]
    intercepts = [0.0]
    for j, beta in enumerate(breaks):
        intercepts.append((slopes[j] - slopes[j + 1]) * beta + intercepts[j])
    return lc.spline(width, breaks, slopes, intercepts)


ACTIVATIONS = {
    "relu": lambda: lc.relu(3),
    "leaky_relu": lambda: lc.leaky_relu(3, 0.1),
    "spline3": lambda: _spline3(3),
    "maxmin": lambda: lc.maxmin(4),
    "groupsort3": lambda: lc.groupsort(6, 3),
    "groupsort4": lambda: lc.groupsort(4, 4),
    "fullsort3": lambda: lc.fullsort(3),
    "maxpool2": lambda: lc.MaxPoolActivation(4, [(0, 1), (2, 3)]),
    "maxpool3": lambda: lc.MaxPoolActivation(6, [(0, 1, 2), (3, 4, 5)]),
    "maxpool_1wide": lambda: lc.MaxPoolActivation(5, [(0,), (1, 2), (3, 4)]),
    "identity": lambda: lc.IdentityActivation(3),
}


def reference_decision(act, region, J, b, pieces, aux):
    """Per-piece decision over {J x + b : x in region}; fills `aux` if a dict."""
    pieces = pieces.copy()
    for g, (fixed, group_pieces) in enumerate(piece_regions(act)):
        if pieces[g].sum() < 2:
            continue
        feasible, containing = [], None
        for p in np.flatnonzero(pieces[g]):
            cell = group_pieces[p][0]
            piece_region = stack(region, affine_preimage(cell, J, b))
            if not is_feasible(piece_region):
                continue
            feasible.append((p, piece_region))
            if all(support_value(region, row @ J) + row @ b <= c + FEAS_TOL
                   for row, c in zip(cell.C, cell.c)):
                containing = p
                break
        if not feasible:
            raise lc.LpSolverError("no piece reachable")
        pieces[g] = False
        if containing is not None:
            pieces[g, containing] = True
            continue
        pieces[g, [p for p, _ in feasible]] = True
        if aux is None:
            continue
        for rpos, n in enumerate(fixed):
            maps = [(group_pieces[p][1][rpos], group_pieces[p][2][rpos], r)
                    for p, r in feasible]
            if all(np.array_equal(T, maps[0][0]) and t == maps[0][1] for T, t, _ in maps):
                continue
            ranges = [np.add(linear_bounds(r, T @ J), T @ b + t) for T, t, r in maps]
            aux[n] = (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))
    return pieces


def close(a, c):
    return a == c or abs(a - c) <= 1e-9 * max(1.0, abs(a), abs(c))


def random_case(kind, seed):
    rng = np.random.default_rng(seed)
    act = ACTIVATIONS[kind]()
    d = int(rng.integers(2, 4))
    J = rng.normal(size=(act.in_width, d))
    b = 0.5 * rng.normal(size=act.in_width)
    corners = rng.uniform(-1.0, 1.0, size=(2, d))
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    region = lc.Polyhedron.from_box(lo, hi)
    if rng.random() < 0.5:
        # one more half-space through a point of the box
        a = rng.normal(size=d)
        region = stack(region, lc.Polyhedron([a], [a @ rng.uniform(lo, hi)]))
    return act, region, J, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(ACTIVATIONS)), seed=st.integers(0, 2**32 - 1))
def test_decision_matches_per_piece_reference(kind, seed):
    act, region, J, b = random_case(kind, seed)
    aux, want_aux = {}, {}
    state = analyze_activation_layer(act, region, J, b, aux=aux)
    want = reference_decision(act, region, J, b, act.piece_table().valid, want_aux)
    assert np.array_equal(state.pieces, want)
    assert sorted(aux) == sorted(want_aux) == list(state.stars)
    for n, (lo, hi) in aux.items():
        assert close(lo, want_aux[n][0]) and close(hi, want_aux[n][1]), (n, aux[n], want_aux[n])
    # re-analysis on a sub-box, with the state over the whole region as the record
    box_lo, box_hi = lc.coordinate_bounds(region)
    mid = np.random.default_rng(seed).uniform(box_lo, box_hi)
    sub = stack(region, lc.Polyhedron.from_box(mid - 0.2, mid + 0.2))
    if is_feasible(sub):
        got = analyze_activation_layer(act, sub, J, b, record=state)
        assert np.array_equal(got.pieces, reference_decision(act, sub, J, b, state.pieces, None))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(ACTIVATIONS)), seed=st.integers(0, 2**32 - 1),
       cuts=st.integers(2, 4))
def test_refiltering_decides_as_the_exact_path(kind, seed, cuts):
    assert_refiltering_decides_as_the_exact_path(kind, seed, cuts)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(ACTIVATIONS)), seed=st.integers(0, 2**32 - 1),
       cuts=st.integers(2, 4))
def test_refiltering_stops_move_with_the_tolerance(kind, seed, cuts):
    # the rows' thresholds, and the stops derived from them, have one home:
    # a larger tolerance moves both, so both paths still decide alike
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("lipcert.symprop"), "FEAS_TOL", 0.05)
        assert_refiltering_decides_as_the_exact_path(kind, seed, cuts)


def assert_refiltering_decides_as_the_exact_path(kind, seed, cuts):
    # re-filtering (no aux) lets each LP end once its answer is past every
    # threshold it meets; the exact path (aux={}) runs each to its optimum.
    # Over a box cut by two or more half-spaces both reach the simplex.
    act, _, J, b = random_case(kind, seed)
    rng = np.random.default_rng([seed, 1])
    d = J.shape[1]
    box = lc.Polyhedron.from_box(-np.ones(d), np.ones(d))
    state = analyze_activation_layer(act, box, J, b, aux={})
    x = rng.uniform(-1.0, 1.0, size=d)
    a = rng.normal(size=(cuts, d))
    sub = stack(box, lc.Polyhedron(a, a @ x + rng.uniform(0.0, 0.5, size=cuts)))
    assert isinstance(region_lp(sub), RegionLP)
    got = analyze_activation_layer(act, sub, J, b, record=state)
    want = analyze_activation_layer(act, sub, J, b, record=state, aux={})
    assert np.array_equal(got.pieces, want.pieces)
    assert got.stars == want.stars
    for name in ("fixed_T", "fixed_t"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for name in ("lower", "upper"):
        assert getattr(got.lam_mat, name).tobytes() == getattr(want.lam_mat, name).tobytes()


ONE_DIRECTION = pytest.mark.parametrize(
    "act", [lc.maxmin(4), lc.MaxPoolActivation(4, [(0, 1), (2, 3)])], ids=["maxmin", "maxpool2"])


def _one_direction_case(act, region):
    J = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    state = analyze_activation_layer(act, region, J, np.array([0.0, 0.5, 0.0, -3.0]))
    assert state.stars  # the first group stays open
    assert state.pieces.sum() < act.piece_table().valid.sum()  # the second is decided


@ONE_DIRECTION
def test_one_direction_groups_build_only_the_region_lp(act, region_lps):
    # each group's pieces share one row direction: its two LPs over the
    # region decide the group, with no piece region built. Two cuts keep the
    # region off the closed-form path.
    region = stack(lc.Polyhedron.from_box([-1.0, -1.0], [1.0, 1.0]),
                   lc.Polyhedron([[1.0, 1.0], [1.0, -1.0]], [1.5, 1.5]))
    _one_direction_case(act, region)
    assert [(A.shape, list(c)) for A, c in region_lps] == [(region.C.shape, list(region.c))]


@ONE_DIRECTION
def test_one_direction_groups_over_a_box_build_no_simplex_lp(act, region_lps):
    # a box region's LPs are answered in closed form
    _one_direction_case(act, lc.Polyhedron.from_box([-1.0, -1.0], [1.0, 1.0]))
    assert region_lps == []


@ONE_DIRECTION
def test_one_direction_groups_over_a_cut_box_build_no_simplex_lp(act, region_lps):
    # so are those of a box cut by one half-space
    _one_direction_case(act, stack(lc.Polyhedron.from_box([-1.0, -1.0], [1.0, 1.0]),
                                   lc.Polyhedron([[1.0, 1.0]], [1.5])))
    assert region_lps == []


def test_refiltering_a_relu_layer_cuts_no_piece(monkeypatch, region_lps):
    # ReLU pieces each have one row: the two LPs per direction over the
    # region decide them, with no piece region cut
    cut = PieceTable.cut
    cuts = []
    monkeypatch.setattr(PieceTable, "cut", lambda *args: cuts.append(args) or cut(*args))
    act, J, b = lc.relu(3), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.zeros(3)
    box = lc.Polyhedron.from_box([-1.0, -1.0], [1.0, 1.0])
    record = analyze_activation_layer(act, box, J, b, aux={})
    assert record.stars == (0, 1, 2) and region_lps == []
    sub = stack(box, lc.Polyhedron([[1.0, 2.0], [2.0, -1.0]], [1.0, 1.0]))
    state = analyze_activation_layer(act, sub, J, b, record=record)
    assert state.stars == (0, 1, 2)
    assert len(region_lps) == 1 and cuts == []


def test_identity_layer_builds_no_lp(region_lps):
    act = lc.IdentityActivation(3)
    state = analyze_activation_layer(act, lc.Polyhedron.from_box([-1.0], [1.0]),
                                     np.ones((3, 1)), np.zeros(3), aux={})
    assert state.stars == () and region_lps == []

import itertools
import math

import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    ComponentwiseActivation,
    GroupSortActivation,
    IdentityActivation,
    MaxPoolActivation,
    NormPair,
    fullsort,
    groupsort,
    leaky_relu,
    maxmin,
    prelu,
    relu,
    spline,
)

from conftest import piece_regions

ALL_PAIRS = [NormPair(1, 1), NormPair(2, 2), NormPair(np.inf, np.inf)]


def lowest_piece_at(pieces, x):
    for piece in pieces:
        if piece[0].contains(x):
            return piece
    return None


def group_ids(act):
    return [fixed for fixed, _ in act.group_pieces()]


def group_of(act, n):
    """(fixed, [(region, T, t), ...]) of the group that fixes neuron n."""
    return next(group for group in piece_regions(act) if n in group[0])


# componentwise

def test_relu_decomposition_shape():
    act = relu(2)
    fixed, pieces = group_of(act, 0)
    assert len(pieces) == 2
    (inactive, T_inactive, _), (active, T_active, _) = pieces
    assert fixed == (0,)
    np.testing.assert_array_equal(T_inactive, [[0.0, 0.0]])
    np.testing.assert_array_equal(T_active, [[1.0, 0.0]])
    assert inactive.contains([-1.0, 99.0])
    assert active.contains([1.0, -99.0])
    # pieces meet on the breakpoint face
    assert inactive.contains([0.0, 0.0])
    assert active.contains([0.0, 0.0])


def test_relu_piece_intervals():
    act = relu(1)
    assert act.piece_interval(0) == (-np.inf, 0.0)
    assert act.piece_interval(1) == (0.0, np.inf)


def test_spline_three_pieces():
    # hinge at -1 and 1, slopes 0 / 1 / 0, clamps to [-?]: pick continuous intercepts
    act = spline(1, breakpoints=[-1.0, 1.0], slopes=[[0.0, 1.0, 0.0]],
                 intercepts=[[-1.0, 0.0, 1.0]])
    _, pieces = group_of(act, 0)
    assert len(pieces) == 3
    assert act.evaluate([-5.0]) == pytest.approx(-1.0)
    assert act.evaluate([0.3]) == pytest.approx(0.3)
    assert act.evaluate([5.0]) == pytest.approx(1.0)
    assert act.activation_lipschitz(NormPair(2, 2)) == 1.0


def test_spline_continuity_enforced():
    with pytest.raises(ValueError):
        spline(1, breakpoints=[0.0], slopes=[[1.0, 1.0]], intercepts=[[0.0, 5.0]])
    with pytest.raises(ValueError):
        spline(1, breakpoints=[1.0, 0.0], slopes=[[1.0, 1.0, 1.0]],
               intercepts=[[0.0, 0.0, 0.0]])


def test_leaky_and_prelu():
    act = leaky_relu(2, 0.1)
    np.testing.assert_allclose(act.evaluate([-1.0, 2.0]), [-0.1, 2.0])
    assert act.activation_lipschitz(NormPair(np.inf, np.inf)) == 1.0
    act = prelu(2, [0.5, -2.0])
    np.testing.assert_allclose(act.evaluate([-1.0, -1.0]), [-0.5, 2.0])
    assert act.activation_lipschitz(NormPair(2, 2)) == 2.0


def test_componentwise_lowest_piece_tie_break():
    act = relu(1)
    _, T_piece, _ = lowest_piece_at(group_of(act, 0)[1], np.array([0.0]))
    # the inactive piece comes first at the shared breakpoint
    np.testing.assert_array_equal(T_piece, [[0.0]])
    T, t, flagged = act.local_linearization(np.array([[0.0], [0.5]]))
    np.testing.assert_array_equal(T, [[[0.0]], [[1.0]]])
    np.testing.assert_array_equal(flagged, [True, False])


# groupsort family

def test_maxmin_pieces():
    act = maxmin(2)
    fixed, pieces = group_of(act, 0)
    assert len(pieces) == 2
    twin_fixed, twin = group_of(act, 1)
    assert twin_fixed == fixed and len(twin) == len(pieces)
    assert fixed == (0, 1)
    # ascending sort: identity when x0 <= x1, swap otherwise
    mats = {tuple(map(tuple, T)) for _, T, _ in pieces}
    assert ((1.0, 0.0), (0.0, 1.0)) in mats
    assert ((0.0, 1.0), (1.0, 0.0)) in mats
    np.testing.assert_allclose(act.evaluate([3.0, 1.0]), [1.0, 3.0])
    np.testing.assert_allclose(act.evaluate([1.0, 3.0]), [1.0, 3.0])


def test_fullsort_factorial_pieces():
    for width in (2, 3, 4):
        act = fullsort(width)
        fixed, pieces = group_of(act, 0)
        assert len(pieces) == math.factorial(width)
        assert fixed == tuple(range(width))
        for _, T, _ in pieces:
            # permutation matrix rows
            assert np.all(T.sum(axis=0) == 1.0) and np.all(T.sum(axis=1) == 1.0)


def test_groupsort_remainder_group():
    act = groupsort(5, 2)
    assert group_ids(act) == [(0, 1), (2, 3), (4,)]
    assert len(group_of(act, 4)[1]) == 1
    x = np.array([5.0, -1.0, 2.0, 0.0, 7.0])
    np.testing.assert_allclose(act.evaluate(x), [-1.0, 5.0, 0.0, 2.0, 7.0])


def test_groupsort_size_cap():
    with pytest.raises(ValueError):
        groupsort(8, 8)
    fullsort(7)  # boundary size is allowed
    with pytest.raises(ValueError):
        fullsort(8)


def test_groupsort_matches_numpy_sort():
    rng = np.random.default_rng(12)
    for width, gs in [(2, 2), (3, 3), (6, 3), (5, 4)]:
        act = groupsort(width, gs)
        for _ in range(200):
            x = rng.normal(size=width)
            out = act.evaluate(x)
            for g in group_ids(act):
                np.testing.assert_allclose(out[list(g)], np.sort(x[list(g)]))


def test_groupsort_lipschitz_one():
    for pair in ALL_PAIRS:
        assert maxmin(4).activation_lipschitz(pair) == 1.0
        assert fullsort(3).activation_lipschitz(pair) == 1.0


def test_groupsort_local_linearization_boundary():
    act = maxmin(2)
    T, t, flagged = act.local_linearization(np.array([[1.0, 1.0], [2.0, 1.0]]))
    np.testing.assert_array_equal(flagged, [True, False])
    np.testing.assert_allclose(T[0] @ np.array([1.0, 1.0]) + t[0], [1.0, 1.0])
    np.testing.assert_array_equal(T[1], [[0.0, 1.0], [1.0, 0.0]])


# maxpool

def test_maxpool_basic():
    act = MaxPoolActivation(2, [(0, 1)])
    assert act.in_width == 2 and act.out_width == 1
    assert act.evaluate([0.5, -2.0]) == pytest.approx(0.5)
    fixed, pieces = group_of(act, 0)
    assert len(pieces) == 2
    chosen = {tuple(T[0]) for _, T, _ in pieces}
    assert chosen == {(1.0, 0.0), (0.0, 1.0)}
    assert fixed == (0,)


def test_maxpool_windows_validated():
    with pytest.raises(ValueError):
        MaxPoolActivation(3, [(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError):
        MaxPoolActivation(2, [(0,), ()])
    with pytest.raises(ValueError):
        MaxPoolActivation(2, [(0, 5)])


def test_maxpool_uncovered_inputs_are_dropped():
    act = MaxPoolActivation(3, [(0, 1)])
    assert act.out_width == 1
    assert act.evaluate([1.0, 2.0, 99.0]) == pytest.approx(2.0)


def test_maxpool_first_argmax_tie_break():
    act = MaxPoolActivation(2, [(0, 1)])
    T, t, flagged = act.local_linearization(np.array([[1.0, 1.0]]))
    assert flagged[0]
    np.testing.assert_array_equal(T[0], [[1.0, 0.0]])
    assert act.activation_lipschitz(NormPair(np.inf, np.inf)) == 1.0


def test_maxpool_multi_window():
    act = MaxPoolActivation(4, [(0, 1), (2, 3)])
    np.testing.assert_allclose(act.evaluate([1.0, 3.0, -5.0, -2.0]), [3.0, -2.0])
    assert act.out_width == 2
    assert group_ids(act) == [(0,), (1,)]


@pytest.mark.parametrize("make", [
    lambda: MaxPoolActivation(2, [(0.7, 1)]),
    lambda: MaxPoolActivation(2, [(True, 1)]),
    lambda: MaxPoolActivation(4.5, [(0, 1)]),
    lambda: groupsort(4, 2.9),
    lambda: groupsort(4, 2.0),
    lambda: groupsort(4, True),
    lambda: IdentityActivation(2.5),
    lambda: relu(3.0),
    lambda: fullsort(True),
], ids=["window-fraction", "window-bool", "maxpool-width", "group-fraction",
        "group-float", "group-bool", "identity-width", "relu-width", "fullsort-bool"])
def test_constructors_reject_non_integer_arguments(make):
    # int() would truncate these silently and change the network
    with pytest.raises(ValueError, match="must be an integer"):
        make()


# identity

def test_identity():
    act = IdentityActivation(3)
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(act.evaluate(x), x)
    assert len(group_of(act, 1)[1]) == 1
    assert act.activation_lipschitz(NormPair(1, 1)) == 1.0
    T, t, flagged = act.local_linearization(x[None])
    np.testing.assert_array_equal(T[0] @ x + t[0], x)
    assert not flagged[0]


# shared properties

ACTS = [
    relu(3),
    leaky_relu(2, 0.1),
    prelu(2, [0.3, 1.7]),
    spline(2, [-1.0, 1.0], [[0.0, 1.0, 0.0], [1.0, 0.5, 2.0]],
           [[-1.0, 0.0, 1.0], [0.5, 0.0, -1.5]]),
    maxmin(4),
    fullsort(3),
    groupsort(5, 3),
    MaxPoolActivation(4, [(0, 1, 2), (3,)]),
    IdentityActivation(2),
]


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_pieces_cover_space(act):
    rng = np.random.default_rng(13)
    groups = piece_regions(act)
    for _ in range(300):
        x = rng.normal(size=act.in_width) * 3.0
        for _, pieces in groups:
            assert lowest_piece_at(pieces, x) is not None


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_piece_map_matches_evaluate(act):
    rng = np.random.default_rng(14)
    groups = piece_regions(act)
    for _ in range(300):
        x = rng.normal(size=act.in_width) * 3.0
        y = act.evaluate(x)
        for key, pieces in groups:
            _, T, t = lowest_piece_at(pieces, x)
            out = T @ x + t
            # ties can pick a different but value-equal piece
            np.testing.assert_allclose(out, y[list(key)], atol=1e-9)


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_local_linearization_consistent(act):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(200, act.in_width)) * 3.0
    for x, T, t, flagged in zip(X, *act.local_linearization(X)):
        np.testing.assert_allclose(T @ x + t, act.evaluate(x), atol=1e-9)
        if not flagged:
            # the same piece holds in a small neighborhood
            for _ in range(5):
                dx = rng.normal(size=act.in_width) * 1e-12
                np.testing.assert_allclose(T @ (x + dx) + t, act.evaluate(x + dx),
                                           atol=1e-9)


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_local_linearization_lowest_piece_on_ties(act):
    # integer points tie coordinates with each other and sit on the knots
    # (-1, 0, 1), so several pieces of a group often hold at once
    tol = 1e-9
    X = np.array(list(itertools.product(range(-2, 3), repeat=act.in_width)), dtype=float)
    groups = piece_regions(act)
    for x, T, t, flagged in zip(X, *act.local_linearization(X, tol)):
        second = False
        for fixed, pieces in groups:
            holding = [(T_p, t_p) for region, T_p, t_p in pieces if region.contains(x, tol=0.0)]
            np.testing.assert_array_equal(T[list(fixed)], holding[0][0])
            np.testing.assert_array_equal(t[list(fixed)], holding[0][1])
            second |= sum(region.contains(x, tol=tol) for region, _, _ in pieces) > 1
        assert flagged == second, x


def test_fullsort_seven_lowest_piece_is_stable_argsort():
    # 5040 pieces: the lexicographically first sorting permutation is the
    # stable argsort, and a tie is the only way a second piece holds
    act = fullsort(7)
    rng = np.random.default_rng(17)
    X = rng.integers(0, 4, size=(200, 7)).astype(float)
    for x, T, t, flagged in zip(X, *act.local_linearization(X)):
        np.testing.assert_array_equal(T, np.eye(7)[np.argsort(x, kind="stable")])
        assert not t.any()
        assert flagged == (len(set(x)) < 7)


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_piece_table_regions_match_group_pieces(act):
    # the analysis and the cut read the table's normalised rows as
    # directions and offsets: they carry the same bits as the pieces' regions
    table = act.piece_table()
    n = len(table.D) // 2
    np.testing.assert_array_equal(table.D[n:], -table.D[:n])
    assert all(row[np.flatnonzero(row)[0]] > 0 for row in table.D[:n])
    w = act.in_width
    for g, (fixed, pieces) in enumerate(piece_regions(act)):
        # the neuron map locates each neuron in its group's fixed tuple
        assert [(table.group[n], table.row[n]) for n in fixed] == [(g, r) for r in range(len(fixed))]
        for p, (piece_region, _, _) in enumerate(pieces):
            k = table.rows[g, p][table.rows[g, p] >= 0]
            np.testing.assert_array_equal(table.D[table.dir[k]].reshape(piece_region.C.shape),
                                          piece_region.C)
            np.testing.assert_array_equal(table.off[k], piece_region.c)
            # through the identity map, the cut of the whole space is the
            # piece's region, its rows normalised once more by the constructor
            region = table.cut(g, p, lc.Polyhedron.universe(w), np.eye(w), np.zeros(w))
            again = lc.Polyhedron(piece_region.C, piece_region.c)
            np.testing.assert_array_equal(region.C, again.C)
            np.testing.assert_array_equal(region.c, again.c)


@pytest.mark.parametrize("act", ACTS + [fullsort(7)], ids=lambda a: repr(a))
def test_piece_table_numbers_each_row_once(act):
    # one index space for the layer's region rows: every distinct normalised
    # row once, shared by all groups, and each piece's rows index into it
    table = act.piece_table()
    assert "need" not in table._fields
    assert table.dir.ndim == table.off.ndim == 1 and len(table.dir) == len(table.off)
    pairs = {(int(d), float(o)) for d, o in zip(table.dir, table.off)}
    assert len(pairs) == len(table.dir)
    k = table.rows[table.rows >= 0]
    assert np.array_equal(np.unique(k), np.arange(len(table.dir)))
    assert (table.rows[~table.valid] == -1).all()


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_cut_agrees_with_stacked_preimage(act):
    # a region cut by a piece pulled back through x -> J x + b: the table's
    # one-call cut and the stack of the piece region's preimage agree
    rng = np.random.default_rng(41)
    table = act.piece_table()
    groups = piece_regions(act)
    checked = 0
    for _ in range(6):
        d = int(rng.integers(1, 4))
        R = lc.Polyhedron(rng.normal(size=(d + 3, d)), rng.uniform(0.5, 2.0, size=d + 3))
        J, b = rng.normal(size=(act.in_width, d)), rng.normal(size=act.in_width)
        for g, (_, pieces) in enumerate(groups):
            for p, (piece_region, _, _) in enumerate(pieces):
                cut = table.cut(g, p, R, J, b)
                ref = lc.stack(R, lc.affine_preimage(piece_region, J, b))
                assert lc.is_feasible(cut) == lc.is_feasible(ref)
                if not lc.is_feasible(ref):
                    continue
                checked += 1
                for o in rng.normal(size=(3, d)):
                    np.testing.assert_allclose(lc.linear_bounds(cut, o), lc.linear_bounds(ref, o),
                                               rtol=1e-12)
    assert checked


def test_boundary_tol_is_a_euclidean_distance():
    # MaxMin's rows z0 - z1 <= 0 and z1 - z0 <= 0 have length sqrt(2); a
    # point is flagged when it lies within boundary_tol of the line z0 = z1
    act = maxmin(2)
    tol = 1e-3
    normal = np.array([1.0, -1.0]) / np.sqrt(2.0)
    Z = np.array([0.3, 0.3]) + np.outer([0.9 * tol, 1.1 * tol], normal)
    _, _, flagged = act.local_linearization(Z, boundary_tol=tol)
    np.testing.assert_array_equal(flagged, [True, False])


@pytest.mark.parametrize("act", ACTS, ids=lambda a: repr(a))
def test_evaluate_is_activation_lipschitz(act):
    rng = np.random.default_rng(16)
    for pair in ALL_PAIRS:
        L = act.activation_lipschitz(pair)
        for _ in range(100):
            x = rng.normal(size=act.in_width) * 2.0
            y = rng.normal(size=act.in_width) * 2.0
            dxy = np.linalg.norm(x - y, ord=pair.p)
            dfxy = np.linalg.norm(act.evaluate(x) - act.evaluate(y), ord=pair.q)
            assert dfxy <= L * dxy + 1e-9


def test_branch_groups_cover_all_neurons():
    for act in ACTS:
        flat = sorted(n for g in group_ids(act) for n in g)
        assert flat == list(range(act.out_width))


def test_star_pieces_are_parameter_distinct():
    # the relu pieces genuinely differ, so a mixed region yields a star
    act = relu(1)
    (_, T_a, _), (_, T_b, _) = group_of(act, 0)[1]
    assert not np.array_equal(T_a, T_b)

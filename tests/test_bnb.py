import importlib
from dataclasses import fields, replace

import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    AffineLayer,
    GuardrailExceededError,
    Network,
    NormPair,
    Polyhedron,
    SolverConfig,
    branch,
    brute_force_oracle,
    initial_subproblem,
    interval_jacobian,
    solve,
    upper_bound,
)
from lipcert.bnb import star_scores
from lipcert.intervals import owned_interval

from conftest import make_abs_net, random_net, sample_in_region, unit_box

PAIR22 = NormPair(2, 2)


def make_cancel_net() -> Network:
    """f(x) = relu(x) - relu(x) + 0.5 relu(x); exact constant 0.5, loose root bound."""
    return Network([
        AffineLayer([[1.0], [1.0], [1.0]], [0.0, 0.0, 0.0]),
        lc.relu(3),
        AffineLayer([[1.0, -1.0, 0.5]], [0.0]),
    ])


# upper_bound / interval_jacobian

def test_upper_bound_abs_mixed():
    net = make_abs_net()
    root = initial_subproblem(net, unit_box(1))
    assert upper_bound(root, net, PAIR22) == pytest.approx(1.0, abs=1e-9)
    M = interval_jacobian(root, net)
    # hull of the four piece jacobians {-1, 0, 1}
    assert M.lower[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert M.upper[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_upper_bound_abs_decided():
    net = make_abs_net()
    root = initial_subproblem(net, Polyhedron.from_box([1.0], [2.0]))
    assert root.first_star_layer == net.depth + 1
    np.testing.assert_allclose(root.J, [[1.0]])
    assert upper_bound(root, net, PAIR22) == pytest.approx(1.0, abs=1e-12)
    assert interval_jacobian(root, net).is_degenerate()


def test_a_node_holds_its_prefix_read_only_and_says_when_it_is_linear():
    net = make_abs_net()
    root = initial_subproblem(net, unit_box(1))
    assert [f.name for f in fields(root)] == [
        "region", "layers", "first_star_layer", "J", "b", "ub"]
    children, _ = branch(root, net, 0.0, PAIR22)
    for sub in (root, *children):
        assert sub.linear == (sub.first_star_layer > net.depth)
        for arr in (sub.J, sub.b):
            with pytest.raises(ValueError):
                arr[0] = 7.0
    assert not root.linear and all(child.linear for child in children)


def test_upper_bound_pure_affine():
    net = Network([AffineLayer(2.0 * np.eye(2), [0.0, 0.0])])
    root = initial_subproblem(net, unit_box(2))
    assert upper_bound(root, net, PAIR22) == pytest.approx(2.0, rel=1e-9)


def test_upper_bound_cancel_net_is_loose():
    net = make_cancel_net()
    root = initial_subproblem(net, unit_box(1))
    assert root.ub != root.ub  # nan until assigned by solve/branch
    bound = upper_bound(root, net, PAIR22)
    assert bound == pytest.approx(1.5, abs=1e-9)
    M = interval_jacobian(root, net)
    assert M.lower[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert M.upper[0, 0] == pytest.approx(1.5, abs=1e-9)


# branch

def test_branch_abs_root():
    net = make_abs_net()
    root = initial_subproblem(net, unit_box(1))
    children, glb = branch(root, net, 0.0, PAIR22)
    assert len(children) == 2
    # children split the box at the breakpoint and are fully decided
    for child, inside, outside in zip(children, (-0.5, 0.5), (0.5, -0.5)):
        assert child.first_star_layer == net.depth + 1
        assert child.region.contains([inside])
        assert not child.region.contains([outside])
        assert child.ub == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(np.abs(child.J), [[1.0]], atol=1e-9)
    assert glb == pytest.approx(1.0, abs=1e-9)


def test_branch_requires_star():
    net = make_abs_net()
    root = initial_subproblem(net, Polyhedron.from_box([1.0], [2.0]))
    with pytest.raises(ValueError):
        branch(root, net, 0.0, PAIR22)


def test_branch_maxmin_fixes_whole_group():
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.maxmin(2),
                   AffineLayer([[1.0, -1.0]], [0.0])])
    root = initial_subproblem(net, unit_box(2))
    assert root.stars[0] == (0, 1)
    children, glb = branch(root, net, 0.0, PAIR22)
    assert len(children) == 2
    for child in children:
        assert child.stars[0] == ()
        assert child.first_star_layer == net.depth + 1
    # min - max folds to [1,-1] or [-1,1] on either ordering; norm sqrt(2)
    assert glb == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_branch_keeps_independent_star():
    # branching neuron 0 cannot decide neuron 1, whose hyperplane still crosses;
    # the two stars score alike, and the tie goes to the lower index
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.relu(2),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    root = initial_subproblem(net, unit_box(2))
    assert root.stars[0] == (0, 1)
    children, _ = branch(root, net, 0.0, PAIR22)
    assert len(children) == 2
    for child in children:
        assert child.first_star_layer == 1
        assert child.stars[0] == (1,)


def test_branch_splits_the_star_with_the_larger_outgoing_weight():
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.relu(2),
                   AffineLayer([[1.0, 10.0]], [0.0])])
    root = initial_subproblem(net, unit_box(2))
    assert root.stars[0] == (0, 1)
    np.testing.assert_allclose(star_scores(root, net), [1.0, 10.0])
    children, _ = branch(root, net, 0.0, PAIR22)
    assert len(children) == 2
    assert [child.stars[0] for child in children] == [(0,), (0,)]


def test_branch_maxmin_fixes_the_group_of_the_top_star():
    # group (2, 3) feeds the output ten times as strongly as group (0, 1)
    net = Network([AffineLayer(np.eye(4), np.zeros(4)), lc.maxmin(4),
                   AffineLayer([[1.0, -1.0, 10.0, -10.0]], [0.0])])
    root = initial_subproblem(net, unit_box(4))
    assert root.stars[0] == (0, 1, 2, 3)
    scores = star_scores(root, net)
    assert np.argmax(scores) == 2
    children, _ = branch(root, net, 0.0, PAIR22)
    assert len(children) == 2
    for child in children:
        assert child.first_star_layer == 1
        assert child.stars[0] == (0, 1)
        assert not child.layers[0].pieces[1].all()


def test_a_star_the_output_ignores_scores_zero_and_still_ends_exact():
    net = Network([AffineLayer([[1.0, 0.5], [-0.5, 1.0]], [0.1, -0.2]), lc.relu(2),
                   AffineLayer([[0.0, 2.0]], [0.0])])
    omega = unit_box(2)
    root = initial_subproblem(net, omega)
    assert root.stars[0] == (0, 1)
    scores = star_scores(root, net)
    assert scores[0] == 0.0 and scores[1] > 0.0
    res = solve(net, omega)
    assert res.status == "exact"
    assert res.glb == pytest.approx(brute_force_oracle(net, omega, PAIR22), rel=1e-9)


def _generated_relu_net(dims, seed):
    """Weights N(0, 1)/sqrt(fan_in) and biases 0.1 N(0, 1), layer by layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (fan_in, width) in enumerate(zip(dims, dims[1:])):
        W = rng.normal(size=(width, fan_in)) / np.sqrt(fan_in)
        layers.append(AffineLayer(W, 0.1 * rng.normal(size=width)))
        if i < len(dims) - 2:
            layers.append(lc.relu(width))
    return Network(layers)


def test_scored_branching_reaches_exact_in_few_iterations():
    # 65 iterations when the first star was split; 27 with the score
    net = _generated_relu_net([3, 10, 10, 2], 0)
    res = solve(net, unit_box(3), SolverConfig(norm=NormPair(1, np.inf)))
    assert res.status == "exact"
    assert res.glb == pytest.approx(0.9436543516, rel=1e-9)
    assert res.iterations <= 30


def test_branch_derives_each_child_state_once(monkeypatch):
    # two independent stars: each child keeps a star after re-filtering, and
    # its layer-1 hull is built once, not once by branch and again by ffilter
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.relu(2),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    root = initial_subproblem(net, unit_box(2))
    root = replace(root, ub=upper_bound(root, net, PAIR22))
    symprop_module = importlib.import_module("lipcert.symprop")
    built = []

    def counting_hull(lo, hi):
        built.append(lo)
        return owned_interval(lo, hi)

    monkeypatch.setattr(symprop_module, "owned_interval", counting_hull)
    children, _ = branch(root, net, 0.0, PAIR22)
    assert [child.stars[0] for child in children] == [(1,), (1,)]
    assert len(built) == len(children)


def test_branch_builds_one_region_per_child_tested(monkeypatch):
    # each piece the split group keeps is tested on a child region built by
    # one constructor call; ReLU re-filtering builds no further region
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.relu(2),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    root = initial_subproblem(net, unit_box(2))
    built = []
    init = Polyhedron.__init__

    def counting_init(self, C, c, dim=None):
        built.append(C)
        init(self, C, c, dim)

    monkeypatch.setattr(Polyhedron, "__init__", counting_init)
    children, _ = branch(root, net, 0.0, PAIR22)
    assert len(children) == 2
    assert len(built) == 2


def test_branch_child_bounds_never_exceed_parent():
    rng = np.random.default_rng(24)
    for _ in range(15):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        root = initial_subproblem(net, omega)
        if root.first_star_layer > net.depth:
            continue
        root_ub = upper_bound(root, net, PAIR22)
        children, _ = branch(root, net, 0.0, PAIR22)
        assert children, "a feasible region must produce feasible children"
        for child in children:
            assert child.ub <= root_ub + 1e-9
            # another level down, when stars remain
            if child.first_star_layer <= net.depth:
                grand, _ = branch(child, net, 0.0, PAIR22)
                for g in grand:
                    assert g.ub <= child.ub + 1e-9


def test_branch_children_cover_parent_region():
    rng = np.random.default_rng(25)
    net = make_cancel_net()
    root = initial_subproblem(net, unit_box(1))
    children, _ = branch(root, net, 0.0, PAIR22)
    for x in sample_in_region(root.region, rng, 50):
        assert any(c.region.contains(x) for c in children)


# solve

def test_solve_abs_box_exact():
    net = make_abs_net()
    res = solve(net, unit_box(1))
    assert res.status == "exact"
    assert res.glb == pytest.approx(1.0, abs=1e-9)
    assert res.gub == pytest.approx(1.0, abs=1e-9)
    assert res.iterations == 1
    assert res.glb <= res.gub


def test_solve_abs_decided_region_trivial():
    net = make_abs_net()
    res = solve(net, Polyhedron.from_box([1.0], [2.0]))
    assert res.status == "exact"
    assert res.iterations == 0
    assert res.subproblems_created == 1
    assert res.glb == pytest.approx(1.0, abs=1e-12)


def test_solve_pure_affine():
    W = np.array([[3.0, 0.0], [0.0, -4.0]])
    net = Network([AffineLayer(W, [1.0, 2.0])])
    res = solve(net, unit_box(2))
    assert res.status == "exact"
    assert res.iterations == 0
    assert res.glb == pytest.approx(4.0, rel=1e-9)


def test_solve_cancel_net():
    net = make_cancel_net()
    res = solve(net, unit_box(1))
    assert res.status == "exact"
    assert res.glb == pytest.approx(0.5, abs=1e-9)
    assert res.iterations == 1


def test_solve_time_limit_zero():
    net = make_abs_net()
    res = solve(net, unit_box(1), SolverConfig(time_limit=0.0))
    assert res.status == "time_limit"
    assert res.iterations == 0
    assert res.glb == 0.0
    assert res.gub == pytest.approx(1.0, abs=1e-9)


def test_solve_iteration_limit_zero():
    net = make_cancel_net()
    res = solve(net, unit_box(1), SolverConfig(max_iterations=0))
    assert res.status == "iteration_limit"
    assert res.iterations == 0
    assert res.glb == 0.0
    assert res.gub == pytest.approx(1.5, abs=1e-9)


def test_solve_approx_with_seeded_lower_bound():
    # theta 4 and a sampled lower bound end the search before any branching
    net = make_cancel_net()
    cfg = SolverConfig(theta=4.0, sample_count=200, seed=0)
    res = solve(net, unit_box(1), cfg)
    assert res.status == "approx_reached"
    assert res.iterations == 0
    assert res.glb == pytest.approx(0.5, abs=1e-9)
    assert res.gub == pytest.approx(1.5, abs=1e-9)
    assert res.gub <= 4.0 * res.glb + 1e-9


def test_solve_theta_brackets_truth():
    rng = np.random.default_rng(26)
    for _ in range(10):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        exact_val = brute_force_oracle(net, omega, PAIR22)
        res = solve(net, omega, SolverConfig(theta=1.5))
        assert res.glb - 1e-9 <= exact_val <= res.gub + 1e-9
        assert res.gub <= 1.5 * res.glb + 1e-9
        assert res.status in ("exact", "approx_reached")


@pytest.mark.parametrize("seed", [0, 9])
def test_scaling_the_output_layer_scales_the_bracket_and_keeps_the_status(seed):
    # a bracket narrower than 1e-9 was called exact at c = 1e-10 only, however
    # wide it was against gub; seed 9 stops at theta with a bracket of ratio 1.1
    rng = np.random.default_rng(seed)
    W1, b1, W2 = rng.normal(size=(6, 2)), rng.normal(size=6), rng.normal(size=(1, 6))
    omega = unit_box(2)
    cfg = SolverConfig(theta=1.5)

    def solve_scaled(c):
        return solve(Network([AffineLayer(W1, b1), lc.relu(6), AffineLayer(c * W2, [0.0])]),
                     omega, cfg)

    base = solve_scaled(1.0)
    for c in (1e-10, 1e6):
        res = solve_scaled(c)
        assert res.status == base.status
        assert res.glb == pytest.approx(c * base.glb, rel=1e-9)
        assert res.gub == pytest.approx(c * base.gub, rel=1e-9)
        if res.status == "exact":
            assert res.gub - res.glb <= 1e-9 * res.gub


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1(a): _decide calls a piece containing within the absolute FEAS_TOL "
    "= 1e-9, so pre-activations near 1e-10 are decided wrongly"))
def test_a_net_scaled_by_1e_10_keeps_its_bracket_sound():
    # the benchmark's scale probe 0: every bias and the first layer scaled by
    # c scale f, and so L, by c (positive homogeneity); solve ended exact at
    # 4.07e-11 against c L = 4.69e-10
    c = 1e-10
    net = random_net(np.random.default_rng(7))
    layers = []
    for l, (aff, act) in enumerate(zip(net.affine, net.activations)):
        layers += [AffineLayer(aff.W * (c if l == 0 else 1.0), c * aff.b), act]
    want = c * brute_force_oracle(net, unit_box(net.input_dim), PAIR22)
    res = solve(Network(layers), unit_box(net.input_dim))
    assert res.glb <= want * (1 + 1e-9) and want <= res.gub * (1 + 1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1(a): polyhedra._sup_terms counts a reduced coefficient within "
    "PIVOT_TOL on an infinite side as zero, so a star neuron is decided inactive"))
def test_a_tiny_weight_over_the_whole_space_keeps_gub_sound():
    # at x = (1e12, -1) both neurons are active with Jacobian [[1e-10, 10]],
    # so L >= 10; solve ended exact at 5 after one iteration
    net = Network([AffineLayer([[0.0, 1.0], [1e-11, 1.0]], [0.0, -1.0]), lc.relu(2),
                   AffineLayer([[-5.0, 10.0]], [0.0])])
    J, flagged = net.jacobian_at([1e12, -1.0])
    assert not flagged and np.linalg.norm(J, 2) >= 10.0
    res = solve(net, Polyhedron.universe(2))
    assert res.gub >= 10.0 * (1 - 1e-9)


def test_solve_history_is_monotone():
    rng = np.random.default_rng(27)
    for _ in range(8):
        net = random_net(rng)
        res = solve(net, unit_box(net.input_dim))
        hist = res.bounds_history
        assert hist[-1] == (res.glb, res.gub)
        for (lo0, hi0), (lo1, hi1) in zip(hist, hist[1:]):
            assert lo1 >= lo0 - 1e-12
            assert hi1 <= hi0 + 1e-12
        for lo, hi in hist:
            assert lo <= hi + 1e-12


def test_solve_matches_oracle_all_norms():
    rng = np.random.default_rng(28)
    for _ in range(10):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        for pair in (NormPair(1, 1), PAIR22, NormPair(np.inf, np.inf)):
            want = brute_force_oracle(net, omega, pair)
            res = solve(net, omega, SolverConfig(norm=pair))
            assert res.status == "exact"
            assert res.glb == pytest.approx(want, rel=1e-6, abs=1e-9)


def _spline3(width):
    breaks, slopes = [-0.5, 0.5], [0.2, 1.0, -0.5]
    intercepts = [0.0]
    for j, beta in enumerate(breaks):
        intercepts.append((slopes[j] - slopes[j + 1]) * beta + intercepts[j])
    return lc.spline(width, breaks, slopes, intercepts)


EVERY_KIND = {
    "relu": lambda: lc.relu(3),
    "leaky_relu": lambda: lc.leaky_relu(3, 0.1),
    "prelu_negative": lambda: lc.prelu(3, [-0.5, -1.5, -0.2]),
    "spline3": lambda: _spline3(3),
    "maxmin": lambda: lc.maxmin(4),
    "groupsort3": lambda: lc.groupsort(6, 3),
    "groupsort4": lambda: lc.groupsort(4, 4),
    "fullsort3": lambda: lc.fullsort(3),
    "maxpool2": lambda: lc.MaxPoolActivation(4, [(0, 1), (2, 3)]),
    "maxpool3": lambda: lc.MaxPoolActivation(6, [(0, 1, 2), (3, 4, 5)]),
    "identity": lambda: lc.IdentityActivation(3),
}


@pytest.mark.parametrize("kind", EVERY_KIND)
def test_solve_matches_oracle_on_every_activation_kind(kind):
    # two layers of the kind between random affine maps, on 2-input nets
    omega = unit_box(2)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        layers, width = [], 2
        for _ in range(2):
            act = EVERY_KIND[kind]()
            layers += [AffineLayer(rng.normal(size=(act.in_width, width)),
                                   rng.normal(size=act.in_width)), act]
            width = act.out_width
        net = Network(layers + [AffineLayer(rng.normal(size=(2, width)), rng.normal(size=2))])
        for pair in (PAIR22, NormPair(1, np.inf), NormPair(1, 1)):
            want = brute_force_oracle(net, omega, pair)
            res = solve(net, omega, SolverConfig(norm=pair))
            assert res.status == "exact"
            assert res.glb == pytest.approx(want, rel=1e-6)


def test_twin_neurons_keep_glb_sound_on_cut_regions():
    # neurons 0, 1 and 3 share one hyperplane, so a child can fix 0 active and
    # 1 inactive on the face {w.x + b = 0}: that face is linear with a
    # Jacobian norm far above L, and only the containment test's slack keeps
    # it from reaching glb. Two cuts put every child on the simplex.
    rng = np.random.default_rng(0)
    bad = []
    for trial in range(60):
        w, v = rng.normal(size=2), rng.normal(size=2)
        b, b_v = rng.normal(size=2)
        net = Network([AffineLayer([w, w, v, 3.0 * w], [b, b, b_v, 3.0 * b]), lc.relu(4),
                       AffineLayer([[1.0, -1.0, 0.1, 0.0]], [0.0])])
        A = rng.normal(size=(2, 2))
        cuts = Polyhedron(A, A @ rng.uniform(-0.5, 0.5, size=2) + rng.uniform(0.1, 1.0, size=2))
        omega = lc.stack(unit_box(2), cuts)
        for pair in (PAIR22, NormPair(1, np.inf)):
            want = brute_force_oracle(net, omega, pair)
            res = solve(net, omega, SolverConfig(norm=pair))
            if not (res.glb <= want * (1 + 1e-9) and want <= res.gub * (1 + 1e-9)):
                bad.append((trial, str(pair), res.glb, want, res.gub))
    assert bad == []


def test_solve_on_subproblem_callback():
    net = make_cancel_net()
    seen = []
    omega = unit_box(1)
    solve(net, omega, on_subproblem=seen.append)
    assert seen[0].region is omega  # the root comes first
    assert len(seen) >= 3
    for s in seen:
        assert np.isfinite(s.ub)


def _three_x() -> Network:
    return Network([AffineLayer([[3.0]], [0.0])])


def test_a_linear_root_is_settled_like_a_leaf():
    seen = []
    omega = Polyhedron.from_box([-1.0], [1.0])
    res = solve(_three_x(), omega, on_subproblem=seen.append)
    assert res.status == "exact"
    assert (res.iterations, res.subproblems_created) == (0, 1)
    assert (res.fathomed_bounds, res.fathomed_optimality, res.peak_heap_size) == (0, 1, 0)
    assert len(seen) == 1 and seen[0].region is omega
    assert res.bounds_history == [(res.glb, res.gub)]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1(b): every glb source reads induced_norm, whose (2,2) path rounds "
    "up for the gub side; glb needs its own rounding"))
def test_glb_never_exceeds_the_exact_constant_under_2_2():
    # f(x) = 3x has L = 3 exactly, yet both glb sources gave 3 + 2.7e-15
    omega = Polyhedron.from_box([-1.0], [1.0])
    res = solve(_three_x(), omega)
    assert res.status == "exact"
    assert lc.sampled_lower_bound(_three_x(), omega, PAIR22, 5) <= 3.0
    assert res.glb <= 3.0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1(c): over a region with no interior, solve and the oracle take "
    "Jacobians of full width, not restricted to the region's affine hull"))
def test_a_region_with_no_interior_keeps_its_constant():
    # on the segment x0 = 0, |x1| <= 1 the net is leaky_2(x1), so L = 2 by
    # the package's definition; both gave the norm 2 sqrt(2) of [2, 2]
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.leaky_relu(2, 2.0),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    omega = Polyhedron([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])
    assert solve(net, omega).gub <= 2.0 + 1e-9
    assert brute_force_oracle(net, omega, PAIR22) <= 2.0 + 1e-9


def test_solve_seeding_shrinks_peak_heap():
    rng = np.random.default_rng(30)
    net = random_net(rng, max_hidden=2, max_width=4)
    omega = unit_box(net.input_dim)
    plain = solve(net, omega, SolverConfig(sample_count=0))
    seeded = solve(net, omega, SolverConfig(sample_count=5000, seed=1))
    assert seeded.peak_heap_size <= plain.peak_heap_size
    assert seeded.glb == pytest.approx(plain.glb, abs=1e-9)
    assert seeded.gub == pytest.approx(plain.gub, abs=1e-9)


def _abs_sum_net() -> lc.Network:
    """f(x) = |x0 + x1|."""
    return lc.Network([
        lc.AffineLayer([[1.0, 1.0], [-1.0, -1.0]], [0.0, 0.0]),
        lc.relu(2),
        lc.AffineLayer([[1.0, 1.0]], [0.0]),
    ])


def test_solve_with_samples_builds_one_lp_on_omega(region_lps):
    # the symbolic pass, the sampler's feasibility test and its bounding box
    # all ask the LP that omega keeps; omega, a diamond, is no box
    omega = Polyhedron([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], np.ones(4))
    res = solve(_abs_sum_net(), omega, SolverConfig(sample_count=20))
    assert res.status == "exact"
    assert sum(A is omega.C for A, _ in region_lps) == 1


def test_solve_over_a_box_builds_no_simplex_lp_on_omega(region_lps):
    # a box omega's queries are answered in closed form
    omega = unit_box(2)
    res = solve(_abs_sum_net(), omega, SolverConfig(sample_count=20))
    assert res.status == "exact"
    assert not any(A is omega.C for A, _ in region_lps)
    # in one dimension every region is a box: no simplex LP at all
    region_lps.clear()
    assert solve(make_abs_net(), unit_box(1), SolverConfig(sample_count=20)).status == "exact"
    assert region_lps == []


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(theta=0.5)
    with pytest.raises(ValueError):
        SolverConfig(sample_count=-1)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(theta=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(time_limit=float("nan"))
    # numpy's default_rng refused it inside `solve`, in words without "seed"
    for cfg in (dict(seed=-1), dict(seed=-1, sample_count=5)):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SolverConfig(**cfg)


@pytest.mark.parametrize("make", [
    lambda: SolverConfig(sample_count=2.5),
    lambda: SolverConfig(sample_count=True),
    lambda: SolverConfig(max_iterations=0.5),
    lambda: SolverConfig(seed=1.5),
    lambda: lc.sampled_lower_bound(make_abs_net(), unit_box(1), PAIR22, 2.5),
    lambda: lc.sampled_lower_bound(make_abs_net(), unit_box(1), PAIR22, True),
    lambda: lc.sampled_lower_bound(make_abs_net(), unit_box(1), PAIR22, 3, seed=0.5),
], ids=["samples-fraction", "samples-bool", "iterations-fraction", "seed-fraction",
        "sampled-fraction", "sampled-bool", "sampled-seed-fraction"])
def test_counts_and_seeds_reject_non_integers(make):
    # 2.5 samples drew 3 points and True drew one, without an error
    with pytest.raises(ValueError, match="must be an integer"):
        make()


# oracle

def test_oracle_abs():
    net = make_abs_net()
    assert brute_force_oracle(net, unit_box(1), PAIR22) == pytest.approx(1.0, abs=1e-9)
    assert brute_force_oracle(net, Polyhedron.universe(1), PAIR22) == pytest.approx(1.0)


def test_oracle_cancel_net():
    net = make_cancel_net()
    assert brute_force_oracle(net, unit_box(1), PAIR22) == pytest.approx(0.5, abs=1e-9)


def test_oracle_respects_region():
    # scale the two relu branches differently so the sides disagree
    net = Network([
        AffineLayer([[1.0], [-1.0]], [0.0, 0.0]),
        lc.relu(2),
        AffineLayer([[1.0, 0.25]], [0.0]),
    ])
    assert brute_force_oracle(net, Polyhedron.from_box([-2.0], [-1.0]),
                              PAIR22) == pytest.approx(0.25, abs=1e-9)
    assert brute_force_oracle(net, Polyhedron.from_box([1.0], [2.0]),
                              PAIR22) == pytest.approx(1.0, abs=1e-9)


def test_oracle_guardrail():
    net = Network([
        AffineLayer(np.ones((30, 1)), np.zeros(30)),
        lc.relu(30),
        AffineLayer(np.ones((1, 30)), [0.0]),
    ])
    with pytest.raises(GuardrailExceededError) as err:
        brute_force_oracle(net, unit_box(1), PAIR22)
    assert err.value.combination_count > 1_000_000

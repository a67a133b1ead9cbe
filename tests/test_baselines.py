import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    AffineLayer,
    Network,
    NormPair,
    Polyhedron,
    SamplingError,
    UnsupportedNormError,
    layerwise_bound,
    sampled_lower_bound,
    solve,
    symprop_bound,
)

from conftest import make_abs_net, random_net, unit_box

PAIR22 = NormPair(2, 2)


def test_layerwise_abs():
    # ||W1|| * ||W2|| = sqrt(2) * sqrt(2) = 2, twice the true constant
    assert layerwise_bound(make_abs_net(), PAIR22) == pytest.approx(2.0, abs=1e-9)


def test_layerwise_single_affine():
    net = Network([AffineLayer([[3.0, 0.0], [0.0, -4.0]], [0.0, 0.0])])
    assert layerwise_bound(net, PAIR22) == pytest.approx(4.0, rel=1e-9)


def test_layerwise_rejects_mixed_norms():
    with pytest.raises(UnsupportedNormError):
        layerwise_bound(make_abs_net(), NormPair(1, np.inf))


def test_layerwise_includes_activation_constant():
    net = Network([AffineLayer([[2.0]], [0.0]), lc.prelu(1, [3.0]),
                   AffineLayer([[1.0]], [0.0])])
    assert layerwise_bound(net, PAIR22) == pytest.approx(6.0, rel=1e-9)


def test_layerwise_upper_bounds_solver():
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = random_net(rng)
        res = solve(net, unit_box(net.input_dim))
        for pair in (NormPair(1, 1), PAIR22, NormPair(np.inf, np.inf)):
            res_p = solve(net, unit_box(net.input_dim), lc.SolverConfig(norm=pair))
            assert layerwise_bound(net, pair) >= res_p.glb - 1e-9
        assert res.status == "exact"


def test_symprop_bound_abs():
    net = make_abs_net()
    assert symprop_bound(net, Polyhedron.universe(1), PAIR22) == pytest.approx(1.0, abs=1e-9)
    assert symprop_bound(net, unit_box(1), PAIR22) == pytest.approx(1.0, abs=1e-9)


def test_symprop_bound_upper_bounds_solver():
    rng = np.random.default_rng(32)
    for _ in range(10):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        res = solve(net, omega)
        assert symprop_bound(net, omega, PAIR22) >= res.gub - 1e-9


def test_sampled_lower_abs():
    net = make_abs_net()
    val = sampled_lower_bound(net, Polyhedron.universe(1), PAIR22, 100, seed=0)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert sampled_lower_bound(net, unit_box(1), PAIR22, 100, seed=0) == pytest.approx(1.0)


def test_sampled_lower_zero_samples():
    assert sampled_lower_bound(make_abs_net(), unit_box(1), PAIR22, 0) == 0.0
    with pytest.raises(ValueError):
        sampled_lower_bound(make_abs_net(), unit_box(1), PAIR22, -1)


@pytest.mark.parametrize("n_samples", [0, 5])
def test_sampled_lower_rejects_a_negative_seed(n_samples):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        sampled_lower_bound(make_abs_net(), unit_box(1), PAIR22, n_samples, seed=-3)


def test_sampled_lower_is_deterministic():
    rng = np.random.default_rng(33)
    net = random_net(rng)
    omega = unit_box(net.input_dim)
    a = sampled_lower_bound(net, omega, PAIR22, 500, seed=7)
    b = sampled_lower_bound(net, omega, PAIR22, 500, seed=7)
    assert a == b
    c = sampled_lower_bound(net, omega, PAIR22, 500, seed=8)
    assert np.isfinite(c)


def test_sampled_lower_never_exceeds_exact():
    rng = np.random.default_rng(34)
    for _ in range(10):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        res = solve(net, omega)
        for n in (1, 10, 200):
            val = sampled_lower_bound(net, omega, PAIR22, n, seed=0)
            assert val <= res.glb + 1e-9


def test_sampled_lower_more_samples_never_worse():
    net = make_abs_net()
    omega = unit_box(1)
    vals = [sampled_lower_bound(net, omega, PAIR22, n, seed=5) for n in (1, 10, 100)]
    assert vals == sorted(vals)


def test_sampled_lower_infeasible_region():
    with pytest.raises(lc.InfeasibleRegionError):
        sampled_lower_bound(make_abs_net(), Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]),
                            PAIR22, 10)


def test_sampled_lower_rejection_guardrail():
    # a sliver of the box accepts ~1e-6 of proposals: the attempt cap fires
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.relu(2),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    sliver = Polyhedron(
        [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]],
        [1e-6, 1e-6, 1.0, 1.0],
    )
    with pytest.raises(SamplingError):
        sampled_lower_bound(net, sliver, PAIR22, 50, seed=0)


def test_sampled_lower_unbounded_uses_default_box():
    net = make_abs_net()
    # slope beyond +-10 does not exist for |x|, so the default box finds 1.0
    val = sampled_lower_bound(net, Polyhedron.universe(1), PAIR22, 50, seed=1)
    assert val == pytest.approx(1.0)
    # a wider explicit default box is accepted too
    val = sampled_lower_bound(net, Polyhedron.universe(1), PAIR22, 50, seed=1,
                              default_box=(-100.0, 100.0))
    assert val == pytest.approx(1.0)


@pytest.mark.parametrize("box", [(-np.inf, np.inf), (-np.inf, 0.0), (0.0, np.inf)])
def test_sampled_lower_rejects_a_non_finite_default_box(box):
    with pytest.raises(ValueError, match="finite"):
        sampled_lower_bound(make_abs_net(), Polyhedron.universe(1), PAIR22, 10, default_box=box)


def test_sampled_lower_overflowing_box_raises_sampling_error():
    # both sides are finite, but their distance overflows to inf
    with pytest.raises(SamplingError, match="not finite"):
        sampled_lower_bound(make_abs_net(), Polyhedron.universe(1), PAIR22, 10,
                            default_box=(-1e308, 1e308))


def test_sampler_on_a_box_inverted_within_the_feasibility_tolerance():
    # is_feasible accepts a side inverted by less than FEAS_TOL; the draws
    # then sit on its lower side, which the region contains within FEAS_TOL
    net = Network([AffineLayer([[1.0, 2.0], [3.0, -1.0]], [0.0, 0.0]), lc.relu(2),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    omega = Polyhedron.from_box([1.0, -1.0], [1.0 - 5e-10, 1.0])
    glb = sampled_lower_bound(net, omega, PAIR22, 10, seed=0)
    assert glb > 0.0
    res = solve(net, omega, lc.SolverConfig(sample_count=10))
    assert res.glb <= res.gub

"""`interval_jacobian` against the chain of general interval products it replaced.

The reference forms every product of the tail with `interval_matmul`: the slope
hull of the first star layer times the exact prefix, then each exact weight
matrix and each slope hull in turn. `interval_jacobian` uses the structure of
each factor instead, so the two agree up to the order of summation.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipcert as lc
from lipcert import NormPair, SolverConfig, exact, interval_jacobian, interval_matmul

from conftest import EVERY_KIND, sample_in_region, two_layer_net, unit_box

PARITY_RTOL = 1e-12


def matmul_chain(sub, net) -> lc.IntervalMatrix:
    """The interval Jacobian as a chain of `interval_matmul` calls."""
    if sub.linear:
        return exact(sub.J)
    lt = sub.first_star_layer
    M = interval_matmul(sub.layers[lt - 1].lam_mat, exact(sub.J))
    for l in range(lt + 1, net.depth + 1):
        M = interval_matmul(exact(net.affine[l - 1].W), M)
        M = interval_matmul(sub.layers[l - 1].lam_mat, M)
    return M


def identity_padded_net(rng) -> lc.Network:
    """Stars ahead of identity layers: the network pads an identity after the
    ReLU layer's outgoing affine map and another after the last one."""
    net = lc.Network([
        lc.AffineLayer(rng.normal(size=(4, 2)), rng.normal(size=4)), lc.relu(4),
        lc.AffineLayer(rng.normal(size=(3, 4)), rng.normal(size=3)),
        lc.AffineLayer(rng.normal(size=(4, 3)), rng.normal(size=4)), lc.leaky_relu(4, 0.1),
        lc.AffineLayer(rng.normal(size=(2, 4)), rng.normal(size=2)),
    ])
    assert [act.kind for act in net.activations] == ["relu", "identity", "leaky_relu", "identity"]
    return net


# every kind of a layer that can keep a star, and the identity-padded net
KINDS = sorted(set(EVERY_KIND) - {"identity"}) + ["identity_padded"]


def make_net(kind, rng) -> lc.Network:
    return identity_padded_net(rng) if kind == "identity_padded" else two_layer_net(kind, rng)


def solve_nodes(net, pair, max_iterations):
    nodes = []
    lc.solve(net, unit_box(net.input_dim), SolverConfig(norm=pair, max_iterations=max_iterations),
             on_subproblem=nodes.append)
    return nodes


@pytest.mark.parametrize("kind", KINDS)
def test_interval_jacobian_matches_the_interval_matmul_chain(kind):
    undecided = 0
    for seed in range(3):
        net = make_net(kind, np.random.default_rng(seed))
        for sub in solve_nodes(net, NormPair(2, 2), 30):
            undecided += not sub.linear
            got, want = interval_jacobian(sub, net), matmul_chain(sub, net)
            scale = max(np.abs(want.lower).max(), np.abs(want.upper).max())
            for a, b in ((got.lower, want.lower), (got.upper, want.upper)):
                assert np.abs(a - b).max() <= PARITY_RTOL * scale
    assert undecided > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
       pair=st.sampled_from([NormPair(2, 2), NormPair(1, np.inf), NormPair(1, 1),
                             NormPair(np.inf, np.inf)]))
def test_each_node_brackets_the_jacobians_sampled_in_its_region(kind, seed, pair):
    rng = np.random.default_rng(seed)
    net = make_net(kind, rng)
    for sub in solve_nodes(net, pair, 6)[:8]:
        M = interval_jacobian(sub, net)
        J, flagged = net.jacobian_at(np.array(sample_in_region(sub.region, rng, 16)))
        J = J[~flagged]
        assert (lc.induced_norm(J, pair) <= sub.ub + 1e-9).all()
        assert (J >= M.lower - 1e-9).all() and (J <= M.upper + 1e-9).all()

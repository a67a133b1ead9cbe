"""Permuting hidden neurons leaves every computed Lipschitz bound unchanged.

Each hidden layer's neurons are reordered in a way its activation commutes
with: any order for ReLU and leaky ReLU, whole pairs for MaxMin, the inputs
within each window for MaxPool. The permuted network computes the same
function, so `solve` must reach the same exact constant and `symprop_bound`
the same upper bound, up to the rounding of a different summation order.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lipcert as lc

from conftest import unit_box

PAIRS = [lc.NormPair(1, 1), lc.NormPair(2, 2), lc.NormPair(np.inf, np.inf)]


def hidden_layer(rng, family):
    """(activation, order): the permuted layer's neuron i is neuron order[i]."""
    units = int(rng.integers(1, 3))
    if family == "maxpool":
        act = lc.MaxPoolActivation(2 * units, [(2 * i, 2 * i + 1) for i in range(units)])
        return act, np.concatenate([rng.permutation([2 * i, 2 * i + 1]) for i in range(units)])
    if family == "maxmin":
        return lc.maxmin(2 * units), (2 * rng.permutation(units)[:, None] + [0, 1]).reshape(-1)
    width = int(rng.integers(1, 5))
    act = lc.relu(width) if family == "relu" else lc.leaky_relu(width, 0.1)
    return act, rng.permutation(width)


def permuted_pair(rng, family):
    """(net, permuted net) with 1-3 inputs, 1-2 outputs and 1-2 hidden layers
    of `family` (one for MaxPool)."""
    layers, permuted = [], []
    width = int(rng.integers(1, 4))
    P_out = np.eye(width)  # the previous layer's outputs, as the permuted net orders them
    for _ in range(1 if family == "maxpool" else int(rng.integers(1, 3))):
        act, order = hidden_layer(rng, family)
        W, b = rng.normal(size=(act.in_width, width)), rng.normal(size=act.in_width)
        P = np.eye(act.in_width)[order]
        layers += [lc.AffineLayer(W, b), act]
        permuted += [lc.AffineLayer(P @ W @ P_out.T, P @ b), act]
        # a window's maximum does not depend on the order of its inputs
        P_out = np.eye(act.out_width) if family == "maxpool" else P
        width = act.out_width
    W, b = rng.normal(size=(int(rng.integers(1, 3)), width)), rng.normal(size=1)
    layers.append(lc.AffineLayer(W, np.repeat(b, len(W))))
    permuted.append(lc.AffineLayer(W @ P_out.T, np.repeat(b, len(W))))
    return lc.Network(layers), lc.Network(permuted)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["relu", "leaky_relu", "maxmin", "maxpool"]))
def test_permuting_hidden_neurons_keeps_the_bounds(seed, family):
    rng = np.random.default_rng(seed)
    net, other = permuted_pair(rng, family)
    region = unit_box(net.input_dim)
    x = rng.uniform(-1.0, 1.0, size=net.input_dim)
    np.testing.assert_allclose(other.forward(x), net.forward(x), rtol=1e-12, atol=1e-12)
    for pair in PAIRS:
        config = lc.SolverConfig(norm=pair)
        got, want = lc.solve(other, region, config), lc.solve(net, region, config)
        assert want.status == got.status == "exact"
        tol = 1e-9 * max(1.0, abs(want.gub))
        assert abs(got.gub - want.gub) <= tol
        assert abs(lc.symprop_bound(other, region, pair)
                   - lc.symprop_bound(net, region, pair)) <= tol

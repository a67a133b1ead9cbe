"""Star-only re-filtering against a re-analysis of every group of every layer.

The networks' activations give distinct rows to distinct pieces, so a group
keeping two or more pieces always holds a star and is re-analysed.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipcert as lc
from lipcert import Polyhedron, analyze_activation_layer, ffilter, initial_subproblem, upper_bound

from conftest import random_net, unit_box


def full_refilter(sub, net):
    """Re-filter by analysing every group of each layer afresh, with no record."""
    l, L = sub.first_star_layer, net.depth
    J, b = sub.J, sub.b
    layers = list(sub.layers)
    while l <= L:
        state = analyze_activation_layer(net.activations[l - 1], sub.region, J, b)
        layers[l - 1] = state
        if state.stars:
            break
        J = state.fixed_T @ J
        b = state.fixed_T @ b + state.fixed_t
        if l < L:
            J = net.affine[l].W @ J
            b = net.affine[l].W @ b + net.affine[l].b
        l += 1
    return replace(sub, layers=tuple(layers), first_star_layer=l, J=J, b=b)


def sort_net(rng, kind):
    """2- or 3-input network with one GroupSort-4 or one MaxPool layer."""
    d = int(rng.integers(2, 4))
    if kind == "groupsort":
        width, act, out_in = 4, lc.groupsort(4, 4), 4
    else:
        width = 6
        act = lc.MaxPoolActivation(width, [(0, 1), (2, 3), (4, 5)])
        out_in = 3
    return lc.Network([
        lc.AffineLayer(rng.normal(size=(width, d)), rng.normal(size=width)),
        act,
        lc.AffineLayer(rng.normal(size=(2, out_in)), rng.normal(size=2)),
    ])


def same_interval(A, B):
    return np.array_equal(A.lower, B.lower) and np.array_equal(A.upper, B.upper)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["random", "random", "groupsort", "maxpool"]))
def test_star_only_ffilter_matches_full_reanalysis(seed, family):
    rng = np.random.default_rng(seed)
    net = random_net(rng) if family == "random" else sort_net(rng, family)
    d = net.input_dim
    root = initial_subproblem(net, unit_box(d))
    corners = rng.uniform(-1.0, 1.0, size=(2, d))
    sub = replace(root, region=Polyhedron.from_box(corners.min(axis=0), corners.max(axis=0)))
    got = ffilter(sub, net)
    want = full_refilter(sub, net)
    assert got.first_star_layer == want.first_star_layer
    for a, b in zip(got.layers, want.layers):
        # a piece dropped while still feasible shows up here first
        assert np.array_equal(a.pieces, b.pieces)
        assert a.stars == b.stars
        assert same_interval(a.lam_mat, b.lam_mat)
        assert np.array_equal(a.fixed_T, b.fixed_T)
        assert np.array_equal(a.fixed_t, b.fixed_t)
    assert np.array_equal(got.J, want.J)
    assert np.array_equal(got.b, want.b)
    pair = lc.NormPair(2, 2)
    assert upper_bound(got, net, pair) == upper_bound(want, net, pair)


@pytest.mark.parametrize("seed, pair, glb, iterations", [
    (15, (2, 2), "0x1.16d531fdeb516p+3", 21),  # ReLU family
    (4, (1, np.inf), "0x1.2cccd420bdb8cp+4", 15),  # MaxMin
])
def test_refiltering_keeps_generated_solves_bit_for_bit(seed, pair, glb, iterations):
    # these solves re-filter children cut two or more times, whose LPs end
    # early once decided; the bracket and the iteration count must be those
    # of LPs run to their optima
    net = random_net(np.random.default_rng(seed), max_in=3, max_hidden=2, max_width=8,
                     kinds=("relu", "leaky_relu", "maxmin"))
    res = lc.solve(net, unit_box(net.input_dim), lc.SolverConfig(norm=lc.NormPair(*pair)))
    assert (res.status, res.glb.hex(), res.gub.hex(), res.iterations) == (
        "exact", glb, glb, iterations)

"""Star-only re-filtering against a re-analysis of every neuron of every layer."""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lipcert as lc
from lipcert import Polyhedron, analyze_activation_layer, ffilter, initial_subproblem, upper_bound
from lipcert.network import LinearPrefix

from conftest import random_net, unit_box


def full_refilter(sub, net):
    """Re-filter by analysing every neuron of each layer from scratch."""
    l, L = sub.first_star_layer, net.depth
    J, b = sub.prefix.J, sub.prefix.b
    lam_mats, lam_vecs, stars = list(sub.lam_mats), list(sub.lam_vecs), list(sub.stars)
    while l <= L:
        la = analyze_activation_layer(net.activations[l - 1], sub.region, J, b)
        lam_mats[l - 1], lam_vecs[l - 1], stars[l - 1] = la.lam_mat, la.lam_vec, tuple(la.stars)
        if la.stars:
            break
        J = la.fixed_T @ J
        b = la.fixed_T @ b + la.fixed_t
        if l < L:
            J = net.affine[l].W @ J
            b = net.affine[l].W @ b + net.affine[l].b
        l += 1
    return replace(sub, lam_mats=tuple(lam_mats), lam_vecs=tuple(lam_vecs),
                   stars=tuple(stars), first_star_layer=l, prefix=LinearPrefix(J, b))


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
    assert got.stars == want.stars
    assert got.first_star_layer == want.first_star_layer
    for a, b in zip(got.lam_mats, want.lam_mats):
        assert same_interval(a, b)
    for a, b in zip(got.lam_vecs, want.lam_vecs):
        assert same_interval(a, b)
    assert np.array_equal(got.prefix.J, want.prefix.J)
    assert np.array_equal(got.prefix.b, want.prefix.b)
    pair = lc.NormPair(2, 2)
    assert upper_bound(got, net, pair) == upper_bound(want, net, pair)

import numpy as np
import pytest

import lipcert as lc
from lipcert import (
    AffineLayer,
    InfeasibleRegionError,
    Network,
    Polyhedron,
    symprop,
    symprop_trace,
)

from conftest import make_abs_net, random_net, sample_in_region, unit_box


def test_abs_decided_region():
    # on [1, 2] both relu neurons are decided: active / inactive
    net = make_abs_net()
    pattern = symprop(net, Polyhedron.from_box([1.0], [2.0]))
    assert pattern.first_star_layer == net.depth + 1
    assert [s.stars for s in pattern.layers] == [(), ()]
    lam = pattern.layers[0].lam_mat
    assert lam.is_degenerate()
    np.testing.assert_allclose(lam.lower, np.diag([1.0, 0.0]))


def test_abs_mixed_region():
    # on [-1, 1] both relu neurons straddle zero
    net = make_abs_net()
    pattern = symprop(net, unit_box(1))
    assert pattern.first_star_layer == 1
    assert pattern.layers[0].stars == (0, 1)
    lam = pattern.layers[0].lam_mat
    np.testing.assert_allclose(lam.lower, np.zeros((2, 2)))
    np.testing.assert_allclose(lam.upper, np.eye(2))


def test_abs_negative_region():
    # on [-2, -1] the first neuron is inactive, the second active
    net = make_abs_net()
    pattern = symprop(net, Polyhedron.from_box([-2.0], [-1.0]))
    assert pattern.first_star_layer == net.depth + 1
    np.testing.assert_allclose(pattern.layers[0].lam_mat.lower, np.diag([0.0, 1.0]))


def test_face_touching_region_is_decided():
    # [0, 1] touches the breakpoint only at the face; containment decides both
    net = make_abs_net()
    pattern = symprop(net, Polyhedron.from_box([0.0], [1.0]))
    assert pattern.first_star_layer == net.depth + 1
    np.testing.assert_allclose(pattern.layers[0].lam_mat.lower, np.diag([1.0, 0.0]))


def test_aux_bounds_from_region():
    net = make_abs_net()
    _, trace = symprop_trace(net, unit_box(1))
    # star outputs relu(x) and relu(-x) both range over [0, 1]
    assert trace[0]["stars"] == (0, 1)
    for n in (0, 1):
        lo, hi = trace[0]["aux_bounds"][n]
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)


def test_aux_bounds_unbounded_region():
    # leaky relu on all of R has image all of R: no finite side
    net = Network([AffineLayer([[1.0]], [0.0]), lc.leaky_relu(1, 0.5),
                   AffineLayer([[1.0]], [0.0])])
    _, trace = symprop_trace(net, Polyhedron.universe(1))
    lo, hi = trace[0]["aux_bounds"][0]
    assert lo == -np.inf and hi == np.inf


def test_relu_unbounded_region_one_sided_aux():
    net = make_abs_net()
    _, trace = symprop_trace(net, Polyhedron.universe(1))
    lo, hi = trace[0]["aux_bounds"][0]
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == np.inf


def test_identity_net_has_no_stars():
    net = Network([AffineLayer([[2.0, 1.0]], [0.5])])
    pattern = symprop(net, unit_box(2))
    assert pattern.first_star_layer == net.depth + 1
    assert all(s.stars == () for s in pattern.layers)


def test_infeasible_region_raises():
    net = make_abs_net()
    with pytest.raises(InfeasibleRegionError):
        symprop(net, Polyhedron([[1.0], [-1.0]], [-1.0, -1.0]))


def test_dimension_mismatch():
    net = make_abs_net()
    with pytest.raises(ValueError):
        symprop(net, unit_box(2))


def test_maxmin_group_stars():
    # z = (x0, x1) on a box where the ordering flips: both group neurons star
    net = Network([AffineLayer(np.eye(2), [0.0, 0.0]), lc.maxmin(2),
                   AffineLayer([[1.0, 1.0]], [0.0])])
    pattern = symprop(net, unit_box(2))
    assert pattern.layers[0].stars == (0, 1)
    # on a region with a fixed ordering the group is decided
    pattern = symprop(net, Polyhedron.from_box([2.0, -1.0], [3.0, 1.0]))
    assert pattern.layers[0].stars == ()
    np.testing.assert_allclose(pattern.layers[0].lam_mat.lower, [[0.0, 1.0], [1.0, 0.0]])


def test_group_fixed_by_identical_parameters():
    # fullsort of width 1 has a single piece: never a star
    net = Network([AffineLayer([[1.0]], [0.0]), lc.fullsort(1),
                   AffineLayer([[1.0]], [0.0])])
    pattern = symprop(net, unit_box(1))
    assert pattern.first_star_layer == net.depth + 1


def test_envelope_soundness_random_nets():
    """B_hat x + b_hat with true aux values reproduces each layer's output."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        pattern, trace = symprop_trace(net, omega)
        for x in sample_in_region(omega, rng, 20):
            sym = np.asarray(x, dtype=float)
            v = np.asarray(x, dtype=float)
            for l in range(net.depth):
                aff = net.affine[l]
                z = aff.W @ v + aff.b
                v = net.activations[l].evaluate(z)
                entry = trace[l]
                for n in entry["stars"]:
                    lo, hi = entry["aux_bounds"][n]
                    assert lo - 1e-9 <= v[n] <= hi + 1e-9
                sym = np.concatenate([sym, v[list(entry["stars"])]])
                recon = entry["Bhat"] @ sym + entry["bhat"]
                np.testing.assert_allclose(recon, v, atol=1e-9)
        # the symbolic vector grows by exactly one coordinate per star
        assert sym.shape[0] == net.input_dim + sum(len(t["stars"]) for t in trace)


def test_decided_rows_match_sampled_jacobians():
    """Non-star neurons carry the exact piece row used by every in-region point."""
    rng = np.random.default_rng(20)
    for _ in range(15):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        pattern, trace = symprop_trace(net, omega)
        for x in sample_in_region(omega, rng, 10):
            v = np.asarray(x, dtype=float)
            for l in range(net.depth):
                aff = net.affine[l]
                z = aff.W @ v + aff.b
                act = net.activations[l]
                (T,), (t,), (flagged,) = act.local_linearization(z[None])
                if flagged:
                    break
                lam = pattern.layers[l].lam_mat
                decided = [n for n in range(act.out_width)
                           if n not in pattern.layers[l].stars]
                for n in decided:
                    np.testing.assert_allclose(T[n], lam.lower[n], atol=1e-9)
                    np.testing.assert_allclose(T[n], lam.upper[n], atol=1e-9)
                v = act.evaluate(z)


def test_star_hull_covers_sampled_rows():
    rng = np.random.default_rng(21)
    for _ in range(15):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        pattern = symprop(net, omega)
        for x in sample_in_region(omega, rng, 10):
            v = np.asarray(x, dtype=float)
            for l in range(net.depth):
                aff = net.affine[l]
                z = aff.W @ v + aff.b
                act = net.activations[l]
                (T,), _, (flagged,) = act.local_linearization(z[None])
                if flagged:
                    break
                lam = pattern.layers[l].lam_mat
                assert np.all(T >= lam.lower - 1e-9)
                assert np.all(T <= lam.upper + 1e-9)
                v = act.evaluate(z)


def test_shrinking_region_never_adds_stars():
    # sound up to the first star layer of the larger region: both analyses
    # work in the same exact symbolic space there, and reachable sets nest
    rng = np.random.default_rng(22)
    for _ in range(10):
        net = random_net(rng)
        d = net.input_dim
        big = symprop(net, unit_box(d))
        small = symprop(net, lc.Polyhedron.from_box([-0.25] * d, [0.25] * d))
        assert small.first_star_layer >= big.first_star_layer
        for l in range(min(big.first_star_layer, net.depth)):
            assert set(small.layers[l].stars) <= set(big.layers[l].stars)


def test_first_star_layer_is_first_nonempty():
    rng = np.random.default_rng(23)
    for _ in range(10):
        net = random_net(rng)
        pattern = symprop(net, unit_box(net.input_dim))
        firsts = [l + 1 for l, s in enumerate(pattern.layers) if s.stars]
        expect = firsts[0] if firsts else net.depth + 1
        assert pattern.first_star_layer == expect


def test_layer_state_matches_per_group_hull():
    """LayerState against a group-by-group hull of the kept pieces' rows,
    on random kept sets, with padded groups (short windows, remainders)."""
    rng = np.random.default_rng(24)
    acts = [lc.relu(3), lc.spline(2, [-1.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]),
            lc.groupsort(5, 2), lc.groupsort(4, 3), lc.maxmin(4),
            lc.MaxPoolActivation(5, [(0, 1, 2), (3, 4)])]
    for act in acts:
        valid = act.piece_table()[2]
        for _ in range(10):
            pieces = valid & (rng.random(valid.shape) < 0.5)
            for g in range(len(valid)):
                if not pieces[g].any():
                    pieces[g, rng.choice(np.flatnonzero(valid[g]))] = True
            state = lc.LayerState(act, pieces)
            stars = []
            for (fixed, all_pieces), kept in zip(act.group_pieces(), pieces):
                chosen = [all_pieces[p] for p in np.flatnonzero(kept)]
                for rpos, n in enumerate(fixed):
                    rows = np.array([T[rpos] for _, _, T, _ in chosen])
                    offs = np.array([t[rpos] for _, _, _, t in chosen])
                    np.testing.assert_array_equal(state.lam_mat.lower[n], rows.min(axis=0))
                    np.testing.assert_array_equal(state.lam_mat.upper[n], rows.max(axis=0))
                    if (rows != rows[0]).any() or (offs != offs[0]).any():
                        stars.append(n)
                        assert not state.fixed_T[n].any() and state.fixed_t[n] == 0.0
                    else:
                        np.testing.assert_array_equal(state.fixed_T[n], rows[0])
                        assert state.fixed_t[n] == offs[0]
            assert state.stars == tuple(sorted(stars))

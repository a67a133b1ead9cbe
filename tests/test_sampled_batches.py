"""The batched sampled lower bound against the per-point sampler it replaced."""
import numpy as np
import pytest

import lipcert as lc
from lipcert import AffineLayer, Network, NormPair, Polyhedron, SamplingError
from lipcert.baselines import BOUNDARY_TOL, SAMPLE_BATCH
from lipcert.norms import induced_norm

PAIRS = [NormPair(2, 2), NormPair(np.inf, np.inf), NormPair(1, np.inf)]
COUNTS = [SAMPLE_BATCH - 1, 2 * SAMPLE_BATCH, 2 * SAMPLE_BATCH + 1]


def per_point_sampled_bound(net, omega, pair, n_samples, seed=0, default_box=(-10.0, 10.0)):
    """One draw, one containment test and one `jacobian_at` per point, from
    the box the sampler's loop over coordinates built."""
    lo, hi = per_coordinate_box(omega, default_box)
    rng = np.random.default_rng(seed)
    best, accepted, attempts, cap = 0.0, 0, 0, 100 * n_samples
    while accepted < n_samples:
        if attempts >= cap:
            raise SamplingError(f"rejection sampling produced {accepted}/{n_samples} points "
                                f"after {attempts} draws")
        attempts += 1
        x = rng.uniform(lo, hi)
        if omega.m > 0 and not omega.contains(x):
            continue
        accepted += 1
        J, flagged = net.jacobian_at(x, BOUNDARY_TOL)
        if not flagged:
            best = max(best, induced_norm(J, pair))
    return best


def per_coordinate_box(omega, default_box):
    """The sampling box as the sampler built it one coordinate at a time."""
    d_lo, d_hi = float(default_box[0]), float(default_box[1])
    lo, hi = lc.coordinate_bounds(omega)
    width = d_hi - d_lo
    for i in range(omega.dim):
        finite_lo = bool(np.isfinite(lo[i]))
        finite_hi = bool(np.isfinite(hi[i]))
        if not finite_lo:
            lo[i] = d_lo
        if not finite_hi:
            hi[i] = d_hi
        if lo[i] > hi[i]:
            if finite_lo and not finite_hi:
                hi[i] = lo[i] + width
            elif finite_hi and not finite_lo:
                lo[i] = hi[i] - width
    return lo, hi


def _act(kind, width):
    if kind == "relu":
        return lc.relu(width)
    if kind == "leaky_relu":
        return lc.leaky_relu(width, 0.1)
    if kind == "spline3":
        return lc.spline(width, [-0.5, 0.0, 0.5], [0.0, 0.5, 1.0, 0.25],
                         [-0.25, 0.0, 0.0, 0.375])
    if kind == "maxmin":
        return lc.maxmin(width)
    if kind == "groupsort3":
        return lc.groupsort(width, 3)
    if kind == "fullsort4":
        return lc.fullsort(width)
    if kind == "maxpool":
        return lc.MaxPoolActivation(width, [(0, 1), (2, 3)])
    raise ValueError(kind)


def _net(kind, d=2, seed=3):
    rng = np.random.default_rng(seed)
    if kind == "identity":
        # two affine layers in a row: the network pads them with identity layers
        return Network([AffineLayer(rng.normal(size=(4, d)), rng.normal(size=4)),
                        AffineLayer(rng.normal(size=(4, 4)), rng.normal(size=4)), lc.relu(4),
                        AffineLayer(rng.normal(size=(2, 4)), rng.normal(size=2))])
    layers, width = [], d
    for _ in range(2):
        layers.append(AffineLayer(rng.normal(size=(4, width)), 0.3 * rng.normal(size=4)))
        layers.append(_act(kind, 4))
        width = layers[-1].out_width
    layers.append(AffineLayer(rng.normal(size=(2, width)), rng.normal(size=2)))
    return Network(layers)


REGIONS = {
    "box": Polyhedron.from_box([-1.0, -0.5], [1.0, 2.0]),
    # x >= 0, y >= 0, x + y <= 1: half the draws from its box are rejected
    "triangle": Polyhedron([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]),
    "space": Polyhedron.universe(2),
}


def _recording(net):
    """`net` with its `jacobian_at` wrapped to keep every point it is given."""
    points, jacobian_at = [], net.jacobian_at

    def record(x, boundary_tol):
        points.append(np.atleast_2d(x))
        return jacobian_at(x, boundary_tol)

    net.jacobian_at = record
    return net, points


@pytest.mark.parametrize("kind", ["relu", "leaky_relu", "spline3", "maxmin", "groupsort3",
                                  "fullsort4", "maxpool", "identity"])
def test_batched_sampler_equals_per_point_sampler(kind):
    net, points = _recording(_net(kind))
    for name, region in REGIONS.items():
        for pair in PAIRS:
            for n in COUNTS:
                points.clear()
                got = lc.sampled_lower_bound(net, region, pair, n, seed=n)
                batched = np.concatenate(points)
                points.clear()
                want = per_point_sampled_bound(net, region, pair, n, seed=n)
                assert got.hex() == want.hex(), (kind, name, pair, n)
                # the same accepted points, in the same order
                np.testing.assert_array_equal(batched, np.concatenate(points))


def test_batched_sampler_reports_the_same_counts_when_the_cap_fires():
    # about one draw in 300 lands in the slab; the last batch before the cap
    # of 100 * n draws is cut short by the cap, not by the batch size
    net = _net("relu")
    slab = Polyhedron([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                      [3e-3, 3e-3, 1.0, 1.0, 1.0, 1.0])
    for n, seed in [(SAMPLE_BATCH + 1, 0), (5, 1), (2 * SAMPLE_BATCH, 2)]:
        with pytest.raises(SamplingError) as want:
            per_point_sampled_bound(net, slab, PAIRS[0], n, seed)
        with pytest.raises(SamplingError) as got:
            lc.sampled_lower_bound(net, slab, PAIRS[0], n, seed)
        assert str(got.value) == str(want.value)


# half-infinite regions whose finite side lies outside the default box: the
# box keeps the finite side and the default width
HALF_INFINITE = {
    "x >= 20": (Polyhedron([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-20.0, 1.0, 1.0]),
                [[20.0, -1.0], [40.0, 1.0]]),
    "x <= -20": (Polyhedron([[1.0, 0.0]], [-20.0]), [[-40.0, -10.0], [-20.0, 10.0]]),
    "x >= 20, y <= -20": (Polyhedron([[-1.0, 0.0], [0.0, 1.0]], [-20.0, -20.0]),
                          [[20.0, -40.0], [40.0, -20.0]]),
    "x >= 3, y <= 12": (Polyhedron([[-1.0, 0.0], [0.0, 1.0]], [-3.0, 12.0]),
                        [[3.0, -10.0], [10.0, 12.0]]),
}


@pytest.mark.parametrize("name", sorted(HALF_INFINITE))
def test_fallback_box_of_half_infinite_regions_is_the_per_coordinate_loops(name):
    region, want = HALF_INFINITE[name]
    np.testing.assert_array_equal(per_coordinate_box(region, (-10.0, 10.0)), want)
    net, points = _recording(_net("relu"))
    for pair in PAIRS:
        points.clear()
        got = lc.sampled_lower_bound(net, region, pair, 2 * SAMPLE_BATCH + 1, seed=5)
        batched = np.concatenate(points)
        points.clear()
        assert got.hex() == per_point_sampled_bound(
            net, region, pair, 2 * SAMPLE_BATCH + 1, seed=5).hex()
        # the same draws from the same box
        np.testing.assert_array_equal(batched, np.concatenate(points))
        assert (batched >= np.array(want[0])).all() and (batched <= np.array(want[1])).all()

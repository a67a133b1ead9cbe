"""Cheap comparison bounds: layerwise product, one-shot interval bound, sampling."""
from __future__ import annotations

import numpy as np

from .bnb import initial_subproblem, upper_bound
from .exceptions import InfeasibleRegionError, SamplingError, UnsupportedNormError, _integer
from .network import Network
from .norms import NormPair, induced_norm
from .polyhedra import Polyhedron, coordinate_bounds, is_feasible

BOUNDARY_TOL = 1e-9
DEFAULT_SAMPLE_BOX = (-10.0, 10.0)
SAMPLE_BATCH = 32  # points drawn, and linearised together, at most per batch


def layerwise_bound(net: Network, pair: NormPair) -> float:
    """Product of per-layer operator norms; valid only for p == q."""
    if pair.p != pair.q:
        raise UnsupportedNormError(
            f"layerwise bound requires p == q, got {pair}"
        )
    out = 1.0
    for aff in net.affine:
        out *= induced_norm(aff.W, pair)
    for act in net.activations:
        out *= act.activation_lipschitz(pair)
    return out


def symprop_bound(net: Network, omega: Polyhedron, pair: NormPair) -> float:
    """Upper bound of the root subproblem: one symbolic pass, no branching."""
    root = initial_subproblem(net, omega)
    return upper_bound(root, net, pair)


def sampled_lower_bound(net: Network, omega: Polyhedron, pair: NormPair,
                        n_samples: int, seed: int = 0,
                        default_box=DEFAULT_SAMPLE_BOX) -> float:
    """Max Jacobian norm over uniform samples from omega; always a lower bound.

    Samples are drawn by rejection from the tightest box around omega;
    unbounded coordinates fall back to default_box. Samples whose forward
    pass grazes a piece boundary are kept as samples but skipped as
    witnesses. Returns 0.0 when n_samples is 0 or every sample is flagged.
    Points are drawn in batches that never go past the last draw one at a
    time would make, so the result does not depend on the batch size.
    """
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if n_samples == 0:
        return 0.0
    if omega.dim != net.input_dim:
        raise ValueError(f"region dimension {omega.dim} does not match input {net.input_dim}")
    if not is_feasible(omega):
        raise InfeasibleRegionError("input region is empty")
    d_lo, d_hi = float(default_box[0]), float(default_box[1])
    if not (np.isfinite(d_lo) and np.isfinite(d_hi)):
        raise ValueError("default sample box must be finite")
    if not d_lo < d_hi:
        raise ValueError("default sample box must have positive width")
    lo, hi = coordinate_bounds(omega)
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    lo = np.where(finite_lo, lo, d_lo)
    hi = np.where(finite_hi, hi, d_hi)
    # a finite bound outside the default box would invert the interval;
    # keep the finite side and restore the default width
    inverted = lo > hi
    width = d_hi - d_lo
    with np.errstate(over="ignore"):  # an overflow is caught just below
        lo = np.where(inverted & finite_hi & ~finite_lo, hi - width, lo)
        hi = np.where(inverted & finite_lo & ~finite_hi, lo + width, hi)
        finite = np.isfinite(hi - lo).all()
    if not finite:
        raise SamplingError("cannot sample uniformly: the sampling box has a side "
                            "or a width that is not finite")
    # a region inverted by less than FEAS_TOL is not empty; its points lie at lo
    hi = np.maximum(hi, lo)
    rng = np.random.default_rng(seed)
    best = 0.0
    accepted = 0
    attempts = 0
    cap = 100 * n_samples
    while accepted < n_samples:
        if attempts >= cap:
            raise SamplingError(
                f"rejection sampling produced {accepted}/{n_samples} points "
                f"after {attempts} draws"
            )
        size = min(n_samples - accepted, cap - attempts, SAMPLE_BATCH)
        X = rng.uniform(lo, hi, size=(size, omega.dim))
        attempts += size
        X = X[omega.contains(X)]
        accepted += len(X)
        if len(X):
            Js, flagged = net.jacobian_at(X, BOUNDARY_TOL)
            best = float(induced_norm(Js[~flagged], pair).max(initial=best))
    return best

"""Symbolic forward analysis over an input region.

The analysis walks the network once, carrying every post-activation value as
an affine expression B x_sym + b over the original inputs plus one auxiliary
symbol per undecided neuron met so far.

A layer's activation state is a `LayerState`: for each branch group of the
activation (a ReLU neuron, a GroupSort/MaxMin group, a MaxPool window) the
pieces it keeps over the reachable set. A piece whose preimage contains the
whole reachable set is kept alone (ties resolved toward the lowest piece
index); otherwise every feasible piece is kept. `layer_state` derives the
rest from the kept pieces: a neuron is decided when they all agree on its
affine parameters and is a star (undecided) neuron otherwise; `lam_mat` is
the interval hull of the kept rows, and `fixed_T`, `fixed_t` are the affine
map of the decided neurons. A star's exact value is replaced by a fresh
auxiliary variable constrained only by the box hull of the per-piece output
ranges, which keeps the reachable-set overapproximation sound for all later
layers.

Every LP over a region is asked of `region_lp(region)`, which the region
keeps, so phase 1 runs once per region for all of its layers and neurons.
Re-analysis over a sub-region (branch-and-bound's re-filtering) passes the
layer's state over a superset as the record, and re-examines only the groups
holding a star, on the pieces they kept there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import ComponentwiseActivation, IdentityActivation, PwlActivation
from .exceptions import InfeasibleRegionError, LpSolverError
from .intervals import IntervalMatrix
from .network import LinearPrefix, Network
# linear_bounds and support_value are not called here; they stay importable
# from this module because perfbench/layertrace.py rebinds them here by name.
from .polyhedra import (  # noqa: F401
    FEAS_TOL,
    Polyhedron,
    affine_preimage,
    is_feasible,
    linear_bounds,
    region_lp,
    stack,
    support_value,
)


@dataclass(frozen=True, eq=False)  # arrays have no truth value to compare by
class LayerState:
    """Activation state of one layer over a region: the pieces each branch
    group keeps, and what `layer_state` derives from them."""

    pieces: np.ndarray  # bool, (groups, pieces of the largest group)
    stars: tuple[int, ...]
    star_groups: tuple[int, ...]  # groups holding a star neuron
    lam_mat: IntervalMatrix
    fixed_T: np.ndarray  # rows of star neurons are zero
    fixed_t: np.ndarray


@dataclass(frozen=True)
class InitPattern:
    """Per-layer activation state produced by the symbolic pass."""

    layers: tuple[LayerState, ...]
    first_star_layer: int  # 1-based; depth + 1 when the whole net is decided
    prefix: LinearPrefix  # the exact map up to the first star layer's input


def _kept_hull(T, t, kept):
    """Per group, over its kept pieces: the entrywise bounds (lo, hi) of the
    rows, the least offsets, and the rows on which the pieces disagree (the
    stars). T is (G, P, r, k), t (G, P, r) and kept (G, P)."""
    m = kept[:, :, None]
    lo = T.min(axis=1, where=m[..., None], initial=np.inf)
    hi = T.max(axis=1, where=m[..., None], initial=-np.inf)
    off = t.min(axis=1, where=m, initial=np.inf)
    star = (lo != hi).any(axis=2) | (off != t.max(axis=1, where=m, initial=-np.inf))
    return lo, hi, off, star


def layer_state(act: PwlActivation, pieces) -> LayerState:
    """The state of `act` that keeps `pieces`, a boolean mask shaped like
    `act.piece_table().valid`; every group must keep at least one piece."""
    table = act.piece_table()
    pieces = np.array(pieces, dtype=bool)
    pieces.setflags(write=False)
    lo, hi, off, star = _kept_hull(table.T, table.t, pieces)
    k = act.in_width
    lo, hi = lo.reshape(-1, k)[table.order], hi.reshape(-1, k)[table.order]
    off, star_n = off.reshape(-1)[table.order], star.reshape(-1)[table.order]
    return LayerState(
        pieces,
        tuple(np.flatnonzero(star_n).tolist()),
        tuple(np.flatnonzero(star.any(axis=1)).tolist()),
        IntervalMatrix(lo, hi),
        np.where(star_n[:, None], 0.0, lo),
        np.where(star_n, 0.0, off),
    )


def _spline_image(slope: float, intercept: float, lo: float, hi: float):
    """Range of s*z + i over [lo, hi] (closed, possibly infinite)."""
    if slope == 0.0:
        return intercept, intercept
    a = slope * lo + intercept
    b = slope * hi + intercept
    return (a, b) if slope > 0.0 else (b, a)


def _analyze_componentwise(act: ComponentwiseActivation, region, J, b, todo, pieces):
    """Keep, for each neuron in `todo`, its containing piece or else every
    feasible one; returns the pre-activation ranges (lo, hi), set at `todo`."""
    todo = np.asarray(todo)
    lo, hi = np.zeros(act.out_width), np.zeros(act.out_width)
    lp = region_lp(region)
    for n in todo:
        lo[n], hi[n] = lp.bounds(J[n])
    lo += b
    hi += b
    left, right = np.array([act.piece_interval(j) for j in range(act.piece_count)]).T
    zl, zh = lo[todo, None], hi[todo, None]
    feas = pieces[todo] & (zl <= right + FEAS_TOL) & (zh >= left - FEAS_TOL)
    contain = feas & (zl >= left - FEAS_TOL) & (zh <= right + FEAS_TOL)
    none = ~feas.any(axis=1)
    if none.any():
        raise LpSolverError(f"no spline piece reachable for neuron {todo[none][0]}")
    first = np.arange(act.piece_count) == contain.argmax(axis=1)[:, None]
    pieces[todo] = np.where(contain.any(axis=1)[:, None], first, feas)
    return lo, hi


def _componentwise_aux(act: ComponentwiseActivation, state: LayerState, lo, hi, aux):
    """Output range of each star neuron over its kept pieces, given its
    pre-activation range [lo[n], hi[n]]."""
    for n in state.stars:
        out_lo = float("inf")
        out_hi = float("-inf")
        for j in np.flatnonzero(state.pieces[n]):
            left, right = act.piece_interval(j)
            a, bb = _spline_image(act.slopes[n, j], act.intercepts[n, j],
                                  max(lo[n], left), min(hi[n], right))
            out_lo = min(out_lo, a)
            out_hi = max(out_hi, bb)
        aux[n] = (out_lo, out_hi)


def _piece_contains(region, piece_region, J, b) -> bool:
    """Does {J x + b : x in region} lie inside the piece region?"""
    lp = region_lp(region)
    for r in range(piece_region.m):
        row = piece_region.C[r]
        hi = lp.support(row @ J)
        if hi + row @ b > piece_region.c[r] + FEAS_TOL:
            return False
    return True


def _analyze_generic(act: PwlActivation, region, J, b, todo, pieces, aux):
    """Keep, for each group in `todo`, its first containing piece or else every
    feasible one, testing only the pieces it keeps now."""
    groups = act.branch_groups()
    table = act.piece_table()
    for g in todo:
        fixed, group_pieces = groups[g]
        # each feasible piece region, with the LP it keeps, is held only while
        # the group is open and only when the star outputs need its bounds
        feas = []
        containing = -1
        for p in np.flatnonzero(pieces[g]):
            np_piece = group_pieces[p]
            piece_region = stack(region, affine_preimage(np_piece.region, J, b))
            if not is_feasible(piece_region):
                continue
            feas.append((p, piece_region if aux is not None else None))
            if _piece_contains(region, np_piece.region, J, b):
                containing = p
                break
        if not feas:
            raise LpSolverError("no activation piece reachable over a non-empty region")
        pieces[g] = False
        if containing >= 0:
            pieces[g, containing] = True
            continue
        pieces[g, [p for p, _ in feas]] = True
        if aux is None:
            continue
        star = _kept_hull(table.T[g:g + 1], table.t[g:g + 1], pieces[g:g + 1])[3]
        for rpos in np.flatnonzero(star[0]):
            out_lo = float("inf")
            out_hi = float("-inf")
            for p, piece_region in feas:
                piece = group_pieces[p].piece
                const = float(piece.T[rpos] @ b + piece.t[rpos])
                plo, phi = region_lp(piece_region).bounds(piece.T[rpos] @ J)
                out_lo = min(out_lo, plo + const)
                out_hi = max(out_hi, phi + const)
            aux[fixed[rpos]] = (out_lo, out_hi)


def analyze_activation_layer(act: PwlActivation, region: Polyhedron, J, b,
                             record: LayerState | None = None,
                             aux: dict | None = None) -> LayerState:
    """Decide which pieces each group of one activation layer keeps over
    {J x + b : x in region}.

    `record` is this layer's state over a superset of the reachable set.
    With it, only the groups holding a star are re-analysed, each on the
    pieces it kept there, and every other group keeps its recorded pieces: a
    piece infeasible over a set is infeasible over each of its subsets, and a
    piece containing a set contains each of its subsets. Given a dict as
    `aux`, the output range (lo, hi) of each star neuron n goes to `aux[n]`.
    """
    J = np.asarray(J, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if J.shape != (act.in_width, region.dim) or b.shape[0] != act.in_width:
        raise ValueError("pre-activation map does not match the layer")
    if record is not None:
        pieces, todo = record.pieces, record.star_groups
    else:
        pieces = act.piece_table().valid
        # an identity layer's one piece is the whole space: no LP decides it
        todo = () if isinstance(act, IdentityActivation) else range(len(pieces))
    if not todo:
        return record if record is not None else layer_state(act, pieces)
    pieces = pieces.copy()
    if isinstance(act, ComponentwiseActivation):
        lo, hi = _analyze_componentwise(act, region, J, b, todo, pieces)
        state = layer_state(act, pieces)
        if aux is not None:
            _componentwise_aux(act, state, lo, hi, aux)
        return state
    _analyze_generic(act, region, J, b, todo, pieces, aux)
    return layer_state(act, pieces)


def _extend_domain(dom: Polyhedron, bounds) -> Polyhedron:
    """Append one box-bounded variable per (lo, hi) pair; infinite sides add no row."""
    lo, hi = np.array(bounds, dtype=float).T
    box = Polyhedron.from_box(lo, hi)
    C = np.block([[dom.C, np.zeros((dom.m, box.dim))],
                  [np.zeros((box.m, dom.dim)), box.C]])
    return Polyhedron(C, np.concatenate([dom.c, box.c]), dim=dom.dim + box.dim)


def _symprop_impl(net: Network, omega: Polyhedron, collect_trace: bool):
    if omega.dim != net.input_dim:
        raise ValueError(f"region dimension {omega.dim} does not match input {net.input_dim}")
    if not is_feasible(omega):
        raise InfeasibleRegionError("input region is empty")
    dom = omega
    B = net.affine[0].W.copy()
    bb = net.affine[0].b.copy()
    layers = []
    first, prefix = net.depth + 1, None
    trace = [] if collect_trace else None
    for l in range(1, net.depth + 1):
        act = net.activations[l - 1]
        aux = {}
        state = analyze_activation_layer(act, dom, B, bb, aux=aux)
        layers.append(state)
        if state.stars and prefix is None:
            # no star before this layer, so (B, bb) is the exactly folded map
            first, prefix = l, LinearPrefix(B, bb)
        n_star = len(state.stars)
        Bhat = np.zeros((act.out_width, dom.dim + n_star))
        Bhat[:, : dom.dim] = state.fixed_T @ B
        for k, n in enumerate(state.stars):
            Bhat[n, dom.dim + k] = 1.0
        bhat = state.fixed_T @ bb + state.fixed_t
        if collect_trace:
            trace.append({
                "stars": state.stars,
                "aux_bounds": aux,
                "Bhat": Bhat.copy(),
                "bhat": bhat.copy(),
            })
        if n_star:
            dom = _extend_domain(dom, [aux[n] for n in state.stars])
        if l < net.depth:
            aff = net.affine[l]
            B = aff.W @ Bhat
            bb = aff.W @ bhat + aff.b
    if prefix is None:
        prefix = LinearPrefix(Bhat, bhat)
    return InitPattern(tuple(layers), first, prefix), trace


def symprop(net: Network, omega: Polyhedron) -> InitPattern:
    """One symbolic forward pass; the seed state for branch-and-bound."""
    pattern, _ = _symprop_impl(net, omega, collect_trace=False)
    return pattern


def symprop_trace(net: Network, omega: Polyhedron):
    """(pattern, per-layer trace) with the affine envelopes B_hat, b_hat kept."""
    return _symprop_impl(net, omega, collect_trace=True)

"""Symbolic forward analysis over an input region.

The analysis walks the network once, carrying every post-activation value as
an affine expression B x_sym + b over the original inputs plus one auxiliary
symbol per undecided neuron met so far.

A layer's activation state is a `LayerState`: for each branch group of the
activation (a ReLU neuron, a GroupSort/MaxMin group, a MaxPool window) the
pieces it keeps over the reachable set. One procedure decides them for every
activation, reading only its `PieceTable`. Each row direction of the open
groups' pieces (a group is open while it keeps more than one piece) is
bounded once over the reachable set by a pair of LPs. A piece all of whose
rows then hold contains the set and is kept alone (ties resolved toward the
lowest piece index); a piece with a row violated all over the set is
dropped, and so is one whose rows span several directions when a joint
feasibility LP finds it empty; every other piece is kept. A neuron is
decided when the kept pieces all agree on its affine parameters and is a
star (undecided) neuron otherwise; `lam_mat` is the interval hull of the
kept rows, and `fixed_T`, `fixed_t` are the affine map of the decided
neurons. A star's exact value is replaced by a fresh auxiliary variable
constrained only by the box hull of the per-piece output ranges, which keeps
the reachable-set overapproximation sound for all later layers.

Every LP over a region is asked of the object `region_lp(region)` returns,
which the region keeps. Auxiliary variables add only box rows, so over a box
input region (or the whole space) every region of the root pass is a box,
and its LPs are answered in closed form; over any other region phase 1 runs
once per region for all of its layers and neurons.
Re-analysis over a sub-region (branch-and-bound's re-filtering) passes the
layer's state over a superset as the record, and re-examines only the groups
it left open, on the pieces they kept there.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .activations import PieceTable, PwlActivation
from .exceptions import InfeasibleRegionError, LpSolverError
from .intervals import owned_interval
from .network import LinearPrefix, Network
# affine_preimage, linear_bounds, stack and support_value are not called here;
# they stay importable from this module because perfbench/layertrace.py
# rebinds them here by name.
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


class LayerState:
    """Activation state of `act` over a region: the pieces each branch group
    keeps, a boolean mask shaped like `act.piece_table().valid` with at least
    one piece per group. The rest is derived from it on first read."""

    def __init__(self, act: PwlActivation, pieces):
        pieces = np.array(pieces, dtype=bool)
        pieces.setflags(write=False)
        self.pieces = pieces
        self._table = act.piece_table()

    @cached_property
    def _derived(self):
        # per group over its kept pieces: the entrywise bounds of the rows,
        # the least offsets, and the rows on which the pieces disagree
        T, t, order = self._table.T, self._table.t, self._table.order
        m = self.pieces[:, :, None]
        lo = T.min(axis=1, where=m[..., None], initial=np.inf)
        hi = T.max(axis=1, where=m[..., None], initial=-np.inf)
        off = t.min(axis=1, where=m, initial=np.inf)
        star = (lo != hi).any(axis=2) | (off != t.max(axis=1, where=m, initial=-np.inf))
        lo, hi = lo.reshape(-1, T.shape[3])[order], hi.reshape(-1, T.shape[3])[order]
        off, star = off.reshape(-1)[order], star.reshape(-1)[order]
        return (tuple(np.flatnonzero(star).tolist()), owned_interval(lo, hi),
                np.where(star[:, None], 0.0, lo), np.where(star, 0.0, off))

    stars = property(lambda self: self._derived[0])
    lam_mat = property(lambda self: self._derived[1])
    fixed_T = property(lambda self: self._derived[2])  # rows of star neurons are zero
    fixed_t = property(lambda self: self._derived[3])


@dataclass(frozen=True)
class InitPattern:
    """Per-layer activation state produced by the symbolic pass."""

    layers: tuple[LayerState, ...]
    first_star_layer: int  # 1-based; depth + 1 when the whole net is decided
    prefix: LinearPrefix  # the exact map up to the first star layer's input


def _decide(table: PieceTable, region, J, b, open_, pieces, aux):
    """(pieces, sup): the pieces each open group keeps over the image
    {J x + b : x in region}, and the sup of each bounded `D[j] z` over it.
    Given `aux`, the star ranges of groups reading several columns go there."""
    cand = pieces & open_[:, None]
    n = len(table.D) // 2
    used = table.rows[cand]
    dirs = np.flatnonzero(np.bincount(table.dir[used[used >= 0]] % n, minlength=n))
    sup = np.zeros(2 * n)
    if dirs.size:
        D = table.D[dirs]
        lohi = region_lp(region).bounds(D @ J) + (D @ b)[:, None]
        sup[dirs], sup[dirs + n] = lohi[:, 1], -lohi[:, 0]
    # a row holds on the image when its sup is within FEAS_TOL of its offset,
    # and is violated all over it when the sup of its negation is below -off
    tol = table.off + FEAS_TOL
    opposite = (table.dir + n) % (2 * n)
    contain, feas = table.all_rows(np.stack([sup[table.dir] <= tol, sup[opposite] >= -tol])) & cand
    has = contain.any(axis=1)
    keep = np.where(has[:, None], np.arange(cand.shape[1]) == contain.argmax(axis=1)[:, None], feas)
    undecided = open_ & ~has
    if undecided.any():
        # a piece whose rows span two or more directions may miss the image
        # although no single row does: only a joint LP tells
        k = table.rows
        dk = table.dir[k] % n
        joint = ((dk != dk[:, :, :1]) & (k >= 0)).any(axis=2)
        columns = (table.cols < table.T.shape[3]).sum(axis=1)
        for g in np.flatnonzero(undecided):
            # the star ranges of a group reading several columns are LPs over
            # its kept pieces; their regions live while the group is open
            lp_ranges = aux is not None and columns[g] > 1
            regions = {}
            for p in np.flatnonzero(keep[g] & (joint[g] | lp_ranges)):
                regions[p] = table.cut(g, p, region, J, b)
                keep[g, p] = is_feasible(regions[p])
            if not lp_ranges:
                continue
            T, t = table.T[g, keep[g]], table.t[g, keep[g]]
            rows = np.flatnonzero((T != T[:1]).any(axis=(0, 2)) | (t != t[:1]).any(axis=0))
            if rows.size == 0:
                continue
            # rows x kept pieces x (lo, hi): one batch of LPs per kept piece
            lohi = np.stack([
                region_lp(regions[p]).bounds(table.T[g, p, rows] @ J)
                + (table.T[g, p, rows] @ b + table.t[g, p, rows])[:, None]
                for p in np.flatnonzero(keep[g])], axis=1)
            for r, (lo, hi) in zip(rows, lohi.transpose(0, 2, 1)):
                neuron = int(np.flatnonzero(table.order == g * t.shape[1] + r)[0])
                aux[neuron] = (float(min(lo)), float(max(hi)))
    if not keep[open_].any(axis=1).all():
        raise LpSolverError("no activation piece reachable over a non-empty region")
    return np.where(open_[:, None], keep, pieces), sup


def _column_ranges(table: PieceTable, state: LayerState, sup, aux):
    """The output range of each star neuron of a group reading one column:
    its range clipped to each kept piece's rows (z <= off along the column's
    direction, -z <= off along its negation), mapped through the piece's row."""
    n = len(table.D) // 2
    stars = np.array(state.stars, dtype=int)
    g, r = np.divmod(table.order[stars], table.t.shape[2])
    one = (table.cols[g] < table.T.shape[3]).sum(axis=1) == 1
    g, r, k = g[one], r[one], table.rows[g[one]]
    dk, off = table.dir[k], table.off[k]
    # the column, read off any of the group's rows, then -column
    j = table.dir[k.max(axis=(1, 2))] % n + np.array([[0], [n]])
    rows = np.where((k >= 0) & (dk == j[:, :, None, None]), off, np.inf).min(axis=3)
    zhi, zlo = np.minimum(sup[j][:, :, None], rows) * np.array([1.0, -1.0])[:, None, None]
    slope, t = table.T[g, :, r, table.cols[g, 0]], table.t[g, :, r]
    # a flat row maps every input to its offset, even an infinite one
    zlo, zhi = np.where(slope == 0, 0.0, zlo), np.where(slope == 0, 0.0, zhi)
    a, c = slope * zlo + t, slope * zhi + t
    kept = state.pieces[g]
    lo = np.where(kept, np.where(slope > 0, a, c), np.inf).min(axis=1)
    hi = np.where(kept, np.where(slope > 0, c, a), -np.inf).max(axis=1)
    aux.update(zip(stars[one].tolist(), zip(lo.tolist(), hi.tolist())))


def analyze_activation_layer(act: PwlActivation, region: Polyhedron, J, b,
                             record: LayerState | None = None,
                             aux: dict | None = None) -> LayerState:
    """Decide which pieces each group of one activation layer keeps over
    {J x + b : x in region}, as the module docstring sets out.

    `record` is this layer's state over a superset of the reachable set.
    With it, each group is analysed on the pieces it kept there, if more
    than one: a piece infeasible over a set is infeasible over each of its
    subsets, and a piece containing a set contains each of its subsets.
    Given a dict as `aux`, the output range (lo, hi) of each star neuron n
    goes to `aux[n]`: in closed form for a group reading one input column,
    else by LPs over the kept pieces.
    """
    J = np.asarray(J, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if J.shape != (act.in_width, region.dim) or b.shape[0] != act.in_width:
        raise ValueError("pre-activation map does not match the layer")
    table = act.piece_table()
    pieces = record.pieces if record is not None else table.valid
    open_ = pieces.sum(axis=1) > 1
    if not open_.any():
        return record if record is not None else LayerState(act, pieces)
    pieces, sup = _decide(table, region, J, b, open_, pieces, aux)
    state = LayerState(act, pieces)
    if aux is not None:
        _column_ranges(table, state, sup, aux)
    return state


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

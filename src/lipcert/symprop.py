"""Symbolic forward analysis over an input region, and the search's nodes.

A branch-and-bound node is a `Subproblem`: a region plus one `LayerState`
per activation layer, the first layer with a star, and the exact affine map
J x + b of the decided layers before it. The symbolic pass (`symprop`)
returns the root node over the input region; branching (`bnb.branch`)
derives every other node from it.

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
and each region a star range cuts with one piece's half-space (MaxMin and
MaxPool-2) is a box cut by one row: their LPs are answered in closed form.
Over any other region phase 1 runs once per region for all of its layers
and neurons.
Re-analysis over a sub-region (branch-and-bound's re-filtering) passes the
layer's state over a superset as the record, and re-examines only the groups
it left open, on the pieces they kept there. It needs no star ranges, only
whether each row holds or is violated all over the set, so its LPs stop
once their value is past every threshold they are compared with; `_decide`
alone sets those thresholds and derives the stops from them. Sups are exact
only when star ranges are asked for, and `_star_ranges` alone computes them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .activations import PieceTable, PwlActivation
from .exceptions import InfeasibleRegionError, LpSolverError
from .intervals import owned_interval
from .network import Network
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
        T, t, at = self._table.T, self._table.t, (self._table.group, self._table.row)
        m = self.pieces[:, :, None]
        lo = T.min(axis=1, where=m[..., None], initial=np.inf)
        hi = T.max(axis=1, where=m[..., None], initial=-np.inf)
        off = t.min(axis=1, where=m, initial=np.inf)
        star = (lo != hi).any(axis=2) | (off != t.max(axis=1, where=m, initial=-np.inf))
        lo, hi, off, star = lo[at], hi[at], off[at], star[at]
        return (tuple(np.flatnonzero(star).tolist()), owned_interval(lo, hi),
                np.where(star[:, None], 0.0, lo), np.where(star, 0.0, off))

    stars = property(lambda self: self._derived[0])
    lam_mat = property(lambda self: self._derived[1])
    fixed_T = property(lambda self: self._derived[2])  # rows of star neurons are zero
    fixed_t = property(lambda self: self._derived[3])


@dataclass(frozen=True)
class Subproblem:
    """Branch-and-bound node: a region, each activation layer's state over it,
    and the read-only J, b: the net is exactly J x + b up to the first star."""

    region: Polyhedron
    layers: tuple[LayerState, ...]
    first_star_layer: int  # 1-based; depth + 1 when the whole net is decided
    J: np.ndarray
    b: np.ndarray
    ub: float = float("nan")

    def __post_init__(self):
        self.J.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def linear(self) -> bool:
        """No layer keeps a star: the net is J x + b on the region, so `ub` is exact."""
        return self.first_star_layer > len(self.layers)

    @property
    def stars(self) -> tuple[tuple[int, ...], ...]:
        """Star neurons per layer: `stars[l - 1]` for layer l."""
        return tuple(state.stars for state in self.layers)


def _decide(table: PieceTable, region, J, b, open_, pieces, ranges: bool):
    """(pieces, sup, regions): the pieces each open group keeps over the image
    {J x + b : x in region}, the sup of each bounded `D[j] z` over it, and
    the regions cut by each piece tested jointly, by (group, piece).

    A row k holds on the image when the sup of its direction is at most
    `off[k] + FEAS_TOL`, and is violated all over it when the sup of the
    opposite direction is below `-off[k] - FEAS_TOL`; these thresholds are
    set here alone. Unless `ranges` asks for exact sups, each direction's
    LPs end once past every threshold its rows meet, which decides the same
    rows. With `ranges`, every kept piece of an undecided group reading
    several columns is cut, for the LPs of its star ranges."""
    cand = pieces & open_[:, None]
    n = len(table.D) // 2
    used = table.rows[cand]
    used = used[used >= 0]
    dirs = np.flatnonzero(np.bincount(table.dir[used] % n, minlength=n))
    thr = table.off + FEAS_TOL
    opposite = (table.dir + n) % (2 * n)
    sup = np.zeros(2 * n)
    if dirs.size:
        D = table.D[dirs]
        Db = D @ b
        stop = None
        if not ranges:
            # the largest threshold each direction's sup meets; each stop is
            # moved an ulp outward twice, so that a value past it is still
            # strictly past it once Db is added and rounded
            past = np.full(2 * n, -np.inf)
            np.maximum.at(past, table.dir[used], thr[used])
            np.maximum.at(past, opposite[used], -thr[used])
            up, down = np.inf, -np.inf
            stop = (np.nextafter(np.nextafter(-past[dirs + n], down) - Db, down),
                    np.nextafter(np.nextafter(past[dirs], up) - Db, up))
        lohi = region_lp(region).bounds(D @ J, stop) + Db[:, None]
        sup[dirs], sup[dirs + n] = lohi[:, 1], -lohi[:, 0]
    contain, feas = table.all_rows(np.stack([sup[table.dir] <= thr, sup[opposite] >= -thr])) & cand
    has = contain.any(axis=1)
    keep = np.where(has[:, None], np.arange(cand.shape[1]) == contain.argmax(axis=1)[:, None], feas)
    undecided, regions = open_ & ~has, {}
    if undecided.any():
        # a piece whose rows span two or more directions may miss the image
        # although no single row does: only a joint LP tells
        dk = table.dir[table.rows] % n
        joint = ((dk != dk[:, :, :1]) & (table.rows >= 0)).any(axis=2)
        several = ranges & ((table.cols < table.T.shape[3]).sum(axis=1) > 1)
        for g, p in zip(*np.nonzero(keep & (joint | several[:, None]) & undecided[:, None])):
            regions[g, p] = table.cut(g, p, region, J, b)
            keep[g, p] = is_feasible(regions[g, p])
    if not keep[open_].any(axis=1).all():
        raise LpSolverError("no activation piece reachable over a non-empty region")
    return np.where(open_[:, None], keep, pieces), sup, regions


def _star_ranges(table: PieceTable, state: LayerState, J, b, sup, regions):
    """{n: (lo, hi)}, the output range of each star neuron n over the image.

    For a group reading one column, in closed form: the column's range
    clipped to each kept piece's rows (z <= off along the column's
    direction, -z <= off along its negation), mapped through the piece's
    row. For a group reading several columns, by LPs over its kept pieces'
    regions, which `_decide` cut."""
    n = len(table.D) // 2
    stars = np.array(state.stars, dtype=int)
    g, r = table.group[stars], table.row[stars]
    one = (table.cols[g] < table.T.shape[3]).sum(axis=1) == 1
    out = {}
    for h in sorted(set(g[~one].tolist())):
        # rows x kept pieces x (lo, hi): one batch of LPs per kept piece
        rows = r[g == h]
        lohi = np.stack([
            region_lp(regions[h, p]).bounds(table.T[h, p, rows] @ J)
            + (table.T[h, p, rows] @ b + table.t[h, p, rows])[:, None]
            for p in np.flatnonzero(state.pieces[h])], axis=1)
        for s, (lo, hi) in zip(stars[g == h].tolist(), lohi.transpose(0, 2, 1)):
            out[s] = (float(min(lo)), float(max(hi)))
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
    out.update(zip(stars[one].tolist(), zip(lo.tolist(), hi.tolist())))
    return out


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
    goes to `aux[n]` (see `_star_ranges`). Those ranges need exact sups;
    without `aux`, each direction's LPs stop once past every threshold
    `_decide` compares them with, which decides the same pieces.
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
    pieces, sup, regions = _decide(table, region, J, b, open_, pieces, aux is not None)
    state = LayerState(act, pieces)
    if aux is not None and state.stars:
        aux.update(_star_ranges(table, state, J, b, sup, regions))
    return state


def _extend_domain(dom: Polyhedron, bounds) -> Polyhedron:
    """Append one box-bounded variable per (lo, hi) pair; infinite sides add no row."""
    lo, hi = np.array(bounds, dtype=float).T
    box = Polyhedron.from_box(lo, hi)
    C = np.block([[dom.C, np.zeros((dom.m, box.dim))],
                  [np.zeros((box.m, dom.dim)), box.C]])
    return Polyhedron(C, np.concatenate([dom.c, box.c]), dim=dom.dim + box.dim)


def symprop_trace(net: Network, omega: Polyhedron):
    """(root, trace): the symbolic pass over omega, whose root `Subproblem`
    is the seed of branch-and-bound, and per layer its stars, their ranges
    and the affine envelope B_hat, b_hat of the post-activation values."""
    if omega.dim != net.input_dim:
        raise ValueError(f"region dimension {omega.dim} does not match input {net.input_dim}")
    if not is_feasible(omega):
        raise InfeasibleRegionError("input region is empty")
    dom = omega
    B = net.affine[0].W.copy()
    bb = net.affine[0].b.copy()
    layers = []
    first, J, b = net.depth + 1, None, None
    trace = []
    for l in range(1, net.depth + 1):
        act = net.activations[l - 1]
        aux = {}
        state = analyze_activation_layer(act, dom, B, bb, aux=aux)
        layers.append(state)
        if state.stars and J is None:
            # no star before this layer, so (B, bb) is the exactly folded map
            first, J, b = l, B, bb
        n_star = len(state.stars)
        Bhat = np.zeros((act.out_width, dom.dim + n_star))
        Bhat[:, : dom.dim] = state.fixed_T @ B
        Bhat[state.stars, dom.dim + np.arange(n_star)] = 1.0
        bhat = state.fixed_T @ bb + state.fixed_t
        trace.append({"stars": state.stars, "aux_bounds": aux, "Bhat": Bhat, "bhat": bhat})
        if n_star:
            dom = _extend_domain(dom, [aux[n] for n in state.stars])
        B, bb = net.after(l, Bhat, bhat)
    if J is None:
        J, b = B, bb
    return Subproblem(omega, tuple(layers), first, J, b), trace


def symprop(net: Network, omega: Polyhedron) -> Subproblem:
    """One symbolic forward pass: the root node of branch-and-bound over omega."""
    return symprop_trace(net, omega)[0]

"""Symbolic forward analysis over an input region.

The analysis walks the network once, carrying every post-activation value as
an affine expression B x_sym + b over the original inputs plus one auxiliary
symbol per undecided neuron met so far. Per activation layer it records which
pieces stay feasible over the reachable set, the interval hull of their
affine parameters, and the set of undecided (star) neurons.

A neuron counts as decided when some feasible piece's preimage contains the
whole reachable set, i.e. the activation is affine on the entire region (ties
resolved toward the lowest piece index), or when every feasible piece agrees
on the neuron's affine parameters. Otherwise it is a star neuron; its exact
value is replaced by a fresh auxiliary variable constrained only by the box
hull of the per-piece output ranges, which keeps the reachable-set
overapproximation sound for all later layers.

Each layer's LPs run on one `RegionLP` per region, so phase 1 runs once for
all of its neurons. Re-analysis over a sub-region (branch-and-bound's
re-filtering) passes the layer's record and re-examines its stars only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import ComponentwiseActivation, IdentityActivation, PwlActivation
from .exceptions import InfeasibleRegionError, LpSolverError
from .intervals import IntervalMatrix, exact
from .network import Network
# is_feasible, linear_bounds and support_value are not called here; they stay
# importable from this module because perfbench/layertrace.py rebinds them
# here by name.
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
from .simplex import RegionLP


@dataclass
class LayerAnalysis:
    """Outcome of classifying one activation layer over a reachable set."""

    stars: list[int]
    lam_mat: IntervalMatrix
    lam_vec: IntervalMatrix
    fixed_T: np.ndarray  # rows of star neurons are zero
    fixed_t: np.ndarray
    aux_bounds: dict = field(default_factory=dict)  # star neuron -> (lo, hi)


@dataclass
class InitPattern:
    """Per-layer activation state produced by the symbolic pass."""

    lam_mats: tuple[IntervalMatrix, ...]
    lam_vecs: tuple[IntervalMatrix, ...]
    first_star_layer: int  # 1-based; depth + 1 when the whole net is decided
    stars: tuple[tuple[int, ...], ...]


def _spline_image(slope: float, intercept: float, lo: float, hi: float):
    """Range of s*z + i over [lo, hi] (closed, possibly infinite)."""
    if slope == 0.0:
        return intercept, intercept
    a = slope * lo + intercept
    b = slope * hi + intercept
    return (a, b) if slope > 0.0 else (b, a)


class _LayerRows:
    """The arrays of one layer analysis, filled in neuron by neuron.

    They start at zero, or, given a record of the layer over a superset of
    the reachable set, as a copy of the recorded rows with the recorded star
    rows cleared from the fixed map.
    """

    def __init__(self, act: PwlActivation, record):
        if record is None:
            w, k = act.out_width, act.in_width
            self.lam_lo, self.lam_hi = np.zeros((w, k)), np.zeros((w, k))
            self.vec_lo, self.vec_hi = np.zeros(w), np.zeros(w)
            self.fixed_T, self.fixed_t = np.zeros((w, k)), np.zeros(w)
            return
        stars, lam_mat, lam_vec = record
        self.lam_lo, self.lam_hi = lam_mat.lower.copy(), lam_mat.upper.copy()
        self.vec_lo, self.vec_hi = lam_vec.lower[:, 0].copy(), lam_vec.upper[:, 0].copy()
        self.fixed_T = lam_mat.lower.copy()
        self.fixed_t = lam_vec.lower[:, 0].copy()
        self.fixed_T[list(stars)] = 0.0
        self.fixed_t[list(stars)] = 0.0

    def decide(self, n, row, off):
        self.lam_lo[n] = self.lam_hi[n] = self.fixed_T[n] = row
        self.vec_lo[n] = self.vec_hi[n] = self.fixed_t[n] = off

    def star(self, n, row_lo, row_hi, off_lo, off_hi):
        self.lam_lo[n], self.lam_hi[n] = row_lo, row_hi
        self.vec_lo[n], self.vec_hi[n] = off_lo, off_hi
        self.fixed_T[n] = 0.0
        self.fixed_t[n] = 0.0

    def analysis(self, stars, aux) -> LayerAnalysis:
        return LayerAnalysis(
            stars,
            IntervalMatrix(self.lam_lo, self.lam_hi),
            IntervalMatrix(self.vec_lo.reshape(-1, 1), self.vec_hi.reshape(-1, 1)),
            self.fixed_T,
            self.fixed_t,
            aux,
        )


def _analyze_componentwise(act: ComponentwiseActivation, lp, J, b, with_aux, todo, rows):
    stars: list[int] = []
    aux: dict[int, tuple[float, float]] = {}
    for n in todo:
        lo, hi = lp.bounds(J[n])
        lo += b[n]
        hi += b[n]
        feas = []
        fixed_j = -1
        for j in range(act.piece_count):
            left, right = act.piece_interval(j)
            if lo <= right + FEAS_TOL and hi >= left - FEAS_TOL:
                feas.append(j)
                if fixed_j < 0 and lo >= left - FEAS_TOL and hi <= right + FEAS_TOL:
                    fixed_j = j
        if not feas:
            raise LpSolverError(f"no spline piece reachable for neuron {n}")
        params = [(act.slopes[n, j], act.intercepts[n, j]) for j in feas]
        distinct = any(p != params[0] for p in params[1:])
        diag = np.zeros(act.in_width)
        if fixed_j >= 0 or not distinct:
            j = fixed_j if fixed_j >= 0 else feas[0]
            diag[n] = act.slopes[n, j]
            rows.decide(n, diag, act.intercepts[n, j])
        else:
            stars.append(n)
            slopes = [p[0] for p in params]
            ics = [p[1] for p in params]
            diag_hi = diag.copy()
            diag[n] = min(slopes)
            diag_hi[n] = max(slopes)
            rows.star(n, diag, diag_hi, min(ics), max(ics))
            if with_aux:
                out_lo = float("inf")
                out_hi = float("-inf")
                for j in feas:
                    left, right = act.piece_interval(j)
                    zl = max(lo, left)
                    zh = min(hi, right)
                    a, bb = _spline_image(act.slopes[n, j], act.intercepts[n, j], zl, zh)
                    out_lo = min(out_lo, a)
                    out_hi = max(out_hi, bb)
                aux[n] = (out_lo, out_hi)
    return stars, aux


def _piece_contains(lp, piece_region, J, b) -> bool:
    """Does {J x + b : x in region} lie inside the piece region? `lp` holds the
    region's LPs."""
    for r in range(piece_region.m):
        row = piece_region.C[r]
        hi = lp.support(row @ J)
        if hi + row @ b > piece_region.c[r] + FEAS_TOL:
            return False
    return True


def _analyze_generic(act: PwlActivation, region, lp, J, b, with_aux, todo, rows):
    stars: list[int] = []
    aux: dict[int, tuple[float, float]] = {}
    for fixed_neurons, pieces in todo:
        # one LP object per feasible piece region, kept only while the group
        # is open and only when the star outputs need its bounds
        feas = []
        containing = -1
        for np_piece in pieces:
            piece_lp = region_lp(stack(region, affine_preimage(np_piece.region, J, b)))
            if not piece_lp.feasible:
                continue
            feas.append((np_piece, piece_lp if with_aux else None))
            if containing < 0 and _piece_contains(lp, np_piece.region, J, b):
                containing = len(feas) - 1
        if not feas:
            raise LpSolverError("no activation piece reachable over a non-empty region")
        group_stars: list[int] = []
        for rpos, n in enumerate(fixed_neurons):
            cand = [(p.piece.T[rpos], p.piece.t[rpos]) for p, _ in feas]
            if containing >= 0:
                row, off = cand[containing]
                star = False
            else:
                row, off = cand[0]
                star = any(
                    not (np.array_equal(rw, row) and off == o) for rw, o in cand[1:]
                )
            if star:
                group_stars.append(n)
                stars.append(n)
                cand_rows = np.stack([rw for rw, _ in cand])
                offs = [o for _, o in cand]
                rows.star(n, cand_rows.min(axis=0), cand_rows.max(axis=0), min(offs), max(offs))
            else:
                rows.decide(n, row, off)
        if with_aux and group_stars:
            for n in group_stars:
                rpos = fixed_neurons.index(n)
                out_lo = float("inf")
                out_hi = float("-inf")
                for p, piece_lp in feas:
                    const = float(p.piece.T[rpos] @ b + p.piece.t[rpos])
                    plo, phi = piece_lp.bounds(p.piece.T[rpos] @ J)
                    out_lo = min(out_lo, plo + const)
                    out_hi = max(out_hi, phi + const)
                aux[n] = (out_lo, out_hi)
    stars.sort()
    return stars, aux


def _identity_layer(act: IdentityActivation) -> LayerAnalysis:
    """An identity layer needs no LP: its one piece is the whole space, so
    every neuron is decided with its unit row and no star ever appears."""
    eye = np.eye(act.out_width)
    return LayerAnalysis([], exact(eye), exact(np.zeros((act.out_width, 1))), eye,
                         np.zeros(act.out_width))


def analyze_activation_layer(act: PwlActivation, region: Polyhedron, J, b,
                             with_aux: bool = False, record=None,
                             lp: RegionLP | None = None) -> LayerAnalysis:
    """Classify each neuron of one activation layer over {J x + b : x in region}.

    `record` is (stars, lam_mat, lam_vec) of this layer from an analysis over
    a superset of the reachable set. With it, only the recorded star neurons
    are re-analysed (on the generic path, the groups that hold one) and every
    other row is copied: a neuron decided over a set stays decided, on the
    same piece, over each of its subsets. `lp` is `region_lp(region)` when the
    caller already has it.
    """
    J = np.asarray(J, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if J.shape != (act.in_width, region.dim) or b.shape[0] != act.in_width:
        raise ValueError("pre-activation map does not match the layer")
    if isinstance(act, IdentityActivation):
        return _identity_layer(act)
    rows = _LayerRows(act, record)
    componentwise = isinstance(act, ComponentwiseActivation)
    if componentwise:
        todo = range(act.out_width) if record is None else record[0]
    else:
        todo = act.branch_groups()
        if record is not None:
            todo = [g for g in todo if any(n in record[0] for n in g[0])]
    if not todo:
        return rows.analysis([], {})
    if lp is None:
        lp = region_lp(region)
    if componentwise:
        stars, aux = _analyze_componentwise(act, lp, J, b, with_aux, todo, rows)
    else:
        stars, aux = _analyze_generic(act, region, lp, J, b, with_aux, todo, rows)
    return rows.analysis(stars, aux)


def _extend_domain(dom: Polyhedron, bounds) -> Polyhedron:
    """Append one box-bounded variable per (lo, hi) pair; infinite sides add no row."""
    k = len(bounds)
    d = dom.dim
    C = np.hstack([dom.C, np.zeros((dom.m, k))])
    rows = [C]
    offs = [dom.c]
    for i, (lo, hi) in enumerate(bounds):
        if np.isfinite(hi):
            e = np.zeros(d + k)
            e[d + i] = 1.0
            rows.append(e[None, :])
            offs.append([hi])
        if np.isfinite(lo):
            e = np.zeros(d + k)
            e[d + i] = -1.0
            rows.append(e[None, :])
            offs.append([-lo])
    return Polyhedron(np.vstack(rows), np.concatenate([np.asarray(o, dtype=float) for o in offs]),
                      dim=d + k)


def _symprop_impl(net: Network, omega: Polyhedron, collect_trace: bool):
    if omega.dim != net.input_dim:
        raise ValueError(f"region dimension {omega.dim} does not match input {net.input_dim}")
    lp = region_lp(omega)  # serves every layer until the domain grows
    if not lp.feasible:
        raise InfeasibleRegionError("input region is empty")
    dom = omega
    B = net.affine[0].W.copy()
    bb = net.affine[0].b.copy()
    lam_mats = []
    lam_vecs = []
    stars = []
    trace = [] if collect_trace else None
    for l in range(1, net.depth + 1):
        act = net.activations[l - 1]
        if lp is None and not isinstance(act, IdentityActivation):
            lp = region_lp(dom)
        la = analyze_activation_layer(act, dom, B, bb, with_aux=True, lp=lp)
        lam_mats.append(la.lam_mat)
        lam_vecs.append(la.lam_vec)
        stars.append(tuple(la.stars))
        n_star = len(la.stars)
        Bhat = np.zeros((act.out_width, dom.dim + n_star))
        Bhat[:, : dom.dim] = la.fixed_T @ B
        for k, n in enumerate(la.stars):
            Bhat[n, dom.dim + k] = 1.0
        bhat = la.fixed_T @ bb + la.fixed_t
        if collect_trace:
            trace.append({
                "stars": tuple(la.stars),
                "aux_bounds": dict(la.aux_bounds),
                "Bhat": Bhat.copy(),
                "bhat": bhat.copy(),
            })
        if n_star:
            dom = _extend_domain(dom, [la.aux_bounds[n] for n in la.stars])
            lp = None
        if l < net.depth:
            aff = net.affine[l]
            B = aff.W @ Bhat
            bb = aff.W @ bhat + aff.b
    first = net.depth + 1
    for l, s in enumerate(stars, start=1):
        if s:
            first = l
            break
    pattern = InitPattern(tuple(lam_mats), tuple(lam_vecs), first, tuple(stars))
    return pattern, trace


def symprop(net: Network, omega: Polyhedron) -> InitPattern:
    """One symbolic forward pass; the seed state for branch-and-bound."""
    pattern, _ = _symprop_impl(net, omega, collect_trace=False)
    return pattern


def symprop_trace(net: Network, omega: Polyhedron):
    """(pattern, per-layer trace) with the affine envelopes B_hat, b_hat kept."""
    return _symprop_impl(net, omega, collect_trace=True)

"""Best-first branch-and-bound for exact Lipschitz constants.

Each node is a `symprop.Subproblem`: a polyhedral subset of the input region
plus one `LayerState` per activation layer, the pieces each branch group keeps
over the region, from which the star (undecided) neurons, the interval hull of
the kept rows and the decided affine map are derived. The symbolic pass gives
the root; `branch` gives the rest. The first layer with a star splits the
network into a prefix, folded exactly into the node's `J`, `b`, and an
interval tail; the tail's interval Jacobian gives the upper bound. Branching
scores the stars of the first star layer by slope width through the exact
prefix times the tail's abs envelope (`star_scores`), keeps one piece of the
highest-scoring star's group (ties to the lowest index), pulls the piece's
constraints back to input space, and re-filters deeper layers. A node without
stars is `linear` on its region, so its bound is exact and feeds the global
lower bound; `solve` settles the root and every child in one place. A region
keeps its LP (`polyhedra.region_lp`), so a child's feasibility test and its
re-filtering share one phase 1, or one closed form for a child of a box root.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import GuardrailExceededError, InfeasibleRegionError, LpSolverError, _integer
# hull is not called here; it stays importable from this module because
# perfbench/layertrace.py rebinds it here by name.
from .intervals import IntervalMatrix, abs_upper_envelope, exact, hull, interval_matmul  # noqa: F401
from .network import Network
from .norms import NormPair, induced_norm
from .polyhedra import Polyhedron, affine_preimage, is_feasible, stack
from . import simplex
from .simplex import solve_lp
from .symprop import LayerState, Subproblem, analyze_activation_layer, symprop

EXACT_REL_TOL = 1e-9
ORACLE_COMBINATION_CAP = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    norm: NormPair = NormPair(2.0, 2.0)
    theta: float = 1.0
    time_limit: float | None = None
    sample_count: int = 0
    seed: int = 0
    max_iterations: int | None = None

    def __post_init__(self):
        # written as `not x >= bound` so that NaN is rejected too
        if not self.theta >= 1.0:
            raise ValueError(f"theta must be >= 1, got {self.theta}")
        for name in ("sample_count", "seed"):
            if _integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be non-negative")
        if self.max_iterations is not None and _integer(self.max_iterations, "max_iterations") < 0:
            raise ValueError("max_iterations must be non-negative")


@dataclass
class SolveResult:
    glb: float
    gub: float
    status: str  # exact | approx_reached | time_limit | iteration_limit
    iterations: int
    subproblems_created: int
    fathomed_bounds: int
    fathomed_optimality: int
    peak_heap_size: int
    wall_time: float
    bounds_history: list[tuple[float, float]] = field(default_factory=list)


def interval_jacobian(sub: Subproblem, net: Network) -> IntervalMatrix:
    """Entrywise bracket of the network Jacobian over the subproblem's region.

    Exact through the folded prefix J, interval hulls from the first star
    layer on. Linear subproblems give a degenerate interval.
    """
    if sub.linear:
        return exact(sub.J)
    lt = sub.first_star_layer
    M = interval_matmul(sub.layers[lt - 1].lam_mat, exact(sub.J))
    for l in range(lt + 1, net.depth + 1):
        M = interval_matmul(exact(net.affine[l - 1].W), M)
        M = interval_matmul(sub.layers[l - 1].lam_mat, M)
    return M


def upper_bound(sub: Subproblem, net: Network, pair: NormPair) -> float:
    """Norm of the interval Jacobian: exact prefix, interval hulls after it."""
    if sub.linear:
        return induced_norm(sub.J, pair)
    return induced_norm(abs_upper_envelope(interval_jacobian(sub, net)), pair)


def ffilter(sub: Subproblem, net: Network) -> Subproblem:
    """Re-filter pieces from the first star layer on; fold newly decided layers.

    Each layer is re-analysed with its state as the record, so only the
    groups keeping several pieces are examined, on those pieces. Layers
    whose neurons all turn out decided are folded into J and b, and the
    first star layer advances past them. The scan stops at the first layer
    that keeps a star neuron; deeper layers keep their recorded state.
    """
    if sub.linear:
        return sub
    l, J, b = sub.first_star_layer, sub.J, sub.b
    layers = list(sub.layers)
    while l <= net.depth:
        state = analyze_activation_layer(net.activations[l - 1], sub.region, J, b,
                                         record=layers[l - 1])
        layers[l - 1] = state
        if state.stars:
            break
        J, b = net.after(l, state.fixed_T @ J, state.fixed_T @ b + state.fixed_t)
        l += 1
    return replace(sub, layers=tuple(layers), first_star_layer=l, J=J, b=b)


def star_scores(sub: Subproblem, net: Network) -> np.ndarray:
    """Branching score of each star of the first star layer, in `stars` order.

    Star n scores `‖(λ⁺[n] − λ⁻[n]) |J|‖₂ · ‖E[:, n]‖₂`: how far its slope
    row can vary, seen through the exact prefix J, times how much the tail
    can amplify its output, where E = A_L |W_L| ⋯ A_{lt+1} |W_{lt+1}| with
    A_l the abs envelope of layer l's slope hull. For ReLU this is BaBSR's
    cheap score (Bunel et al., JMLR 2020). It is built from absolute values
    and norms, so permuting or sign-flipping inputs or outputs leaves the
    scores unchanged, and permuting hidden neurons permutes them.
    """
    lt = sub.first_star_layer
    state = sub.layers[lt - 1]
    E = np.eye(net.output_dim)
    for l in range(net.depth, lt, -1):
        E = E @ abs_upper_envelope(sub.layers[l - 1].lam_mat) @ np.abs(net.affine[l - 1].W)
    stars = list(state.stars)
    lam = state.lam_mat
    width = (lam.upper[stars] - lam.lower[stars]) @ np.abs(sub.J)
    return np.linalg.norm(width, axis=1) * np.linalg.norm(E[:, stars], axis=0)


def branch(sub: Subproblem, net: Network, glb: float, pair: NormPair):
    """Split on the group of the highest-scoring star of the first star layer.

    Stars are scored by `star_scores`; ties go to the lowest neuron index.
    Returns (children, glb'): one child per piece the group keeps that is
    feasible on the region, each re-filtered and bounded; glb' lifts glb
    over children that came out fixed linear (their bound is an exact
    Lipschitz value).
    """
    if sub.linear:
        raise ValueError("branch called on a subproblem with no star neurons")
    lt = sub.first_star_layer
    act = net.activations[lt - 1]
    state = sub.layers[lt - 1]
    neuron = state.stars[int(np.argmax(star_scores(sub, net)))]
    table = act.piece_table()
    g = table.group[neuron]
    children = []
    new_glb = glb
    for p in np.flatnonzero(state.pieces[g]):
        reg = table.cut(g, p, sub.region, sub.J, sub.b)
        if not is_feasible(reg):
            continue
        pieces = state.pieces.copy()
        pieces[g] = np.arange(pieces.shape[1]) == p
        layers = sub.layers[: lt - 1] + (LayerState(act, pieces),) + sub.layers[lt:]
        child = Subproblem(reg, layers, lt, sub.J, sub.b)
        child = ffilter(child, net)
        child = replace(child, ub=upper_bound(child, net, pair))
        if child.linear:
            new_glb = max(new_glb, child.ub)
        children.append(child)
    return children, new_glb


def initial_subproblem(net: Network, omega: Polyhedron) -> Subproblem:
    """Root node: the symbolic pass over omega."""
    return symprop(net, omega)


def solve(net: Network, omega: Polyhedron, cfg: SolverConfig | None = None,
          on_subproblem=None) -> SolveResult:
    """Best-first branch-and-bound until gub <= theta * glb or a limit fires.

    The heap is keyed on the upper bound, ties broken in push order.
    One node is branched per iteration, in the calling thread. The root and
    every child are settled alike: a linear node lifts glb, a node whose
    bound does not beat glb is fathomed, and any other is pushed.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    pair = cfg.norm
    root = initial_subproblem(net, omega)
    root = replace(root, ub=upper_bound(root, net, pair))
    glb = 0.0
    if cfg.sample_count > 0:
        from .baselines import sampled_lower_bound

        glb = sampled_lower_bound(net, omega, pair, cfg.sample_count, cfg.seed)
    gub = root.ub
    glb = min(glb, gub)
    created = fathomed_bounds = fathomed_optimality = iterations = peak = 0
    heap, pushes, history = [], itertools.count(), []
    status, nodes = None, [root]
    while True:
        for sub in nodes:
            created += 1
            if on_subproblem is not None:
                on_subproblem(sub)
            if sub.linear:
                glb = max(glb, min(sub.ub, gub))
                fathomed_optimality += 1
            elif sub.ub <= glb:
                fathomed_bounds += 1
            else:
                heapq.heappush(heap, (-sub.ub, next(pushes), sub))
        gub = min(gub, max(glb, -heap[0][0] if heap else glb))
        peak = max(peak, len(heap))
        history.append((glb, gub))
        if not heap or not gub > cfg.theta * glb:
            break
        if cfg.time_limit is not None and time.perf_counter() - t0 >= cfg.time_limit:
            status = "time_limit"
            break
        if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
            status = "iteration_limit"
            break
        _, _, sub = heapq.heappop(heap)
        nodes, _ = branch(sub, net, glb, pair)
        iterations += 1
    if status is None:
        status = ("exact"
                  if abs(gub - glb) <= EXACT_REL_TOL * abs(gub)
                  else "approx_reached")
    return SolveResult(glb, gub, status, iterations, created, fathomed_bounds,
                       fathomed_optimality, peak, time.perf_counter() - t0, history)


def brute_force_oracle(net: Network, omega: Polyhedron, pair: NormPair) -> float:
    """Exact reference: enumerate every feasible combination of pieces.

    Composes the affine map of each feasible combination and returns the
    maximum operator norm. Combinations whose activation cell meets omega
    only in a boundary face are skipped: their map is redundant on a
    full-dimensional region, and counting them can overestimate on networks
    with coincident piece boundaries. Guarded by a hard cap on the
    combination count.
    """
    total = 1
    layers = []  # per layer, (fixed, [(region, T, t), ...]) per group
    for act in net.activations:
        groups = []
        for fixed, pieces in act.group_pieces():
            total *= len(pieces)
            if total > ORACLE_COMBINATION_CAP:
                raise GuardrailExceededError(
                    f"piece-combination count exceeds {ORACLE_COMBINATION_CAP}",
                    combination_count=total,
                )
            groups.append((list(fixed), [(Polyhedron(C, c, dim=act.in_width), T, t)
                                         for C, c, T, t in pieces]))
        layers.append(groups)
    if omega.dim != net.input_dim:
        raise ValueError(f"region dimension {omega.dim} does not match input {net.input_dim}")
    if not is_feasible(omega):
        raise InfeasibleRegionError("input region is empty")
    L = net.depth
    best = None
    best_closed = None

    def cell_has_interior(cell: Polyhedron) -> bool:
        # maximize the joint slack s over cell rows, x constrained to omega;
        # a positive optimum certifies a point interior to every cell row
        if cell.m == 0:
            return True
        d = omega.dim
        A = np.zeros((cell.m + omega.m, d + 1))
        A[: cell.m, :d] = cell.C
        A[: cell.m, d] = 1.0
        A[cell.m:, :d] = omega.C
        rhs = np.concatenate([cell.c, omega.c])
        cost = np.zeros(d + 1)
        cost[d] = -1.0
        res = solve_lp(A, rhs, cost)
        if res.status == "unbounded":
            return True
        return res.status == "optimal" and -res.value > simplex.FEAS_TOL

    def descend(l, J, b, region, cell):
        nonlocal best, best_closed
        if l > L:
            value = induced_norm(J, pair)
            if best_closed is None or value > best_closed:
                best_closed = value
            if (best is None or value > best) and cell_has_interior(cell):
                best = value
            return
        act = net.activations[l - 1]
        groups = layers[l - 1]
        T = np.zeros((act.out_width, act.in_width))
        t = np.zeros(act.out_width)

        def choose(gi, region, cell):
            if gi == len(groups):
                descend(l + 1, *net.after(l, T @ J, T @ b + t), region, cell)
                return
            fixed, pieces = groups[gi]
            for piece_region, T_p, t_p in pieces:
                pre = affine_preimage(piece_region, J, b)
                reg2 = stack(region, pre)
                if not is_feasible(reg2):
                    continue
                T[fixed], t[fixed] = T_p, t_p
                choose(gi + 1, reg2, stack(cell, pre))

        choose(0, region, cell)

    descend(1, net.affine[0].W, net.affine[0].b, omega, Polyhedron.universe(omega.dim))
    if best is not None:
        return best
    if best_closed is not None:
        # omega itself is lower-dimensional: no cell has interior points in it,
        # so fall back to closed-cell feasibility
        return best_closed
    raise LpSolverError("no feasible piece combination over a non-empty region")

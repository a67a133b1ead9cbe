"""Best-first branch-and-bound for exact Lipschitz constants.

Each subproblem is a polyhedral subset of the input region plus one
`LayerState` per activation layer: the pieces each branch group keeps over
the region, from which the star (undecided) neurons, the interval hull of
the kept rows and the decided affine map are derived. The first layer with a
star splits the network into an exactly folded linear prefix and an interval
tail; the tail's interval Jacobian gives the subproblem's upper bound.
Branching scores the stars of the first star layer by slope width through
the exact prefix times the tail's abs envelope (`star_scores`), keeps one
piece of the highest-scoring star's group (ties to the lowest index), pulls
the piece's constraints back to input space, and re-filters deeper layers.
Subproblems without stars are linear on their region, so their bound is
exact and feeds the global lower bound. A region keeps its LP
(`polyhedra.region_lp`), so a child's feasibility test and its re-filtering
share one phase 1, or one closed form for a child of a box root.
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
from .network import LinearPrefix, Network
from .norms import NormPair, induced_norm
from .polyhedra import Polyhedron, affine_preimage, is_feasible, stack
from . import simplex
from .simplex import solve_lp
from .symprop import LayerState, analyze_activation_layer, symprop

EXACT_REL_TOL = 1e-9
ORACLE_COMBINATION_CAP = 1_000_000


@dataclass(frozen=True)
class Subproblem:
    """Immutable branch-and-bound node."""

    region: Polyhedron
    layers: tuple[LayerState, ...]
    first_star_layer: int
    prefix: LinearPrefix
    ub: float = float("nan")
    uid: int = 0

    @property
    def stars(self) -> tuple[tuple[int, ...], ...]:
        """Star neurons per layer: `stars[l - 1]` for layer l."""
        return tuple(state.stars for state in self.layers)


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

    Exact through the folded linear prefix, interval hulls from the first
    star layer on. Fully decided subproblems give a degenerate interval.
    """
    L = net.depth
    if sub.first_star_layer == L + 1:
        return exact(sub.prefix.J)
    lt = sub.first_star_layer
    M = interval_matmul(sub.layers[lt - 1].lam_mat, exact(sub.prefix.J))
    for l in range(lt + 1, L + 1):
        M = interval_matmul(exact(net.affine[l - 1].W), M)
        M = interval_matmul(sub.layers[l - 1].lam_mat, M)
    return M


def upper_bound(sub: Subproblem, net: Network, pair: NormPair) -> float:
    """Norm of the interval Jacobian: exact prefix, interval hulls after it."""
    if sub.first_star_layer == net.depth + 1:
        return induced_norm(sub.prefix.J, pair)
    return induced_norm(abs_upper_envelope(interval_jacobian(sub, net)), pair)


def ffilter(sub: Subproblem, net: Network) -> Subproblem:
    """Re-filter pieces from the first star layer on; fold newly decided layers.

    Each layer is re-analysed with its state as the record, so only the
    groups keeping several pieces are examined, on those pieces. Layers
    whose neurons all turn out decided are absorbed into the linear prefix
    and the first star layer advances past them. The scan stops at the
    first layer that keeps a star neuron; deeper layers keep their recorded
    state.
    """
    l = sub.first_star_layer
    L = net.depth
    if l > L:
        return sub
    J = sub.prefix.J
    b = sub.prefix.b
    layers = list(sub.layers)
    while l <= L:
        state = analyze_activation_layer(net.activations[l - 1], sub.region, J, b,
                                         record=layers[l - 1])
        layers[l - 1] = state
        if state.stars:
            break
        J = state.fixed_T @ J
        b = state.fixed_T @ b + state.fixed_t
        if l < L:
            aff = net.affine[l]
            J = aff.W @ J
            b = aff.W @ b + aff.b
        l += 1
    return replace(sub, layers=tuple(layers), first_star_layer=l, prefix=LinearPrefix(J, b))


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
    width = (lam.upper[stars] - lam.lower[stars]) @ np.abs(sub.prefix.J)
    return np.linalg.norm(width, axis=1) * np.linalg.norm(E[:, stars], axis=0)


def branch(sub: Subproblem, net: Network, glb: float, pair: NormPair,
           uid_counter=None):
    """Split on the group of the highest-scoring star of the first star layer.

    Stars are scored by `star_scores`; ties go to the lowest neuron index.
    Returns (children, glb'): one child per piece the group keeps that is
    feasible on the region, each re-filtered, bounded and numbered from
    `uid_counter`; glb' lifts glb over children that came out fixed linear
    (their bound is an exact Lipschitz value).
    """
    L = net.depth
    if sub.first_star_layer > L:
        raise ValueError("branch called on a subproblem with no star neurons")
    if uid_counter is None:
        uid_counter = itertools.count(1)
    lt = sub.first_star_layer
    act = net.activations[lt - 1]
    state = sub.layers[lt - 1]
    neuron = state.stars[int(np.argmax(star_scores(sub, net)))]
    table = act.piece_table()
    g = table.order[neuron] // table.T.shape[2]  # the neuron's group
    children = []
    new_glb = glb
    for p in np.flatnonzero(state.pieces[g]):
        reg = table.cut(g, p, sub.region, sub.prefix.J, sub.prefix.b)
        if not is_feasible(reg):
            continue
        pieces = state.pieces.copy()
        pieces[g] = np.arange(pieces.shape[1]) == p
        layers = sub.layers[: lt - 1] + (LayerState(act, pieces),) + sub.layers[lt:]
        child = Subproblem(reg, layers, lt, sub.prefix, uid=next(uid_counter))
        child = ffilter(child, net)
        child = replace(child, ub=upper_bound(child, net, pair))
        if child.first_star_layer == L + 1:
            new_glb = max(new_glb, child.ub)
        children.append(child)
    return children, new_glb


def initial_subproblem(net: Network, omega: Polyhedron) -> Subproblem:
    """Root node: the symbolic pass's layer states and folded prefix."""
    pattern = symprop(net, omega)
    return Subproblem(omega, pattern.layers, pattern.first_star_layer, pattern.prefix)


def solve(net: Network, omega: Polyhedron, cfg: SolverConfig | None = None,
          on_subproblem=None) -> SolveResult:
    """Best-first branch-and-bound until gub <= theta * glb or a limit fires.

    The heap is keyed on the upper bound, ties broken in creation order.
    Popped entries whose bound no longer beats glb are discarded lazily.
    One node is branched per iteration, in the calling thread.
    """
    if cfg is None:
        cfg = SolverConfig()
    t0 = time.perf_counter()
    pair = cfg.norm
    root = initial_subproblem(net, omega)
    root = replace(root, ub=upper_bound(root, net, pair))
    if on_subproblem is not None:
        on_subproblem(root)
    L = net.depth
    glb = 0.0
    if cfg.sample_count > 0:
        from .baselines import sampled_lower_bound

        glb = sampled_lower_bound(net, omega, pair, cfg.sample_count, cfg.seed)
    created = 1
    fathomed_bounds = 0
    fathomed_optimality = 0
    iterations = 0
    if root.first_star_layer == L + 1:
        # the whole region is one linear piece; the bound is the exact value
        glb = gub = root.ub
        return SolveResult(glb, gub, "exact", 0, created, 0, 0, 1,
                           time.perf_counter() - t0, [(glb, gub)])
    gub = root.ub
    glb = min(glb, gub)
    heap = [(-root.ub, root.uid, root)]
    peak = 1
    history = [(glb, gub)]
    uid_counter = itertools.count(1)
    status = None
    while heap:
        if not gub > cfg.theta * glb:
            break
        if cfg.time_limit is not None and time.perf_counter() - t0 >= cfg.time_limit:
            status = "time_limit"
            break
        if cfg.max_iterations is not None and iterations >= cfg.max_iterations:
            status = "iteration_limit"
            break
        _, _, sub = heapq.heappop(heap)
        if sub.ub <= glb:
            fathomed_bounds += 1
        else:
            children, _ = branch(sub, net, glb, pair, uid_counter)
            iterations += 1
            for child in children:
                created += 1
                if on_subproblem is not None:
                    on_subproblem(child)
                if child.first_star_layer == L + 1:
                    glb = max(glb, min(child.ub, gub))
                    fathomed_optimality += 1
                elif child.ub <= glb:
                    fathomed_bounds += 1
                else:
                    heapq.heappush(heap, (-child.ub, child.uid, child))
        top = -heap[0][0] if heap else glb
        gub = min(gub, max(glb, top))
        peak = max(peak, len(heap))
        history.append((glb, gub))
    if status is None:
        if not heap:
            # every subproblem is accounted for in glb
            gub = glb
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
    for act in net.activations:
        for _, pieces in act.branch_groups():
            total *= len(pieces)
            if total > ORACLE_COMBINATION_CAP:
                raise GuardrailExceededError(
                    f"piece-combination count exceeds {ORACLE_COMBINATION_CAP}",
                    combination_count=total,
                )
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
        groups = act.branch_groups()
        T = np.zeros((act.out_width, act.in_width))
        t = np.zeros(act.out_width)

        def choose(gi, region, cell):
            if gi == len(groups):
                J2 = T @ J
                b2 = T @ b + t
                if l < L:
                    aff = net.affine[l]
                    J2 = aff.W @ J2
                    b2 = aff.W @ b2 + aff.b
                descend(l + 1, J2, b2, region, cell)
                return
            fixed, pieces = groups[gi]
            for np_piece in pieces:
                pre = affine_preimage(np_piece.region, J, b)
                reg2 = stack(region, pre)
                if not is_feasible(reg2):
                    continue
                T[list(fixed)] = np_piece.piece.T
                t[list(fixed)] = np_piece.piece.t
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

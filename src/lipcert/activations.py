"""Piecewise-linear activation layers and their polyhedral pieces.

Every activation states its pieces once, in `group_pieces`: per branch group
(neurons whose outputs are fixed together), a finite list of closed polyhedra
`C z <= c` covering the layer's input space, and on each the group's affine
map `T z + t`. The base class derives every other view from that list and
keeps it: `branch_groups` (`NeuronPiece` objects for the generic analysis and
the oracle), `neuron_decomposition`, `piece_table` (padded arrays for the
vectorised analysis and branching) and the point linearisation. The piece
list order is part of the deterministic contract: ties are always resolved
toward the lowest piece index.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polyhedra import Polyhedron

MAX_GROUP_SIZE = 7  # gamma! pieces per group; 8! = 40320 is past the cap


def _integer(value, name: str) -> int:
    # an integer only: int() would truncate 2.9 to 2 and read True as 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AffinePiece:
    """Rows of an activation's affine map restricted to one piece."""

    T: np.ndarray
    t: np.ndarray
    rows: tuple[int, ...]  # output neuron indices the rows correspond to

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        t = np.asarray(self.t, dtype=float).reshape(-1)
        if T.ndim != 2 or T.shape[0] != len(self.rows) or t.shape[0] != len(self.rows):
            raise ValueError("piece rows disagree with the fixed neuron set")
        T.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))


@dataclass(frozen=True)
class NeuronPiece:
    """One piece of a neuron's decomposition: where it holds and what it does."""

    region: Polyhedron  # in the layer's pre-activation space
    piece: AffinePiece

    @property
    def fixed_neurons(self) -> tuple[int, ...]:
        return self.piece.rows


class PieceTable(NamedTuple):
    """`group_pieces()` as padded arrays, for group g and piece p.

    `T[g, p]`, `t[g, p]` hold the piece's map rows and offsets, zero-padded
    to the largest group; `valid[g, p]` marks the pieces that exist. Neuron
    n's map row is at flat position `order[n]` of a (groups, rows) array.
    Region rows are kept once per group, over its input columns `cols[g]`
    (padded with the column `in_width`, which reads 0): the k-th distinct
    row is `A[g, k] z[cols[g]] <= a[g, k]`. Piece p's raw rows are the rows
    `rows[g, p]` in order (padded with -1); `need[:, g, p]` packs the same
    set as bits, for the containment test of `holding`.
    """

    T: np.ndarray
    t: np.ndarray
    valid: np.ndarray
    order: np.ndarray
    cols: np.ndarray
    A: np.ndarray
    a: np.ndarray
    rows: np.ndarray
    need: np.ndarray

    def region(self, g: int, p: int) -> Polyhedron:
        """Piece p of group g's region, from the same raw rows as the piece."""
        k = self.rows[g, p][self.rows[g, p] >= 0]
        C = np.zeros((len(k), self.T.shape[3] + 1))
        C[:, self.cols[g]] = self.A[g, k]
        return Polyhedron(C[:, :-1], self.a[g, k], dim=self.T.shape[3])

    def holding(self, z: np.ndarray, tol: float) -> np.ndarray:
        """(2, groups, pieces) masks of the pieces whose rows hold at z:
        exactly, and within tol."""
        lhs = np.matmul(self.A, np.append(z, 0.0)[self.cols][:, :, None])[:, :, 0]
        ok = np.packbits(lhs <= self.a + np.array([0.0, tol]).reshape(2, 1, 1), axis=2)
        # a piece holds when none of the rows it needs is missing from ok
        return self.valid & ~(self.need[:, None] & ~ok.transpose(2, 0, 1)[..., None]).any(axis=0)


class PwlActivation:
    """Base contract: the pieces of each branch group plus direct evaluation."""

    kind = "pwl"

    def __init__(self, in_width: int, out_width: int):
        in_width = _integer(in_width, "activation width")
        out_width = _integer(out_width, "activation width")
        if in_width <= 0 or out_width <= 0:
            raise ValueError("activation width must be positive")
        self.in_width = in_width
        self.out_width = out_width

    def group_pieces(self):
        """[(fixed_neurons, [(C, c, T, t), ...]), ...] per branch group, in
        neuron order: each piece holds on {z : C z <= c}, where the fixed
        neurons' outputs are T z + t. The only statement of the pieces."""
        raise NotImplementedError

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def activation_lipschitz(self, pair) -> float:
        raise NotImplementedError

    def branch_groups(self):
        """(fixed_neurons, pieces) per group, the pieces as `NeuronPiece`s.

        Built on the first call and kept: the pieces are immutable, and every
        analysis of the layer asks for them again.
        """
        groups = self.__dict__.get("_branch_groups")
        if groups is None:
            self._branch_groups = groups = tuple(
                (tuple(fixed), tuple(
                    NeuronPiece(Polyhedron(C, c, dim=self.in_width), AffinePiece(T, t, fixed))
                    for C, c, T, t in pieces))
                for fixed, pieces in self.group_pieces())
        return groups

    def neuron_decomposition(self, n: int) -> list[NeuronPiece]:
        """The pieces of neuron n's group."""
        self._check_neuron(n)
        table = self.piece_table()
        return list(self.branch_groups()[table.order[n] // table.T.shape[2]][1])

    def piece_table(self) -> PieceTable:
        """`group_pieces()` as a `PieceTable`, built once."""
        table = self.__dict__.get("_piece_table")
        if table is None:
            groups = self.group_pieces()
            G, P = len(groups), max(len(p) for _, p in groups)
            R = max(len(f) for f, _ in groups)
            M = max(len(piece[0]) for _, p in groups for piece in p)
            T, t = np.zeros((G, P, R, self.in_width)), np.zeros((G, P, R))
            valid, order = np.zeros((G, P), dtype=bool), np.zeros(self.out_width, dtype=int)
            rows, cols, distinct = np.full((G, P, M), -1), [], []
            for g, (fixed, pieces) in enumerate(groups):
                Cs, cs, Ts, ts = zip(*pieces)
                order[list(fixed)] = g * R + np.arange(len(fixed))
                valid[g, :len(pieces)] = True
                T[g, :len(pieces), :len(fixed)], t[g, :len(pieces), :len(fixed)] = Ts, ts
                raw = np.concatenate(Cs)
                cols.append(np.flatnonzero((raw != 0).any(axis=0)))
                raw = np.column_stack([raw[:, cols[g]], np.concatenate(cs)])
                first = {}  # distinct by exact bytes, so that every piece keeps its raw rows
                index = np.array([first.setdefault(r.tobytes(), len(first)) for r in raw], dtype=int)
                for p, k in enumerate(np.split(index, np.cumsum([len(C) for C in Cs])[:-1])):
                    rows[g, p, :len(k)] = k
                distinct.append(np.array([np.frombuffer(r) for r in first]).reshape(-1, raw.shape[1]))
            K, S = max(map(len, distinct)), max(1, max(map(len, cols)))
            A, a = np.zeros((G, K, S)), np.zeros((G, K))
            for g, rows_g in enumerate(distinct):
                A[g, :len(rows_g), :len(cols[g])] = rows_g[:, :-1]
                a[g, :len(rows_g)] = rows_g[:, -1]
                cols[g] = np.append(cols[g], [self.in_width] * (S - len(cols[g])))
            need = np.packbits((rows[..., None] == np.arange(K)).any(axis=2), axis=2)
            table = PieceTable(T, t, valid, order, np.array(cols, dtype=int), A, a, rows,
                               np.moveaxis(need, 2, 0).copy())
            for arr in table:
                arr.setflags(write=False)
            self._piece_table = table
        return table

    def local_linearization(self, z: np.ndarray, boundary_tol: float = 1e-9):
        """(T, t, boundary_flag): per group, the map of the lowest-index piece
        whose rows hold at z; flagged when a second piece of some group holds
        at z within boundary_tol."""
        z = self._check_input(z)
        table = self.piece_table()
        holds, near = table.holding(z, boundary_tol)
        g, p = np.arange(len(holds)), holds.argmax(axis=1)
        T = table.T[g, p].reshape(-1, self.in_width)[table.order]
        t = table.t[g, p].reshape(-1)[table.order]
        return T, t, bool((near.sum(axis=1) > 1).any())

    def _check_neuron(self, n: int):
        if not (0 <= n < self.out_width):
            raise ValueError(f"neuron index {n} out of range for width {self.out_width}")

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.in_width:
            raise ValueError(f"input has dimension {x.shape[0]}, expected {self.in_width}")
        return x

    def __repr__(self):
        return f"{type(self).__name__}(kind={self.kind!r}, width={self.in_width})"


def _basis_row(width: int, col: int, value: float = 1.0) -> np.ndarray:
    row = np.zeros((1, width))
    row[0, col] = value
    return row


class ComponentwiseActivation(PwlActivation):
    """A one-dimensional linear spline applied to every coordinate.

    `breakpoints` is the shared, strictly increasing list of k-1 knots;
    `slopes` and `intercepts` are (width, k) arrays (rows may differ, which is
    how PReLU gets its per-neuron negative slope). Piece j is the closed
    interval [breakpoints[j-1], breakpoints[j]] with the usual infinite ends.
    Adjacent pieces must agree at their shared knot.
    """

    def __init__(self, width, breakpoints, slopes, intercepts, kind="spline"):
        super().__init__(width, width)
        self.kind = kind
        breaks = np.asarray(breakpoints, dtype=float).reshape(-1)
        slopes = np.asarray(slopes, dtype=float)
        intercepts = np.asarray(intercepts, dtype=float)
        if slopes.ndim == 1:
            slopes = np.tile(slopes, (width, 1))
        if intercepts.ndim == 1:
            intercepts = np.tile(intercepts, (width, 1))
        k = breaks.shape[0] + 1
        if slopes.shape != (width, k) or intercepts.shape != (width, k):
            raise ValueError(f"expected {k} slopes and intercepts per neuron")
        if not (np.isfinite(breaks).all() and np.isfinite(slopes).all() and np.isfinite(intercepts).all()):
            raise ValueError("spline parameters must be finite")
        if breaks.size and np.any(np.diff(breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        for j, beta in enumerate(breaks):
            left = slopes[:, j] * beta + intercepts[:, j]
            right = slopes[:, j + 1] * beta + intercepts[:, j + 1]
            if not np.allclose(left, right, rtol=1e-9, atol=1e-9):
                raise ValueError(f"spline is discontinuous at breakpoint {beta}")
        breaks.setflags(write=False)
        slopes.setflags(write=False)
        intercepts.setflags(write=False)
        self.breakpoints = breaks
        self.slopes = slopes
        self.intercepts = intercepts
        self.piece_count = k

    def piece_interval(self, j: int) -> tuple[float, float]:
        """Closed input interval of piece j (infinite at the ends)."""
        left = self.breakpoints[j - 1] if j > 0 else float("-inf")
        right = self.breakpoints[j] if j < self.piece_count - 1 else float("inf")
        return left, right

    def group_pieces(self):
        groups = []
        for n in range(self.in_width):
            pieces = []
            for j in range(self.piece_count):
                left, right = self.piece_interval(j)
                rows = [(s, off) for s, off in ((-1.0, -left), (1.0, right)) if np.isfinite(off)]
                C = np.zeros((len(rows), self.in_width))
                C[:, n] = [s for s, _ in rows]
                pieces.append((C, np.array([off for _, off in rows]),
                               _basis_row(self.in_width, n, self.slopes[n, j]),
                               self.intercepts[n, [j]]))
            groups.append(((n,), pieces))
        return groups

    def _piece_index(self, z: np.ndarray) -> np.ndarray:
        # side="left" sends a value equal to a knot to the piece on its left,
        # i.e. the lowest containing piece index
        return np.searchsorted(self.breakpoints, z, side="left")

    def evaluate(self, x) -> np.ndarray:
        x = self._check_input(x)
        idx = self._piece_index(x)
        rows = np.arange(self.in_width)
        return self.slopes[rows, idx] * x + self.intercepts[rows, idx]

    def activation_lipschitz(self, pair) -> float:
        return float(np.abs(self.slopes).max())

    def local_linearization(self, z, boundary_tol: float = 1e-9):
        z = self._check_input(z)
        idx = self._piece_index(z)
        rows = np.arange(self.in_width)
        T = np.diag(self.slopes[rows, idx])
        t = self.intercepts[rows, idx].copy()
        boundary = False
        if self.breakpoints.size:
            gaps = np.abs(z[:, None] - self.breakpoints[None, :])
            boundary = bool(gaps.min() <= boundary_tol)
        return T, t, boundary


def relu(width: int) -> ComponentwiseActivation:
    return ComponentwiseActivation(width, [0.0], [0.0, 1.0], [0.0, 0.0], kind="relu")


def leaky_relu(width: int, slope: float = 0.01) -> ComponentwiseActivation:
    return ComponentwiseActivation(width, [0.0], [float(slope), 1.0], [0.0, 0.0],
                                   kind="leaky_relu")


def prelu(width: int, slopes) -> ComponentwiseActivation:
    slopes = np.asarray(slopes, dtype=float).reshape(-1)
    if slopes.shape[0] != width:
        raise ValueError(f"prelu needs {width} negative-side slopes")
    table = np.stack([slopes, np.ones(width)], axis=1)
    return ComponentwiseActivation(width, [0.0], table, np.zeros((width, 2)), kind="prelu")


def spline(width: int, breakpoints, slopes, intercepts) -> ComponentwiseActivation:
    return ComponentwiseActivation(width, breakpoints, slopes, intercepts, kind="spline")


class GroupSortActivation(PwlActivation):
    """Sorts each group of `group_size` consecutive coordinates ascending.

    A trailing remainder group is allowed when the width is not divisible by
    the group size. Pieces of a group are its gamma! orderings, enumerated in
    lexicographic permutation order; each piece fixes the whole group.
    """

    def __init__(self, width, group_size, kind="groupsort"):
        super().__init__(width, width)
        group_size = _integer(group_size, "group size")
        if group_size < 1:
            raise ValueError("group size must be at least 1")
        if group_size > MAX_GROUP_SIZE:
            raise ValueError(
                f"group size {group_size} exceeds the cap {MAX_GROUP_SIZE} "
                f"({math.factorial(group_size)} orderings per group)"
            )
        self.kind = kind
        self.group_size = group_size
        self.groups = []
        start = 0
        while start < width:
            stop = min(start + group_size, width)
            self.groups.append(tuple(range(start, stop)))
            start = stop

    def group_pieces(self):
        e = np.eye(self.in_width)
        groups = []
        for group in self.groups:
            g = len(group)
            pieces = []
            for perm in itertools.permutations(group):
                perm = list(perm)
                # ascending along the permutation: z[perm[k]] - z[perm[k + 1]] <= 0
                pieces.append((e[perm[:-1]] - e[perm[1:]], np.zeros(g - 1), e[perm], np.zeros(g)))
            groups.append((group, pieces))
        return groups

    def evaluate(self, x) -> np.ndarray:
        x = self._check_input(x)
        out = x.copy()
        for group in self.groups:
            idx = list(group)
            out[idx] = np.sort(x[idx])
        return out

    def activation_lipschitz(self, pair) -> float:
        # every piece is a permutation matrix
        return 1.0


def maxmin(width: int) -> GroupSortActivation:
    return GroupSortActivation(width, 2, kind="maxmin")


def fullsort(width: int) -> GroupSortActivation:
    return GroupSortActivation(width, width, kind="fullsort")


def groupsort(width: int, group_size: int) -> GroupSortActivation:
    return GroupSortActivation(width, group_size)


class MaxPoolActivation(PwlActivation):
    """Window maxima over disjoint index windows; output n is max over window n."""

    def __init__(self, width, windows):
        if not windows:
            raise ValueError("maxpool needs at least one window")
        cleaned = []
        seen = set()
        for w, win in enumerate(windows):
            win = tuple(_integer(i, "a window index") for i in win)
            if not win:
                raise ValueError(f"window {w} is empty")
            for i in win:
                if not (0 <= i < width):
                    raise ValueError(f"window {w} references index {i} outside width {width}")
                if i in seen:
                    raise ValueError(f"windows overlap at index {i}")
                seen.add(i)
            cleaned.append(win)
        super().__init__(width, len(cleaned))
        self.kind = "maxpool"
        self.windows = cleaned

    def group_pieces(self):
        e = np.eye(self.in_width)
        groups = []
        for n, window in enumerate(self.windows):
            pieces = []
            for k in window:
                # z[k] is a maximum: z[j] - z[k] <= 0 for the window's other j
                others = [j for j in window if j != k]
                pieces.append((e[others] - e[k], np.zeros(len(others)), e[[k]], np.zeros(1)))
            groups.append(((n,), pieces))
        return groups

    def evaluate(self, x) -> np.ndarray:
        x = self._check_input(x)
        return np.array([x[list(w)].max() for w in self.windows])

    def activation_lipschitz(self, pair) -> float:
        # every piece row is a coordinate selector
        return 1.0


class IdentityActivation(PwlActivation):
    """Pads affine-affine adjacencies so layers strictly alternate."""

    def __init__(self, width):
        super().__init__(width, width)
        self.kind = "identity"

    def group_pieces(self):
        e = np.eye(self.in_width)
        return [((n,), [(np.zeros((0, self.in_width)), np.zeros(0), e[[n]], np.zeros(1))])
                for n in range(self.in_width)]

    def evaluate(self, x) -> np.ndarray:
        return self._check_input(x).copy()

    def activation_lipschitz(self, pair) -> float:
        return 1.0

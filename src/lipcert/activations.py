"""Piecewise-linear activation layers and their polyhedral pieces.

Every activation states its pieces once, in `group_pieces`: per branch group
(neurons whose outputs are fixed together), a finite list of closed polyhedra
`C z <= c` covering the layer's input space, and on each the group's affine
map `T z + t`. The base class derives the solver's view from that list and
keeps it: `piece_table` and the point linearisation; the brute-force oracle
reads `group_pieces` itself. The piece table numbers every distinct region
row of the layer once, normalised to unit length, and each piece lists the
numbers of its rows; the analysis of every activation, the cut of a region
by a piece (`PieceTable.cut`) and the point linearisation all read those
rows through one gather, so a tolerance on a row is a Euclidean distance
for every activation. The piece list order is part of the deterministic
contract: ties are always resolved toward the lowest piece index.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .exceptions import _integer
from .polyhedra import Polyhedron

MAX_GROUP_SIZE = 7  # gamma! pieces per group; 8! = 40320 is past the cap
# a point within this Euclidean distance of a second piece is flagged as near
# a boundary, where its Jacobian is no one-sided derivative witness
BOUNDARY_TOL = 1e-9


class PieceTable(NamedTuple):
    """`group_pieces()` as padded arrays, for group g and piece p.

    `T[g, p]`, `t[g, p]` hold the piece's map rows and offsets, zero-padded
    to the largest group; `valid[g, p]` marks the pieces that exist. Neuron
    n is row `row[n]` of group `group[n]`. `cols[g]` lists the input
    columns group g's rows read (padded with the column `in_width`). The
    layer's region rows share one index space: each distinct row once,
    normalised to unit length as `Polyhedron` stores it, the k-th being
    `D[dir[k]] z <= off[k]`. Piece p of group g holds where
    the rows `rows[g, p]` hold, in order (padded with -1). `D` holds each
    row direction of the table once, with its first non-zero entry
    positive, followed by the same directions negated: for
    n = len(D) // 2, `D[j + n] = -D[j]`. So the sup of a row over a set is
    the sup of its direction or minus the inf, and one pair of LPs per
    direction decides every row along it.
    """

    T: np.ndarray
    t: np.ndarray
    valid: np.ndarray
    group: np.ndarray
    row: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    D: np.ndarray
    dir: np.ndarray
    off: np.ndarray

    def cut(self, g: int, p: int, region: Polyhedron, J, b) -> Polyhedron:
        """{x in region : J x + b in piece p of group g}, built in one call."""
        k = self.rows[g, p][self.rows[g, p] >= 0]
        U = self.D[self.dir[k]]
        return Polyhedron(np.vstack([region.C, U @ J]),
                          np.concatenate([region.c, self.off[k] - U @ b]))

    def all_rows(self, ok: np.ndarray) -> np.ndarray:
        """(..., groups, pieces) masks of the valid pieces all of whose rows
        are marked in `ok`, a stack of masks over the table's rows."""
        # the padding index -1 reads an appended True
        ok = np.concatenate([ok, np.ones(ok.shape[:-1] + (1,), dtype=bool)], axis=-1)
        return self.valid & ok[..., self.rows].all(axis=-1)

    def holding(self, Z: np.ndarray, tol: float) -> np.ndarray:
        """(2, points, groups, pieces) masks of the pieces whose rows hold at
        each row of Z: exactly, and within Euclidean distance tol."""
        # matrix-vector products per point, as for a single point
        lhs = np.matmul(self.D[:len(self.D) // 2], Z[..., None])[..., 0]
        lhs = np.concatenate([lhs, -lhs], axis=1)[:, self.dir]
        return self.all_rows(lhs <= self.off + np.array([0.0, tol])[:, None, None])


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

    def piece_table(self) -> PieceTable:
        """`group_pieces()` as a `PieceTable`, built once."""
        table = self.__dict__.get("_piece_table")
        if table is None:
            groups = self.group_pieces()
            G, P = len(groups), max(len(p) for _, p in groups)
            R = max(len(f) for f, _ in groups)
            T, t = np.zeros((G, P, R, self.in_width)), np.zeros((G, P, R))
            valid, count, cols = np.zeros((G, P), dtype=bool), np.zeros((G, P), dtype=int), []
            group, row = np.zeros(self.out_width, dtype=int), np.zeros(self.out_width, dtype=int)
            for g, (fixed, pieces) in enumerate(groups):
                Cs, cs, Ts, ts = zip(*pieces)
                group[list(fixed)], row[list(fixed)] = g, np.arange(len(fixed))
                valid[g, :len(pieces)] = True
                count[g, :len(pieces)] = [len(C_p) for C_p in Cs]
                T[g, :len(pieces), :len(fixed)], t[g, :len(pieces), :len(fixed)] = Ts, ts
                cols.append(np.flatnonzero((np.concatenate(Cs) != 0).any(axis=0)))
            # every distinct row once, normalised as Polyhedron normalises it
            C = np.concatenate([C_p for _, p in groups for C_p, *_ in p]).reshape(-1, self.in_width)
            c = np.concatenate([c_p for _, p in groups for _, c_p, *_ in p])
            norm = np.linalg.norm(C, axis=1)
            Uc, index = np.unique(np.column_stack([C / norm[:, None], c / norm]), axis=0,
                                  return_inverse=True)
            rows = np.full((G, P, count.max()), -1)  # filled in group, piece, row order
            rows[np.arange(rows.shape[2]) < count[..., None]] = index.reshape(-1)
            # one direction per line, its first non-zero entry positive
            U = Uc[:, :-1]
            sign = np.sign(U[np.arange(len(U)), (U != 0).argmax(axis=1)])
            D, j = np.unique(U * sign[:, None] + 0.0, axis=0, return_inverse=True)
            S = max(1, max(map(len, cols)))
            cols = [np.append(cols_g, [self.in_width] * (S - len(cols_g))) for cols_g in cols]
            table = PieceTable(T, t, valid, group, row, np.array(cols, dtype=int), rows,
                               np.concatenate([D, -D]), j.reshape(-1) + len(D) * (sign < 0),
                               Uc[:, -1].copy())
            for arr in table:
                arr.setflags(write=False)
            self._piece_table = table
        return table

    def local_linearization(self, Z: np.ndarray, boundary_tol: float = BOUNDARY_TOL):
        """(T, t, flags) at the points that are the rows of Z: per point and
        group, the map of the lowest-index piece whose rows hold there, as
        stacks T[i] and t[i]; flags[i] is set when a second piece of some
        group holds at point i within boundary_tol, a Euclidean distance to
        each of its rows' hyperplanes."""
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.in_width:
            raise ValueError(f"points must be the rows of a matrix with {self.in_width} "
                             f"columns, got shape {Z.shape}")
        table = self.piece_table()
        holds, near = table.holding(Z, boundary_tol)
        g, r = table.group, table.row
        p = holds.argmax(axis=2)[:, g]
        return table.T[g, p, r], table.t[g, p, r], (near.sum(axis=2) > 1).any(axis=1)

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


class IdentityActivation(ComponentwiseActivation):
    """Pads affine-affine adjacencies so layers strictly alternate: the
    spline with one piece, slope 1 and intercept 0."""

    def __init__(self, width):
        super().__init__(width, [], [1.0], [0.0], kind="identity")

"""Piecewise-linear activation layers and their per-neuron polyhedral pieces.

Every activation exposes, per output neuron, a finite list of closed
polyhedra covering its input space; on each polyhedron the neuron (and
possibly the rest of its group) is a fixed affine map of the layer input.
Branch-and-bound fixes activation states by intersecting input regions with
these pieces, so the piece list order is part of the deterministic contract:
ties are always resolved toward the lowest piece index.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polyhedra import Polyhedron

MAX_GROUP_SIZE = 7  # gamma! pieces per group; 8! = 40320 is past the cap


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


class PwlActivation:
    """Base contract: piece decompositions plus direct evaluation."""

    kind = "pwl"

    def __init__(self, in_width: int, out_width: int):
        if in_width <= 0 or out_width <= 0:
            raise ValueError("activation width must be positive")
        self.in_width = int(in_width)
        self.out_width = int(out_width)

    def neuron_decomposition(self, n: int) -> list[NeuronPiece]:
        raise NotImplementedError

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def activation_lipschitz(self, pair) -> float:
        raise NotImplementedError

    def local_linearization(self, z: np.ndarray, boundary_tol: float = 1e-9):
        """(T, t, boundary_flag) of the lowest-index piece containing z."""
        raise NotImplementedError

    def branch_groups(self):
        """(fixed_neurons, pieces) per independent group, in neuron order.

        Built on the first call and kept: the pieces are immutable, and every
        analysis of the layer asks for them again.
        """
        groups = self.__dict__.get("_branch_groups")
        if groups is None:
            groups = []
            seen = set()
            for n in range(self.out_width):
                if n in seen:
                    continue
                pieces = self.neuron_decomposition(n)
                fixed = pieces[0].fixed_neurons
                seen.update(fixed)
                groups.append((fixed, tuple(pieces)))
            self._branch_groups = groups = tuple(groups)
        return groups

    def piece_table(self):
        """(T, t, valid, order): `branch_groups()` as padded arrays, built once.

        For group g and piece p, `T[g, p]` and `t[g, p]` hold the piece's
        rows and offsets, zero-padded to the largest group, and `valid[g, p]`
        marks the pieces that exist. Neuron n's row is at flat position
        `order[n]` of a (groups, rows) array.
        """
        table = self.__dict__.get("_piece_table")
        if table is None:
            groups = self.branch_groups()
            shape = (len(groups), max(len(p) for _, p in groups),
                     max(len(f) for f, _ in groups))
            T = np.zeros(shape + (self.in_width,))
            t = np.zeros(shape)
            valid = np.zeros(shape[:2], dtype=bool)
            order = np.zeros(self.out_width, dtype=int)
            for g, (fixed, pieces) in enumerate(groups):
                r = len(fixed)
                order[list(fixed)] = g * shape[2] + np.arange(r)
                valid[g, :len(pieces)] = True
                for p, np_piece in enumerate(pieces):
                    T[g, p, :r] = np_piece.piece.T
                    t[g, p, :r] = np_piece.piece.t
            for arr in (T, t, valid, order):
                arr.setflags(write=False)
            self._piece_table = table = (T, t, valid, order)
        return table

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

    def piece_table(self):
        # one group per neuron, built from the spline table without the
        # pieces' polyhedra, which the analysis of this layer never needs
        table = self.__dict__.get("_piece_table")
        if table is None:
            w, k = self.in_width, self.piece_count
            n = np.arange(w)
            T = np.zeros((w, k, 1, w))
            T[n, :, 0, n] = self.slopes
            table = (T, self.intercepts[:, :, None], np.ones((w, k), dtype=bool), n)
            for arr in table:
                arr.setflags(write=False)
            self._piece_table = table
        return table

    def neuron_decomposition(self, n: int) -> list[NeuronPiece]:
        self._check_neuron(n)
        out = []
        for j in range(self.piece_count):
            left, right = self.piece_interval(j)
            rows = []
            offs = []
            if np.isfinite(left):
                rows.append(_basis_row(self.in_width, n, -1.0)[0])
                offs.append(-left)
            if np.isfinite(right):
                rows.append(_basis_row(self.in_width, n, 1.0)[0])
                offs.append(right)
            region = Polyhedron(np.array(rows) if rows else np.zeros((0, self.in_width)),
                                np.array(offs), dim=self.in_width)
            piece = AffinePiece(
                _basis_row(self.in_width, n, self.slopes[n, j]),
                [self.intercepts[n, j]],
                (n,),
            )
            out.append(NeuronPiece(region, piece))
        return out

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
        group_size = int(group_size)
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

    def _group_of(self, n: int) -> tuple[int, ...]:
        return self.groups[n // self.group_size]

    def neuron_decomposition(self, n: int) -> list[NeuronPiece]:
        self._check_neuron(n)
        group = self._group_of(n)
        g = len(group)
        out = []
        for perm in itertools.permutations(group):
            rows = np.zeros((g - 1, self.in_width))
            for k in range(g - 1):
                rows[k, perm[k]] = 1.0
                rows[k, perm[k + 1]] = -1.0
            region = Polyhedron(rows, np.zeros(g - 1), dim=self.in_width)
            T = np.zeros((g, self.in_width))
            for slot in range(g):
                T[slot, perm[slot]] = 1.0
            piece = AffinePiece(T, np.zeros(g), group)
            out.append(NeuronPiece(region, piece))
        return out

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

    def local_linearization(self, z, boundary_tol: float = 1e-9):
        z = self._check_input(z)
        T = np.zeros((self.out_width, self.in_width))
        boundary = False
        for group in self.groups:
            idx = np.array(group)
            # stable sort keeps tied coordinates in index order, matching the
            # lexicographically first permutation among the ties
            order = idx[np.argsort(z[idx], kind="stable")]
            for slot, src in enumerate(order):
                T[group[slot], src] = 1.0
            vals = z[order]
            if vals.size > 1 and np.min(np.diff(vals)) <= boundary_tol:
                boundary = True
        return T, np.zeros(self.out_width), boundary


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
            win = tuple(int(i) for i in win)
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

    def neuron_decomposition(self, n: int) -> list[NeuronPiece]:
        self._check_neuron(n)
        window = self.windows[n]
        out = []
        for k in window:
            rows = []
            for j in window:
                if j == k:
                    continue
                row = np.zeros(self.in_width)
                row[j] = 1.0
                row[k] = -1.0
                rows.append(row)
            region = Polyhedron(np.array(rows) if rows else np.zeros((0, self.in_width)),
                                np.zeros(len(rows)), dim=self.in_width)
            piece = AffinePiece(_basis_row(self.in_width, k), [0.0], (n,))
            out.append(NeuronPiece(region, piece))
        return out

    def evaluate(self, x) -> np.ndarray:
        x = self._check_input(x)
        return np.array([x[list(w)].max() for w in self.windows])

    def activation_lipschitz(self, pair) -> float:
        # every piece row is a coordinate selector
        return 1.0

    def local_linearization(self, z, boundary_tol: float = 1e-9):
        z = self._check_input(z)
        T = np.zeros((self.out_width, self.in_width))
        boundary = False
        for n, window in enumerate(self.windows):
            vals = z[list(window)]
            k = int(np.argmax(vals))  # first max wins, the lowest-index piece
            T[n, window[k]] = 1.0
            if len(window) > 1:
                top = np.sort(vals)[-2:]
                if top[1] - top[0] <= boundary_tol:
                    boundary = True
        return T, np.zeros(self.out_width), boundary


class IdentityActivation(PwlActivation):
    """Pads affine-affine adjacencies so layers strictly alternate."""

    def __init__(self, width):
        super().__init__(width, width)
        self.kind = "identity"

    def neuron_decomposition(self, n: int) -> list[NeuronPiece]:
        self._check_neuron(n)
        piece = AffinePiece(_basis_row(self.in_width, n), [0.0], (n,))
        return [NeuronPiece(Polyhedron.universe(self.in_width), piece)]

    def evaluate(self, x) -> np.ndarray:
        return self._check_input(x).copy()

    def activation_lipschitz(self, pair) -> float:
        return 1.0

    def local_linearization(self, z, boundary_tol: float = 1e-9):
        z = self._check_input(z)
        return np.eye(self.in_width), np.zeros(self.in_width), False

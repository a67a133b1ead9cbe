"""Network container, model JSON I/O, and evaluation.

A network is a strict alternation of affine and piecewise-linear activation
layers. Constructors accept any interleaving and pad with identity layers so
the alternation invariant holds internally.

Model files name each activation by its kind. One table, `_KINDS`, maps each
kind to its constructor and its ordered fields, and each field has one
reader in `_FIELDS`; every number in a model file passes `_reals`, so a JSON
string or boolean is never read as a number. Every error names its layer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import activations as act_mod
from .activations import BOUNDARY_TOL, IdentityActivation, PwlActivation
from .exceptions import ModelFormatError, _integer, _read_json, _reals


@dataclass(frozen=True)
class AffineLayer:
    """x -> W x + b."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if W.ndim != 2:
            raise ValueError("weight matrix must be two-dimensional")
        if 0 in W.shape:
            raise ValueError(f"weight matrix of shape {W.shape} has no entries")
        if b.shape[0] != W.shape[0]:
            raise ValueError(f"bias length {b.shape[0]} does not match {W.shape[0]} rows")
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError("affine parameters must be finite")
        W = W.copy()
        b = b.copy()
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @cached_property
    def _signed(self):
        # (W⁺, W⁻), for the exact product W·[lo, hi] = [W⁺lo + W⁻hi, W⁺hi + W⁻lo]
        return np.maximum(self.W, 0.0), np.minimum(self.W, 0.0)

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]


class Network:
    """Alternating affine / PWL-activation feedforward network."""

    def __init__(self, layers):
        affine: list[AffineLayer] = []
        acts: list[PwlActivation] = []
        for pos, item in enumerate(layers, start=1):
            if isinstance(item, AffineLayer):
                if len(affine) > len(acts):
                    acts.append(IdentityActivation(affine[-1].out_dim))
                affine.append(item)
            elif isinstance(item, PwlActivation):
                if len(affine) == len(acts):
                    width = acts[-1].out_width if acts else item.in_width
                    affine.append(AffineLayer(np.eye(width), np.zeros(width)))
                acts.append(item)
            else:
                raise TypeError(f"layer {pos} is neither affine nor a PWL activation")
        if len(affine) > len(acts):
            acts.append(IdentityActivation(affine[-1].out_dim))
        if not affine:
            raise ValueError("network has no layers")
        for l, (aff, act) in enumerate(zip(affine, acts), start=1):
            if act.in_width != aff.out_dim:
                raise ValueError(
                    f"activation at layer {l} expects width {act.in_width}, "
                    f"affine provides {aff.out_dim}"
                )
            if l < len(affine) and affine[l].in_dim != act.out_width:
                raise ValueError(
                    f"affine at layer {l + 1} expects input width {affine[l].in_dim}, "
                    f"previous activation provides {act.out_width}"
                )
        self.affine = tuple(affine)
        self.activations = tuple(acts)

    @property
    def depth(self) -> int:
        """Number of affine/activation layer pairs (L)."""
        return len(self.affine)

    @property
    def input_dim(self) -> int:
        return self.affine[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.activations[-1].out_width

    def after(self, l: int, J, b):
        """(W J, W b + c) for the affine layer W x + c that follows activation
        layer l; (J, b) unchanged after the last layer."""
        if l == self.depth:
            return J, b
        aff = self.affine[l]
        return aff.W @ J, aff.W @ b + aff.b

    def forward(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float).reshape(-1)
        if v.shape[0] != self.input_dim:
            raise ValueError(f"input has dimension {v.shape[0]}, expected {self.input_dim}")
        for aff, act in zip(self.affine, self.activations):
            v = act.evaluate(aff.W @ v + aff.b)
        return v

    def jacobian_at(self, x, boundary_tol: float = BOUNDARY_TOL):
        """(J, boundary_flag): Jacobian of the lowest-index piece selection at x.

        The flag reports whether any pre-activation came within Euclidean
        distance boundary_tol of a piece boundary, in which case the Jacobian
        is not trustworthy as a one-sided derivative witness. Given points
        as the rows of a matrix, returns the stack of their Jacobians and an
        array of their flags, with one piece-table lookup per layer for all
        of them.
        """
        V = np.asarray(x, dtype=float)
        single = V.ndim < 2
        V = V.reshape(1, -1) if single else V
        if V.ndim != 2 or V.shape[1] != self.input_dim:
            raise ValueError(f"input has dimension {V.shape[-1]}, expected {self.input_dim}")
        J = None
        flagged = np.zeros(len(V), dtype=bool)
        for aff, act in zip(self.affine, self.activations):
            # matrix-vector products per point, as for a single point
            V = np.matmul(aff.W, V[..., None])[..., 0] + aff.b
            J = aff.W if J is None else aff.W @ J
            T, t, near = act.local_linearization(V, boundary_tol)
            flagged |= near
            J = T @ J
            V = np.matmul(T, V[..., None])[..., 0] + t
        return (J[0], bool(flagged[0])) if single else (J, flagged)


def _number(value, name: str) -> float:
    arr = _reals(value, name)
    if arr.ndim:
        raise ValueError(f"{name} must be a number")
    return float(arr)


def _windows(windows, name: str):
    if not isinstance(windows, (list, tuple)) or not all(
            isinstance(w, (list, tuple)) for w in windows):
        raise ValueError(f"{name} must be a list of index lists")
    return windows


# one reader per activation field, called as reader(value, field name); the
# constructors reject infinite values
_FIELDS = {
    "slope": _number,
    "slopes": _reals,
    "breakpoints": _reals,
    "intercepts": _reals,
    "group_size": _integer,
    "windows": _windows,
}

# each activation kind: its constructor, called as build(width, *fields)
_KINDS = {
    "relu": (act_mod.relu, ()),
    "leaky_relu": (act_mod.leaky_relu, ("slope",)),
    "prelu": (act_mod.prelu, ("slopes",)),
    "spline": (act_mod.spline, ("breakpoints", "slopes", "intercepts")),
    "groupsort": (act_mod.groupsort, ("group_size",)),
    "fullsort": (act_mod.fullsort, ()),
    "maxmin": (act_mod.maxmin, ()),
    "maxpool": (act_mod.MaxPoolActivation, ("windows",)),
    "identity": (IdentityActivation, ()),
}


def _load_affine(entry: dict) -> AffineLayer:
    extra = set(entry) - {"type", "W", "b"}
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)}")
    if "W" not in entry:
        raise ValueError("affine layer needs W")
    W = _reals(entry["W"], "W")
    if W.ndim != 2:
        raise ValueError("W must be a matrix (list of equal-length rows)")
    b = _reals(entry.get("b", np.zeros(W.shape[0])), "b")
    if b.ndim != 1 or b.shape[0] != W.shape[0]:
        raise ValueError("b must have one entry per row of W")
    return AffineLayer(W, b)


def _load_activation(entry: dict, width: int) -> PwlActivation:
    kind = entry["type"]
    build, fields = _KINDS[kind]
    extra = set(entry) - {"type", *fields}
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)}")
    missing = set(fields) - set(entry)
    if missing:
        raise ValueError(f"{kind} needs fields {sorted(missing)}")
    return build(width, *(_FIELDS[f](entry[f], f) for f in fields))


def _load_layer(entry, width: int | None):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ValueError("each layer needs a 'type' field")
    kind = entry["type"]
    if kind == "affine":
        aff = _load_affine(entry)
        if width is not None and aff.in_dim != width:
            raise ValueError(f"expects input width {width}, W has {aff.in_dim} columns")
        return aff
    if not (isinstance(kind, str) and kind in _KINDS):
        raise ValueError(f"unknown layer type {kind!r}")
    if width is None:
        raise ValueError("an activation cannot open the model; widths are "
                         "inferred from a preceding affine layer")
    return _load_activation(entry, width)


def network_from_json(data) -> Network:
    if not isinstance(data, dict):
        raise ModelFormatError("model must be a JSON object")
    extra = set(data) - {"layers"}
    if extra:
        raise ModelFormatError(f"unknown top-level fields {sorted(extra)}")
    entries = data.get("layers")
    if not isinstance(entries, list) or not entries:
        raise ModelFormatError("model needs a non-empty 'layers' list")
    layers = []
    width = None  # output width of the most recent layer
    for i, entry in enumerate(entries, start=1):
        try:
            layer = _load_layer(entry, width)
        except ValueError as err:  # every reader and constructor raises ValueError
            raise ModelFormatError(f"layer {i}: {err}") from err
        layers.append(layer)
        width = layer.out_dim if isinstance(layer, AffineLayer) else layer.out_width
    return Network(layers)


def load_model(path) -> Network:
    return network_from_json(_read_json(path, "model"))

"""Network container, model JSON I/O, evaluation, and the folded linear prefix.

A network is a strict alternation of affine and piecewise-linear activation
layers. Constructors accept any interleaving and pad with identity layers so
the alternation invariant holds internally.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import activations as act_mod
from .activations import IdentityActivation, PwlActivation
from .exceptions import ModelFormatError


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

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class LinearPrefix:
    """Composed affine map x -> J x + b of an already-decided network prefix."""

    J: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if J.ndim != 2 or b.shape[0] != J.shape[0]:
            raise ValueError("prefix map shapes are inconsistent")
        J.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "b", b)


class Network:
    """Alternating affine / PWL-activation feedforward network."""

    def __init__(self, layers):
        affine: list[AffineLayer] = []
        acts: list[PwlActivation] = []
        pending: AffineLayer | None = None
        for pos, item in enumerate(layers, start=1):
            if isinstance(item, AffineLayer):
                if pending is not None:
                    affine.append(pending)
                    acts.append(IdentityActivation(pending.out_dim))
                pending = item
            elif isinstance(item, PwlActivation):
                if pending is None:
                    if affine:
                        prev = acts[-1].out_width
                        pending = AffineLayer(np.eye(prev), np.zeros(prev))
                    else:
                        pending = AffineLayer(np.eye(item.in_width), np.zeros(item.in_width))
                affine.append(pending)
                acts.append(item)
                pending = None
            else:
                raise TypeError(f"layer {pos} is neither affine nor a PWL activation")
        if pending is not None:
            affine.append(pending)
            acts.append(IdentityActivation(pending.out_dim))
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

    def forward(self, x) -> np.ndarray:
        v = np.asarray(x, dtype=float).reshape(-1)
        if v.shape[0] != self.input_dim:
            raise ValueError(f"input has dimension {v.shape[0]}, expected {self.input_dim}")
        for aff, act in zip(self.affine, self.activations):
            v = act.evaluate(aff.W @ v + aff.b)
        return v

    def jacobian_at(self, x, boundary_tol: float = 1e-9):
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


_ACTIVATION_FIELDS = {
    "relu": set(),
    "leaky_relu": {"slope"},
    "prelu": {"slopes"},
    "spline": {"breakpoints", "slopes", "intercepts"},
    "groupsort": {"group_size"},
    "fullsort": set(),
    "maxmin": set(),
    "maxpool": {"windows"},
    "identity": set(),
}


def _finite_array(values, layer: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise ModelFormatError(f"layer {layer}: {name} is not numeric: {err}") from err
    if arr.dtype == object or not np.isfinite(arr).all():
        raise ModelFormatError(f"layer {layer}: non-finite value in {name}")
    return arr


def _load_affine(entry: dict, layer: int) -> AffineLayer:
    extra = set(entry) - {"type", "W", "b"}
    if extra:
        raise ModelFormatError(f"layer {layer}: unknown fields {sorted(extra)}")
    if "W" not in entry:
        raise ModelFormatError(f"layer {layer}: affine layer needs W")
    W = _finite_array(entry["W"], layer, "W")
    if W.ndim != 2:
        raise ModelFormatError(f"layer {layer}: W must be a matrix (list of equal-length rows)")
    b = _finite_array(entry.get("b", np.zeros(W.shape[0])), layer, "b")
    if b.ndim != 1 or b.shape[0] != W.shape[0]:
        raise ModelFormatError(f"layer {layer}: b must have one entry per row of W")
    return AffineLayer(W, b)


def _load_activation(entry: dict, layer: int, width: int) -> PwlActivation:
    kind = entry["type"]
    allowed = _ACTIVATION_FIELDS[kind]
    extra = set(entry) - {"type"} - allowed
    if extra:
        raise ModelFormatError(f"layer {layer}: unknown fields {sorted(extra)}")
    missing = allowed - set(entry)
    if missing:
        raise ModelFormatError(f"layer {layer}: {kind} needs fields {sorted(missing)}")
    try:
        if kind == "relu":
            return act_mod.relu(width)
        if kind == "leaky_relu":
            return act_mod.leaky_relu(width, float(entry["slope"]))
        if kind == "prelu":
            return act_mod.prelu(width, _finite_array(entry["slopes"], layer, "slopes"))
        if kind == "spline":
            return act_mod.spline(
                width,
                _finite_array(entry["breakpoints"], layer, "breakpoints"),
                _finite_array(entry["slopes"], layer, "slopes"),
                _finite_array(entry["intercepts"], layer, "intercepts"),
            )
        if kind == "groupsort":
            return act_mod.groupsort(width, entry["group_size"])
        if kind == "fullsort":
            return act_mod.fullsort(width)
        if kind == "maxmin":
            return act_mod.maxmin(width)
        if kind == "maxpool":
            windows = entry["windows"]
            if not isinstance(windows, (list, tuple)) or not all(
                    isinstance(w, (list, tuple)) for w in windows):
                raise ValueError("windows must be a list of index lists")
            return act_mod.MaxPoolActivation(width, windows)
        if kind == "identity":
            return IdentityActivation(width)
    except ModelFormatError:
        raise  # already names the layer
    except ValueError as err:
        raise ModelFormatError(f"layer {layer}: {err}") from err
    raise ModelFormatError(f"layer {layer}: unknown activation kind {kind!r}")


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
        if not isinstance(entry, dict) or "type" not in entry:
            raise ModelFormatError(f"layer {i}: each layer needs a 'type' field")
        kind = entry["type"]
        if kind == "affine":
            aff = _load_affine(entry, i)
            if width is not None and aff.in_dim != width:
                raise ModelFormatError(
                    f"layer {i}: expects input width {width}, W has {aff.in_dim} columns"
                )
            layers.append(aff)
            width = aff.out_dim
        elif kind in _ACTIVATION_FIELDS:
            if width is None:
                raise ModelFormatError(
                    f"layer {i}: an activation cannot open the model; widths are "
                    "inferred from a preceding affine layer"
                )
            act = _load_activation(entry, i, width)
            layers.append(act)
            width = act.out_width
        else:
            raise ModelFormatError(f"layer {i}: unknown layer type {kind!r}")
    return Network(layers)


def load_model(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ModelFormatError(f"model file is not valid JSON: {err}") from err
    return network_from_json(data)

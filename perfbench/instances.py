"""Seeded network and region specs for the three benchmark workloads.

Everything here is plain numpy: the specs are turned into `lipcert` objects by
`run.py` and read directly by the independent enumerator in `reference.py`, so
neither the reference values nor the checks depend on the package under test.

Networks come from one generator: `np.random.default_rng(gen_seed)`, weights
`N(0,1)/sqrt(fan_in)` and biases `0.1*N(0,1)`, drawn layer by layer (W, then
b). The fixed networks use fixed generator seeds, so their exact constants can
be cached in `references.json`. The workload seed (`--seed`) draws

* a signed permutation of the input and of the output coordinates of every
  fixed network solved to `exact`. It leaves the constant and the solver's
  search tree unchanged, while the weight matrices the solver sees differ.
  Networks on which `lipcert` samples (theta, budget and bound instances) are
  not transformed: its draws would land on other points, or its power
  iteration would start elsewhere, which moves the sampled glb, the theta stop
  and the cost of the sampling itself from seed to seed;
* fresh tiny networks, whose exact constants the enumerator computes per run;
* the centres of the local regions in `root-bounds`;
* the benchmark's own sample points.

Hidden neurons are never permuted: that reorders the solver's branching, and
a theta = 1.5 solve on ReLU 4-12-12-2 then stops anywhere between 71 and 175
iterations, which would hide any regression of less than a factor of two.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

# seed streams: one independent generator per use of the workload seed
_STREAM_TINY, _STREAM_SYMMETRY, _STREAM_POINTS, _STREAM_CENTRES = range(4)


@dataclass(frozen=True)
class NetSpec:
    """Affine layers (W, b) with the activation applied after each hidden one.

    `acts[i]` follows `layers[i]`; the last affine layer has no activation.
    Activation dicts: {"kind": "relu"}, {"kind": "leaky_relu", "slope": a},
    {"kind": "groupsort", "size": g} (size 2 is MaxMin),
    {"kind": "maxpool", "windows": ((0, 1), ...)}.
    """

    layers: tuple
    acts: tuple

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    def digest(self) -> str:
        h = hashlib.sha256()
        for W, b in self.layers:
            h.update(np.ascontiguousarray(W).tobytes())
            h.update(np.ascontiguousarray(b).tobytes())
        h.update(repr(self.acts).encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class Region:
    """A box lo <= x <= hi (None bounds mean the whole space)."""

    lo: np.ndarray | None
    hi: np.ndarray | None

    @property
    def is_global(self) -> bool:
        return self.lo is None


@dataclass
class Instance:
    name: str
    kind: str  # exact | theta | budget | bounds | probe_spectral | probe_scale
    net: NetSpec
    region: Region
    pair: tuple
    ref: str | None = None  # key into the reference table
    opts: dict = field(default_factory=dict)


def pair_key(pair) -> str:
    return ":".join("inf" if np.isinf(v) else str(int(v)) for v in pair)


def box(d: int, radius: float = 1.0, centre=None) -> Region:
    c = np.zeros(d) if centre is None else np.asarray(centre, dtype=float)
    return Region(c - radius, c + radius)


def whole() -> Region:
    return Region(None, None)


def _act(kind: str, width: int) -> dict:
    if kind == "relu":
        return {"kind": "relu"}
    if kind == "leaky":
        return {"kind": "leaky_relu", "slope": 0.1}
    if kind == "maxmin":
        return {"kind": "groupsort", "size": 2}
    if kind == "gs4":
        return {"kind": "groupsort", "size": 4}
    if kind == "pool2":
        return {"kind": "maxpool", "windows": tuple((k, k + 1) for k in range(0, width, 2))}
    raise ValueError(kind)


def out_width(act: dict, width: int) -> int:
    return len(act["windows"]) if act["kind"] == "maxpool" else width


def generated(dims, gen_seed, kind: str = "relu", rng=None) -> NetSpec:
    """The generator network: dims are the affine output widths after the input."""
    if rng is None:
        rng = np.random.default_rng(gen_seed)
    layers, acts = [], []
    fan_in = dims[0]
    for i, width in enumerate(dims[1:]):
        W = rng.normal(size=(width, fan_in)) / np.sqrt(fan_in)
        b = 0.1 * rng.normal(size=width)
        layers.append((W, b))
        if i < len(dims) - 2:
            a = _act(kind, width)
            acts.append(a)
            fan_in = out_width(a, width)
    return NetSpec(tuple(layers), tuple(acts))


def signed_io_symmetry(net: NetSpec, rng) -> NetSpec:
    """Permute and sign-flip the input and the output coordinates.

    For every supported (p, q) pair the constant over a region symmetric under
    the same input map is unchanged.
    """
    layers = [(W.copy(), b.copy()) for W, b in net.layers]
    d = net.input_dim
    perm, sign = rng.permutation(d), rng.choice([-1.0, 1.0], d)
    W, b = layers[0]
    layers[0] = (W[:, perm] * sign, b)
    m = layers[-1][0].shape[0]
    perm, sign = rng.permutation(m), rng.choice([-1.0, 1.0], m)
    W, b = layers[-1]
    layers[-1] = (sign[:, None] * W[perm], sign * b[perm])
    return NetSpec(tuple(layers), net.acts)


def random_net_like_tests(rng, max_in=3, max_hidden=2, max_width=4, max_out=2,
                          kinds=("relu", "leaky_relu", "maxmin")) -> NetSpec:
    """Same draws, in the same order, as `random_net` in the test suite."""
    d0 = int(rng.integers(1, max_in + 1))
    n_hidden = int(rng.integers(1, max_hidden + 1))
    dims = [d0] + [int(rng.integers(1, max_width + 1)) for _ in range(n_hidden)]
    dims.append(int(rng.integers(1, max_out + 1)))
    layers, acts = [], []
    for i in range(len(dims) - 1):
        W = rng.normal(size=(dims[i + 1], dims[i]))
        layers.append((W, rng.normal(size=dims[i + 1])))
        if i < n_hidden:
            kind = str(rng.choice(kinds))
            acts.append({"relu": {"kind": "relu"},
                         "leaky_relu": {"kind": "leaky_relu", "slope": 0.1},
                         "maxmin": {"kind": "groupsort", "size": 2}}[kind])
    return NetSpec(tuple(layers), tuple(acts))


def scaled(net: NetSpec, c: float) -> NetSpec:
    """First-layer weights and every bias times c: the network becomes c*f."""
    layers = [(W * (c if i == 0 else 1.0), b * c) for i, (W, b) in enumerate(net.layers)]
    return NetSpec(tuple(layers), net.acts)


def stream(seed: int, which: int):
    return np.random.default_rng([seed, which])


# -- fixed networks (their exact constants are cached in references.json) ----

P22, P1I, PII, P11 = (2.0, 2.0), (1.0, INF), (INF, INF), (1.0, 1.0)

FIXED = {
    "relu-3-10-10-2": lambda: generated([3, 10, 10, 2], 0, "relu"),
    "relu-2-8-8-1": lambda: generated([2, 8, 8, 1], 0, "relu"),
    "relu-4-12-12-2": lambda: generated([4, 12, 12, 2], 0, "relu"),
    "maxmin-3-8-8-2": lambda: generated([3, 8, 8, 2], 0, "maxmin"),
    "maxmin-3-10-10-2": lambda: generated([3, 10, 10, 2], 0, "maxmin"),
    "gs4-2-6-2": lambda: generated([2, 6, 2], 0, "gs4"),
    "pool-3-8-8-2": lambda: generated([3, 8, 8, 2], 0, "pool2"),
}

# (fixed network, region kind, pairs) whose constants the cache holds
CACHED = {
    "relu-3-10-10-2": ("box", (P1I,)),
    "relu-2-8-8-1": ("global", (P22,)),
    "relu-4-12-12-2": ("box", (P22,)),
    "maxmin-3-8-8-2": ("box", (P22,)),
    "maxmin-3-10-10-2": ("box", (P22,)),
    "gs4-2-6-2": ("box", (P22,)),
    "pool-3-8-8-2": ("box", (PII,)),
}


def cached_region(name: str) -> Region:
    d = FIXED[name]().input_dim
    return whole() if CACHED[name][0] == "global" else box(d)


# -- fault probes: inputs fixed, independent of the workload seed -------------

SPECTRAL_PROBES = 1
SPECTRAL_GAP = 1e-4
SCALE_PROBES = 30
SCALE_C = 1e-10


def spectral_probe_nets():
    """Linear 6x6 maps whose top two singular values differ by SPECTRAL_GAP."""
    rng = np.random.default_rng(20260401)
    nets = []
    for _ in range(SPECTRAL_PROBES):
        U, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        V, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        s = np.concatenate([[1.0 + SPECTRAL_GAP, 1.0], np.sort(rng.uniform(0.1, 0.9, 4))[::-1]])
        W = (U * s) @ V.T
        nets.append(NetSpec(((W, 0.1 * rng.normal(size=6)),), ()))
    return nets


def scale_probe_nets():
    """The test suite's random networks (generator seed 7), unscaled."""
    rng = np.random.default_rng(7)
    return [random_net_like_tests(rng) for _ in range(SCALE_PROBES)]


# -- workloads ---------------------------------------------------------------

def _tiny(seed: int, specs):
    rng = stream(seed, _STREAM_TINY)
    out = []
    for k, (dims, kind, pair) in enumerate(specs):
        net = generated(dims, None, kind, rng=rng)
        name = f"tiny{k}-{kind}-{'-'.join(map(str, dims))}"
        out.append(Instance(name, "exact", net, box(dims[0]), pair, ref=name))
    return out


def _fixed(name, kind, pair, sym_rng=None, **opts):
    net = FIXED[name]()
    if sym_rng is not None:
        net = signed_io_symmetry(net, sym_rng)
    return Instance(f"{name}:{pair_key(pair)}:{kind}", kind, net, cached_region(name), pair,
                    ref=name, opts=opts)


def _bounds(name, net, pairs):
    return [Instance(f"{name}:{pair_key(p)}:bounds", "bounds", net, box(net.input_dim), p)
            for p in pairs]


def _probes():
    out = []
    for k, net in enumerate(spectral_probe_nets()):
        out.append(Instance(f"probe-spectral{k}", "probe_spectral", net, box(6), P22))
    for k, net in enumerate(scale_probe_nets()):
        out.append(Instance(f"probe-scale{k}", "probe_scale", scaled(net, SCALE_C),
                            box(net.input_dim), P22, ref=f"probe-scale{k}",
                            opts={"c": SCALE_C}))
    return out


THETA = 1.5
RELU_THETA = 2.0
SAMPLES = 1000
BUDGET_SAMPLES = 100  # enough for a positive glb; sampling stays a small share
BUDGET = 5
WIDE_BUDGET = 12


def relu_bnb(seed: int):
    sym = stream(seed, _STREAM_SYMMETRY)
    out = _tiny(seed, [([2, 5, 5, 1], "relu", P22), ([2, 4, 4, 2], "leaky", P1I),
                       ([3, 4, 4, 2], "relu", PII), ([2, 5, 5, 2], "leaky", P11)])
    out.append(_fixed("relu-3-10-10-2", "exact", P1I, sym))
    out.append(_fixed("relu-2-8-8-1", "exact", P22, sym))
    out.append(_fixed("relu-4-12-12-2", "theta", P22, theta=RELU_THETA, sample_count=SAMPLES))
    nets = [generated([4, 32, 32, 2], g, "relu") for g in (0, 1)]
    for g, net in enumerate(nets):
        out.append(Instance(f"relu-4-32-32-2-g{g}:2:budget", "budget", net, box(4), P22,
                            opts={"max_iterations": BUDGET, "sample_count": BUDGET_SAMPLES}))
    out += _bounds("relu-4-32-32-2-g0", nets[0], (P22, P1I))
    out += _probes()
    return out


def sort_bnb(seed: int):
    sym = stream(seed, _STREAM_SYMMETRY)
    out = _tiny(seed, [([2, 4, 4, 2], "maxmin", P22), ([2, 4, 2], "gs4", P1I),
                       ([2, 6, 2], "pool2", PII)])
    out.append(_fixed("maxmin-3-8-8-2", "exact", P22, sym))
    out.append(_fixed("gs4-2-6-2", "exact", P22, sym))
    out.append(_fixed("pool-3-8-8-2", "exact", PII, sym))
    out.append(_fixed("maxmin-3-10-10-2", "theta", P22, theta=THETA, sample_count=SAMPLES))
    net = generated([4, 16, 16, 2], 0, "maxmin")
    out.append(Instance("maxmin-4-16-16-2:2:budget", "budget", net, box(4), P22,
                        opts={"max_iterations": BUDGET, "sample_count": BUDGET_SAMPLES}))
    out += _bounds("maxmin-4-16-16-2", net, (P22,))
    return out


WIDE_RELU = [8, 32, 32, 32, 4]
WIDE_MAXMIN = [8, 32, 32, 4]
WIDE_GLOBAL = [8, 32, 32, 4]
LOCAL_RADIUS = 1e-5
LOCAL_CENTRES = 8
THETA_RADIUS = 0.002


def root_bounds(seed: int):
    wide = generated(WIDE_RELU, 0, "relu")
    out = _bounds("relu-8-32-32-32-4", wide, (P22,))
    out += _bounds("maxmin-8-32-32-4", generated(WIDE_MAXMIN, 0, "maxmin"), (P1I,))
    glob = generated(WIDE_GLOBAL, 1, "relu")
    out.append(Instance("relu-8-32-32-4-global:2:bounds", "bounds", glob, whole(), P22))
    out.append(Instance("relu-8-32-32-4-global:2:budget", "budget", glob, whole(), P22,
                        opts={"max_iterations": WIDE_BUDGET, "sample_count": BUDGET_SAMPLES}))
    # local constants at seed-drawn points: the root pass decides every neuron
    centres = stream(seed, _STREAM_CENTRES).uniform(-0.5, 0.5, size=(LOCAL_CENTRES, 8))
    for k, c in enumerate(centres):
        name = f"local{k}-relu-8-32-32-32-4"
        out.append(Instance(name, "exact", wide, box(8, LOCAL_RADIUS, c), P22, ref=name))
    out.append(Instance("relu-8-32-32-32-4-local:2:theta", "theta", wide,
                        box(8, THETA_RADIUS), P22,
                        opts={"theta": THETA, "sample_count": SAMPLES}))
    return out


WORKLOADS = {"relu-bnb": relu_bnb, "sort-bnb": sort_bnb, "root-bounds": root_bounds}


def sample_points(seed: int, region: Region, d: int, count: int, salt: int):
    """The benchmark's own points: uniform in the box, or in [-2, 2]^d globally."""
    rng = np.random.default_rng([seed, _STREAM_POINTS, salt])
    if region.is_global:
        return rng.uniform(-2.0, 2.0, size=(count, d))
    return rng.uniform(region.lo, region.hi, size=(count, d))



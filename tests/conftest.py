"""Shared builders for the test suite."""
import json
import os
from pathlib import Path

import numpy as np
import pytest

import lipcert as lc
from lipcert import simplex

# filled by test_acceptance.py; printed after the run, one line per criterion
ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        name, ok = ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({name}): {verdict}")


@pytest.fixture
def region_lps(monkeypatch):
    """The (A, b) arguments of every `simplex.RegionLP` built during the test."""
    built = []
    init = simplex.RegionLP.__init__

    def counting_init(self, A, b):
        built.append((A, b))
        init(self, A, b)

    monkeypatch.setattr(simplex.RegionLP, "__init__", counting_init)
    return built


def make_abs_net() -> lc.Network:
    """f(x) = |x| as relu(x) + relu(-x)."""
    return lc.Network([
        lc.AffineLayer([[1.0], [-1.0]], [0.0, 0.0]),
        lc.relu(2),
        lc.AffineLayer([[1.0, 1.0]], [0.0]),
    ])


ABS_MODEL = {
    "layers": [
        {"type": "affine", "W": [[1.0], [-1.0]]},
        {"type": "relu"},
        {"type": "affine", "W": [[1.0, 1.0]]},
    ]
}


ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """Environment for a subprocess that imports lipcert from this checkout."""
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _make_activation(kind: str, width: int) -> lc.PwlActivation:
    if kind == "relu":
        return lc.relu(width)
    if kind == "leaky_relu":
        return lc.leaky_relu(width, 0.1)
    if kind == "maxmin":
        return lc.maxmin(width)
    if kind == "fullsort":
        return lc.fullsort(width)
    raise ValueError(kind)


def random_net(rng, max_in=3, max_hidden=2, max_width=4, max_out=2,
               kinds=("relu", "leaky_relu", "maxmin")) -> lc.Network:
    d0 = int(rng.integers(1, max_in + 1))
    n_hidden = int(rng.integers(1, max_hidden + 1))
    dims = [d0]
    dims += [int(rng.integers(1, max_width + 1)) for _ in range(n_hidden)]
    dims.append(int(rng.integers(1, max_out + 1)))
    layers = []
    for i in range(len(dims) - 1):
        W = rng.normal(size=(dims[i + 1], dims[i]))
        layers.append(lc.AffineLayer(W, rng.normal(size=dims[i + 1])))
        if i < n_hidden:
            layers.append(_make_activation(str(rng.choice(kinds)), dims[i + 1]))
    return lc.Network(layers)


def piece_regions(act) -> list:
    """`act.group_pieces()` with each piece's region as a `Polyhedron`, built
    as `brute_force_oracle` builds it: [(fixed, [(region, T, t), ...]), ...]."""
    return [(fixed, [(lc.Polyhedron(C, c, dim=act.in_width), T, t) for C, c, T, t in pieces])
            for fixed, pieces in act.group_pieces()]


def unit_box(d: int) -> lc.Polyhedron:
    return lc.Polyhedron.from_box([-1.0] * d, [1.0] * d)


def sample_in_region(region: lc.Polyhedron, rng, count: int, reject_budget=100):
    """Points of a (bounded or boxable) region: rejection first, vertex blends after."""
    lo, hi = lc.coordinate_bounds(region)
    lo = np.where(np.isfinite(lo), lo, -10.0)
    hi = np.where(np.isfinite(hi), hi, 10.0)
    pts = []
    tries = 0
    budget = reject_budget * count
    while len(pts) < count and tries < budget:
        tries += 1
        x = rng.uniform(lo, hi)
        if region.contains(x):
            pts.append(x)
    if len(pts) < count:
        verts = []
        for _ in range(max(4, 2 * region.dim)):
            res = simplex.solve_lp(region.C, region.c, rng.normal(size=region.dim))
            if res.status == "optimal":
                verts.append(res.x)
        if verts:
            verts = np.array(verts)
            while len(pts) < count:
                w = rng.dirichlet(np.ones(len(verts)))
                pts.append(w @ verts)
    return pts

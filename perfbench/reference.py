"""Independent reference values: exact constants by walking activation regions.

The enumerator shares no code with `lipcert`. It visits every activation
region (one piece per ReLU / leaky-ReLU unit, one ordering per GroupSort or
MaxMin group, one arg-max per MaxPool window) depth first. A partial region
is kept only if it has interior points: `scipy.optimize.linprog` (HiGHS)
maximises the joint slack of all its rows, which are scaled to unit norm, so
the slack is the radius of a ball inside the region. On each full region the
network is one affine map, and the constant is the largest induced norm of
those maps, computed with `numpy.linalg.norm` for (2, 2) and with the closed
forms for p = 1 (largest column q-norm) and q = inf (largest row dual norm).

Usage:

    python3 perfbench/reference.py --recompute
        recompute references.json, the constants of the fixed networks;
    python3 perfbench/reference.py --workload relu-bnb --seed 3
        print, as JSON, the constants of the instances that the workload draws
        from the seed (and of the fault probes), which are not cached.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import instances as ins  # noqa: E402

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# a region counts when a ball of this radius fits inside it; thinner regions
# carry no volume that could hold the supremum of a continuous network
INTERIOR_TOL = 1e-9
_ZERO_ROW = 1e-14


def induced_norm(J: np.ndarray, pair) -> float:
    p, q = pair
    if p == 1.0:
        return float(np.linalg.norm(J, ord=q, axis=0).max())
    if np.isinf(q):
        dual = {1.0: ins.INF, 2.0: 2.0, ins.INF: 1.0}[p]
        return float(np.linalg.norm(J, ord=dual, axis=1).max())
    if p == 2.0 and q == 2.0:
        return float(np.linalg.norm(J, 2))
    raise ValueError(f"unsupported pair {pair}")


def _pieces(act: dict, width: int):
    """Per group: list of (R, r, rows, T, t) in pre-activation coordinates.

    R z <= r is where the piece holds; output rows `rows` equal T z + t.
    """
    kind = act["kind"]
    groups = []
    if kind in ("relu", "leaky_relu"):
        low = 0.0 if kind == "relu" else act["slope"]
        for i in range(width):
            e = np.zeros(width)
            e[i] = 1.0
            groups.append([(-e[None], np.zeros(1), [i], e[None], np.zeros(1)),
                           (e[None], np.zeros(1), [i], low * e[None], np.zeros(1))])
    elif kind == "groupsort":
        g = act["size"]
        for start in range(0, width, g):
            grp = list(range(start, min(start + g, width)))
            pieces = []
            for perm in itertools.permutations(grp):
                R = np.zeros((len(grp) - 1, width))
                for k in range(len(grp) - 1):
                    R[k, perm[k]] = 1.0
                    R[k, perm[k + 1]] = -1.0
                T = np.zeros((len(grp), width))
                for slot, src in enumerate(perm):
                    T[slot, src] = 1.0
                pieces.append((R, np.zeros(len(R)), grp, T, np.zeros(len(grp))))
            groups.append(pieces)
    elif kind == "maxpool":
        for n, win in enumerate(act["windows"]):
            pieces = []
            for k in win:
                R = np.zeros((len(win) - 1, width))
                for row, j in enumerate(j for j in win if j != k):
                    R[row, j] = 1.0
                    R[row, k] = -1.0
                T = np.zeros((1, width))
                T[0, k] = 1.0
                pieces.append((R, np.zeros(len(R)), [n], T, np.zeros(1)))
            groups.append(pieces)
    else:
        raise ValueError(kind)
    return groups


class _Cell:
    """Rows G x <= h (unit-norm rows) with an interior witness and its slack."""

    def __init__(self, d, region: ins.Region):
        self.d = d
        self.G = []
        self.h = []
        if not region.is_global:
            for i in range(d):
                e = np.zeros(d)
                e[i] = 1.0
                self.G += [e, -e]
                self.h += [region.hi[i], -region.lo[i]]
            self.x = (region.lo + region.hi) / 2.0
            self.slack = float(np.min(region.hi - region.lo) / 2.0)
        else:
            self.x = np.zeros(d)
            self.slack = 1.0
        self.lps = 0

    def push(self, R, r):
        """Add rows R x <= r; return False (rows not added) if no interior is left."""
        rows, offs = [], []
        for g, c in zip(R, r):
            n = float(np.linalg.norm(g))
            if n <= _ZERO_ROW:
                if c < INTERIOR_TOL:
                    return False
                continue
            rows.append(g / n)
            offs.append(c / n)
        margins = [o - g @ self.x for g, o in zip(rows, offs)]
        new_slack = min([self.slack] + margins)
        saved = (self.x, self.slack, len(self.G))
        self.G += rows
        self.h += offs
        if new_slack > INTERIOR_TOL:
            self.slack = new_slack
        else:
            ok = self._solve()
            if not ok:
                self.pop(saved)
                return False
        return saved

    def pop(self, saved):
        self.x, self.slack, n = saved
        del self.G[n:]
        del self.h[n:]

    def _solve(self) -> bool:
        from scipy.optimize import linprog

        self.lps += 1
        G = np.asarray(self.G)
        A = np.hstack([G, np.ones((len(G), 1))])
        cost = np.zeros(self.d + 1)
        cost[-1] = -1.0
        bounds = [(None, None)] * self.d + [(None, 1.0)]
        res = linprog(cost, A_ub=A, b_ub=np.asarray(self.h), bounds=bounds, method="highs")
        if res.status != 0 or -res.fun <= INTERIOR_TOL:
            return False
        self.x = res.x[:-1]
        self.slack = float(-res.fun)
        return True


def enumerate_constant(net: ins.NetSpec, region: ins.Region, pairs):
    """{pair: exact constant} and the number of full activation regions."""
    d = net.input_dim
    cell = _Cell(d, region)
    best = {tuple(p): 0.0 for p in pairs}
    regions = 0
    layer_groups = []
    for (W, _), act in zip(net.layers, net.acts):
        layer_groups.append(_pieces(act, W.shape[0]))

    def leaf(Y):
        nonlocal regions
        regions += 1
        J = net.layers[-1][0] @ Y
        for p in best:
            best[p] = max(best[p], induced_norm(J, p))

    def layer(l, Y, y):
        # Y, y: the affine map from the input to the output of layer l - 1
        if l == len(net.acts):
            leaf(Y)
            return
        W, b = net.layers[l]
        A = W @ Y
        a = W @ y + b
        act = net.acts[l]
        width = ins.out_width(act, W.shape[0])
        Yn = np.zeros((width, d))
        yn = np.zeros(width)
        groups = layer_groups[l]

        def group(gi):
            if gi == len(groups):
                layer(l + 1, Yn.copy(), yn.copy())
                return
            for R, r, rows, T, t in groups[gi]:
                saved = cell.push(R @ A, r - R @ a)
                if saved is False:
                    continue
                Yn[rows] = T @ A
                yn[rows] = T @ a + t
                group(gi + 1)
                cell.pop(saved)

        group(0)

    layer(0, np.eye(d), np.zeros(d))
    return best, regions, cell.lps


# -- the benchmark's own forward pass, for sample-point checks ---------------

def jacobian_at(net: ins.NetSpec, x: np.ndarray):
    """(J, margin): Jacobian at x and the distance of x's pre-activations to a kink."""
    J = np.eye(len(x))
    v = np.asarray(x, dtype=float)
    margin = np.inf
    for l, (W, b) in enumerate(net.layers):
        z = W @ v + b
        J = W @ J
        if l == len(net.acts):
            return J, margin
        act = net.acts[l]
        kind = act["kind"]
        if kind in ("relu", "leaky_relu"):
            slope = np.where(z > 0, 1.0, 0.0 if kind == "relu" else act["slope"])
            margin = min(margin, float(np.min(np.abs(z))))
            J = slope[:, None] * J
            v = slope * z
        elif kind == "groupsort":
            g = act["size"]
            T = np.zeros((len(z), len(z)))
            for start in range(0, len(z), g):
                idx = np.arange(start, min(start + g, len(z)))
                order = idx[np.argsort(z[idx])]
                T[idx, order] = 1.0
                if len(idx) > 1:
                    margin = min(margin, float(np.min(np.diff(z[order]))))
            J = T @ J
            v = T @ z
        elif kind == "maxpool":
            T = np.zeros((len(act["windows"]), len(z)))
            for n, win in enumerate(act["windows"]):
                win = list(win)
                vals = np.sort(z[win])
                T[n, win[int(np.argmax(z[win]))]] = 1.0
                if len(win) > 1:
                    margin = min(margin, float(vals[-1] - vals[-2]))
            J = T @ J
            v = T @ z
    raise AssertionError("network has no output layer")


# -- cache and per-seed references -------------------------------------------

def fresh_references(workload: str, seed: int) -> dict:
    """Constants of every instance of the workload that is not in the cache."""
    out = {}
    unscaled = ins.scale_probe_nets()
    for inst in ins.WORKLOADS[workload](seed):
        if inst.ref is None or inst.ref in ins.CACHED or inst.ref in out:
            continue
        net = inst.net
        if inst.kind == "probe_scale":
            # the probe is c*f; its regions are those of f, and L scales by c
            net = unscaled[int(inst.ref[len("probe-scale"):])]
        best, _, _ = enumerate_constant(net, inst.region, [inst.pair])
        out[inst.ref] = {ins.pair_key(inst.pair): best[tuple(inst.pair)]}
    return out


def load_cache() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def recompute(path: str = REFERENCE_FILE) -> None:
    table = {}
    for name, (_, pairs) in ins.CACHED.items():
        net = ins.FIXED[name]()
        t0 = time.perf_counter()
        best, regions, lps = enumerate_constant(net, ins.cached_region(name), pairs)
        table[name] = {
            "digest": net.digest(),
            "regions": regions,
            "values": {ins.pair_key(p): best[tuple(p)] for p in pairs},
        }
        print(f"{name}: {regions} regions, {lps} LPs, {time.perf_counter() - t0:.1f} s, "
              f"{table[name]['values']}", file=sys.stderr, flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--recompute", action="store_true")
    ap.add_argument("--workload", choices=sorted(ins.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.recompute:
        recompute()
        return 0
    if args.workload is None:
        ap.error("give --recompute or --workload")
    json.dump(fresh_references(args.workload, args.seed), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

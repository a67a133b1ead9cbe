"""Seeded end-to-end benchmark of `lipcert`, with an optional per-layer trace.

    python3 perfbench/run.py --workload relu-bnb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run builds the workload's instances from the seed, then runs rounds of
the same operations back to back in this single process (a closed loop, BLAS
pinned to one thread) for as many whole rounds as fit in `--seconds`, and at
least two.
An operation is one call to `solve`, `symprop_bound`, `sampled_lower_bound` or
`layerwise_bound` on one instance, followed by a check of its output against
the independent enumerator (`reference.py`) or against a property the method
must have. Timings are the median over rounds of each operation.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` the package's functions are wrapped
(`layertrace.py`) and the object holds the per-layer metrics instead. See README.md
for the workloads, the metrics and the tolerances.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("relu-bnb", "sort-bnb", "root-bounds")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
CHILD_TIMEOUT = 150

# Correctness tolerances (README.md explains each).
EXACT_RTOL = 1e-7  # run-to-exact value against the enumerator's
BOUND_RTOL = 1e-7  # bracket and bound orderings, and own-sample norms
LAPACK_RTOL = 1e-13  # spectral-norm probe against numpy.linalg.norm(W, 2)
SCALE_RTOL = 1e-6  # scaled-network probe against c * L_ref
KINK_MARGIN = 1e-7  # own sample points this close to a kink are skipped
OWN_POINTS = 64


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- set-up -------------------------------------------------------------------

def build(workload: str, seed: int):
    """Import lipcert and build the workload's networks, regions and configs."""
    import lipcert as lc

    import instances as ins

    ops = []
    for inst in ins.WORKLOADS[workload](seed):
        net = to_network(lc, inst.net)
        d = inst.net.input_dim
        if inst.region.is_global:
            omega = lc.Polyhedron.universe(d)
        else:
            omega = lc.Polyhedron.from_box(inst.region.lo, inst.region.hi)
        pair = lc.NormPair(*inst.pair)
        if inst.kind == "bounds":
            ops.append(Op(inst, "symprop_bound", net, lambda n=net, o=omega, p=pair:
                          lc.symprop_bound(n, o, p)))
            ops.append(Op(inst, "sampled_lower_bound", net,
                          lambda n=net, o=omega, p=pair:
                          lc.sampled_lower_bound(n, o, p, ins.SAMPLES, seed=0)))
            if pair.p == pair.q:
                ops.append(Op(inst, "layerwise_bound", net,
                              lambda n=net, p=pair: lc.layerwise_bound(n, p)))
            continue
        opts = {k: v for k, v in inst.opts.items() if k != "c"}
        cfg = lc.SolverConfig(norm=pair, **opts)
        ops.append(Op(inst, "solve", net,
                      lambda n=net, o=omega, c=cfg: lc.solve(n, o, c)))
    return ops


def to_network(lc, spec):
    layers = []
    for i, (W, b) in enumerate(spec.layers):
        layers.append(lc.AffineLayer(W, b))
        if i < len(spec.acts):
            act, width = spec.acts[i], W.shape[0]
            kind = act["kind"]
            if kind == "relu":
                layers.append(lc.relu(width))
            elif kind == "leaky_relu":
                layers.append(lc.leaky_relu(width, act["slope"]))
            elif kind == "groupsort":
                layers.append(lc.maxmin(width) if act["size"] == 2
                              else lc.groupsort(width, act["size"]))
            elif kind == "maxpool":
                layers.append(lc.MaxPoolActivation(width, [list(w) for w in act["windows"]]))
            else:
                raise ValueError(kind)
    return lc.Network(layers)


class Op:
    def __init__(self, inst, call, net, fn):
        self.inst = inst
        self.call = call
        self.net = net
        self.fn = fn
        self.name = f"{inst.name}:{call}"
        self.walls = []
        self.outputs = []
        self.own_max = 0.0  # largest own-sample Jacobian norm

    @property
    def probe(self) -> bool:
        return self.inst.kind.startswith("probe")


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time in this (fresh) interpreter; imports happen inside the timing."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    build(workload, seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def references(workload: str, seed: int) -> dict:
    """Cached constants of the fixed networks plus fresh ones for this seed."""
    import instances as ins
    import reference

    cache = reference.load_cache()
    table = {}
    for name in ins.CACHED:
        entry = cache.get(name)
        if entry is None or entry["digest"] != ins.FIXED[name]().digest():
            raise RuntimeError(f"references.json is stale for {name}; run "
                               "python3 perfbench/reference.py --recompute")
        table[name] = entry["values"]
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT, check=True)
    table.update(json.loads(out.stdout.strip().splitlines()[-1]))
    return table


def own_sample_norms(ops, seed: int) -> None:
    """Largest Jacobian norm over the benchmark's own points, per operation."""
    import instances as ins
    import reference

    for k, op in enumerate(ops):
        if op.inst.kind not in ("theta", "budget", "bounds"):
            continue
        pts = ins.sample_points(seed, op.inst.region, op.inst.net.input_dim, OWN_POINTS, k)
        best = 0.0
        for x in pts:
            J, margin = reference.jacobian_at(op.inst.net, x)
            if margin > KINK_MARGIN:
                best = max(best, reference.induced_norm(J, op.inst.pair))
        op.own_max = best


# -- checks -------------------------------------------------------------------

def check(op, out, refs, bounds_of) -> str | None:
    """None when the output is right, else why it is wrong."""
    import numpy as np

    import instances as ins

    inst = op.inst
    key = ins.pair_key(inst.pair)
    ref = refs.get(inst.ref, {}).get(key) if inst.ref else None
    if op.call == "solve":
        glb, gub = out.glb, out.gub
        if not glb <= gub:
            return f"glb {glb!r} > gub {gub!r}"
        if inst.kind == "exact":
            if out.status != "exact":
                return f"status {out.status}"
            if abs(glb - ref) > EXACT_RTOL * ref or abs(gub - ref) > EXACT_RTOL * ref:
                return f"[{glb!r}, {gub!r}] vs reference {ref!r}"
            return None
        if inst.kind == "probe_spectral":
            sigma = float(np.linalg.norm(inst.net.layers[0][0], 2))
            if out.status != "exact" or abs(gub - sigma) > LAPACK_RTOL * sigma:
                return f"{out.status} gub {gub!r} vs ||W||_2 {sigma!r}"
            return None
        if inst.kind == "probe_scale":
            target = inst.opts["c"] * ref
            if glb > target * (1 + SCALE_RTOL) or gub < target * (1 - SCALE_RTOL):
                return f"[{glb!r}, {gub!r}] misses c*L = {target!r}"
            return None
        if gub < op.own_max * (1 - BOUND_RTOL):
            return f"gub {gub!r} below own sample norm {op.own_max!r}"
        if inst.kind == "theta":
            if out.status not in ("approx_reached", "exact"):
                return f"status {out.status}"
            if gub > inst.opts["theta"] * glb * (1 + BOUND_RTOL):
                return f"gub/glb = {gub / glb!r} above theta"
            if ref is not None and (glb > ref * (1 + BOUND_RTOL)
                                    or gub < ref * (1 - BOUND_RTOL)):
                return f"[{glb!r}, {gub!r}] misses reference {ref!r}"
            return None
        if inst.kind == "budget":
            if out.status not in ("iteration_limit", "exact") or not glb > 0:
                return f"status {out.status}, glb {glb!r}"
            return None
        raise ValueError(inst.kind)
    value = float(out)
    if op.call == "symprop_bound" or op.call == "layerwise_bound":
        if value < op.own_max * (1 - BOUND_RTOL):
            return f"{op.call} {value!r} below own sample norm {op.own_max!r}"
        return None
    # sampled_lower_bound: under every upper bound of the same instance
    uppers = bounds_of.get(inst.name, [])
    if not uppers or value <= 0 or value > min(uppers) * (1 + BOUND_RTOL):
        return f"sampled bound {value!r} against upper bounds {uppers!r}"
    return None


# -- the measured loop ---------------------------------------------------------

def run_round(ops, refs, tracer):
    """Run every operation once; returns (failures, unexpected, layer metrics)."""
    if tracer is not None:
        tracer.reset()
    results = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.fn()
            err = None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        op.walls.append(time.perf_counter() - t0)
        op.outputs.append(None if out is None else _signature(out))
        results.append((op, out, err))
    layer = tracer.metrics() if tracer is not None else None
    bounds_of = {}
    for op, out, err in results:
        if err is None and op.call in ("symprop_bound", "layerwise_bound"):
            bounds_of.setdefault(op.inst.name, []).append(float(out))
    failures, unexpected = 0, []
    for op, out, err in results:
        why = err if err is not None else check(op, out, refs, bounds_of)
        if why is not None:
            failures += 1
            if not op.probe:
                unexpected.append(f"{op.name}: {why}")
    return failures, unexpected, layer


def _signature(out):
    """The deterministic part of an output, compared between rounds."""
    if isinstance(out, float):
        return (out,)
    return (out.status, out.glb, out.gub, out.iterations, out.subproblems_created)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(ops, setup_s):
    med = {op.name: statistics.median(op.walls) for op in ops}
    first = {op.name: op.outputs[0] for op in ops}

    def total(kind, call="solve"):
        return sum(med[op.name] for op in ops if op.inst.kind == kind and op.call == call)

    budget = [op for op in ops if op.inst.kind == "budget"]
    iters = sum(first[op.name][3] for op in budget)
    gaps = [first[op.name][2] / first[op.name][1] for op in budget]
    upper = {op.inst.name: first[op.name][0] for op in ops if op.call == "symprop_bound"}
    lower = {op.inst.name: first[op.name][0] for op in ops if op.call == "sampled_lower_bound"}
    return {
        "setup_s": (setup_s, "s"),
        "exact_wall_s": (total("exact"), "s"),
        "theta_wall_s": (total("theta"), "s"),
        "iters_per_s": (iters / total("budget"), "1/s"),
        "gap_at_budget": (geomean(gaps), "ratio"),
        "bounds_wall_s": (total("bounds", "symprop_bound"), "s"),
        "sample_wall_s": (total("bounds", "sampled_lower_bound"), "s"),
        "bound_gap": (geomean([upper[k] / lower[k] for k in upper]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(args) -> int:
    import instances as ins  # noqa: F401  (fails early outside a checkout)

    refs = references(args.workload, args.seed)
    ops = build(args.workload, args.seed)
    own_sample_norms(ops, args.seed)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        for op in ops:
            tracer.register(op.net)
        tracer.install()
    rounds, setups = [], []
    t_start = time.perf_counter()
    try:
        # whole rounds only: stop when the next one would end past --seconds.
        # One set-up probe precedes each round, so that set-up is sampled over
        # the whole run like every operation.
        while True:
            setups.append(measure_setup(args.workload, args.seed))
            rounds.append(run_round(ops, refs, tracer))
            elapsed = time.perf_counter() - t_start
            if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(args.workload, args.seed))
    unexpected = [u for _, un, _ in rounds for u in un]
    nondeterministic = [op.name for op in ops if len(set(op.outputs)) != 1]
    if tracer is not None:
        lp_counts = {r[2]["simplex.lp_calls"][0] for r in rounds}
        if len(lp_counts) != 1:
            nondeterministic.append(f"LP calls per round {sorted(lp_counts)}")
    for msg in unexpected[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name in nondeterministic:
        print(f"NONDETERMINISTIC {name}", file=sys.stderr)
    if args.trace:
        names = rounds[0][2].keys()
        metrics = {k: (statistics.median(r[2][k][0] for r in rounds), rounds[0][2][k][1])
                   for k in names}
    else:
        metrics = end_to_end(ops, statistics.median(setups))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    round_wall = statistics.median(sum(op.walls[k] for op in ops) for k in range(len(rounds)))
    print(f"rounds {len(rounds)}, operations per round {len(ops)}, "
          f"failed per round {rounds[0][0]}, round wall {round_wall:.3f} s")
    result = {
        "correct": not unexpected and not nondeterministic,
        "attempted": len(ops) * len(rounds),
        "failed": sum(r[0] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """(result object, median round wall) of one workload run in its own process."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), float(lines[-2].split("round wall ")[1].split()[0])


def run_all(args) -> int:
    """Every workload in its own process, one after the other.

    With --record, each workload runs untraced and then traced, and the file
    gets both results, the median round walls and the tracing overhead.
    """
    modes = (0, 1) if args.record else (args.trace,)
    summary = {m: {} for m in modes}
    walls = {m: {} for m in modes}
    for w in WORKLOADS:
        for m in modes:
            summary[m][w], walls[m][w] = run_child(w, args.seed, args.seconds, m)
            res = summary[m][w]
            print(f"== {w} (trace {m}): attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}, round wall {walls[m][w]:.3f} s")
            for name, v in res["metrics"].items():
                print(f"   {name:28s} {v['value']:14.6g} {v['unit']}")
    if args.record:
        import numpy as np

        record = {
            "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                        "python": platform.python_version(), "platform": platform.platform()},
            "seed": args.seed, "seconds": args.seconds,
            "end_to_end": summary[0], "per_layer": summary[1],
            "round_wall_s": {"untraced": walls[0], "traced": walls[1]},
            "tracing_overhead": {w: walls[1][w] / walls[0][w] - 1 for w in WORKLOADS},
        }
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(summary[modes[-1]]))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="with --workload all: run untraced and traced, and "
                    "write both results to this file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lipcert", "__init__.py")):
        return _fail(f"no lipcert package under {SRC}; run from a checkout of the repository")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        try:
            return run_all(args)
        except RuntimeError as err:
            return _fail(str(err))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

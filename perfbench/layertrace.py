"""Outside-in tracing: wrap `lipcert`'s public functions at module boundaries.

No file of the package changes. Each wrapped function is rebound in every
module that holds a reference to it, because `from .x import f` copies the
binding: `analyze_activation_layer` is looked up in `lipcert.bnb` by `ffilter`
and in `lipcert.symprop` by the symbolic pass, `stack` in `lipcert.bnb` by
`branch`, and so on. Modules come from `sys.modules`, since
`import lipcert.symprop as m` yields the re-exported *function* `symprop`.

For every wrapped function the tracer keeps the call count, the total time
and the self time, which is the total minus the time spent in wrapped callees.
A few wrappers also read arguments or results: LP sizes, infeasible regions,
stars per layer, branch fan-out and the solver's own counters.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (qualified name, defining module, attribute, modules that import it by name)
_TARGETS = [
    ("simplex.solve_lp", "lipcert.simplex", "solve_lp", ["lipcert.bnb"]),
    ("simplex.feasible_point", "lipcert.simplex", "feasible_point", []),
    ("polyhedra.stack", "lipcert.polyhedra", "stack",
     ["lipcert.bnb", "lipcert.symprop", "lipcert"]),
    ("polyhedra.affine_preimage", "lipcert.polyhedra", "affine_preimage",
     ["lipcert.bnb", "lipcert.symprop", "lipcert"]),
    ("polyhedra.feasible_point", "lipcert.polyhedra", "feasible_point", []),
    ("polyhedra.is_feasible", "lipcert.polyhedra", "is_feasible",
     ["lipcert.bnb", "lipcert.symprop", "lipcert.baselines", "lipcert"]),
    ("polyhedra.linear_bounds", "lipcert.polyhedra", "linear_bounds",
     ["lipcert.symprop", "lipcert"]),
    ("polyhedra.support_value", "lipcert.polyhedra", "support_value", ["lipcert.symprop"]),
    ("polyhedra.coordinate_bounds", "lipcert.polyhedra", "coordinate_bounds",
     ["lipcert.baselines", "lipcert"]),
    ("symprop.analyze", "lipcert.symprop", "analyze_activation_layer",
     ["lipcert.bnb", "lipcert"]),
    ("symprop.symprop", "lipcert.symprop", "symprop", ["lipcert.bnb", "lipcert"]),
    ("intervals.interval_matmul", "lipcert.intervals", "interval_matmul",
     ["lipcert.bnb", "lipcert"]),
    ("intervals.hull", "lipcert.intervals", "hull", ["lipcert.bnb", "lipcert"]),
    ("intervals.exact", "lipcert.intervals", "exact", ["lipcert.bnb", "lipcert"]),
    ("intervals.abs_upper_envelope", "lipcert.intervals", "abs_upper_envelope",
     ["lipcert.bnb", "lipcert"]),
    ("norms.induced_norm", "lipcert.norms", "induced_norm",
     ["lipcert.bnb", "lipcert.baselines", "lipcert"]),
    ("bnb.branch", "lipcert.bnb", "branch", ["lipcert"]),
    ("bnb.ffilter", "lipcert.bnb", "ffilter", ["lipcert"]),
    ("bnb.upper_bound", "lipcert.bnb", "upper_bound", ["lipcert.baselines", "lipcert"]),
    ("bnb.solve", "lipcert.bnb", "solve", ["lipcert"]),
    ("baselines.symprop_bound", "lipcert.baselines", "symprop_bound", ["lipcert"]),
    ("baselines.sampled_lower_bound", "lipcert.baselines", "sampled_lower_bound", ["lipcert"]),
    ("baselines.layerwise_bound", "lipcert.baselines", "layerwise_bound", ["lipcert"]),
]

MAX_LAYERS = 4  # network layers reported one by one (layer1 .. layer4)


class Tracer:
    def __init__(self):
        self._saved = []
        self._layer_of = {}
        self._stack = []  # [name, time spent in wrapped callees] per active call
        self._layers = []  # network layer of each active analyze call
        self.reset()

    def reset(self):
        """Zero every counter; also drops frames left by a call that raised."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)
        self._stack.clear()
        self._layers.clear()
        self._branch_depth = 0

    def register(self, net) -> None:
        """Map each activation object of `net` to its 1-based layer number."""
        for k, act in enumerate(net.activations, start=1):
            self._layer_of[id(act)] = k

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import lipcert  # noqa: F401  (loads every submodule)

        for name, home, attr, importers in _TARGETS:
            fn = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, fn)
            for mod in [home] + importers:
                module = sys.modules[mod]
                if getattr(module, attr) is not fn:
                    raise RuntimeError(f"{mod}.{attr} is not {home}.{attr}")
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrapped)
        cls = sys.modules["lipcert.network"].Network
        fn = cls.jacobian_at
        self._saved.append((cls, "jacobian_at", fn))
        cls.jacobian_at = self._wrap("network.jacobian_at", fn)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack

        def wrapper(*args, **kwargs):
            note = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result, dt, note)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- argument and result readers -----------------------------------------

    def _before_simplex_solve_lp(self, args):
        rows, cols = args[0].shape
        self.count["lp_rows"] += rows
        self.count["lp_cols"] += cols
        self._count_lp()

    def _before_simplex_feasible_point(self, args):
        self._count_lp()

    def _count_lp(self):
        # both kinds of simplex call count as LPs of the branch and the layer
        if self._branch_depth:
            self.count["lp_in_branch"] += 1
        if self._layers and self._layers[-1]:
            self.count[f"layer{self._layers[-1]}.lp_calls"] += 1

    def _after_polyhedra_is_feasible(self, args, result, dt, note):
        if not result:
            self.count["infeasible"] += 1

    def _before_symprop_analyze(self, args):
        layer = self._layer_of.get(id(args[0]), 0)
        self._layers.append(layer)
        return layer

    def _after_symprop_analyze(self, args, result, dt, layer):
        self._layers.pop()
        self.count["neurons_analysed"] += args[0].out_width
        self.count["stars_out"] += len(result.stars)
        if layer:
            self.count[f"layer{layer}.analyze_s"] += dt
            self.count[f"layer{layer}.stars_out"] += len(result.stars)

    def _before_bnb_branch(self, args):
        self._branch_depth += 1

    def _after_bnb_branch(self, args, result, dt, note):
        self._branch_depth -= 1
        self.count["children"] += len(result[0])

    def _before_bnb_ffilter(self, args):
        sub = args[0]
        return sub.first_star_layer, sub.stars

    def _after_bnb_ffilter(self, args, result, dt, note):
        first, parent_stars = note
        net = args[1]
        last = min(result.first_star_layer, net.depth)
        for l in range(first, last + 1):
            self.count["refilter_neurons"] += net.activations[l - 1].out_width
            self.count["refilter_useful"] += len(parent_stars[l - 1])

    def _after_bnb_solve(self, args, result, dt, note):
        self.count["iterations"] += result.iterations
        self.count["subproblems_created"] += result.subproblems_created
        self.count["fathomed_bounds"] += result.fathomed_bounds
        self.count["fathomed_optimality"] += result.fathomed_optimality
        self.count["peak_heap"] = max(self.count["peak_heap"], result.peak_heap_size)

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict:
        c, s, t, n = self.calls, self.self_time, self.total, self.count

        def ratio(a, b):
            return a / b if b else 0.0

        lp = c["simplex.solve_lp"]
        out = {
            "simplex.lp_calls": (lp, "count"),
            "simplex.lp_self_s": (s["simplex.solve_lp"], "s"),
            "simplex.feasible_calls": (c["simplex.feasible_point"], "count"),
            "simplex.feasible_self_s": (s["simplex.feasible_point"], "s"),
            "simplex.lps_per_iter": (ratio(n["lp_in_branch"], c["bnb.branch"]), "count/iter"),
            "simplex.lp_rows_mean": (ratio(n["lp_rows"], lp), "rows"),
            "simplex.lp_cols_mean": (ratio(n["lp_cols"], lp), "cols"),
            "polyhedra.build_calls": (c["polyhedra.stack"] + c["polyhedra.affine_preimage"],
                                      "count"),
            "polyhedra.build_self_s": (s["polyhedra.stack"] + s["polyhedra.affine_preimage"],
                                       "s"),
            "polyhedra.query_self_s": (sum(s[k] for k in (
                "polyhedra.feasible_point", "polyhedra.is_feasible", "polyhedra.linear_bounds",
                "polyhedra.support_value", "polyhedra.coordinate_bounds")), "s"),
            "polyhedra.infeasible_ratio": (ratio(n["infeasible"], c["polyhedra.is_feasible"]),
                                           "ratio"),
            "symprop.analyze_calls": (c["symprop.analyze"], "count"),
            "symprop.neurons_analysed": (n["neurons_analysed"], "count"),
            "symprop.stars_out": (n["stars_out"], "count"),
            "symprop.self_s": (s["symprop.analyze"] + s["symprop.symprop"], "s"),
            "symprop.root_s": (t["symprop.symprop"], "s"),
            "symprop.useful_ratio": (ratio(n["refilter_useful"], n["refilter_neurons"]), "ratio"),
            "intervals.matmul_calls": (c["intervals.interval_matmul"], "count"),
            "intervals.self_s": (sum(s[k] for k in (
                "intervals.interval_matmul", "intervals.hull", "intervals.exact",
                "intervals.abs_upper_envelope")), "s"),
            "norms.calls": (c["norms.induced_norm"], "count"),
            "norms.self_s": (s["norms.induced_norm"], "s"),
            "network.jacobian_calls": (c["network.jacobian_at"], "count"),
            "network.jacobian_self_s": (s["network.jacobian_at"], "s"),
            "bnb.iterations": (n["iterations"], "count"),
            "bnb.subproblems_created": (n["subproblems_created"], "count"),
            "bnb.children_per_branch": (ratio(n["children"], c["bnb.branch"]), "count"),
            "bnb.branch_self_s": (s["bnb.branch"], "s"),
            "bnb.upper_bound_self_s": (s["bnb.upper_bound"], "s"),
            "bnb.loop_self_s": (s["bnb.solve"], "s"),
            "bnb.fathomed_bounds": (n["fathomed_bounds"], "count"),
            "bnb.fathomed_optimality": (n["fathomed_optimality"], "count"),
            "bnb.peak_heap": (n["peak_heap"], "count"),
        }
        for k in range(1, MAX_LAYERS + 1):
            out[f"layer{k}.lp_calls"] = (n[f"layer{k}.lp_calls"], "count")
            out[f"layer{k}.analyze_s"] = (n[f"layer{k}.analyze_s"], "s")
            out[f"layer{k}.stars_out"] = (n[f"layer{k}.stars_out"], "count")
        return out

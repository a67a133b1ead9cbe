"""Command-line interface: `lipcert compute | bounds | oracle`.

Every subcommand loads a model JSON file, builds the input region from
--global / --box / --region, and prints one JSON report to stdout. Exit
codes: 0 success (status exact or approx_reached), 2 a resource limit fired,
1 runtime errors (unsupported norm, empty region, LP failure), 64 bad usage,
65 unreadable model/region files, 3 oracle guardrail.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .baselines import (
    DEFAULT_SAMPLE_BOX,
    layerwise_bound,
    sampled_lower_bound,
    symprop_bound,
)
from .bnb import SolverConfig, brute_force_oracle, solve
from .exceptions import (
    GuardrailExceededError,
    LipcertError,
    ModelFormatError,
    UnsupportedNormError,
)
from .network import load_model
from .norms import NormPair
from .polyhedra import Polyhedron, load_region

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LIMIT = 2
EXIT_GUARDRAIL = 3
EXIT_USAGE = 64
EXIT_DATA = 65

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _pair_of_floats(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if not lo < hi:
        raise argparse.ArgumentTypeError("box needs LO < HI")
    return lo, hi


def _finite_box(text: str):
    lo, hi = _pair_of_floats(text)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("box sides must be finite; --global is the whole space")
    return lo, hi


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(parser, with_samples=False, with_solver=False):
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--norm", default="2", metavar="P[:Q]",
                        help="norm orders, e.g. 2, inf, 1:inf (default 2)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--global", dest="global_region", action="store_true",
                       help="whole input space")
    group.add_argument("--box", type=_finite_box, metavar="LO,HI",
                       help="hypercube [LO, HI]^d")
    group.add_argument("--region", metavar="PATH", help="region JSON file")
    if with_samples:
        parser.add_argument("--samples", type=int, default=0,
                            help="Jacobian samples for the lower bound (default 0)")
        parser.add_argument("--seed", type=int, default=0,
                            help="sampling seed (default 0)")
    if with_solver:
        parser.add_argument("--theta", type=_finite_float, default=1.0,
                            help="early-stop ratio gub/glb (default 1 = exact)")
        parser.add_argument("--time-limit", type=_finite_float, default=None,
                            help="wall-clock budget in seconds (default: none)")
        parser.add_argument("--max-iterations", type=int, default=None,
                            help="branching budget")


def _load(args):
    """(net, pair, region, config echo) for the model, norm and region flags."""
    net = load_model(args.model)
    pair = NormPair.parse(args.norm)
    d = net.input_dim
    if args.global_region:
        region, echo = Polyhedron.universe(d), {"global": True}
    elif args.box is not None:
        lo, hi = args.box
        region, echo = Polyhedron.from_box([lo] * d, [hi] * d), {"box": list(args.box)}
    else:
        region, echo = load_region(args.region), {"path": args.region}
        if region.dim != d:
            raise ModelFormatError(
                f"region dimension {region.dim} does not match model input {d}"
            )
    return net, pair, region, {"model": args.model, "norm": str(pair), "region": echo}


def _print_report(report):
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _cmd_compute(args) -> int:
    net, pair, region, config = _load(args)
    cfg = SolverConfig(
        norm=pair,
        theta=args.theta,
        time_limit=args.time_limit,
        sample_count=args.samples,
        seed=args.seed,
        max_iterations=args.max_iterations,
    )
    result = solve(net, region, cfg)
    report = {
        "schema": SCHEMA_VERSION,
        "glb": result.glb,
        "gub": result.gub,
        "status": result.status,
        "iterations": result.iterations,
        "subproblems_created": result.subproblems_created,
        "fathomed_bounds": result.fathomed_bounds,
        "fathomed_optimality": result.fathomed_optimality,
        "peak_heap_size": result.peak_heap_size,
        "wall_time_s": result.wall_time,
        "config": {
            **config,
            "theta": args.theta,
            "time_limit": args.time_limit,
            "samples": args.samples,
            "seed": args.seed,
            "max_iterations": args.max_iterations,
        },
    }
    _print_report(report)
    return EXIT_OK if result.status in ("exact", "approx_reached") else EXIT_LIMIT


def _cmd_bounds(args) -> int:
    net, pair, region, config = _load(args)
    report = {"schema": SCHEMA_VERSION,
              "config": {**config, "samples": args.samples, "seed": args.seed}}
    t = time.perf_counter()
    try:
        report["layerwise"], report["layerwise_reason"] = layerwise_bound(net, pair), None
    except UnsupportedNormError as err:  # the layerwise bound needs p == q
        report["layerwise"], report["layerwise_reason"] = None, str(err)
    report["layerwise_wall_time_s"] = time.perf_counter() - t
    t = time.perf_counter()
    report["symprop"] = symprop_bound(net, region, pair)
    report["symprop_wall_time_s"] = time.perf_counter() - t
    t = time.perf_counter()
    report["sampled_lower"] = sampled_lower_bound(
        net, region, pair, args.samples, args.seed, default_box=args.sample_box)
    report["sampled_lower_wall_time_s"] = time.perf_counter() - t
    _print_report(report)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    net, pair, region, config = _load(args)
    t = time.perf_counter()
    value = brute_force_oracle(net, region, pair)
    report = {
        "schema": SCHEMA_VERSION,
        "exact": value,
        "wall_time_s": time.perf_counter() - t,
        "config": config,
    }
    _print_report(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lipcert",
                     description="Lipschitz constants of piecewise-linear networks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_compute = sub.add_parser("compute", help="branch-and-bound solve")
    _add_common(p_compute, with_samples=True, with_solver=True)
    p_compute.set_defaults(handler=_cmd_compute)
    p_bounds = sub.add_parser("bounds", help="cheap bounds without branching")
    _add_common(p_bounds, with_samples=True)
    p_bounds.add_argument("--sample-box", type=_pair_of_floats, metavar="LO,HI",
                          default=DEFAULT_SAMPLE_BOX,
                          help="fallback box for unbounded coordinates "
                               f"(default {DEFAULT_SAMPLE_BOX[0]:g},{DEFAULT_SAMPLE_BOX[1]:g})")
    p_bounds.set_defaults(handler=_cmd_bounds)
    p_oracle = sub.add_parser("oracle", help="brute-force piece enumeration")
    _add_common(p_oracle)
    p_oracle.set_defaults(handler=_cmd_oracle)
    return parser


_PAIR_FLAGS = ("--box", "--sample-box")


def _merge_pair_flags(argv):
    # argparse mistakes "-1,1" for a flag; fold it into "--box=-1,1"
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _PAIR_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_pair_flags(list(argv)))
    try:
        return args.handler(args)
    except (ModelFormatError, FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"lipcert: {err}", file=sys.stderr)
        return EXIT_DATA
    except GuardrailExceededError as err:
        print(f"lipcert: {err}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except (LipcertError, ValueError) as err:
        print(f"lipcert: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

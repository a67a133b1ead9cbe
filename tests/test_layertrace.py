"""The benchmark's per-layer tracer still finds every function it rebinds."""
import importlib.util
import json
import pathlib

import lipcert as lc
from lipcert import bnb

from conftest import make_abs_net, unit_box

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_and_reports_every_per_layer_metric():
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) == 44
    solve_before = bnb.solve
    tracer = load_layertrace().Tracer()
    net = make_abs_net()
    tracer.register(net)
    tracer.install()
    try:
        res = lc.solve(net, unit_box(1))
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert res.status == "exact"
    assert sorted(metrics) == sorted(names)
    assert metrics["bnb.iterations"][0] == res.iterations
    assert bnb.solve is solve_before

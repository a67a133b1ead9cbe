import json
import subprocess
import sys

import numpy as np
import pytest

import lipcert as lc
from lipcert.cli import main

from conftest import ABS_MODEL, src_env, write_json


@pytest.fixture()
def abs_model(tmp_path):
    return write_json(tmp_path / "abs.json", ABS_MODEL)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_abs_global(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model, "--global"])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["status"] == "exact"
    assert report["glb"] == pytest.approx(1.0, abs=1e-9)
    assert report["gub"] == pytest.approx(1.0, abs=1e-9)
    assert report["config"]["norm"] == "2"
    assert report["config"]["region"] == {"global": True}


def test_compute_box_form(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model,
                                    "--box", "-1,1", "--norm", "inf"])
    assert code == 0
    report = json.loads(out)
    assert report["glb"] == pytest.approx(1.0, abs=1e-9)
    assert report["config"]["norm"] == "inf"


def test_compute_region_file(abs_model, tmp_path, capsys):
    region = write_json(tmp_path / "r.json", {"box": {"lower": [1.0], "upper": [2.0]}})
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model,
                                    "--region", region])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "exact"
    assert report["iterations"] == 0


def test_compute_report_roundtrips_solver_floats(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model, "--global",
                                    "--samples", "50", "--seed", "3"])
    assert code == 0
    report = json.loads(out)
    cfg = lc.SolverConfig(norm=lc.NormPair(2, 2), sample_count=50, seed=3)
    res = lc.solve(lc.network_from_json(ABS_MODEL), lc.Polyhedron.universe(1), cfg)
    # parsed JSON floats match the solver exactly
    assert report["glb"] == res.glb
    assert report["gub"] == res.gub
    assert report["status"] == res.status
    assert report["iterations"] == res.iterations


def test_compute_time_limit_zero(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model, "--global",
                                    "--time-limit", "0"])
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "time_limit"
    assert report["glb"] == 0.0
    assert report["gub"] == pytest.approx(1.0, abs=1e-9)
    assert report["iterations"] == 0


def test_compute_iteration_limit(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model, "--global",
                                    "--max-iterations", "0"])
    assert code == 2
    assert json.loads(out)["status"] == "iteration_limit"


def test_compute_deterministic_reports(abs_model, capsys):
    argv = ["compute", "--model", abs_model, "--box", "-1,1",
            "--samples", "100", "--seed", "4", "--theta", "1.0"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    strip = lambda s: "\n".join(l for l in s.splitlines() if "wall_time" not in l)
    assert strip(out1) == strip(out2)


def test_bounds_abs(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--model", abs_model, "--global",
                                    "--samples", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["layerwise"] == pytest.approx(2.0, abs=1e-9)
    assert report["symprop"] == pytest.approx(1.0, abs=1e-9)
    assert report["sampled_lower"] == pytest.approx(1.0, abs=1e-9)


def test_bounds_mixed_norm_layerwise_absent(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--model", abs_model, "--global",
                                    "--norm", "1:inf"])
    assert code == 0
    report = json.loads(out)
    assert report["layerwise"] is None
    assert "p == q" in report["layerwise_reason"]
    assert report["symprop"] == pytest.approx(1.0, abs=1e-9)


def test_oracle_abs(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--model", abs_model, "--box", "-1,1"])
    assert code == 0
    report = json.loads(out)
    assert report["exact"] == pytest.approx(1.0, abs=1e-9)


def test_oracle_guardrail_exit_code(tmp_path, capsys):
    model = write_json(tmp_path / "wide.json", {"layers": [
        {"type": "affine", "W": [[1.0]] * 30},
        {"type": "relu"},
        {"type": "affine", "W": [[1.0] * 30]},
    ]})
    code, out, err = run_cli(capsys, ["oracle", "--model", model, "--global"])
    assert code == 3
    assert out == ""
    assert "combination" in err


def test_unsupported_norm_exit_code(abs_model, capsys):
    code, out, err = run_cli(capsys, ["compute", "--model", abs_model, "--global",
                                      "--norm", "inf:1"])
    assert code == 1
    assert "norm" in err


def test_missing_model_exit_code(capsys):
    code, _, err = run_cli(capsys, ["compute", "--model", "/nope/missing.json",
                                    "--global"])
    assert code == 65
    assert err


def test_malformed_model_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    code, _, _ = run_cli(capsys, ["compute", "--model", str(p), "--global"])
    assert code == 65


def test_non_utf8_model_exits_65(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(ABS_MODEL).encode("utf-16-le"))
    code, out, err = run_cli(capsys, ["compute", "--model", str(p), "--global"])
    assert code == 65
    assert out == ""
    assert "model file" in err


def test_non_utf8_region_exits_65(abs_model, tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + json.dumps({"global": 1}).encode("utf-16-le"))
    code, out, err = run_cli(capsys, ["compute", "--model", abs_model, "--region", str(p)])
    assert code == 65
    assert out == ""
    assert "region file" in err


@pytest.mark.parametrize("command", ["compute", "bounds", "oracle"])
def test_weight_matrix_without_entries_exits_65_naming_the_layer(tmp_path, capsys, command):
    model = write_json(tmp_path / "empty.json", {"layers": [{"type": "affine", "W": [[]]}]})
    code, out, err = run_cli(capsys, [command, "--model", model, "--global"])
    assert code == 65
    assert out == ""
    assert err.startswith("lipcert: layer 1: ")


def test_region_dimension_mismatch_exit_code(abs_model, tmp_path, capsys):
    region = write_json(tmp_path / "r2.json",
                        {"box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}})
    code, _, err = run_cli(capsys, ["compute", "--model", abs_model,
                                    "--region", region])
    assert code == 65
    assert "dimension" in err


def test_malformed_region_exit_code(abs_model, tmp_path, capsys):
    region = write_json(tmp_path / "bad.json", {"global": True})
    code, _, err = run_cli(capsys, ["compute", "--model", abs_model, "--region", region])
    assert code == 65
    assert "'global' must be an integer" in err


@pytest.mark.parametrize("data", [
    {"box": {"lower": [float("inf"), 0.0], "upper": [float("inf"), 1.0]}},
    {"box": {"lower": [float("-inf"), 0.0], "upper": [float("-inf"), 1.0]}},
    {"dim": 2, "C": [[1.0, 0.0]], "c": [float("inf")]},
])
def test_region_that_builds_no_polyhedron_exits_65(tmp_path, capsys, data):
    # each passes the file's number checks, then Polyhedron refuses it
    model = write_json(tmp_path / "m.json", {"layers": [
        {"type": "affine", "W": [[1.0, -1.0]]}, {"type": "relu"}]})
    region = write_json(tmp_path / "r.json", data)
    code, out, err = run_cli(capsys, ["compute", "--model", model, "--region", region])
    assert code == 65
    assert out == ""
    assert "region" in err


def test_usage_errors_exit_64(abs_model, capsys):
    # missing region flag
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", abs_model])
    assert exc.value.code == 64
    # malformed box
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", abs_model, "--box", "1"])
    assert exc.value.code == 64
    # box with LO >= HI
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", abs_model, "--box", "2,1"])
    assert exc.value.code == 64
    # unknown subcommand
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--model", abs_model])
    assert exc.value.code == 64
    # --sample-box is a bounds flag: compute has no use for it
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", abs_model, "--global", "--samples", "5",
              "--sample-box=0,1"])
    assert exc.value.code == 64
    # non-finite numbers would print a report that is not JSON
    for flags in (["--box=-inf,inf"], ["--global", "--theta", "inf"],
                  ["--global", "--time-limit", "inf"], ["--global", "--theta", "nan"]):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--model", abs_model, *flags])
        assert exc.value.code == 64
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_compute_report_is_strict_json(abs_model, capsys):
    code, out, _ = run_cli(capsys, ["compute", "--model", abs_model, "--global",
                                    "--samples", "5", "--time-limit", "10"])
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["status"] == "exact"
    assert report["config"]["time_limit"] == 10.0


@pytest.mark.parametrize("layer", [
    {"type": ["relu"]},
    {"type": {"k": 1}},
    {"type": "leaky_relu", "slope": None},
    {"type": "leaky_relu", "slope": [0.1]},
    {"type": "leaky_relu", "slope": {"k": 1}},
    {"type": "leaky_relu", "slope": "0.1"},
])
def test_malformed_layer_exits_65_naming_the_layer(tmp_path, layer):
    model = write_json(tmp_path / "bad.json", {"layers": [
        {"type": "affine", "W": [[1.0], [-1.0]]}, layer]})
    proc = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "compute", "--model", model, "--global"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("lipcert: layer 2")


@pytest.mark.parametrize("command", ["compute", "bounds"])
def test_negative_seed_exits_1_naming_the_seed(abs_model, capsys, command):
    code, out, err = run_cli(capsys, [command, "--model", abs_model, "--box", "-1,1",
                                      "--samples", "5", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert "seed" in err


def test_infeasible_region_exit_code(abs_model, tmp_path, capsys):
    region = write_json(tmp_path / "empty.json",
                        {"dim": 1, "C": [[1.0], [-1.0]], "c": [-1.0, -1.0]})
    code, _, err = run_cli(capsys, ["compute", "--model", abs_model,
                                    "--region", region])
    assert code == 1
    assert "empty" in err


def test_compute_matches_oracle_on_random_net(tmp_path, capsys):
    rng = np.random.default_rng(35)
    W1 = rng.normal(size=(3, 2)).tolist()
    W2 = rng.normal(size=(2, 3)).tolist()
    model = write_json(tmp_path / "rand.json", {"layers": [
        {"type": "affine", "W": W1},
        {"type": "relu"},
        {"type": "affine", "W": W2, "b": [0.1, -0.2]},
        {"type": "maxmin"},
        {"type": "affine", "W": [[1.0, 0.5]]},
    ]})
    code, out, _ = run_cli(capsys, ["compute", "--model", model, "--box", "-1,1"])
    assert code == 0
    glb = json.loads(out)["glb"]
    code, out, _ = run_cli(capsys, ["oracle", "--model", model, "--box", "-1,1"])
    assert code == 0
    assert glb == pytest.approx(json.loads(out)["exact"], rel=1e-6, abs=1e-9)


def test_module_entrypoint_subprocess(abs_model):
    proc = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "compute", "--model", abs_model,
         "--global"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "exact"


@pytest.mark.parametrize("flags", [["--global", "--sample-box=-inf,inf"], ["--box=-1e308,1e308"]])
def test_bounds_non_finite_sampling_box_exits_with_a_message(abs_model, flags):
    # an infinite fallback box, or a box whose width overflows, cannot be
    # sampled uniformly: the CLI says so instead of printing a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "bounds", "--model", abs_model, *flags,
         "--samples", "10"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("lipcert: ")


def test_bounds_on_sides_near_the_float_range_warns_nothing(tmp_path):
    # no sampling, so the box is only bounded: stderr stays empty
    model = write_json(tmp_path / "wide.json", {"layers": [
        {"type": "affine", "W": [[2.0], [-3.0]]},
        {"type": "relu"},
        {"type": "affine", "W": [[1.0, 1.0]]},
    ]})
    proc = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "bounds", "--model", model, "--box=-1e308,1e308"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert np.isfinite(json.loads(proc.stdout)["symprop"])


def test_compute_on_sides_near_the_float_range_exits_with_a_message(tmp_path):
    # the simplex LPs of the grandchild regions (two cuts each) overflow: the
    # solve refuses to answer, and no numpy warning reaches stderr
    model = write_json(tmp_path / "wide.json", {"layers": [
        {"type": "affine", "W": [[1.0, 2.0], [3.0, -1.0]]},
        {"type": "relu"},
        {"type": "affine", "W": [[1.0, -2.0], [2.0, 1.0]]},
        {"type": "relu"},
        {"type": "affine", "W": [[1.0, 1.0]]},
    ]})
    proc = subprocess.run(
        [sys.executable, "-m", "lipcert.cli", "compute", "--model", model, "--box=-1e308,1e308"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("lipcert: simplex tableau overflowed")

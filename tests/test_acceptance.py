"""End-to-end acceptance checks, one test per release criterion.

Each test records a PASS/FAIL verdict that conftest prints after the run.
Tolerances are part of the contract and are asserted exactly as stated in
each test.
"""
import json
import math
import time

import numpy as np
import pytest

import lipcert as lc
from lipcert import NormPair, Polyhedron, SolverConfig
from lipcert.cli import main as cli_main

import conftest
from conftest import (
    ABS_MODEL,
    make_abs_net,
    random_net,
    sample_in_region,
    unit_box,
    write_json,
)

PAIRS = [NormPair(1, 1), NormPair(2, 2), NormPair(np.inf, np.inf)]

_NAMES = {
    1: "solver matches brute-force oracle",
    2: "absolute-value network beats the layerwise bound",
    3: "anytime bounds are monotone and theta-bounded",
    4: "nested regions give nested constants",
    5: "interval products contain sampled realizations",
    6: "subproblem upper bounds dominate in-region Jacobians",
    7: "groupsort piece structure",
    8: "lower-bound seeding shrinks the frontier",
    9: "CLI reports are deterministic and round-trip",
}
for _n, _name in _NAMES.items():
    conftest.ACCEPTANCE_RESULTS.setdefault(_n, (_name, False))


def _verdict(num, ok, detail=""):
    conftest.ACCEPTANCE_RESULTS[num] = (_NAMES[num], bool(ok))
    assert ok, f"criterion {num} ({_NAMES[num]}): {detail}"


def test_criterion_1_oracle_agreement():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    failures = []
    for i in range(50):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        for pair in PAIRS:
            want = lc.brute_force_oracle(net, omega, pair)
            res = lc.solve(net, omega, SolverConfig(norm=pair))
            rel = abs(res.glb - want) / max(1.0, abs(want))
            if res.status != "exact" or rel > 1e-6:
                failures.append((i, str(pair), want, res.glb, res.status))
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(("elapsed", elapsed))
    _verdict(1, not failures, f"{failures} in {elapsed:.1f}s")


def test_criterion_2_abs_network():
    t0 = time.perf_counter()
    net = make_abs_net()
    res = lc.solve(net, Polyhedron.universe(1))
    layerwise = lc.layerwise_bound(net, NormPair(2, 2))
    elapsed = time.perf_counter() - t0
    ok = (res.status == "exact"
          and abs(res.glb - 1.0) <= 1e-9
          and abs(res.gub - 1.0) <= 1e-9
          and abs(layerwise - 2.0) <= 1e-9
          and elapsed < 1.0)
    _verdict(2, ok, f"glb={res.glb} gub={res.gub} layerwise={layerwise} t={elapsed:.3f}s")


def test_criterion_3_anytime_bounds():
    rng = np.random.default_rng(101)
    theta = 1.5
    failures = []
    for i in range(20):
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        res = lc.solve(net, omega, SolverConfig(theta=theta))
        hist = res.bounds_history
        for (lo0, hi0), (lo1, hi1) in zip(hist, hist[1:]):
            if lo1 < lo0 - 1e-12 or hi1 > hi0 + 1e-12:
                failures.append((i, "non-monotone", (lo0, hi0), (lo1, hi1)))
        if any(lo > hi + 1e-12 for lo, hi in hist):
            failures.append((i, "crossed bounds"))
        if res.gub > theta * res.glb + 1e-9:
            failures.append((i, "theta violated", res.glb, res.gub))
        want = lc.brute_force_oracle(net, omega, NormPair(2, 2))
        if not (res.glb - 1e-9 <= want <= res.gub + 1e-9):
            failures.append((i, "bracket missed", want, res.glb, res.gub))
    _verdict(3, not failures, str(failures))


def test_criterion_4_nested_regions():
    rng = np.random.default_rng(102)
    net = lc.Network([
        lc.AffineLayer(rng.normal(size=(4, 2)), rng.normal(size=4)),
        lc.maxmin(4),
        lc.AffineLayer(rng.normal(size=(1, 4)), rng.normal(size=1)),
    ])
    values = []
    for r in (0.1, 0.25, 0.5, 1.0):
        res = lc.solve(net, Polyhedron.from_box([-r, -r], [r, r]))
        assert res.status == "exact"
        values.append(res.glb)
    res_global = lc.solve(net, Polyhedron.universe(2))
    assert res_global.status == "exact"
    ok = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    ok = ok and values[-1] <= res_global.glb + 1e-9
    _verdict(4, ok, f"nested values {values}, global {res_global.glb}")


def test_criterion_5_interval_soundness():
    rng = np.random.default_rng(103)
    bad = 0
    for _ in range(10000):
        m, k, n = rng.integers(1, 7, size=3)
        A = np.sort(rng.normal(size=(2, m, k)) * 2.0, axis=0)
        B = np.sort(rng.normal(size=(2, k, n)) * 2.0, axis=0)
        IA = lc.IntervalMatrix(A[0], A[1])
        IB = lc.IntervalMatrix(B[0], B[1])
        P = lc.interval_matmul(IA, IB)
        Ar = rng.uniform(A[0], A[1])
        Br = rng.uniform(B[0], B[1])
        prod = Ar @ Br
        if np.any(prod < P.lower - 1e-12) or np.any(prod > P.upper + 1e-12):
            bad += 1
        if np.any(np.abs(prod) > lc.abs_upper_envelope(P) + 1e-12):
            bad += 1
    _verdict(5, bad == 0, f"{bad} violations out of 10000 products")


def test_criterion_6_subproblem_bounds_dominate_jacobians():
    rng = np.random.default_rng(104)
    pair = NormPair(2, 2)
    subs = []
    nets = []
    while len(subs) < 500:
        net = random_net(rng)
        omega = unit_box(net.input_dim)
        start = len(subs)
        lc.solve(net, omega, SolverConfig(norm=pair),
                 on_subproblem=lambda s: subs.append(s))
        nets.extend([net] * (len(subs) - start))
    subs, nets = subs[:500], nets[:500]
    failures = 0
    checked = 0
    for sub, net in zip(subs, nets):
        M = lc.interval_jacobian(sub, net)
        pts = sample_in_region(sub.region, rng, 200)
        for x in pts:
            J, flagged = net.jacobian_at(x)
            if flagged:
                continue
            checked += 1
            if lc.induced_norm(J, pair) > sub.ub + 1e-9:
                failures += 1
            if np.any(J < M.lower - 1e-9) or np.any(J > M.upper + 1e-9):
                failures += 1
    ok = failures == 0 and checked >= 50000
    _verdict(6, ok, f"{failures} violations over {checked} sampled Jacobians")


def test_criterion_7_groupsort_structure():
    problems = []
    for gamma in (2, 3, 4):
        act = lc.fullsort(gamma)
        [(_, pieces)] = act.group_pieces()  # fullsort: one group, neuron 0's
        if len(pieces) != math.factorial(gamma):
            problems.append(("count", gamma, len(pieces)))
        for _, _, T, _ in pieces:
            if not (np.all(T.sum(axis=0) == 1.0) and np.all(T.sum(axis=1) == 1.0)):
                problems.append(("not a permutation", gamma))
    rng = np.random.default_rng(105)
    for act in (lc.maxmin(4), lc.fullsort(3), lc.groupsort(6, 3), lc.groupsort(5, 2)):
        for pair in PAIRS:
            if act.activation_lipschitz(pair) != 1.0:
                problems.append(("lipschitz", act.kind, str(pair)))
        groups = [g for g, _ in act.group_pieces()]
        for _ in range(10000 // 4):
            x = rng.normal(size=act.in_width) * 3.0
            out = act.evaluate(x)
            for g in groups:
                if not np.array_equal(out[list(g)], np.sort(x[list(g)])):
                    problems.append(("sort mismatch", act.kind))
    _verdict(7, not problems, str(problems[:5]))


def test_criterion_8_seeded_lower_bound():
    rng = np.random.default_rng(41)
    net = random_net(rng, max_hidden=2, max_width=4)
    omega = unit_box(net.input_dim)
    plain = lc.solve(net, omega)
    sampled = lc.sampled_lower_bound(net, omega, NormPair(2, 2), 10000, seed=0)
    # the criterion only speaks for nets where sampling comes within 5%
    assert plain.status == "exact" and plain.glb > 0
    assert sampled >= 0.95 * plain.glb, "chosen net no longer satisfies the premise"
    seeded = lc.solve(net, omega, SolverConfig(sample_count=10000, seed=0))
    ok = (seeded.peak_heap_size <= plain.peak_heap_size
          and seeded.glb == pytest.approx(plain.glb, abs=1e-12)
          and seeded.gub == pytest.approx(plain.gub, abs=1e-12)
          and seeded.status == "exact")
    _verdict(8, ok, f"peaks {plain.peak_heap_size}->{seeded.peak_heap_size}, "
                    f"bounds ({plain.glb},{plain.gub}) vs ({seeded.glb},{seeded.gub})")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    model = write_json(tmp_path / "abs.json", ABS_MODEL)
    argv = ["compute", "--model", model, "--box", "-1,1",
            "--samples", "200", "--seed", "11"]
    code1 = cli_main(argv)
    out1 = capsys.readouterr().out
    code2 = cli_main(argv)
    out2 = capsys.readouterr().out
    strip = lambda s: "\n".join(l for l in s.splitlines() if "wall_time" not in l)
    ok = code1 == code2 == 0 and strip(out1) == strip(out2)
    report = json.loads(out1)
    res = lc.solve(lc.network_from_json(ABS_MODEL), unit_box(1),
                   SolverConfig(sample_count=200, seed=11))
    ok = ok and report["glb"] == res.glb and report["gub"] == res.gub
    ok = ok and report["status"] == res.status
    _verdict(9, ok, "reports differ or do not round-trip")

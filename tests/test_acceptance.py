"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  The heavier sweeps (n ~ 1000, 20 trials) are shared through
module fixtures; the whole gate runs in well under a minute.
"""

import functools
import json
import math
import random
import time

import pytest

import netelast as ne
from netelast.cli import main as cli_main

from flow_oracle import brute_force_flows


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} FAIL  {desc}")
                raise
            print(f"criterion {num} PASS  {desc}")

        return inner

    return wrap


@pytest.fixture(scope="module")
def big_graphs():
    return {
        "ba": ne.scale_free_ba(1024, 3, 3, seed=42),
        "grid": ne.grid_graph(32, 32),
    }


@criterion(1, "wheel W6 algebraic connectivity 2.38197 +/- 1e-4 in < 1 s")
def test_c1_wheel_lambda2():
    start = time.perf_counter()
    lam2 = ne.algebraic_connectivity(ne.wheel_graph(6))
    elapsed = time.perf_counter() - start
    assert lam2 == pytest.approx(2.38197, abs=1e-4)
    assert elapsed < 1.0


@criterion(2, "wheel W6 hub removal keeps 20/30 of flows (flow-ratio, 1e-12)")
def test_c2_wheel_hub_flow_ratio():
    w6 = ne.wheel_graph(6)
    baseline = ne.throughput(w6, "flow-ratio")
    cut, _ = ne.remove_nodes(w6, {0})
    tp = ne.normalized_throughput(cut, baseline, "flow-ratio")
    assert tp == pytest.approx(20 / 30, abs=1e-12)


@criterion(3, "elasticity = area/80 exactly at defaults; constant-1 -> 1; E in [0,1]")
def test_c3_normalization():
    # table-style ratio constants at the default width
    assert 35.36124 / 80.0 == pytest.approx(0.4420155, abs=1e-9)
    assert 0.2495 / 80.0 == pytest.approx(0.00311875, abs=1e-9)

    # constant-1 curve integrates to exactly 1
    flat = ne.ThroughputCurve(
        samples=tuple(((100 - k) / 100, 1.0) for k in range(81)),
        mode="flow-ratio",
        kind="node",
        max_removal_fraction=0.8,
        steps=80,
    )
    assert ne.elasticity(flat).elasticity == 1.0

    # every default-parameter sweep obeys E == area/80 bit-exactly
    cases = []
    for seed in range(4):
        g = ne.erdos_renyi(40, 0.12, seed=seed)
        cases.append(ne.sweep(g, ne.plan_random_nodes(g, g.n, seed), mode="flow-ratio"))
        cases.append(ne.sweep(g, ne.plan_targeted_degree(g, g.n), mode="bottleneck"))
        if g.m:
            cases.append(ne.sweep(g, ne.plan_random_links(g, g.m, seed), mode="flow-ratio"))
    for curve in cases:
        result = ne.elasticity(curve)
        assert result.elasticity == result.area / 80.0
        assert 0.0 <= result.elasticity <= 1.0


@criterion(4, "delivered/link_load/bottleneck match brute force on 200 ER graphs + fixtures")
def test_c4_flow_oracle_equivalence():
    start = time.perf_counter()
    fixtures = [
        ne.path_graph(3),
        ne.path_graph(7),
        ne.complete_graph(3),
        ne.complete_graph(6),
        ne.star_graph(5),
        ne.wheel_graph(6),
        ne.wheel_graph(9),
        ne.grid_graph(4, 5),
        ne.cycle_graph(8),
        ne.make_graph(2, []),
    ]
    graphs = list(fixtures)
    for seed in range(200):
        rng = random.Random(seed)
        graphs.append(ne.erdos_renyi(rng.randrange(2, 31), rng.uniform(0.05, 0.6), seed=seed))
    for g in graphs:
        fa = ne.route_all_pairs(g)
        loads, delivered, max_load = brute_force_flows(g)
        assert fa.delivered == delivered
        assert fa.max_link_load == max_load
        assert fa.link_load.tolist() == [loads[e] for e in g.edges]
    assert time.perf_counter() - start < 30.0


@criterion(5, "analytic spectra, disconnected lambda2 <= 1e-8, trace = 2m")
def test_c5_analytic_spectra():
    def spectrum(g):
        return ne.eigenvalues(ne.laplacian(g)).eigenvalues

    for n in (3, 5, 8):
        expected = (0.0,) + (float(n),) * (n - 1)
        assert spectrum(ne.complete_graph(n)) == pytest.approx(expected, abs=1e-8)
    assert spectrum(ne.path_graph(3)) == pytest.approx((0, 1, 3), abs=1e-8)
    assert spectrum(ne.cycle_graph(4)) == pytest.approx((0, 2, 2, 4), abs=1e-8)
    assert spectrum(ne.star_graph(5)) == pytest.approx((0, 1, 1, 1, 5), abs=1e-8)

    disconnected = ne.make_graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    assert ne.algebraic_connectivity(disconnected) <= 1e-8

    for seed in range(8):
        g = ne.erdos_renyi(20, 0.2, seed=seed)
        summary = ne.eigenvalues(ne.laplacian(g))
        assert math.fsum(summary.eigenvalues) == pytest.approx(2 * g.m, abs=1e-8 * g.n)


@criterion(6, "assortativity: star -1, P4 -0.5 (1e-9); regular graphs undefined")
def test_c6_assortativity_fixtures():
    for n in (3, 4, 10, 50):
        assert ne.assortativity(ne.star_graph(n)) == pytest.approx(-1.0, abs=1e-9)
    assert ne.assortativity(ne.path_graph(4)) == pytest.approx(-0.5, abs=1e-9)
    for regular in (ne.cycle_graph(6), ne.complete_graph(5), ne.grid_graph(2, 2)):
        assert ne.assortativity(regular) is None


@criterion(7, "orderings at n~1000: mesh > scale-free targeted; random > targeted; r < 0")
def test_c7_qualitative_orderings(big_graphs):
    ba, grid = big_graphs["ba"], big_graphs["grid"]
    budget = 600.0

    start = time.perf_counter()
    ba_targeted = ne.averaged_elasticity(ba, "degree", seed=42, mode="flow-ratio")
    assert time.perf_counter() - start < budget

    start = time.perf_counter()
    grid_targeted = ne.averaged_elasticity(grid, "degree", seed=42, mode="flow-ratio")
    assert time.perf_counter() - start < budget

    start = time.perf_counter()
    ba_random = ne.averaged_elasticity(ba, "random-node", trials=20, seed=42, mode="flow-ratio")
    assert time.perf_counter() - start < budget * 20

    assert grid_targeted.result.elasticity > ba_targeted.result.elasticity
    assert ba_random.result.elasticity > ba_targeted.result.elasticity
    r = ne.assortativity(ba)
    assert r is not None and r < 0.0


def test_bottleneck_sweep_at_scale(big_graphs):
    # the paper's default mode at the scale the criteria above sweep only in
    # flow-ratio; area and clamp count pin the byte-identical outputs
    g = big_graphs["ba"]
    study = ne.averaged_elasticity(g, "degree", seed=42)
    result, samples = study.result, study.mean_curve.samples
    assert result.mode == "bottleneck"
    assert result.elasticity == result.area / 80.0
    assert result.area == 38.59634385940377 and result.clamp_events == 32
    assert len(samples) == 81
    assert all(a[0] > b[0] for a, b in zip(samples, samples[1:]))

    plan = ne.plan_targeted_degree(g, g.n)
    baseline = ne.throughput(g)
    for k in (1, 40, 80):
        target = int(k * 0.8 * g.n / 80 + 0.5)
        current, _ = ne.remove_nodes(g, plan.order[:target])
        tp = min(ne.normalized_throughput(current, baseline), 1.0)
        assert samples[k] == ((g.n - target) / g.n, tp)


@criterion(8, "lambda2 ordering disagrees with elasticity ordering (wheel vs grid)")
def test_c8_lambda2_vs_elasticity_disagreement():
    w6 = ne.wheel_graph(6)
    grid16 = ne.grid_graph(16, 16)
    lam_wheel = ne.algebraic_connectivity(w6)
    lam_grid = ne.algebraic_connectivity(grid16)

    # Targeted sweeps at the 20%-removal extent of the single-node scenario
    # this comparison reproduces (the wheel sweep removes exactly its hub);
    # flow-ratio is the arithmetic behind the quoted flow-survival numbers.
    e_wheel = ne.averaged_elasticity(
        w6, "degree", seed=42, mode="flow-ratio", max_removal_fraction=0.2
    ).result.elasticity
    e_grid = ne.averaged_elasticity(
        grid16, "degree", seed=42, mode="flow-ratio", max_removal_fraction=0.2
    ).result.elasticity

    assert lam_wheel > lam_grid
    assert e_grid > e_wheel


@criterion(9, "identical run config twice -> byte-identical CSV and JSON")
def test_c9_cli_determinism(tmp_path, capsys):
    outputs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = cli_main(
            [
                "elasticity",
                "--generate", "ba:80:3:3",
                "--attack", "random-node",
                "--trials", "5",
                "--seed", "42",
                "--steps", "20",
                "--mode", "flow-ratio",
                "--outdir", str(outdir),
            ]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(
            (
                (outdir / "ba-80-3-3_curve.csv").read_bytes(),
                (outdir / "ba-80-3-3_result.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][1])
    assert payload["seed"] == 42 and payload["trials"] == 5

import itertools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import (
    AttackPlan,
    ElasticityResult,
    ThroughputCurve,
    area_under_curve,
    averaged_elasticity,
    complete_graph,
    elasticity,
    erdos_renyi,
    grid_graph,
    make_graph,
    normalized_throughput,
    path_graph,
    plan_random_links,
    plan_random_nodes,
    plan_targeted_degree,
    remove_links,
    remove_nodes,
    scale_free_ba,
    star_graph,
    sweep,
    throughput,
    wheel_graph,
)
from netelast import engine
from netelast.engine import _link_ranks, _sweep_targets
from netelast.graph import _link_ids, _node_ids


def make_curve(samples, mrf=0.8, steps=80, mode="flow-ratio", kind="node"):
    return ThroughputCurve(
        samples=tuple(samples), mode=mode, kind=kind, max_removal_fraction=mrf, steps=steps
    )


def test_star_targeted_sweep():
    s5 = star_graph(5)
    curve = sweep(s5, plan_targeted_degree(s5, 5), 0.8, 4, "flow-ratio")
    assert curve.samples == ((1.0, 1.0), (0.8, 0.0), (0.6, 0.0), (0.4, 0.0), (0.2, 0.0))
    assert area_under_curve(curve) == pytest.approx(10.0, rel=1e-12)
    assert elasticity(curve).elasticity == pytest.approx(0.125, rel=1e-12)


def test_zero_step_sweep_is_identity():
    g = complete_graph(10)
    curve = sweep(g, plan_targeted_degree(g, 10), 0.8, 0)
    assert curve.samples == ((1.0, 1.0),)
    assert area_under_curve(curve) == 0.0


def test_wheel_hub_sweep_matches_flow_survival():
    w6 = wheel_graph(6)
    plan = AttackPlan(kind="node", strategy="degree", order=(0,))
    curve = sweep(w6, plan, max_removal_fraction=1 / 6, steps=1, mode="flow-ratio")
    assert len(curve.samples) == 2
    frac, tp = curve.samples[1]
    assert frac == pytest.approx(5 / 6)
    assert tp == pytest.approx(20 / 30, abs=1e-12)


def test_sweep_skips_empty_batches_fractions_strictly_decreasing():
    s5 = star_graph(5)
    curve = sweep(s5, plan_targeted_degree(s5, 5), 0.8, 80, "flow-ratio")
    fracs = [f for f, _ in curve.samples]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    assert len(curve.samples) == 5  # intact + 4 removal states


def test_sweep_plan_too_short():
    s5 = star_graph(5)
    with pytest.raises(ValueError):
        sweep(s5, plan_targeted_degree(s5, 2), 0.8, 4)


def test_sweep_plan_needs_to_cover_only_the_last_target():
    # 0.3 * 11 = 3.3 rounds to 3 removals, so a 3-node plan covers the sweep
    p11 = path_graph(11)
    plan = AttackPlan(kind="node", strategy="degree", order=(0, 5, 10))
    for mode in ("bottleneck", "flow-ratio"):
        curve = sweep(p11, plan, 0.3, 80, mode)
        assert curve.samples[-1][0] == 8 / 11
        assert (curve.samples, curve.clamp_events) == reference_sweep(p11, plan, 0.3, 80, mode)
    with pytest.raises(ValueError, match="plan covers 2 entities, sweep needs 3"):
        sweep(p11, replace(plan, order=(0, 5)), 0.3, 80)


def test_sweep_parameter_validation():
    s5 = star_graph(5)
    plan = plan_targeted_degree(s5, 5)
    with pytest.raises(ValueError):
        sweep(s5, plan, 0.0, 4)
    with pytest.raises(ValueError):
        sweep(s5, plan, 1.2, 4)
    with pytest.raises(ValueError):
        sweep(s5, plan, 0.8, 4, "fastest")
    with pytest.raises(ValueError, match="unknown throughput mode 'bogus'"):
        sweep(s5, plan, 0.8, 4, "bogus", throughputs=[8, 6, 4, 2, 0])
    with pytest.raises(ValueError, match="^unknown plan kind 'edge'$"):
        sweep(s5, replace(plan, kind="edge"), 0.8, 4)
    # bad entries inside the removed prefix fail like remove_nodes/remove_links
    for bad in (-1, 5, 1.5, True):
        with pytest.raises(ValueError, match=f"victim id {bad}"):
            sweep(s5, AttackPlan(kind="node", strategy="degree", order=(bad, 0, 1, 2, 3)), 0.8, 4)
    absent = AttackPlan(kind="link", strategy="random-link", order=((1, 2), (0, 1), (0, 2), (0, 3)))
    with pytest.raises(ValueError, match=r"edge \(1, 2\) not present in graph"):
        sweep(s5, absent, 0.8, 4)
    # a link id follows make_graph's integer rule; a numpy integer is one
    p5 = path_graph(5)

    def link_plan(first):
        return AttackPlan(kind="link", strategy="random-link", order=(first, (0, 1), (2, 3), (3, 4)))

    for bad in ((1.0, 2), (1.5, 2), ("1", 2), (True, 2)):
        with pytest.raises(ValueError, match=re.escape(f"edge {bad!r} has a node id that is not an integer")):
            sweep(p5, link_plan(bad), 0.8, 4)
    for bad in ((1, 2, 3), 1):
        with pytest.raises(ValueError, match=re.escape(f"edge {bad!r} is not a pair of node ids")):
            sweep(p5, link_plan(bad), 0.8, 4)
    assert sweep(p5, link_plan((np.int64(1), 2)), 0.8, 4) == sweep(p5, link_plan((1, 2)), 0.8, 4)
    # a link named in either orientation is the same link
    g = grid_graph(3, 3)
    plan = plan_random_links(g, g.m, seed=5)
    flipped = AttackPlan(
        kind="link",
        strategy=plan.strategy,
        order=tuple((v, u) for u, v in plan.order),
        seed=plan.seed,
    )
    for mode in ("bottleneck", "flow-ratio"):
        assert sweep(g, flipped, 0.8, 80, mode) == sweep(g, plan, 0.8, 80, mode)


def test_degenerate_baseline_curve():
    g = make_graph(100, [])
    curve = sweep(g, plan_random_nodes(g, 100, seed=1), 0.8, 80)
    assert curve.samples[0] == (1.0, 1.0)
    assert all(tp == 0.0 for _, tp in curve.samples[1:])
    # only the leading trapezoid contributes: half the first batch width
    result = elasticity(curve)
    first_width = 1.0 - curve.samples[1][0]
    assert result.area == pytest.approx(100.0 * first_width / 2, rel=1e-12)
    assert result.elasticity == result.area / 80.0
    assert result.elasticity < 0.01


def test_area_constant_one_rectangle():
    samples = [((100 - k) / 100, 1.0) for k in range(81)]
    curve = make_curve(samples)
    assert area_under_curve(curve) == 80.0
    assert elasticity(curve).elasticity == 1.0


def test_area_constant_one_dyadic_grid():
    samples = [(1.0 - k / 128, 1.0) for k in range(65)]
    curve = make_curve(samples, mrf=0.5)
    assert elasticity(curve).elasticity == 1.0


def test_area_single_sample_zero():
    curve = make_curve([(1.0, 1.0)])
    assert area_under_curve(curve) == 0.0
    with pytest.raises(ValueError, match="^curve has no samples$"):
        area_under_curve(make_curve([]))


def test_elasticity_zero_width_rejected():
    curve = make_curve([(1.0, 1.0)], mrf=0.0)
    with pytest.raises(ValueError):
        elasticity(curve)


def test_elasticity_is_area_over_80_at_defaults():
    g = erdos_renyi(40, 0.15, seed=8)
    curve = sweep(g, plan_targeted_degree(g, g.n), 0.8, 80, "flow-ratio")
    result = elasticity(curve)
    assert result.elasticity == result.area / 80.0
    assert result.trials == 1


def test_a_study_seeds_its_first_trial_with_42_by_default():
    g = erdos_renyi(15, 0.3, seed=1)
    study = averaged_elasticity(g, "random-node", trials=2, mode="flow-ratio")
    assert study == averaged_elasticity(g, "random-node", trials=2, seed=42, mode="flow-ratio")
    assert study.result.seed == 42


def test_table_normalization_constants():
    # area-to-elasticity ratio is exactly 80 at the default sweep width
    assert 35.36124 / 80.0 == pytest.approx(0.4420155, abs=1e-9)
    assert 0.2495 / 80.0 == pytest.approx(0.00311875, abs=1e-9)


def test_bottleneck_clamp_event_exact():
    # two hubs joined by a bridge: cutting the bridge halves delivery but
    # relieves the bottleneck load from 18 to 4, so raw throughput rises
    # (ratio 1.8) and the sample clamps to 1
    g = make_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    plan = AttackPlan(kind="link", strategy="random-link", order=((0, 3),))
    curve = sweep(g, plan, max_removal_fraction=1 / 5, steps=1, mode="bottleneck")
    assert curve.samples == ((1.0, 1.0), (0.8, 1.0))
    assert curve.clamp_events == 1


def test_sweep_modes_bounded():
    for mode in ("bottleneck", "flow-ratio"):
        g = erdos_renyi(30, 0.2, seed=4)
        curve = sweep(g, plan_random_nodes(g, g.n, seed=9), 0.8, 40, mode)
        assert all(0.0 <= tp <= 1.0 for _, tp in curve.samples)
        e = elasticity(curve).elasticity
        assert 0.0 <= e <= 1.0


def test_sweep_takes_measured_throughputs():
    g = wheel_graph(6)
    plan = plan_targeted_degree(g, g.n)
    curve = sweep(g, plan, 0.5, 3, "flow-ratio")
    assert sweep(g, plan, 0.5, 3, "flow-ratio", throughputs=[30, 20, 12, 2]) == curve
    with pytest.raises(ValueError):
        sweep(g, plan, 0.5, 3, "flow-ratio", throughputs=[30, 20])


def test_averaged_single_trial_equals_sweep():
    g = erdos_renyi(25, 0.2, seed=2)
    study = averaged_elasticity(g, "random-node", trials=1, seed=7, mode="flow-ratio")
    direct = sweep(g, plan_random_nodes(g, g.n, seed=7), mode="flow-ratio")
    assert study.trial_curves == (direct,)
    assert study.result.elasticity == elasticity(direct).elasticity


def test_averaged_bottleneck_routes_intact_graph_once(monkeypatch):
    import netelast.routing as routing

    g = erdos_renyi(20, 0.25, seed=7)
    trials = tuple(sweep(g, plan_random_nodes(g, g.n, 5 + k), steps=2) for k in range(3))
    route, calls = routing.route_all_pairs, []

    def counted(*args, **share):
        calls.append(args)
        return route(*args, **share)

    monkeypatch.setattr(routing, "route_all_pairs", counted)
    study = averaged_elasticity(g, "random-node", trials=3, seed=5, steps=2)
    # one intact route for the study, then two samples per trial
    assert len(calls) == 1 + 3 * 2
    assert study.trial_curves == trials


def test_averaged_deterministic():
    g = erdos_renyi(25, 0.2, seed=2)
    a = averaged_elasticity(g, "random-node", trials=5, seed=3, mode="flow-ratio")
    b = averaged_elasticity(g, "random-node", trials=5, seed=3, mode="flow-ratio")
    assert a.result == b.result
    assert a.mean_curve == b.mean_curve


def test_averaged_mean_curve_linearity():
    g = erdos_renyi(25, 0.25, seed=5)
    study = averaged_elasticity(g, "random-node", trials=6, seed=1, mode="flow-ratio")
    mean_area = area_under_curve(study.mean_curve)
    per_trial = [area_under_curve(c) for c in study.trial_curves]
    assert mean_area == pytest.approx(math.fsum(per_trial) / len(per_trial), rel=1e-12)
    assert study.result.area == pytest.approx(mean_area, rel=1e-12)


def test_averaged_targeted_forces_single_trial():
    g = erdos_renyi(20, 0.3, seed=6)
    study = averaged_elasticity(g, "degree", trials=20, seed=1)
    assert study.result.trials == 1
    assert len(study.trial_curves) == 1


def test_averaged_jobs_do_not_change_result():
    g = erdos_renyi(20, 0.25, seed=7)
    planners = {
        "degree": lambda seed: plan_targeted_degree(g, g.n),
        "random-node": lambda seed: plan_random_nodes(g, g.n, seed),
        "random-link": lambda seed: plan_random_links(g, g.m, seed),
    }
    # the earlier pairs at the default steps, where rounded batch targets
    # merge and a trial holds many work items; the new pairs at steps=5
    for strategy, mode, steps in (("random-node", "flow-ratio", 80),
                                  ("random-link", "flow-ratio", 80),
                                  ("random-link", "bottleneck", 80),
                                  ("degree", "bottleneck", 5),
                                  ("random-node", "bottleneck", 5)):
        serial = averaged_elasticity(g, strategy, trials=4, seed=11, mode=mode, steps=steps)
        assert serial.trial_curves == tuple(
            sweep(g, planners[strategy](11 + k), steps=steps, mode=mode)
            for k in range(len(serial.trial_curves))
        )
        # one work item per bottleneck sample (the intact one shared by all
        # trials), one per flow-ratio trial; a pool larger than that runs
        # only where it stays a few processes.  At jobs > 1 a sample that
        # costs more than a fair share runs as root shares, so on 7 usable
        # CPUs the degree study's 6 samples run as 7, 8 and 12 items at jobs
        # 2, 3 and 7; a jobs above the usable CPUs plans as that count.
        items = (1 + sum(len(c.samples) - 1 for c in serial.trial_curves)
                 if mode == "bottleneck" else 4)
        for jobs in (2, 3, items + 1) if items < 8 else (2, 3):
            parallel = averaged_elasticity(g, strategy, trials=4, seed=11, mode=mode,
                                           steps=steps, jobs=jobs)
            assert serial.result == parallel.result
            assert serial.mean_curve == parallel.mean_curve
            assert serial.trial_curves == parallel.trial_curves


def test_a_dominant_sample_is_routed_in_root_shares(spy_pool, monkeypatch):
    # a steps=1 degree study has two samples, and the intact one holds
    # most of the work, so at jobs=2 it runs as two root shares, then the
    # smaller sample runs whole; the values stay those of jobs=1, and the
    # second sample's is not 0, so it reads the intact throughput.  Every
    # route, share or whole, goes through route_all_pairs, the name a
    # tracer wraps.  The plans are pinned on 8 usable CPUs, whatever the
    # runner has, and mapped in this process.  Every pool names fork as
    # its start method wherever fork is offered.
    import multiprocessing

    import netelast.routing as routing

    monkeypatch.setattr(routing, "_usable_cpus", lambda: 8)
    route, shares = routing.route_all_pairs, []

    def recorded(g, keep=None, **share):
        shares.append((share["_part"], share["_parts"]))
        return route(g, keep, **share)

    monkeypatch.setattr(routing, "route_all_pairs", recorded)
    mapped = spy_pool.mapped
    g = grid_graph(12, 12)
    serial = averaged_elasticity(g, "degree", steps=1, max_removal_fraction=0.2)
    assert not mapped and serial.trial_curves[0].samples[1][1] > 0
    assert shares == [(0, 1), (0, 1)]
    parallel = averaged_elasticity(g, "degree", steps=1, max_removal_fraction=0.2, jobs=2)
    target = mapped[2][1]
    assert mapped == [(0, (0,), 0, 2), (0, (0,), 1, 2), (0, target, 0, 1)]
    assert shares[2:] == [(0, 2), (1, 2), (0, 1)]
    assert parallel.result == serial.result
    assert parallel.trial_curves == serial.trial_curves
    # at jobs=4 a steps=2 study's second sample also costs more than the
    # fair share, so it runs as two shares behind the intact sample's three
    mapped.clear()
    parallel = averaged_elasticity(g, "degree", steps=2, max_removal_fraction=0.2, jobs=4)
    first = mapped[3][1]
    assert mapped == [(0, (0,), 0, 3), (0, (0,), 1, 3), (0, (0,), 2, 3),
                      (0, first, 0, 2), (0, first, 1, 2), (0, target, 0, 1)]
    assert parallel.trial_curves == averaged_elasticity(
        g, "degree", steps=2, max_removal_fraction=0.2).trial_curves
    # a default-steps study, where no sample holds a fair share, maps every
    # sample whole, in target order
    g = grid_graph(6, 6)
    mapped.clear()
    serial = averaged_elasticity(g, "degree")
    parallel = averaged_elasticity(g, "degree", jobs=2)
    assert len(mapped) == 30 and all(parts == 1 for _, _, _, parts in mapped)
    assert [group for _, group, _, _ in mapped] == sorted(group for _, group, _, _ in mapped)
    assert parallel.result == serial.result
    assert parallel.trial_curves == serial.trial_curves
    # a sample is cut into at most one share per node: grid 2x2 at jobs=8
    # maps its intact sample as 4 shares, where the estimate alone gives 7
    g = grid_graph(2, 2)
    mapped.clear()
    parallel = averaged_elasticity(g, "degree", jobs=8)
    assert [it for it in mapped if it[:2] == (0, (0,))] == [(0, (0,), p, 4) for p in range(4)]
    assert max(parts for _, _, _, parts in mapped) == 4
    assert parallel.trial_curves == averaged_elasticity(g, "degree").trial_curves
    fork = "fork" in multiprocessing.get_all_start_methods()
    assert [c.get_start_method() for c in spy_pool.contexts] == [
        "fork" if fork else multiprocessing.get_start_method()] * 4


def test_a_study_plans_at_most_the_usable_cpus(spy_pool):
    # at jobs=10_000 the paper-default BA-1024 degree study plans its pool
    # and its root shares for the CPUs this process may use (unbounded, it
    # mapped 9,146 items on 9,146 workers), and its output is jobs=1's
    import netelast.routing as routing

    g = scale_free_ba(1024, 3, 3, seed=42)
    serial = averaged_elasticity(g, "degree")
    assert not spy_pool.mapped
    parallel = averaged_elasticity(g, "degree", jobs=10_000)
    cpus = routing._usable_cpus()
    assert all(workers <= cpus for workers in spy_pool.workers)
    assert max((parts for _, _, _, parts in spy_pool.mapped), default=1) <= cpus
    assert parallel.result == serial.result
    assert parallel.trial_curves == serial.trial_curves


@pytest.mark.parametrize("seed", [3.0, 3.5, "x", True, -1])
@pytest.mark.parametrize("strategy", ["degree", "random-node", "random-link"])
def test_every_study_holds_its_seed_to_the_planners_rule(strategy, seed):
    # a degree study ignores its seed but echoes it, so it is held to the
    # random planners' rule too, as is a float that range() would refuse
    with pytest.raises(ValueError, match="^seed must be "):
        averaged_elasticity(grid_graph(4, 4), strategy, trials=2, seed=seed, steps=2,
                            mode="flow-ratio")


@pytest.mark.parametrize("strategy, mode, trials", [
    ("random-link", "bottleneck", 4),
    ("random-node", "flow-ratio", 3),
    ("degree", "bottleneck", 3),
])
def test_averaged_result_fields_are_exact(strategy, mode, trials):
    g = erdos_renyi(20, 0.25, seed=7)
    if strategy == "degree":
        plans = [plan_targeted_degree(g, g.n)]
    elif strategy == "random-node":
        plans = [plan_random_nodes(g, g.n, 11 + k) for k in range(trials)]
    else:
        plans = [plan_random_links(g, g.m, 11 + k) for k in range(trials)]
    study = averaged_elasticity(g, strategy, trials=trials, seed=11, steps=5, mode=mode)
    curves = tuple(sweep(g, p, steps=5, mode=mode) for p in plans)
    assert study.trial_curves == curves
    trials = len(curves)  # the targeted strategy is forced to one trial

    first = curves[0]
    mean_curve = ThroughputCurve(
        samples=tuple((f, math.fsum(c.samples[i][1] for c in curves) / trials)
                      for i, (f, _) in enumerate(first.samples)),
        mode=mode,
        kind=first.kind,
        max_removal_fraction=0.8,
        steps=5,
        clamp_events=sum(c.clamp_events for c in curves),
        strategy=strategy,
        seed=11,
    )
    values = tuple(elasticity(c).elasticity for c in curves)
    mean_e = math.fsum(values) / trials
    std = (math.sqrt(math.fsum((v - mean_e) ** 2 for v in values) / (trials - 1))
           if trials > 1 else 0.0)
    result = ElasticityResult(
        area=math.fsum(area_under_curve(c) for c in curves) / trials,
        elasticity=mean_e,
        strategy=strategy,
        mode=mode,
        trials=trials,
        seed=11,
        steps=5,
        max_removal_fraction=0.8,
        clamp_events=mean_curve.clamp_events,
        per_trial_elasticity=values,
        elasticity_std=std,
    )
    assert study.mean_curve == mean_curve
    assert study.result == result
    if strategy == "degree":
        assert first.seed is None


@pytest.mark.parametrize("study, first", [
    ({"strategy": "hubs"}, "unknown attack strategy 'hubs'"),
    ({"strategy": "random-node", "max_removal_fraction": 1.5},
     "max_removal_fraction must lie in (0, 1]"),
    ({"strategy": "random-link", "steps": -1}, "steps must be nonnegative, got -1"),
    ({"strategy": "degree", "mode": "fastest"}, "unknown throughput mode 'fastest'"),
    ({"strategy": "random-node", "jobs": 0}, "jobs must be >= 1, got 0"),
    ({"strategy": "random-node", "mode": "fastest"}, "unknown throughput mode 'fastest'"),
    ({"strategy": "degree", "trials": 0}, "trials must be >= 1, got 0"),
    ({"strategy": "random-node", "seed": -1}, "seed must be nonnegative, got -1"),
    # two bad arguments: steps is checked before the mode
    ({"strategy": "degree", "steps": -1, "mode": "fastest"}, "steps must be nonnegative, got -1"),
], ids=[f"study{i}" for i in range(9)])
def test_invalid_study_fails_before_any_pool(study, first, monkeypatch):
    # every argument is checked before any trial is planned, at any jobs
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started for an invalid study")

    planned = []
    for name in ("plan_targeted_degree", "_random_plan"):
        planner = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, planner=planner, **kwargs:
                            planned.append(args) or planner(*args, **kwargs))
    g = erdos_renyi(12, 0.3, seed=3)
    with pytest.raises(ValueError) as serial:
        averaged_elasticity(g, **{"trials": 3, **study})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError) as parallel:
        averaged_elasticity(g, **{"trials": 3, "jobs": 2, **study})
    assert str(serial.value) == str(parallel.value) == first
    assert not planned


def test_star_random_beats_targeted_exhaustively():
    # the hub lands late in most of the 5! removal orders, so the exact
    # mean over all of them must beat the targeted score
    s5 = star_graph(5)
    targeted = elasticity(sweep(s5, plan_targeted_degree(s5, 5), 0.8, 4, "flow-ratio"))
    values = []
    for order in itertools.permutations(range(5)):
        plan = AttackPlan(kind="node", strategy="random-node", order=order)
        values.append(elasticity(sweep(s5, plan, 0.8, 4, "flow-ratio")).elasticity)
    exact_mean = math.fsum(values) / len(values)
    assert exact_mean > targeted.elasticity


def test_link_sweep_uses_link_fractions():
    g = grid_graph(3, 3)
    from netelast import plan_random_links

    plan = plan_random_links(g, g.m, seed=2)
    curve = sweep(g, plan, 0.5, 6, "flow-ratio")
    assert curve.kind == "link"
    targets = {round((1 - f) * g.m) for f, _ in curve.samples[1:]}
    assert targets <= set(range(1, g.m + 1))


def test_elasticity_result_to_dict_keys():
    g = erdos_renyi(15, 0.3, seed=1)
    study = averaged_elasticity(g, "random-node", trials=2, seed=4, mode="flow-ratio")
    payload = study.result.to_dict()
    for key in (
        "strategy",
        "mode",
        "trials",
        "seed",
        "steps",
        "max_removal_fraction",
        "area",
        "elasticity",
        "clamp_events",
    ):
        assert key in payload


def reference_sweep(g, plan, fraction, steps, mode):
    """Samples and clamp count from rebuilding every sample with the public removals."""
    total = g.n if plan.kind == "node" else g.m
    baseline = throughput(g, mode)
    samples, clamps, previous = [(1.0, 1.0)], 0, 0
    for k in range(1, steps + 1):
        target = int(k * fraction * total / steps + 0.5)
        if target == previous:
            continue
        previous = target
        victims = plan.order[:target]
        current = remove_nodes(g, victims)[0] if plan.kind == "node" else remove_links(g, victims)
        tp = normalized_throughput(current, baseline, mode)
        clamps += tp > 1.0
        samples.append(((total - target) / total, min(tp, 1.0)))
    return tuple(samples), clamps


def test_repeated_plan_entries_count_at_first_position():
    g = wheel_graph(6)
    nodes = AttackPlan(kind="node", strategy="random-node", order=(2, 2, 0, 2, 1, 3))
    links = AttackPlan(kind="link", strategy="random-link", order=((0, 1), (1, 0)) + tuple(g.edges))
    for plan in (nodes, links):
        for mode in ("bottleneck", "flow-ratio"):
            curve = sweep(g, plan, 0.5, 5, mode)
            assert (curve.samples, curve.clamp_events) == reference_sweep(g, plan, 0.5, 5, mode)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 14))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=30)) if n else []
    labels = draw(st.none() | st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    return make_graph(n, pairs, labels=labels)


@settings(max_examples=150, deadline=None)
@given(
    g=graphs(),
    strategy=st.sampled_from(["degree", "random-node", "random-link"]),
    mode=st.sampled_from(["bottleneck", "flow-ratio"]),
    steps=st.sampled_from([0, 1, 5, 80]),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 1000),
    recompute=st.booleans(),
)
def test_sweep_equals_rebuilding_each_sample(g, strategy, mode, steps, fraction, seed, recompute):
    if strategy == "degree":
        plan = plan_targeted_degree(g, g.n, recompute=recompute)
    elif strategy == "random-node":
        plan = plan_random_nodes(g, g.n, seed)
    else:
        plan = plan_random_links(g, g.m, seed)
    curve = sweep(g, plan, fraction, steps, mode)
    assert (curve.samples, curve.clamp_events) == reference_sweep(g, plan, fraction, steps, mode)
    if mode == "flow-ratio":
        # nested removals never raise the deliverable flow count
        tps = [tp for _, tp in curve.samples]
        assert all(a >= b for a, b in zip(tps, tps[1:]))


@settings(max_examples=100, deadline=None)
@given(
    g=graphs(),
    kind=st.sampled_from(["node", "link"]),
    steps=st.sampled_from([1, 5, 80]),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_flow_ratio_sweep_invariant_under_relabeling(g, kind, steps, fraction, seed, data):
    # flow-ratio counts pairs per component, which no node id can change;
    # bottleneck loads are left out, as lowest-id parents depend on the ids
    perm = data.draw(st.permutations(range(g.n)))
    moved = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    if kind == "node":
        plan = plan_random_nodes(g, g.n, seed)
        order = tuple(perm[v] for v in plan.order)
    else:
        plan = plan_random_links(g, g.m, seed)
        order = tuple((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in plan.order)
    curve = sweep(g, plan, fraction, steps, "flow-ratio")
    assert sweep(moved, replace(plan, order=order), fraction, steps, "flow-ratio") == curve


@settings(max_examples=100, deadline=None)
@given(
    g=graphs(),
    strategy=st.sampled_from(["random-node", "random-link"]),
    mode=st.sampled_from(["bottleneck", "flow-ratio"]),
    fraction=st.sampled_from([0.1, 0.5, 0.8, 1.0]),
    seed=st.integers(0, 2**32),
)
@example(g=make_graph(3, []), strategy="random-link", mode="flow-ratio", fraction=0.8, seed=0)
@example(g=path_graph(2), strategy="random-link", mode="bottleneck", fraction=1.0, seed=1)
@example(g=path_graph(2), strategy="random-link", mode="flow-ratio", fraction=0.1, seed=2)
def test_a_study_ranks_its_trials_as_sweep_ranks_their_plans(g, strategy, mode, fraction, seed):
    # a study ranks each random trial from the ids its shuffle drew; sweep
    # resolves the plan's node ids or (u, v) links first
    planner, resolve = ((plan_random_nodes, _node_ids) if strategy == "random-node"
                        else (plan_random_links, _link_ids))
    with mock.patch.object(engine, "masked_throughputs", wraps=engine.masked_throughputs) as spy:
        averaged_elasticity(g, strategy, trials=3, seed=seed, mode=mode,
                            max_removal_fraction=fraction, steps=5)
    measured = spy.call_args.args[1]
    assert len(measured) == 3
    for k, rank in enumerate(measured):
        plan = planner(g, g.n if strategy == "random-node" else g.m, seed + k)
        count = _sweep_targets(len(plan.order), fraction, 5)[-1]
        expected = _link_ranks(g, plan.kind, resolve(g, plan.order[:count]))
        assert rank.dtype == expected.dtype == np.int64
        assert rank.tolist() == expected.tolist()


@settings(max_examples=80, deadline=None)
@given(
    g=graphs(),
    strategy=st.sampled_from(["degree", "random-node", "random-link"]),
    mode=st.sampled_from(["bottleneck", "flow-ratio"]),
    trials=st.integers(2, 4),
    steps=st.sampled_from([1, 5, 80]),
    seed=st.integers(0, 10**4),
)
@example(g=make_graph(9, [(1, 2), (2, 7), (3, 6), (4, 6), (5, 7), (6, 7), (6, 8)]),
         strategy="random-link", mode="bottleneck", trials=2, steps=80, seed=2220)
def test_every_study_curve_stays_in_the_unit_range(g, strategy, mode, trials, steps, seed):
    # every trial curve and the mean curve read in [0, 1], and a flow-ratio
    # curve never rises, as its samples are nested; E's own bound is not
    # asserted here (the example above is a study whose E exceeds 1)
    study = averaged_elasticity(g, strategy, trials=trials, seed=seed, mode=mode, steps=steps)
    for curve in (*study.trial_curves, study.mean_curve):
        values = [tp for _, tp in curve.samples]
        assert all(0.0 <= tp <= 1.0 for tp in values)
        if mode == "flow-ratio":
            assert all(a >= b for a, b in zip(values, values[1:]))

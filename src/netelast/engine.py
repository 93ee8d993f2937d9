"""Attack sweeps: sample the throughput curve, integrate it, normalize to E.

A sweep removes the planned entities in equal batches and records one
(fraction_remaining, normalized throughput) point per batch.  It runs in
three steps: prepare (validate, fix the batch targets and each link's
removal rank), measure (routing's masked_throughputs of the intact graph and
every sample), finish (normalize and clamp into a curve).  A multi-trial
study prepares every trial here, then measures the pieces of work routing
names, one (trial, group of targets) item each, through one map: the
builtin one, or a process pool's whose workers receive the intact graph and
the ranks once.  Elasticity is the trapezoid area under the curve on a
percent axis, divided by the maximal possible area
100 * max_removal_fraction, so a curve pinned at 1 over the full sweep
scores exactly 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .attacks import AttackPlan, plan_random_links, plan_random_nodes, plan_targeted_degree
from .graph import Graph, edge_ends
from .routing import DEFAULT_MODE, MODES, masked_throughputs, target_groups

DEFAULT_STEPS = 80
DEFAULT_MAX_REMOVAL = 0.8
DEFAULT_TRIALS = 20


@dataclass(frozen=True)
class ThroughputCurve:
    """Sampled degradation curve for one sweep.

    samples hold (fraction_remaining, throughput) pairs with strictly
    decreasing fractions, starting at (1.0, 1.0) for the intact graph.
    kind names the removed entity ("node"/"link"), which is also the
    fraction axis.  clamp_events counts bottleneck-mode samples that were
    cut back to 1.0.
    """

    samples: tuple[tuple[float, float], ...]
    mode: str
    kind: str
    max_removal_fraction: float
    steps: int
    clamp_events: int = 0
    strategy: str | None = None
    seed: int | None = None


@dataclass(frozen=True)
class ElasticityResult:
    """Area under a throughput curve and its normalized elasticity score."""

    area: float
    elasticity: float
    strategy: str | None
    mode: str
    trials: int
    seed: int | None
    steps: int
    max_removal_fraction: float
    clamp_events: int
    per_trial_elasticity: tuple[float, ...] = field(default=())
    elasticity_std: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AveragedSweep:
    """Multi-trial outcome: mean result, pointwise-mean curve, trial curves."""

    result: ElasticityResult
    mean_curve: ThroughputCurve
    trial_curves: tuple[ThroughputCurve, ...]


def _batch_targets(total: int, fraction: float, steps: int) -> list[int]:
    # Cumulative removal target after step k, rounded half-up; the final
    # step lands on round(fraction * total) regardless of divisibility.
    return [int(k * fraction * total / steps + 0.5) for k in range(1, steps + 1)]


def _link_ranks(g: Graph, plan: AttackPlan, count: int) -> np.ndarray:
    """Plan position at which each link of g goes; count for links kept.

    A link plan removes a link at its own position, a node plan at the
    earlier position of its two endpoints; a repeated entry counts at its
    first position.  Only the first count entries, the ones a sweep
    removes, are checked, with the errors of remove_nodes/remove_links.
    """
    prefix = plan.order[:count]
    if plan.kind == "node":
        bad = [v for v in prefix if not 0 <= v < g.n]
        if bad:
            raise ValueError(f"victim id {bad[0]} out of range for n={g.n}")
        slots, size = prefix, g.n
    else:
        link_id = {e: i for i, e in enumerate(g.edges)}
        keys = [(u, v) if u < v else (v, u) for u, v in prefix]
        bad = [k for k in keys if k not in link_id]
        if bad:
            raise ValueError(f"edge {bad[0]} not present in graph")
        slots, size = [link_id[k] for k in keys], g.m
    rank = np.full(size, count, dtype=np.int64)
    np.minimum.at(rank, np.asarray(slots, dtype=np.int64), np.arange(len(slots)))
    if plan.kind == "node":
        ends = edge_ends(g)
        rank = np.minimum(rank[ends[0::2]], rank[ends[1::2]])
    return rank


def _sweep_targets(
    g: Graph, plan: AttackPlan, max_removal_fraction: float, steps: int, mode: str
) -> tuple[int, list[int]]:
    """Validate a sweep; its entity total and the removal targets it measures:
    0 for the intact graph, then each distinct nonzero batch target, ascending."""
    if mode not in MODES:
        raise ValueError(f"unknown throughput mode {mode!r}")
    if not 0.0 < max_removal_fraction <= 1.0:
        raise ValueError("max_removal_fraction must lie in (0, 1]")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if plan.kind not in ("node", "link"):
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    total = g.n if plan.kind == "node" else g.m
    needed = math.ceil(max_removal_fraction * total)
    if len(plan.order) < needed:
        raise ValueError(f"plan covers {len(plan.order)} entities, sweep needs {needed}")
    targets = _batch_targets(total, max_removal_fraction, steps)
    return total, [0, *sorted(set(targets) - {0})]


def sweep(
    g: Graph,
    plan: AttackPlan,
    max_removal_fraction: float = DEFAULT_MAX_REMOVAL,
    steps: int = DEFAULT_STEPS,
    mode: str = DEFAULT_MODE,
    *,
    throughputs: Sequence[float] | None = None,
) -> ThroughputCurve:
    """Run one attack sweep and sample the normalized throughput curve.

    Entities are removed in plan order over `steps` equal batches.  A
    sample is g masked to the links whose rank (_link_ranks) reaches the
    batch target, so removed nodes stay as isolated nodes, which deliver
    nothing and carry no load; one masked_throughputs call measures the
    intact graph and every sample.  throughputs, when given, are those
    values already measured elsewhere (averaged_elasticity measures all
    trials at once).  Batches that round to no removals are skipped,
    keeping the fraction axis strictly decreasing.  A degenerate baseline
    (nothing deliverable in the intact graph) yields the conventional curve
    1 at the intact sample and 0 afterwards.
    """
    total, targets = _sweep_targets(g, plan, max_removal_fraction, steps, mode)
    if throughputs is None:
        throughputs = masked_throughputs(g, _link_ranks(g, plan, targets[-1]), targets, mode)
    elif len(throughputs) != len(targets):
        raise ValueError(f"sweep measures {len(targets)} targets, "
                         f"got {len(throughputs)} throughputs")
    baseline, *values = throughputs
    samples = [(1.0, 1.0)]
    clamp_events = 0
    for target, value in zip(targets[1:], values):
        tp = value / baseline if baseline else 0.0
        if tp > 1.0:
            clamp_events += 1
            tp = 1.0
        samples.append(((total - target) / total, tp))

    return ThroughputCurve(
        samples=tuple(samples),
        mode=mode,
        kind=plan.kind,
        max_removal_fraction=max_removal_fraction,
        steps=steps,
        clamp_events=clamp_events,
        strategy=plan.strategy,
        seed=plan.seed,
    )


def area_under_curve(curve: ThroughputCurve) -> float:
    """Trapezoidal area under the curve on a percent axis.

    A constant-1 curve swept over 80 percentage points integrates to
    exactly 80.  Exact summation keeps that identity free of float drift.
    """
    s = curve.samples
    if not s:
        raise ValueError("curve has no samples")
    terms = (
        (s[i][0] - s[i + 1][0]) * (s[i][1] + s[i + 1][1]) * 0.5
        for i in range(len(s) - 1)
    )
    return 100.0 * math.fsum(terms)


def elasticity(curve: ThroughputCurve) -> ElasticityResult:
    """Normalize the curve area to E = area / (100 * swept width)."""
    if curve.max_removal_fraction <= 0.0:
        raise ValueError("sweep width must be positive")
    area = area_under_curve(curve)
    value = area / (100.0 * curve.max_removal_fraction)
    return ElasticityResult(
        area=area,
        elasticity=value,
        strategy=curve.strategy,
        mode=curve.mode,
        trials=1,
        seed=curve.seed,
        steps=curve.steps,
        max_removal_fraction=curve.max_removal_fraction,
        clamp_events=curve.clamp_events,
        per_trial_elasticity=(value,),
        elasticity_std=0.0,
    )


def _plan(g: Graph, strategy: str, recompute: bool, seed: int) -> AttackPlan:
    if strategy == "degree":
        return plan_targeted_degree(g, g.n, recompute=recompute)
    if strategy == "random-node":
        return plan_random_nodes(g, g.n, seed)
    if strategy == "random-link":
        return plan_random_links(g, g.m, seed)
    raise ValueError(f"unknown attack strategy {strategy!r}")


def _measure(study: tuple, item: tuple[int, tuple[int, ...]]) -> list[float]:
    g, ranks, mode = study
    trial, targets = item
    return masked_throughputs(g, ranks[trial], targets, mode)


# The (intact graph, per-trial link ranks, mode) of a pool worker's study,
# set once per worker by the pool's initializer.
_worker_study: tuple = ()


def _init_worker(*study) -> None:
    global _worker_study
    _worker_study = study


def _measure_in_worker(item: tuple[int, tuple[int, ...]]) -> list[float]:
    return _measure(_worker_study, item)


def _measure_all(items: list, study: tuple, workers: int) -> list[list[float]]:
    """Every item's values, in item order: one pool's map over `workers`
    processes, or the builtin map in this process for one worker."""
    if workers == 1:
        return list(map(partial(_measure, study), items))
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=study) as pool:
        return list(pool.map(_measure_in_worker, items))


def averaged_elasticity(
    g: Graph,
    strategy: str,
    trials: int = DEFAULT_TRIALS,
    seed: int = 42,
    *,
    max_removal_fraction: float = DEFAULT_MAX_REMOVAL,
    steps: int = DEFAULT_STEPS,
    mode: str = DEFAULT_MODE,
    recompute: bool = True,
    jobs: int = 1,
) -> AveragedSweep:
    """Average elasticity over seeded trials of a (possibly stochastic) attack.

    Trial k uses seed + k; the targeted strategy is deterministic, so it is
    forced to a single trial.  Every trial is planned and validated here;
    the work items, one per (trial, group of targets) as routing's
    target_groups splits them, then run in min(jobs, items) processes,
    those that keep the most links first, as they take longest.  Returns
    the mean result (per-trial values and their sample standard deviation
    included), the pointwise-mean curve, and every per-trial curve.  Curves
    are rebuilt and aggregated in fixed trial and sample order, so worker
    count never changes the outcome.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if strategy == "degree":
        trials = 1
    plans = [_plan(g, strategy, recompute, s) for s in range(seed, seed + trials)]
    targets = [_sweep_targets(g, p, max_removal_fraction, steps, mode)[1] for p in plans]
    ranks = [_link_ranks(g, p, t[-1]) for p, t in zip(plans, targets)]
    groups = [target_groups(t, mode) for t in targets]
    items = sorted(((k, group) for k, gs in enumerate(groups) for group in gs),
                   key=lambda item: item[1][0])
    measured = dict(zip(items, _measure_all(items, (g, ranks, mode), min(jobs, len(items)))))
    curves = tuple(
        sweep(g, plan, max_removal_fraction, steps, mode,
              throughputs=[v for group in gs for v in measured[k, group]])
        for k, (plan, gs) in enumerate(zip(plans, groups))
    )

    fractions = [f for f, _ in curves[0].samples]
    for c in curves[1:]:
        if [f for f, _ in c.samples] != fractions:
            raise RuntimeError("trial curves fell out of alignment")
    mean_samples = tuple(
        (f, math.fsum(c.samples[i][1] for c in curves) / trials)
        for i, f in enumerate(fractions)
    )
    mean_curve = ThroughputCurve(
        samples=mean_samples,
        mode=mode,
        kind=curves[0].kind,
        max_removal_fraction=max_removal_fraction,
        steps=steps,
        clamp_events=sum(c.clamp_events for c in curves),
        strategy=strategy,
        seed=seed,
    )

    per_trial = tuple(elasticity(c) for c in curves)
    values = tuple(r.elasticity for r in per_trial)
    mean_e = math.fsum(values) / trials
    mean_area = math.fsum(r.area for r in per_trial) / trials
    if trials > 1:
        var = math.fsum((v - mean_e) ** 2 for v in values) / (trials - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    result = ElasticityResult(
        area=mean_area,
        elasticity=mean_e,
        strategy=strategy,
        mode=mode,
        trials=trials,
        seed=seed,
        steps=steps,
        max_removal_fraction=max_removal_fraction,
        clamp_events=mean_curve.clamp_events,
        per_trial_elasticity=values,
        elasticity_std=std,
    )
    return AveragedSweep(result=result, mean_curve=mean_curve, trial_curves=curves)

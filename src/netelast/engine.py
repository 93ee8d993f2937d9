"""Attack sweeps: sample the throughput curve, integrate it, normalize to E.

A sweep removes the planned entities in equal batches and records one
(fraction_remaining, normalized throughput) point per batch.  It runs in
three steps: prepare (check the width, steps and mode, fix the batch
targets and each link's removal rank), measure (routing's
masked_throughputs of the intact graph and every sample), finish
(normalize and clamp into a curve); averaged_elasticity runs a
multi-trial study, whose trials one masked_throughputs call measures.
Elasticity is the trapezoid area under the curve on a percent axis,
divided by the maximal possible area 100 * max_removal_fraction, so a
curve pinned at 1 over the full sweep scores exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .attacks import STRATEGIES, AttackPlan, _random_plan, plan_targeted_degree
from .graph import Graph, _integer, _is_real, _link_ids, _node_ids
from .routing import DEFAULT_MODE, _check_mode, masked_throughputs

__all__ = [
    "AveragedSweep",
    "DEFAULT_MAX_REMOVAL",
    "DEFAULT_STEPS",
    "DEFAULT_TRIALS",
    "ElasticityResult",
    "ThroughputCurve",
    "area_under_curve",
    "averaged_elasticity",
    "elasticity",
    "sweep",
]

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


def _link_ranks(g: Graph, kind: str, ids: Sequence[int]) -> np.ndarray:
    """Plan position at which each link of g goes; len(ids) for links kept.

    ids are the entries a sweep removes as checked ids, in removal order:
    node ids for a "node" plan, indices into g.edges for a "link" plan.  A
    study's own trials pass the ids their planner drew; sweep first resolves
    the entries it removes by remove_nodes'/remove_links' own
    _node_ids/_link_ids.  A link plan removes a link at its own position, a
    node plan at the earlier position of its two endpoints; a repeated id
    counts at its first position.  Nothing is checked here.
    """
    node = kind == "node"
    rank = np.full(g.n if node else g.m, len(ids), dtype=np.int64)
    np.minimum.at(rank, np.asarray(ids, dtype=np.int64), np.arange(len(ids)))
    return rank[g.ends.reshape(-1, 2)].min(axis=1) if node else rank


def _check_sweep(max_removal_fraction: float, steps: int, mode: str) -> int:
    """steps as an int, once the width, steps and mode pass, in that order.

    The width is a real number in (0, 1], steps follows _integer's rule, and
    routing's _check_mode refuses a mode not in MODES.  sweep and
    averaged_elasticity call this before they plan or measure anything.
    """
    if not (_is_real(max_removal_fraction) and 0.0 < max_removal_fraction <= 1.0):
        raise ValueError("max_removal_fraction must lie in (0, 1]")
    steps = _integer("steps", steps)
    _check_mode(mode)
    return steps


def _sweep_targets(total: int, max_removal_fraction: float, steps: int) -> list[int]:
    """The removal targets a sweep of total entities measures.

    0 for the intact graph, then each distinct nonzero batch target,
    ascending: the cumulative target after step k of steps is
    k * fraction * total / steps rounded half-up, so the last lands on
    round(fraction * total) regardless of divisibility.  Nothing is checked
    here: _check_sweep has passed the width and steps.
    """
    return [0, *sorted({int(k * max_removal_fraction * total / steps + 0.5)
                        for k in range(1, steps + 1)} - {0})]


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
    trials at once).  Batches that round to no removals are skipped, keeping
    the fraction axis strictly decreasing.  A degenerate baseline (nothing
    deliverable in the intact graph) yields the conventional curve 1 at the
    intact sample and 0 afterwards.

    The width, steps and mode are checked first (_check_sweep), then what
    only a caller's plan decides: its kind, and that it covers the last
    target.
    """
    steps = _check_sweep(max_removal_fraction, steps, mode)
    if plan.kind not in ("node", "link"):
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    total = g.n if plan.kind == "node" else g.m
    targets = _sweep_targets(total, max_removal_fraction, steps)
    if len(plan.order) < targets[-1]:
        raise ValueError(f"plan covers {len(plan.order)} entities, sweep needs {targets[-1]}")
    if throughputs is None:
        ids = (_node_ids if plan.kind == "node" else _link_ids)(g, plan.order[:targets[-1]])
        throughputs = masked_throughputs(g, [_link_ranks(g, plan.kind, ids)], targets, mode)[0]
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


def _plan(g: Graph, strategy: str, recompute: bool, seed: int,
          count: int) -> tuple[AttackPlan, np.ndarray]:
    """A trial's plan of its first count entities, the ones its sweep
    removes, and its link ranks, taken from the ids its planner drew (see
    _link_ranks).  strategy is one of STRATEGIES; each planner's first
    count entries are the same for any larger count."""
    if strategy == "degree":
        plan = plan_targeted_degree(g, count, recompute=recompute)
        return plan, _link_ranks(g, "node", plan.order)
    plan, ids = _random_plan(g, "node" if strategy == "random-node" else "link", count, seed)
    return plan, _link_ranks(g, plan.kind, ids)


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
    forced to a single trial.  Every argument is checked before any plan, in
    this order: trials, seed and jobs (_integer's rule), the strategy
    (against STRATEGIES), then the width, steps and mode (_check_sweep).  So
    a degree study never echoes a seed that a random one would refuse, and
    the result echoes trials, seed and steps as ints.  The strategy fixes
    the entity kind and total, so the targets are fixed once, before the
    trials, and each trial plans only the entities its sweep removes; only
    the link ranks are per trial, taken from the ids the trial's planner
    drew, so a random trial's links are never resolved from (u, v) pairs.
    One masked_throughputs call measures every trial, in at most
    min(jobs, usable CPUs, work items) processes.  Returns the mean
    result (per-trial values and their sample standard deviation included),
    the pointwise-mean curve, and every per-trial curve, built in fixed
    trial and sample order, so worker count never changes the outcome.
    """
    trials = _integer("trials", trials, 1)
    seed = _integer("seed", seed)  # before any plan, whatever the strategy
    jobs = _integer("jobs", jobs, 1)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown attack strategy {strategy!r}")
    steps = _check_sweep(max_removal_fraction, steps, mode)
    targets = _sweep_targets(g.m if strategy == "random-link" else g.n,
                             max_removal_fraction, steps)
    if strategy == "degree":
        trials = 1
    plans, ranks = zip(*[_plan(g, strategy, recompute, s, targets[-1])
                         for s in range(seed, seed + trials)])
    measured = masked_throughputs(g, ranks, targets, mode, jobs)
    curves = tuple(sweep(g, plan, max_removal_fraction, steps, mode, throughputs=values)
                   for plan, values in zip(plans, measured))

    mean_curve = replace(
        curves[0],
        samples=tuple((f, math.fsum(c.samples[i][1] for c in curves) / trials)
                      for i, (f, _) in enumerate(curves[0].samples)),
        clamp_events=sum(c.clamp_events for c in curves),
        seed=seed,
    )

    per_trial = [elasticity(c) for c in curves]
    values = tuple(r.elasticity for r in per_trial)
    mean_e = math.fsum(values) / trials
    std = 0.0
    if trials > 1:
        std = math.sqrt(math.fsum((v - mean_e) ** 2 for v in values) / (trials - 1))
    result = replace(
        elasticity(mean_curve),
        area=math.fsum(r.area for r in per_trial) / trials,
        elasticity=mean_e,
        trials=trials,
        per_trial_elasticity=values,
        elasticity_std=std,
    )
    return AveragedSweep(result=result, mean_curve=mean_curve, trial_curves=curves)

"""Attack sweeps: sample the throughput curve, integrate it, normalize to E.

A sweep removes the planned entities in equal batches and records one
(fraction_remaining, normalized throughput) point per batch.  It runs in
three steps: prepare (validate, fix the batch targets and each link's
removal rank), measure (routing's masked_throughputs of the intact graph and
every sample), finish (normalize and clamp into a curve);
averaged_elasticity runs a multi-trial study, whose trials one
masked_throughputs call measures.  Elasticity is the
trapezoid area under the curve on a percent axis, divided by the maximal
possible area 100 * max_removal_fraction, so a curve pinned at 1 over the
full sweep scores exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .attacks import AttackPlan, _random_plan, plan_targeted_degree
from .graph import Graph, _integer, _is_real, _link_ids, _node_ids
from .routing import DEFAULT_MODE, MODES, masked_throughputs

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


def _link_ranks(g: Graph, kind: str, ids: Sequence[int], count: int) -> np.ndarray:
    """Plan position at which each link of g goes; count for links kept.

    ids are a plan's entries as checked ids, in removal order: node ids for
    a "node" plan, indices into g.edges for a "link" plan.  A study's own
    trials pass the ids their planner drew; sweep first resolves a plan's
    entries by remove_nodes'/remove_links' own _node_ids/_link_ids.  A link
    plan removes a link at its own position, a node plan at the earlier
    position of its two endpoints; a repeated id counts at its first
    position.  Only the first count ids, the ones a sweep removes, are read.
    """
    node = kind == "node"
    ids = np.asarray(ids[:count], dtype=np.int64)
    rank = np.full(g.n if node else g.m, count, dtype=np.int64)
    np.minimum.at(rank, ids, np.arange(len(ids)))
    return rank[g.ends.reshape(-1, 2)].min(axis=1) if node else rank


def _sweep_targets(
    g: Graph, plan: AttackPlan, max_removal_fraction: float, steps: int
) -> tuple[int, list[int], int]:
    """Validate a sweep; its entity total, the removal targets it measures,
    and steps as an int.

    The targets are 0 for the intact graph, then each distinct nonzero batch
    target, ascending: the cumulative target after step k of steps is
    k * fraction * total / steps rounded half-up, so the last lands on
    round(fraction * total) regardless of divisibility.  The plan must cover
    the last target.  steps follows _integer's rule; masked_throughputs
    checks the mode, and sweep does when it is given the throughputs.
    """
    if not (_is_real(max_removal_fraction) and 0.0 < max_removal_fraction <= 1.0):
        raise ValueError("max_removal_fraction must lie in (0, 1]")
    steps = _integer("steps", steps)
    if plan.kind not in ("node", "link"):
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    total = g.n if plan.kind == "node" else g.m
    targets = [0, *sorted({int(k * max_removal_fraction * total / steps + 0.5)
                           for k in range(1, steps + 1)} - {0})]
    if len(plan.order) < targets[-1]:
        raise ValueError(f"plan covers {len(plan.order)} entities, sweep needs {targets[-1]}")
    return total, targets, steps


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
    trials at once); an unknown mode is refused either way.  Batches that
    round to no removals are skipped, keeping the fraction axis strictly
    decreasing.  A degenerate baseline (nothing deliverable in the intact
    graph) yields the conventional curve 1 at the intact sample and 0
    afterwards.
    """
    total, targets, steps = _sweep_targets(g, plan, max_removal_fraction, steps)
    if throughputs is None:
        ids = (_node_ids if plan.kind == "node" else _link_ids)(g, plan.order[:targets[-1]])
        rank = _link_ranks(g, plan.kind, ids, targets[-1])
        throughputs = masked_throughputs(g, [rank], targets, mode)[0]
    elif mode not in MODES:  # masked_throughputs' own check, on a path that skips it
        raise ValueError(f"unknown throughput mode {mode!r}")
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


def _plan(g: Graph, strategy: str, recompute: bool, seed: int) -> tuple[AttackPlan, Sequence[int]]:
    """A trial's plan of every entity and its entries as ids (see _link_ranks)."""
    if strategy == "degree":
        plan = plan_targeted_degree(g, g.n, recompute=recompute)
        return plan, plan.order
    if strategy == "random-node":
        return _random_plan(g, "node", g.n, seed)
    if strategy == "random-link":
        return _random_plan(g, "link", g.m, seed)
    raise ValueError(f"unknown attack strategy {strategy!r}")


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
    forced to a single trial.  trials, seed, steps and jobs follow _integer's
    rule, and the result echoes the first three as ints; every strategy
    checks seed and jobs before it plans, so a degree study never echoes a
    seed that a random one would refuse.  All trials sweep the same entity
    kind and total in the same batches, so the sweep is validated and its
    targets fixed once; only the link ranks are per trial, taken from the
    ids the trial's planner drew, so a random trial's links are never
    resolved from (u, v) pairs.  One masked_throughputs call measures every
    trial, in at most min(jobs, usable CPUs, work items) processes.  Returns the mean
    result (per-trial values and their sample standard deviation included),
    the pointwise-mean curve, and every per-trial curve, built in fixed
    trial and sample order, so worker count never changes the outcome.
    """
    trials = _integer("trials", trials, 1)
    seed = _integer("seed", seed)  # before any plan, whatever the strategy
    jobs = _integer("jobs", jobs, 1)
    if strategy == "degree":
        trials = 1
    plans, ranks = [], []
    for s in range(seed, seed + trials):  # a trial's ids are dropped once ranked
        plan, ids = _plan(g, strategy, recompute, s)
        if not plans:
            targets = _sweep_targets(g, plan, max_removal_fraction, steps)[1]
        plans.append(plan)
        ranks.append(_link_ranks(g, plan.kind, ids, targets[-1]))
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

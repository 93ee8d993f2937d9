"""Deterministic, seeded construction of node/link removal sequences."""

from __future__ import annotations

import heapq
import numbers
import random
from dataclasses import dataclass

from .graph import Graph

__all__ = [
    "AttackPlan",
    "STRATEGIES",
    "plan_random_links",
    "plan_random_nodes",
    "plan_targeted_degree",
]

STRATEGIES = ("degree", "random-node", "random-link")


@dataclass(frozen=True)
class AttackPlan:
    """An ordered removal sequence for one sweep.

    kind is "node" or "link"; order holds node ids or canonical (u, v)
    link tuples in removal order, without duplicates.  seed is recorded for
    stochastic strategies.
    """

    kind: str
    strategy: str
    order: tuple
    seed: int | None = None


def _check_count(count: int, total: int) -> None:
    if not (isinstance(count, numbers.Integral) and 0 <= count <= total):
        raise ValueError(f"count must lie in 0..{total}")


def plan_targeted_degree(g: Graph, count: int, recompute: bool = True) -> AttackPlan:
    """Greedy highest-degree removal order, ties broken by lowest node id.

    With recompute (the default, the stricter worst case) degrees are
    re-evaluated on the degraded graph after every removal; otherwise the
    initial degrees fix the whole order.  One lazy max-heap of (-degree, id)
    serves both; popped entries with a stale degree are skipped: O((n+m) log n).
    """
    _check_count(count, g.n)
    indptr, indices, _ = g.csr
    degree = g.degrees()
    heap = [(-d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    alive = [True] * g.n
    order = []
    while len(order) < count:
        d, v = heapq.heappop(heap)
        if -d != degree[v]:  # stale; a removed node has no entry left
            continue
        order.append(v)
        alive[v] = False
        if recompute:
            for u in indices[indptr[v]:indptr[v + 1]].tolist():
                if alive[u]:
                    degree[u] -= 1
                    heapq.heappush(heap, (-degree[u], u))
    return AttackPlan(kind="node", strategy="degree", order=tuple(order))


def _random_plan(g: Graph, kind: str, count: int, seed: int) -> tuple[AttackPlan, list[int]]:
    """The plan of plan_random_nodes or plan_random_links, by kind, and the ids
    its shuffle drew.  random.Random seeds an int by its absolute value, so a
    negative seed, which would repeat its positive twin's plan, is refused."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    total = g.n if kind == "node" else g.m
    _check_count(count, total)
    ids = list(range(total))
    random.Random(seed).shuffle(ids)
    del ids[count:]
    order = tuple(ids) if kind == "node" else tuple(map(g.edges.__getitem__, ids))
    return AttackPlan(kind=kind, strategy=f"random-{kind}", order=order, seed=seed), ids


def plan_random_nodes(g: Graph, count: int, seed: int) -> AttackPlan:
    """Uniform node sample without replacement: the first count ids of
    range(n) after random.Random(seed).shuffle, a Fisher-Yates shuffle.
    A negative seed is refused."""
    return _random_plan(g, "node", count, seed)[0]


def plan_random_links(g: Graph, count: int, seed: int) -> AttackPlan:
    """Uniform link sample without replacement: the links at the first count
    ids of range(m) after random.Random(seed).shuffle, a Fisher-Yates shuffle.
    A negative seed is refused."""
    return _random_plan(g, "link", count, seed)[0]

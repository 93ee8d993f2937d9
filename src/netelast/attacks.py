"""Deterministic, seeded construction of node/link removal sequences."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .generators import _rng
from .graph import Graph, _integer

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


def plan_targeted_degree(g: Graph, count: int, recompute: bool = True) -> AttackPlan:
    """Greedy highest-degree removal order, ties broken by lowest node id.

    With recompute (the default, the stricter worst case) degrees are
    re-evaluated on the degraded graph after every removal; otherwise the
    initial degrees fix the whole order.  One lazy min-heap of int keys
    v - d*n (node v, degree d), which sort as (-d, v) since 0 <= v < n, serves
    both; a popped key no longer its node's is skipped: O((n+m) log n).
    """
    n = g.n
    count = _integer("count", count, 0, n)
    indptr, indices = g.csr[0].tolist(), g.csr[1].tolist()
    key = [v - d * n for v, d in enumerate(g.degrees())]  # n once removed
    heap = key.copy()
    heapq.heapify(heap)
    order = []
    while len(order) < count:
        k = heapq.heappop(heap)
        v = k % n
        if k != key[v]:  # stale degree, or v removed
            continue
        order.append(v)
        key[v] = n
        if recompute:
            for u in indices[indptr[v]:indptr[v + 1]]:
                if key[u] < n:  # alive: its degree drops by one
                    key[u] += n
                    heapq.heappush(heap, key[u])
    return AttackPlan(kind="node", strategy="degree", order=tuple(order))


def _random_plan(g: Graph, kind: str, count: int, seed: int) -> tuple[AttackPlan, list[int]]:
    """The plan of plan_random_nodes or plan_random_links, by kind, and the ids
    its shuffle drew: random.Random(seed).shuffle's draws, inlined and so
    pinned to getrandbits (MT19937).  seed and count follow _integer's rule."""
    getrandbits = _rng(seed).getrandbits
    total = g.n if kind == "node" else g.m
    count = _integer("count", count, 0, total)
    ids = list(range(total))
    # shuffle, _randbelow inlined: for i = total-1 .. 1 swap ids[i], ids[j], j
    # drawn in k = (i + 1).bit_length() bits until j <= i; one k per run of i
    for k in range(total.bit_length(), 1, -1):
        for i in range(min(total, (1 << k) - 1) - 1, (1 << k - 1) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            ids[i], ids[j] = ids[j], ids[i]
    del ids[count:]
    if kind == "node":
        order = tuple(ids)
    else:  # on a tuple a comprehension takes half the time of map(edges.__getitem__, ids)
        edges = g.edges
        order = tuple([edges[i] for i in ids])
    return AttackPlan(kind=kind, strategy=f"random-{kind}", order=order, seed=int(seed)), ids


def plan_random_nodes(g: Graph, count: int, seed: int) -> AttackPlan:
    """Uniform node sample without replacement: the first count ids of
    range(n) after random.Random(seed).shuffle, a Fisher-Yates shuffle,
    inlined and pinned to getrandbits.  The seed is a nonnegative integer."""
    return _random_plan(g, "node", count, seed)[0]


def plan_random_links(g: Graph, count: int, seed: int) -> AttackPlan:
    """Uniform link sample without replacement: the links at the first count
    ids of range(m) after random.Random(seed).shuffle, a Fisher-Yates shuffle,
    inlined and pinned to getrandbits.  The seed is a nonnegative integer."""
    return _random_plan(g, "link", count, seed)[0]

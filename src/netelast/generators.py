"""Synthetic topology generators: fixed families plus seeded random models.

Every size follows _integer's rule with no bound there; each generator
states its own range."""

from __future__ import annotations

import random
from typing import Sequence

from .graph import Graph, _integer, make_graph

__all__ = [
    "complete_graph",
    "cycle_graph",
    "erdos_renyi",
    "generate",
    "grid_graph",
    "parse_generator_spec",
    "path_graph",
    "scale_free_ba",
    "star_graph",
    "wheel_graph",
]


def path_graph(n: int) -> Graph:
    n = _integer("n", n, None)
    if n < 1:
        raise ValueError("path requires n >= 1")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    n = _integer("n", n, None)
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    n = _integer("n", n, None)
    if n < 1:
        raise ValueError("complete requires n >= 1")
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Hub node 0 joined to n-1 leaves."""
    n = _integer("n", n, None)
    if n < 1:
        raise ValueError("star requires n >= 1")
    return make_graph(n, [(0, i) for i in range(1, n)])


def wheel_graph(n: int) -> Graph:
    """Hub node 0 joined to every node of the rim cycle 1..n-1."""
    n = _integer("n", n, None)
    if n < 4:
        raise ValueError("wheel requires n >= 4")
    pairs = [(0, i) for i in range(1, n)]
    rim = list(range(1, n))
    pairs += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return make_graph(n, pairs)


def grid_graph(rows: int, cols: int) -> Graph:
    """4-neighbor lattice; node (r, c) gets id r*cols + c."""
    rows, cols = _integer("rows", rows, None), _integer("cols", cols, None)
    if rows < 1 or cols < 1:
        raise ValueError("grid requires rows, cols >= 1")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return make_graph(rows * cols, pairs)


def _rng(seed: int) -> random.Random:
    """A random.Random for seed, which follows _integer's rule.  random.Random
    seeds an int by its absolute value, so the rule's floor of 0 keeps a
    negative seed from repeating its positive twin's draws."""
    return random.Random(_integer("seed", seed))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the n(n-1)/2 links present independently with
    probability p.  A negative seed is refused."""
    n = _integer("n", n, None)
    if n < 1:
        raise ValueError("erdos_renyi requires n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = _rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, pairs)


def scale_free_ba(n: int, seed_nodes: int, links_per_node: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph grown from a complete seed graph.

    Each new node attaches links_per_node distinct links to existing nodes,
    chosen with probability proportional to current degree (lottery over a
    degree-repeated node list; collisions are re-drawn so the graph stays
    simple).  When every existing node still has degree zero the draw falls
    back to uniform over existing nodes.  A negative seed is refused.
    """
    n = _integer("n", n, None)
    seed_nodes = _integer("seed_nodes", seed_nodes, None)
    links_per_node = _integer("links_per_node", links_per_node, None)
    if seed_nodes < 1 or n < seed_nodes:
        raise ValueError("scale_free_ba requires 1 <= seed_nodes <= n")
    if not 1 <= links_per_node <= seed_nodes:
        raise ValueError("scale_free_ba requires 1 <= links_per_node <= seed_nodes")
    rng = _rng(seed)
    pairs = [(i, j) for i in range(seed_nodes) for j in range(i + 1, seed_nodes)]
    lottery: list[int] = []
    for u, v in pairs:
        lottery.append(u)
        lottery.append(v)
    for src in range(seed_nodes, n):
        targets: set[int] = set()
        while len(targets) < links_per_node:
            if lottery:
                pick = lottery[rng.randrange(len(lottery))]
            else:
                pick = rng.randrange(src)
            if pick not in targets:
                targets.add(pick)
        for t in sorted(targets):
            pairs.append((t, src))
            lottery.append(t)
            lottery.append(src)
    return make_graph(n, pairs)


_GENERATORS = {
    "path": (path_graph, (int,), False),
    "cycle": (cycle_graph, (int,), False),
    "complete": (complete_graph, (int,), False),
    "star": (star_graph, (int,), False),
    "wheel": (wheel_graph, (int,), False),
    "grid": (grid_graph, (int, int), False),
    "erdos_renyi": (erdos_renyi, (int, float), True),
    "scale_free_ba": (scale_free_ba, (int, int, int), True),
}

_ALIASES = {"er": "erdos_renyi", "ba": "scale_free_ba"}


def _resolve(name: str, params: Sequence) -> tuple[str, tuple]:
    """The kind name (or alias) resolves to and params cast to its signature.

    Every failure is a ValueError; a casting one quotes name and params
    joined by colons, the spec that parse_generator_spec reads.
    """
    kind = _ALIASES.get(name, name)
    if kind not in _GENERATORS:
        raise ValueError(f"unknown topology kind {name!r}")
    _, sig, _ = _GENERATORS[kind]
    if len(params) != len(sig):
        raise ValueError(f"{kind} takes {len(sig)} parameter(s), got {len(params)}")
    try:
        return kind, tuple(cast(p) for cast, p in zip(sig, params))
    except ValueError:
        spec = ":".join([name, *map(str, params)])
        raise ValueError(f"bad parameters in generator spec {spec!r}") from None


def generate(kind: str, params: Sequence, seed: int = 0) -> Graph:
    """Build a named topology; deterministic given (kind, params, seed)."""
    kind, args = _resolve(kind, params)
    fn, _, seeded = _GENERATORS[kind]
    return fn(*args, seed) if seeded else fn(*args)


def parse_generator_spec(spec: str) -> tuple[str, tuple]:
    """Parse compact ``kind:param:param`` syntax, e.g. ``ba:1000:3:3``."""
    name, *params = spec.split(":")
    return _resolve(name, params)

"""All-pairs shortest-path routing, per-link flow counts, and throughput.

The traffic model places one unit of demand on every ordered pair of nodes
that can reach each other.  Each deliverable pair is routed over exactly one
shortest path, chosen deterministically: walking back from the destination,
every node hands the flow to its lowest-id neighbor that sits one hop closer
to the origin.  Equivalently, among all shortest paths the one whose node
sequence read destination-to-origin is lexicographically smallest wins.
Tie handling is single-path on purpose: splitting flows would make the
bottleneck load fractional.

Throughput of a graph is the number of deliverable ordered pairs divided by
the bottleneck link load (the busiest link's flow count): the per-pair rate
at which the busiest unit-capacity link saturates, times the number of
flows.  A graph with no deliverable flows has throughput 0 by convention.

An attack sweep asks for the throughput of nested samples of one graph, each
keeping the links whose removal rank reaches a target (masked_throughputs).
Bottleneck mode routes every sample from scratch, cut from the intact graph's
CSR by a link mask.  Flow-ratio mode needs only deliverable pair counts, and
those come from one reverse union-find pass per sweep that adds the links
back in descending rank.  So routing also says which targets of a sweep are
measured together (target_groups): a whole flow-ratio sweep, or one
bottleneck sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import Graph, edge_ends

#: Normalization modes for throughput relative to the intact baseline:
#: "bottleneck" re-derives the bottleneck rate on the degraded graph
#: (default); "flow-ratio" compares deliverable flow counts only.
MODES = ("bottleneck", "flow-ratio")
DEFAULT_MODE = "bottleneck"

# Source-block cap: the block x slots arrays of the parent pick (slots = 2m,
# never fewer than the linked nodes) dominate, so each stays within ~12 MB.
_BLOCK_CELLS = 1_500_000


@dataclass(frozen=True, eq=False)
class FlowAssignment:
    """Per-link flow counts from routing every deliverable ordered pair.

    link_load is aligned with Graph.edges (a masked route gives its removed
    links 0); delivered counts ordered pairs
    (so it is even and sums s*(s-1) over component sizes); max_link_load is
    the bottleneck count, 0 when the graph has no links.
    """

    link_load: np.ndarray
    delivered: int
    max_link_load: int


def delivered_flow_count(g: Graph) -> int:
    """Deliverable ordered pairs without routing: sum of s*(s-1) per component."""
    return _pair_counts(g, np.zeros(g.m, dtype=np.int64), [0])[0]


def _pair_counts(g: Graph, rank: np.ndarray, targets: Sequence[int]) -> list[int]:
    """Deliverable ordered pairs of g masked to rank >= t, for each t in targets.

    Newman & Ziff's (2000) percolation pass, run backwards over an attack:
    the links join a union-find (union by size, path halving; Tarjan 1975)
    in descending rank, and a merge of components of sizes a and b adds
    2ab ordered pairs.  The running total, read at each target from the
    largest down, is the sum of s*(s-1) over the masked graph's components.
    """
    order = np.argsort(-rank, kind="stable")
    links = edge_ends(g).reshape(-1, 2)[order].tolist()
    ranks = rank[order].tolist()
    root = list(range(g.n))
    size = [1] * g.n

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    pairs = added = 0
    counts = [0] * len(targets)
    for i in sorted(range(len(targets)), key=targets.__getitem__, reverse=True):
        while added < len(ranks) and ranks[added] >= targets[i]:
            u, v = links[added]
            added += 1
            a, b = find(u), find(v)
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                root[b] = a
                pairs += 2 * size[a] * size[b]
                size[a] += size[b]
        counts[i] = pairs
    return counts


def route_all_pairs(g: Graph, keep: np.ndarray | None = None) -> FlowAssignment:
    """Route every deliverable ordered pair and tally per-link flows.

    With keep, a boolean mask over g.edges, routes g masked to the kept
    links without building a Graph: selecting the kept slots of g's CSR
    keeps each row in ascending neighbor order, and the slot->link map
    restricted to them still names g's link ids, so removed links read 0.

    Runs a BFS-distance pass per source (in blocks).  A reachable node's
    parent is its lowest-id neighbor one hop closer to the source; as no
    neighbor is closer still and slots ascend by neighbor id, its slot is
    the first minimum of the packed key dist[neighbor] * nslots + slot over
    the node's CSR segment (key % nslots), exact while n * nslots < 2**53.
    Flow counts follow Brandes' (2001) dependency accumulation with a single
    predecessor: subtree sizes of the per-source routing trees, summed
    deepest-first, so no individual path is ever materialized.  The parent
    slot also names the tree link through the slot->link map.
    """
    m = g.m
    indptr, indices, slot_link = g.csr
    if keep is not None:
        kept = keep[slot_link]
        indptr = np.concatenate(([0], np.cumsum(kept)))[indptr]
        indices, slot_link = indices[kept], slot_link[kept]
    if not len(indices):
        return FlowAssignment(link_load=np.zeros(m, dtype=np.int64), delivered=0, max_link_load=0)

    # Linkless nodes deliver nothing and carry nothing, so a monotone relabel
    # drops them: routing cost follows the linked nodes, lowest-id choices are
    # unchanged, and every node's CSR segment is non-empty.
    linked = np.diff(indptr) > 0
    indptr = np.append(indptr[:-1][linked], len(indices))
    indices = (np.cumsum(linked) - 1)[indices]
    n = len(indptr) - 1
    nslots = len(indices)
    adj = csr_matrix((np.ones(nslots, dtype=np.int8), indices, indptr), shape=(n, n))
    slots = np.arange(nslots)

    load_acc = np.zeros(m, dtype=np.float64)
    delivered = 0
    block = max(1, _BLOCK_CELLS // nslots)
    for start in range(0, n, block):
        sources = np.arange(start, min(start + block, n))
        dist = dijkstra(adj, directed=True, unweighted=True, indices=sources)
        key = dist[:, indices]
        key *= nslots
        key += slots
        first_key = np.minimum.reduceat(key, indptr[:-1], axis=1).ravel()
        del key  # free the block x slots array before the per-cell ones

        # Routed pairs are the flat cells of the block, deepest first; a
        # cell's parent is the cell of the same source at the parent node.
        flat_dist = dist.ravel()
        child = np.flatnonzero((flat_dist > 0) & (flat_dist < np.inf))
        delivered += len(child)
        depth = flat_dist[child]
        order = np.argsort(-depth)
        child, depth = child[order], depth[order]
        slot = first_key[child].astype(np.int64) % nslots
        parent = child // n * n + indices[slot]

        # Subtree sizes of the routing trees, accumulated level by level; the
        # sizes are exact integers, so the order within a level is free.
        size = np.ones(dist.size)
        cuts = np.flatnonzero(np.diff(depth)) + 1
        for kids, parents in zip(np.split(child, cuts), np.split(parent, cuts)):
            np.add.at(size, parents, size[kids])

        # Each tree edge (parent, v) carries one flow per node in v's subtree.
        load_acc += np.bincount(slot_link[slot], weights=size[child], minlength=m)

    link_load = load_acc.astype(np.int64)
    return FlowAssignment(link_load=link_load, delivered=delivered, max_link_load=int(link_load.max()))


def target_groups(targets: Sequence[int], mode: str = DEFAULT_MODE) -> list[tuple[int, ...]]:
    """targets split into the groups that masked_throughputs measures as one
    piece of work: one union-find pass serves a whole flow-ratio sweep,
    while every bottleneck sample is a route of its own."""
    if mode not in MODES:
        raise ValueError(f"unknown throughput mode {mode!r}")
    if mode == "flow-ratio":
        return [tuple(targets)]
    return [(t,) for t in targets]


def masked_throughputs(
    g: Graph, rank: np.ndarray, targets: Sequence[int], mode: str = DEFAULT_MODE
) -> list[float]:
    """Throughput of g masked to the links with rank >= t, one value per target t.

    rank is aligned with g.edges; removed nodes stay as isolated nodes.
    bottleneck mode routes each masked sample and returns deliverable pairs
    over the bottleneck load, 0.0 when nothing routes.  flow-ratio mode
    returns deliverable pair counts (ints, so ratios of counts divide
    exactly as int/int) from one reverse union-find pass over all targets,
    without routing.  Only routing branches on mode: here, for what a
    mode measures, and in target_groups, for which targets are measured
    together.
    """
    if mode not in MODES:
        raise ValueError(f"unknown throughput mode {mode!r}")
    if mode == "flow-ratio":
        return _pair_counts(g, rank, targets)
    values = []
    for t in targets:
        fa = route_all_pairs(g, rank >= t)
        values.append(fa.delivered / fa.max_link_load if fa.max_link_load else 0.0)
    return values


def throughput(g: Graph, mode: str = DEFAULT_MODE) -> float:
    """Throughput of g as mode measures it: the one-target masked_throughputs."""
    return masked_throughputs(g, np.zeros(g.m, dtype=np.int64), [0], mode)[0]


def normalized_throughput(g_current: Graph, baseline: float, mode: str = DEFAULT_MODE) -> float:
    """Throughput of g_current relative to the intact graph's, baseline.

    baseline is throughput(intact, mode).  The intact graph scores exactly
    1, and every graph scores 0 when the baseline itself is 0; an unknown
    mode is rejected even then.
    """
    current = throughput(g_current, mode)
    return current / baseline if baseline else 0.0

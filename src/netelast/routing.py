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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import Graph, connected_components, edge_ends

#: Normalization modes for throughput relative to the intact baseline:
#: "bottleneck" re-derives the bottleneck rate on the degraded graph
#: (default); "flow-ratio" compares deliverable flow counts only.
MODES = ("bottleneck", "flow-ratio")
DEFAULT_MODE = "bottleneck"

# Source-block cap so per-block distance matrices stay within ~tens of MB.
_BLOCK_CELLS = 1_500_000


@dataclass(frozen=True, eq=False)
class FlowAssignment:
    """Per-link flow counts from routing every deliverable ordered pair.

    link_load is aligned with Graph.edges; delivered counts ordered pairs
    (so it is even and sums s*(s-1) over component sizes); max_link_load is
    the bottleneck count, 0 when the graph has no links.
    """

    link_load: np.ndarray
    delivered: int
    max_link_load: int


@dataclass(frozen=True)
class ThroughputSample:
    """Raw throughput delivered/max_link_load plus the flow count behind it."""

    raw: float
    delivered: int


def delivered_flow_count(g: Graph) -> int:
    """Deliverable ordered pairs without routing: sum of s*(s-1) per component."""
    return sum(s * (s - 1) for s in connected_components(g).component_sizes)


def _csr_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, indices), each slot's node, and its link id.

    Nodes without links are dropped: a monotone relabel (np.unique) numbers
    the linked nodes 0..len(indptr)-2 in id order, so routing cost follows
    the linked nodes, not g.n, and lowest-id choices are unchanged.
    Stable-sorting the flattened canonical edge list by endpoint lists each
    node's links in canonical order, which is ascending neighbor order
    (all lower neighbors precede all upper ones), i.e. exactly the sorted
    adjacency.  Entry 2e or 2e+1 of the flattened list belongs to link e, so
    the sort permutation itself is the slot->link map.
    """
    nodes, ends = np.unique(edge_ends(g), return_inverse=True)
    order = np.argsort(ends, kind="stable")
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends), out=indptr[1:])
    return indptr, ends[order ^ 1], ends[order], order // 2


def route_all_pairs(g: Graph) -> FlowAssignment:
    """Route every deliverable ordered pair and tally per-link flows.

    Runs a BFS-distance pass per source (in blocks), then derives each
    node's parent as its lowest-id neighbor one hop closer to the source.
    Flow counts follow Brandes' (2001) dependency accumulation with a single
    predecessor: subtree sizes of the per-source routing trees, summed
    deepest-first, so no individual path is ever materialized.  The CSR
    slot that names a node's parent also names the tree link through the
    slot->link map, so loads land on link ids without any edge lookup.
    """
    m = g.m
    if m == 0:
        return FlowAssignment(link_load=np.zeros(m, dtype=np.int64), delivered=0, max_link_load=0)

    # n counts linked nodes only: linkless ones deliver nothing, carry nothing.
    indptr, indices, slot_node, slot_link = _csr_arrays(g)
    n = len(indptr) - 1
    adj = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))

    # CSR slot bookkeeping for the vectorized parent selection below.  Every
    # node has a link, so each reduceat segment is non-empty; the sentinel
    # value nslots marks "no parent" (the source and unreachable nodes).
    nslots = len(indices)
    slot_pos = np.arange(nslots, dtype=np.int64)
    segments = indptr[:-1]

    load_acc = np.zeros(m, dtype=np.float64)
    delivered = 0
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, block):
        sources = np.arange(start, min(start + block, n))
        dist = dijkstra(adj, directed=True, unweighted=True, indices=sources)
        if dist.ndim == 1:
            dist = dist[np.newaxis, :]
        reachable = np.isfinite(dist)
        delivered += int(reachable.sum()) - len(sources)

        # Parent slot of v toward s: mark eligible CSR slots (neighbor one hop
        # closer to s), then take each node's first eligible slot (neighbor
        # lists are ascending, so first slot = lowest-id neighbor).
        eligible = dist[:, indices] + 1.0 == dist[:, slot_node]
        slot_or_sentinel = np.where(eligible, slot_pos, nslots)
        first_slot = np.minimum.reduceat(slot_or_sentinel, segments, axis=1)

        # Subtree sizes of the routing trees, accumulated deepest-first.
        size = reachable.astype(np.float64)
        rows, cols = np.nonzero(reachable & (dist > 0))
        depth = dist[rows, cols].astype(np.int64)
        order = np.argsort(-depth, kind="stable")
        rows, cols, depth = rows[order], cols[order], depth[order]
        flat = size.ravel()
        child_idx = rows * n + cols
        parent_slot = first_slot[rows, cols]
        parent_idx = rows * n + indices[parent_slot]
        cuts = np.flatnonzero(np.diff(depth)) + 1
        for lo, hi in zip(
            np.concatenate(([0], cuts)), np.concatenate((cuts, [len(depth)]))
        ):
            np.add.at(flat, parent_idx[lo:hi], flat[child_idx[lo:hi]])

        # Each tree edge (parent, v) carries one flow per node in v's subtree.
        load_acc += np.bincount(slot_link[parent_slot], weights=flat[child_idx], minlength=m)

    link_load = load_acc.astype(np.int64)
    max_load = int(link_load.max()) if m else 0
    return FlowAssignment(link_load=link_load, delivered=delivered, max_link_load=max_load)


def raw_throughput(fa: FlowAssignment) -> ThroughputSample:
    """Deliverable flow count over bottleneck load; 0 when nothing routes."""
    raw = fa.delivered / fa.max_link_load if fa.max_link_load else 0.0
    return ThroughputSample(raw=raw, delivered=fa.delivered)


def normalized_throughput(
    g_current: Graph, baseline: ThroughputSample, mode: str = DEFAULT_MODE
) -> float:
    """Throughput of g_current relative to the intact-graph baseline.

    bottleneck mode divides raw throughputs; flow-ratio mode divides
    deliverable flow counts.  Both give exactly 1 for the intact graph and
    0 when the baseline itself delivered nothing.
    """
    if mode not in MODES:
        raise ValueError(f"unknown throughput mode {mode!r}")
    if mode == "flow-ratio":
        if baseline.delivered == 0:
            return 0.0
        return delivered_flow_count(g_current) / baseline.delivered
    if baseline.raw == 0.0:
        return 0.0
    fa = route_all_pairs(g_current)
    return raw_throughput(fa).raw / baseline.raw

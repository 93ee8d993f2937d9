"""All-pairs shortest-path routing, per-link flow counts, and throughput.

The traffic model places one unit of demand on every ordered pair of nodes
that can reach each other.  Each deliverable pair is routed over exactly one
shortest path, chosen deterministically: walking back from the destination,
every node hands the flow to its lowest-id neighbor that sits one hop closer
to the origin.  Equivalently, among all shortest paths the one whose node
sequence read destination-to-origin is lexicographically smallest wins.
Tie handling is single-path on purpose: splitting flows would make the
bottleneck load fractional.

route_all_pairs states why its tree per destination is that route, why
pendant trees can be peeled off with a closed-form bridge load, and why
routing only the 2-core that is left stays exact.

Throughput of a graph is the number of deliverable ordered pairs divided by
the bottleneck link load (the busiest link's flow count): the per-pair rate
at which the busiest unit-capacity link saturates, times the number of
flows.  A graph with no deliverable flows has throughput 0 by convention.

An attack sweep asks for the throughput of nested samples of one graph, each
keeping the links whose removal rank reaches a target (masked_throughputs).
Bottleneck mode routes every sample from scratch, cut from the intact graph's
CSR by a link mask.  Flow-ratio mode needs only deliverable pair counts, and
those come from one reverse union-find pass per sweep that adds the links
back in descending rank.  So routing also cuts a study's trials into work
items and runs them, in a process pool of at most the usable CPUs when
asked.  A work item is a flow-ratio trial, a bottleneck sample, or a root
share of a sample too large for one worker; every bottleneck item sends
back its route, and the parent alone turns a sample's loads into its
throughput.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, _label_components

__all__ = [
    "DEFAULT_MODE",
    "FlowAssignment",
    "MODES",
    "normalized_throughput",
    "route_all_pairs",
    "throughput",
]

#: Normalization modes for throughput relative to the intact baseline:
#: "bottleneck" re-derives the bottleneck rate on the degraded graph
#: (default); "flow-ratio" compares deliverable flow counts only.
MODES = ("bottleneck", "flow-ratio")
DEFAULT_MODE = "bottleneck"

# Root-block cap in routed (root, 2-core node) cells.  A route's tracemalloc
# peak grows by about 52 bytes a cell: 44 in the six buffers allocated once
# per route (node 4; parent position, subtree sum, level order and two
# gather buffers 8 each) and 8 in the tree-link lookup that scipy returns,
# so a route peaks near 8 MiB.  Grid 64x64 and BA-1024/4096 routes ran no
# faster with blocks of 70k or 200k cells.
_BLOCK_CELLS = 140_000


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
    in descending rank, ties in g.edges order, and a merge of components of
    sizes a and b adds 2ab ordered pairs.  The running total, read at each
    target from the largest down (targets may come in any order and
    repeat), is the sum of s*(s-1) over the masked graph's components.  The
    loop is the pass's whole cost, so both finds are inlined and the ends
    are read from two int lists.
    """
    order = np.argsort(-rank, kind="stable")
    us, vs = g.ends.reshape(-1, 2)[order].T.tolist()
    kept = (rank.size - np.searchsorted(np.sort(rank), targets)).tolist()  # links with rank >= t
    root = list(range(g.n))
    size = [1] * g.n
    pairs = added = 0
    counts = [0] * len(targets)
    for i in sorted(range(len(targets)), key=kept.__getitem__):
        for a, b in zip(us[added:kept[i]], vs[added:kept[i]]):
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                sa, sb = size[a], size[b]
                if sa < sb:
                    root[a] = b
                    size[b] = sa + sb
                else:
                    root[b] = a
                    size[a] = sa + sb
                pairs += sa * sb
        added = kept[i]
        counts[i] = 2 * pairs
    return counts


def route_all_pairs(g: Graph, keep: np.ndarray | None = None) -> FlowAssignment:
    """Route every deliverable ordered pair and tally per-link flows.

    With keep, a boolean array of shape (g.m,) over g.edges (anything else
    raises ValueError), routes g masked to the kept links without building a
    Graph: the kept slots of g's CSR (_cut) keep each row in ascending
    neighbor order and still name g's link ids, so removed links read 0.

    The routes into one destination t form a tree.  A FIFO BFS from t that
    scans each node's neighbors in ascending id order reaches every level in
    the lexicographic order of the tree paths read from t, so each node's
    tree parent is, of its neighbors one hop closer to t, the one whose own
    route is smallest; by induction the tree path to s is the
    lexicographically smallest shortest path read from t, which is the
    routing rule.  scipy's breadth_first_order keeps that order, as it scans
    CSR rows in stored order.

    Pendant trees are not searched.  Degree-1 nodes are peeled off in
    rounds (_peel), each folding its weight (itself plus the tree peeled
    into it) into its one remaining neighbor.  A peeled link that cuts a
    tree of w nodes off a component of C nodes is a bridge, crossed once by
    every route between its sides, so it carries 2*w*(C - w) flows whatever
    the tie rule.  Only the 2-core is searched: the slots with both ends in
    it, under the original ids, so lowest-id order is unchanged.  That is
    exact: a shortest path between two core nodes never enters a pendant
    tree, and when s and t hang off different core nodes a and b, the route
    of (s, t) runs the forced tree path from t to b, a core segment from b
    to a, then the forced tree path from a to s.  Every shortest path from
    t to s shares that prefix and suffix, so the lexicographic choice falls
    to the core segment alone, which is the core route of (a, b).

    Flow counts follow Brandes' (2001) dependency accumulation with a single
    predecessor: the link from a node to its parent carries one flow per
    source in the node's subtree, so subtree sums start at each node's
    weight, and t's tree counts w(t) times, once per destination that t
    stands for.  Subtree sums run level by level, deepest first.  Along one
    BFS order the parents' positions never decrease, so each level ends
    where the parents leave the level above (a searchsorted), and no depth
    is sorted or stored.  Every count is an integer of at most n**2, exact
    in float64.  delivered is the sum of C*(C - 1) over component sizes.
    """
    return _route(g, keep)


def _route(g: Graph, keep: np.ndarray | None = None, part: int = 0, parts: int = 1) -> FlowAssignment:
    """Share part of parts of route_all_pairs(g, keep): the loads of the
    routes into the core roots roots[part::parts] (interleaved, so each
    share spreads over the core and its components), and, in share 0
    alone, the peeled links' bridge loads.  Every load is an exact integer,
    so the shares' link_load arrays sum, in any order, to the route's.
    Every share has the route's delivered; max_link_load is the share's own.
    """
    # Only a route uses scipy, so commands that never route start without it.
    from scipy.sparse import csr_array, csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    m, n = g.m, g.n
    indptr, indices, slot_link = g.csr
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (m,):
            raise ValueError(f"keep must be a bool array of shape ({m},), "
                             f"got {keep.dtype} of shape {keep.shape}")
        indptr, indices, slot_link = _cut(indptr, indices, slot_link, keep[slot_link])

    label, sizes = _label_components(indptr, indices)
    delivered = int((sizes * (sizes - 1)).sum())
    weight, core, up = _peel(indptr, indices, slot_link)
    peeled = up >= 0
    w = weight[peeled]
    load_acc = np.zeros(m, dtype=np.float64)
    if part == 0:
        load_acc[up[peeled]] = 2 * w * (sizes[label[peeled]] - w)

    indptr, indices, slot_link = _cut(indptr, indices, slot_link,
                                      np.repeat(core, np.diff(indptr)) & core[indices])
    # float64 data and the int32 indices csr_matrix picks are what
    # breadth_first_order works on, so it searches this graph as it is.
    # link_of shares its indices: entry (u, v) is the id of link uv plus 1,
    # and an absent entry reads 0.
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    link_of = csr_array((slot_link + 1, graph.indices, graph.indptr), shape=(n, n))
    del indices, slot_link  # not read past here: freed before the searches
    core_size = int(core.sum())
    roots = np.flatnonzero(core)[part::parts]

    # each node's place in the BFS order of the root being searched
    position = np.empty(n, dtype=np.int64)
    block = max(1, _BLOCK_CELLS // max(core_size, 1))
    # Every array of block size is allocated once, here, and each block
    # writes into slices of it, as fresh ones would be paged in anew for
    # each block; a block fills at most block * core_size entries.
    cells = min(block, len(roots)) * core_size
    count = np.arange(n)  # places in one BFS order, so of size n
    node_buf = np.empty(cells, dtype=np.int32)
    # int64 like the level bounds, so searchsorted never casts the parents
    parent_buf = np.empty(cells, dtype=np.int64)
    subtree_buf = np.empty(cells)
    level_buf = np.empty(cells, dtype=np.int64)
    # a level's parent positions; viewed as int32, each entry's parent node
    gather_buf = np.empty(cells, dtype=np.int64)
    sum_buf = np.empty(cells)
    for first in range(0, len(roots), block):
        # The block's BFS orders, one root after the other: each entry's
        # node and its parent's position in the block.
        block_roots = roots[first:first + block]
        starts = []
        offset = 0
        for t in block_roots:
            order, pred = breadth_first_order(graph, t, return_predecessors=True)
            stop = offset + len(order)
            node_buf[offset:stop] = order
            pred[t] = t  # its own parent: keeps parents nondecreasing
            position[order] = count[:len(order)]
            np.add(position.take(pred.take(order)), offset, out=parent_buf[offset:stop])
            starts.append(offset)
            offset = stop
        starts, stops = np.array(starts), np.array(starts[1:] + [offset])
        node, parent, subtree = node_buf[:offset], parent_buf[:offset], subtree_buf[:offset]

        # Level k of every root spans positions [bounds[k], bounds[k + 1]):
        # a level ends where the parents leave the level before it.  The
        # parents never decrease over the whole block (each root is its own
        # parent), so no level runs past its root's order.
        bounds = [starts, starts + 1]
        while True:
            end = parent.searchsorted(bounds[-1])
            if (end == bounds[-1]).all():
                break
            bounds.append(end)
        lo, hi = np.array(bounds[1:-1]), np.array(bounds[2:])
        by_level = _runs(lo.ravel(), (hi - lo).ravel(), level_buf)

        # take buffers its out array unless its mode is "clip" or "wrap",
        # and those never raise, so the indices are range checked here.
        for index, size in ((node, n), (parent, offset), (by_level, offset)):
            if len(index) and (index.min() < 0 or index.max() >= size):
                raise IndexError(f"route index out of range 0..{size - 1}")
        weight.take(node, out=subtree, mode="clip")

        # Subtree sums, deepest level first; the sums are exact integers,
        # so the order within a level is free.
        for kids in np.split(by_level, np.cumsum((hi - lo).sum(axis=1))[:-1])[::-1]:
            np.add.at(subtree, parent.take(kids, out=gather_buf[:len(kids)], mode="clip"),
                      subtree.take(kids, out=sum_buf[:len(kids)], mode="clip"))

        # Each tree link carries one flow per source in the subtree below
        # it, into each of the w(t) destinations behind the root t.  A
        # root's own entry reads link_of 0, a bin that is dropped.
        for i in np.flatnonzero(weight[block_roots] > 1):
            subtree[starts[i]:stops[i]] *= weight[block_roots[i]]
        parent_node = node.take(parent, out=gather_buf.view(np.int32)[:offset], mode="clip")
        load_acc += np.bincount(link_of[node, parent_node], weights=subtree, minlength=m + 1)[1:]

    link_load = load_acc.astype(np.int64)
    return FlowAssignment(link_load, delivered, int(link_load.max(initial=0)))


def _runs(lo: np.ndarray, lens: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The runs lo[i], lo[i] + 1, ..., lo[i] + lens[i] - 1 one after the
    other, written into the front of out and returned as that slice.

    It is np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    built in place: ones, a jump at the start of each non-empty run, then a
    running sum, so no array of out's size is allocated.
    """
    full = lens > 0
    lo, lens = lo[full], lens[full]
    order = out[:lens.sum()]
    order.fill(1)
    if len(lo):
        jump = lo.copy()
        jump[1:] -= lo[:-1] + lens[:-1] - 1
        order[np.cumsum(lens) - lens] = jump
        np.cumsum(order, out=order)
    return order


def _cut(indptr: np.ndarray, indices: np.ndarray, slot_link: np.ndarray,
         kept: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR graph (indptr, indices, slot_link) cut to the slots where kept
    is true: every node keeps its id, and each row its order."""
    return np.concatenate(([0], np.cumsum(kept)))[indptr], indices[kept], slot_link[kept]


def _peel(indptr: np.ndarray, indices: np.ndarray,
          slot_link: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strip the pendant trees off a symmetric CSR graph, round by round.

    Each round peels every degree-1 node into its one remaining neighbor,
    reading only the peeled nodes' rows, so the whole peel reads each slot
    at most once.  Returns each node's weight (itself plus every node peeled
    into it, a float64 count like the loads; final once the node is
    peeled), the 2-core mask, and each node's peeled link, -1 if it was not
    peeled.  Two leaves joined to each other are what is left of a tree:
    the higher id is peeled and the lower one keeps the whole tree.
    """
    deg = np.diff(indptr)
    weight = np.ones(len(deg))
    up = np.full(len(deg), -1, dtype=np.int64)
    leaves = np.flatnonzero(deg == 1)
    while len(leaves):
        # each leaf's row holds exactly one slot to a node not yet peeled
        first, lens = indptr[leaves], indptr[leaves + 1] - indptr[leaves]
        slots = _runs(first, lens, np.empty(lens.sum(), dtype=np.int64))
        slots = slots[deg[indices[slots]] > 0]
        nbr = indices[slots]
        # of two leaves joined to each other, only the higher id is peeled
        lone = (deg[nbr] > 1) | (nbr < leaves)
        leaves, slots, nbr = leaves[lone], slots[lone], nbr[lone]
        np.add.at(weight, nbr, weight[leaves])
        np.subtract.at(deg, nbr, 1)
        deg[leaves] = 0
        up[leaves] = slot_link[slots]
        leaves = np.unique(nbr[deg[nbr] == 1])
    return weight, deg > 0, up


# The (graph, ranks, mode) a pool worker measures, set once per worker by
# the pool's initializer, so the graph and the ranks reach each worker once.
_worker_study: tuple = ()


def _init_worker(*study) -> None:
    global _worker_study
    _worker_study = study


# A work item: (trial, its targets, share, shares).  A flow-ratio trial
# holds all its targets, a bottleneck sample one, and only a bottleneck
# sample is cut into more than one root share.
_Item = tuple[int, tuple[int, ...], int, int]


def _measure(item: _Item, study: tuple = ()) -> list[int] | FlowAssignment:
    """One work item's values in the study given or else in the worker's: a
    flow-ratio trial's pair counts at each of its targets, or the route of
    a bottleneck sample, whole or one root share, for _fold to finish."""
    g, ranks, mode = study or _worker_study
    trial, group, part, parts = item
    if mode == "flow-ratio":
        return _pair_counts(g, ranks[trial], group)
    keep = ranks[trial] >= group[0]
    # a whole sample is routed under the name perfbench's tracer wraps
    return _route(g, keep, part, parts) if parts > 1 else route_all_pairs(g, keep)


def _fold(items: list[_Item], values: Iterable[list[int] | FlowAssignment]) -> dict:
    """Each sample's or trial's values by (trial, group), read in item
    order as they arrive.  A route's loads are added to its sample's, and
    at the sample's last share its throughput, delivered pairs over the
    bottleneck load (0.0 when no link carries a flow), is taken from the
    sum, so only the loads of samples in flight are held."""
    measured, sums = {}, {}
    for (k, group, part, parts), value in zip(items, values):
        if isinstance(value, FlowAssignment):
            loads = sums.pop((k, group), 0) + value.link_load
            if part < parts - 1:
                sums[k, group] = loads
                continue
            top = int(loads.max(initial=0))
            value = [value.delivered / top if top else 0.0]
        measured[(k, group)] = value
    return measured


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def masked_throughputs(
    g: Graph, ranks: Sequence[np.ndarray], targets: Sequence[int],
    mode: str = DEFAULT_MODE, jobs: int = 1,
) -> list[list[float]]:
    """Throughput of g masked to the links with rank >= t: for each trial's
    rank array in ranks (aligned with g.edges, nonnegative), its values at
    the targets t, in target order.

    Removed nodes stay as isolated nodes.  bottleneck mode routes each
    masked sample and returns deliverable pairs over the bottleneck load,
    0.0 when nothing routes.  flow-ratio mode returns deliverable pair
    counts (ints, so ratios of counts divide exactly as int/int) from one
    reverse union-find pass per trial, without routing.  Both modes refuse
    a non-canonical edge list, as g.ends does.

    A work item is one bottleneck sample or one flow-ratio trial.  Target 0
    keeps every link, so the intact route is one item shared by all trials.
    jobs is capped once, at the CPUs this process may use (_usable_cpus),
    and the capped count plans the study.  Above 1, a bottleneck sample too
    large for one worker is cut into root shares, whose exact loads the
    parent sums as they arrive.  Items run largest first in min(jobs, items)
    processes; a pool's workers get g and the ranks once, and fork after
    scipy is imported.  jobs never changes the values; a rank array not of
    shape (g.m,) or with a negative rank is refused.
    """
    if mode not in MODES:
        raise ValueError(f"unknown throughput mode {mode!r}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    for rank in ranks:
        if np.shape(rank) != (g.m,):
            raise ValueError(f"ranks must have shape ({g.m},), got {np.shape(rank)}")
        if np.min(rank, initial=0) < 0:
            raise ValueError("ranks must be nonnegative")
    jobs = min(jobs, _usable_cpus())
    groups = [tuple(targets)] if mode == "flow-ratio" else [(t,) for t in targets]

    def item(k: int, group: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        return (0, group) if group == (0,) else (k, group)

    whole = sorted({item(k, group) for k in range(len(ranks)) for group in groups},
                   key=lambda it: (it[1][0], it[0]))
    # A route costs about (kept links)**2, a search per root over them.
    # Run largest first (Graham 1969), a study ends no sooner than its
    # largest item, so a bottleneck sample above the fair share
    # sum(costs) / jobs is cut into ceil(cost / fair) root shares, at most
    # jobs and one per node.
    costs = [np.count_nonzero(ranks[k] >= group[0]) ** 2 if mode == "bottleneck" else 0
             for k, group in whole]
    fair = sum(costs) / jobs
    items = [(k, group, part, parts) for (k, group), cost in zip(whole, costs)
             for parts in [min(jobs, g.n, math.ceil(cost / fair)) if cost > fair else 1]
             for part in range(parts)]
    study = (g, ranks, mode)
    workers = min(jobs, len(items))
    if workers <= 1:
        measured = _fold(items, (_measure(it, study) for it in items))
    else:
        # multiprocessing is imported only where a pool starts
        from concurrent.futures import ProcessPoolExecutor

        if mode == "bottleneck":  # the workers share this import
            import scipy.sparse.csgraph  # noqa: F401
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=study) as pool:
            measured = _fold(items, pool.map(_measure, items))
    return [[v for group in groups for v in measured[item(k, group)]] for k in range(len(ranks))]


def throughput(g: Graph, mode: str = DEFAULT_MODE) -> float:
    """Throughput of g as mode measures it: the one-target masked_throughputs."""
    return masked_throughputs(g, [np.zeros(g.m, dtype=np.int64)], [0], mode)[0][0]


def normalized_throughput(g_current: Graph, baseline: float, mode: str = DEFAULT_MODE) -> float:
    """Throughput of g_current relative to the intact graph's, baseline.

    baseline is throughput(intact, mode).  The intact graph scores exactly
    1, and every graph scores 0 when the baseline itself is 0; an unknown
    mode is rejected even then.
    """
    current = throughput(g_current, mode)
    return current / baseline if baseline else 0.0

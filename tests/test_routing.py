import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, shortest_path

from netelast import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    make_graph,
    normalized_throughput,
    path_graph,
    plan_targeted_degree,
    remove_links,
    remove_nodes,
    route_all_pairs,
    scale_free_ba,
    star_graph,
    sweep,
    throughput,
    wheel_graph,
)
from netelast.routing import MODES, _runs, delivered_flow_count, masked_throughputs

from flow_oracle import brute_force_flows, total_path_length


def assert_matches_oracle(g):
    fa = route_all_pairs(g)
    loads, delivered, max_load = brute_force_flows(g)
    assert fa.delivered == delivered
    assert fa.max_link_load == max_load
    assert fa.link_load.tolist() == [loads[e] for e in g.edges]
    assert int(fa.link_load.sum()) == total_path_length(g)


def test_p3_flows():
    g = path_graph(3)
    fa = route_all_pairs(g)
    assert fa.delivered == 6
    assert fa.link_load.tolist() == [4, 4]  # recorded from the brute-force oracle
    assert fa.max_link_load == 4


def test_k3_flows():
    fa = route_all_pairs(complete_graph(3))
    assert fa.delivered == 6
    assert fa.link_load.tolist() == [2, 2, 2]
    assert fa.max_link_load == 2


def test_no_links_no_flows():
    fa = route_all_pairs(make_graph(2, []))
    assert fa.delivered == 0
    assert fa.max_link_load == 0
    assert throughput(make_graph(2, [])) == 0.0


def test_empty_graph():
    fa = route_all_pairs(make_graph(0, []))
    assert fa.delivered == 0 and fa.max_link_load == 0


def test_oracle_equivalence_random_graphs():
    for seed in range(40):
        rng = random.Random(seed)
        g = erdos_renyi(rng.randrange(2, 28), rng.uniform(0.05, 0.5), seed=seed)
        assert_matches_oracle(g)


def hypercube(d):
    return make_graph(2**d, [(v, v ^ (1 << i)) for v in range(2**d) for i in range(d)])


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# three components (a 4-cycle, a path and a 5-cycle with a chord) around
# isolated nodes
THREE_PARTS = make_graph(16, [(1, 7), (7, 4), (4, 12), (12, 1), (3, 10), (10, 15),
                              (0, 5), (5, 9), (9, 14), (14, 11), (11, 0), (5, 14)])


def test_oracle_equivalence_fixtures():
    # BA-1024 is the bottleneck-mode scale the benchmark sweeps; the grid and
    # the relabeled 6-cube are deep and full of equal-length routes, so every
    # lowest-id tie rule shows; the last graph has three components
    for g in (
        path_graph(7), complete_graph(6), star_graph(6), wheel_graph(8),
        scale_free_ba(1024, 3, 3, seed=42), grid_graph(12, 12),
        relabeled(hypercube(6), seed=6), THREE_PARTS,
    ):
        assert_matches_oracle(g)


def two_core(g):
    """The nodes left, ascending, once degree-0 and degree-1 nodes are
    stripped repeatedly."""
    nbrs = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    low = [v for v in nbrs if len(nbrs[v]) < 2]
    while low:
        v = low.pop()
        for u in nbrs.pop(v, ()):
            nbrs[u].discard(v)
            if len(nbrs[u]) == 1:
                low.append(u)
    return sorted(nbrs)


def with_trees(g, extra, seed, path=False):
    """g with extra nodes hung off it as pendant trees (one long path when
    path), then relabeled, so pendant ids interleave with core ids."""
    rng = random.Random(seed)
    n = g.n + extra
    tails = [(v, v - 1 if path else rng.randrange(v)) for v in range(g.n, n)]
    return relabeled(make_graph(n, [*g.edges, *tails]), seed)


def bridge_loads(g):
    """2*a*b per link, where cutting the link splits its component into
    parts of a and b nodes: the load of a bridge, from components alone."""
    loads = []
    for u, v in g.edges:
        cut = connected_components(remove_links(g, [(u, v)]))
        a, b = (cut.component_sizes[cut.component_id[x]] for x in (u, v))
        loads.append(2 * a * b)
    return loads


def assert_masked_matches_oracle(g, keep):
    fa = route_all_pairs(g, keep)
    loads, delivered, max_load = brute_force_flows(
        make_graph(g.n, [e for e, k in zip(g.edges, keep) if k]))
    assert (fa.delivered, fa.max_link_load) == (delivered, max_load)
    assert fa.link_load.tolist() == [loads[e] if k else 0 for e, k in zip(g.edges, keep)]


def test_tree_and_forest_loads_are_bridge_closed_forms():
    # every link of a forest is a bridge; about one node in ten starts a
    # new tree, and the relabeling puts parents above children as often
    # as below
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(1, 40)
        forest = make_graph(n, [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.9])
        g = relabeled(forest, seed)
        assert_matches_oracle(g)
        assert route_all_pairs(g).link_load.tolist() == bridge_loads(g)


def test_pendant_heavy_graphs_match_oracle():
    # cores (cycles, cliques, a wheel) under long tails and random trees;
    # K2 and P3 components, whose two leaves are peeled in one round, next
    # to isolated nodes; and stars, whose leaves all go in the first round
    small_parts = make_graph(14, [(0, 1), (2, 4), (4, 3), (6, 5), (5, 8), (9, 13),
                                  (13, 10), (10, 12)])
    for g in (
        with_trees(cycle_graph(5), 14, seed=1, path=True),
        with_trees(cycle_graph(9), 30, seed=2),
        with_trees(complete_graph(6), 12, seed=3, path=True),
        with_trees(complete_graph(7), 40, seed=4),
        with_trees(wheel_graph(8), 25, seed=5),
        with_trees(grid_graph(4, 5), 30, seed=6),
        small_parts, star_graph(9), relabeled(star_graph(12), seed=7),
        with_trees(star_graph(6), 10, seed=8),
    ):
        assert_matches_oracle(g)


def test_ba_degree_attack_samples_match_oracle():
    # the bottleneck sweep's real traffic: BA-1024 once the degree attack
    # has removed 10%, 20% and 30% of the nodes, when pendant trees abound
    g = scale_free_ba(1024, 3, 3, seed=42)
    order = plan_targeted_degree(g, g.n).order
    for fraction in (0.1, 0.2, 0.3):
        gone = set(order[:round(fraction * g.n)])
        keep = np.array([u not in gone and v not in gone for u, v in g.edges])
        assert_masked_matches_oracle(g, keep)


def test_path_lengths_over_a_whole_degree_sweep(monkeypatch):
    # every flow crosses one link per hop, so over every bottleneck sample of
    # the paper-default BA-1024 degree sweep the loads sum to the finite
    # off-diagonal hop distances, and delivered counts them: a tree at the
    # wrong depth breaks the sum, on all 81 samples, more than the
    # brute-force oracle has time for
    import netelast.routing as routing

    g = scale_free_ba(1024, 3, 3, seed=42)
    routes = []

    def recorded(graph, keep=None, **share):
        routes.append((keep, route_all_pairs(graph, keep, **share)))
        return routes[-1][1]

    monkeypatch.setattr(routing, "route_all_pairs", recorded)
    sweep(g, plan_targeted_degree(g, g.n))
    assert len(routes) == 81
    ends = np.array(g.edges)
    for keep, fa in routes:
        u, v = ends[keep].T
        hops = shortest_path(csr_matrix((np.ones(len(u)), (u, v)), shape=(g.n, g.n)),
                             directed=False, unweighted=True)
        off_diagonal = np.isfinite(hops)
        np.fill_diagonal(off_diagonal, False)
        assert int(fa.link_load.sum()) == int(hops[off_diagonal].sum())
        assert fa.delivered == int(off_diagonal.sum())


def test_weighted_core_in_several_blocks(monkeypatch):
    # a 20-cycle with a tree on every other node: every second root stands
    # for several destinations, and blocks of 3 and of 1 roots split it
    import netelast.routing as routing

    g = with_trees(cycle_graph(20), 40, seed=9)
    assert len(two_core(g)) == 20
    for cells in (1, 3 * 20):
        monkeypatch.setattr(routing, "_BLOCK_CELLS", cells)
        assert_matches_oracle(g)


def test_root_shares_sum_to_one_route(monkeypatch):
    # a sample too large for one worker is routed in root shares, and their
    # exact loads sum to the route's for any number of shares: over pendant
    # trees (whose bridge loads share 0 alone adds), a forest with no core
    # to share, three components around isolated nodes, and a masked
    # sample, with one block per share and with blocks of 7 cells
    import netelast.routing as routing

    masked = erdos_renyi(30, 0.15, seed=4)
    cases = [
        (with_trees(cycle_graph(9), 30, seed=2), None),
        (with_trees(wheel_graph(8), 25, seed=5), None),
        (relabeled(make_graph(12, [(v, v // 2) for v in range(1, 12)]), seed=3), None),
        (THREE_PARTS, None),
        (masked, np.random.default_rng(4).random(masked.m) < 0.7),
    ]
    for cells in (routing._BLOCK_CELLS, 7):
        monkeypatch.setattr(routing, "_BLOCK_CELLS", cells)
        for g, keep in cases:
            whole = route_all_pairs(g, keep)
            for k in range(1, 5):
                shares = [route_all_pairs(g, keep, _part=part, _parts=k) for part in range(k)]
                total = sum(fa.link_load for fa in shares)
                assert total.dtype == np.int64
                assert total.tolist() == whole.link_load.tolist()
                assert [fa.delivered for fa in shares] == [whole.delivered] * k


def test_keep_must_be_a_bool_mask_over_the_links():
    g = path_graph(4)
    fa = route_all_pairs(g, np.array([True, False, True]))
    assert (fa.delivered, fa.link_load.tolist()) == (4, [2, 0, 2])
    # an int 0/1 mask would index links instead of masking them
    for keep in (np.array([1, 0, 1]), np.array([True, False]), np.ones((3, 1), dtype=bool)):
        with pytest.raises(ValueError, match=r"bool array of shape \(3,\)"):
            route_all_pairs(g, keep)


def test_delivered_even_and_component_identity():
    for seed in range(20):
        g = erdos_renyi(20, 0.12, seed=seed)
        fa = route_all_pairs(g)
        assert fa.delivered % 2 == 0
        assert fa.delivered == delivered_flow_count(g)


def test_delivered_invariant_under_relabeling():
    for seed in range(10):
        g = erdos_renyi(15, 0.25, seed=seed)
        assert route_all_pairs(relabeled(g, seed + 99)).delivered == route_all_pairs(g).delivered


def test_link_removal_never_increases_delivered():
    rng = random.Random(3)
    for seed in range(15):
        g = erdos_renyi(14, 0.3, seed=seed)
        before = route_all_pairs(g).delivered
        if g.m == 0:
            continue
        victim = g.edges[rng.randrange(g.m)]
        after = route_all_pairs(remove_links(g, [victim])).delivered
        assert after <= before


def test_throughput_values():
    assert throughput(path_graph(3)) == pytest.approx(1.5)
    assert throughput(complete_graph(3), "bottleneck") == pytest.approx(3.0)
    # flow-ratio counts deliverable ordered pairs, as an exact int
    count = throughput(wheel_graph(6), "flow-ratio")
    assert type(count) is int and count == 30


def test_normalized_identity_is_exactly_one():
    for g in (path_graph(5), wheel_graph(6)):
        for mode in ("bottleneck", "flow-ratio"):
            assert normalized_throughput(g, throughput(g, mode), mode) == 1.0


def test_normalized_wheel_hub_removal():
    w6 = wheel_graph(6)
    base = throughput(w6, "flow-ratio")
    cut, _ = remove_nodes(w6, {0})
    assert normalized_throughput(cut, base, "flow-ratio") == pytest.approx(20 / 30, abs=1e-12)


def test_normalized_p3_node_removal():
    p3 = path_graph(3)
    base = throughput(p3, "flow-ratio")
    cut, _ = remove_nodes(p3, {2})
    assert normalized_throughput(cut, base, "flow-ratio") == pytest.approx(2 / 6, abs=1e-12)


def test_normalized_zero_baseline():
    empty = make_graph(3, [])
    for mode in ("bottleneck", "flow-ratio"):
        base = throughput(empty, mode)
        assert base == 0
        assert normalized_throughput(empty, base, mode) == 0.0


def test_unknown_mode_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        throughput(g, "fastest")
    with pytest.raises(ValueError):
        normalized_throughput(g, 1.5, "fastest")
    with pytest.raises(ValueError):
        masked_throughputs(g, [np.zeros(g.m, dtype=np.int64)], [0], "fastest")


def test_masked_throughputs_refuse_negative_ranks():
    # target 0 is measured once for all trials, as it keeps every link of
    # each; a negative rank would drop a link there
    g = path_graph(3)
    for mode in MODES:
        with pytest.raises(ValueError, match="ranks must be nonnegative"):
            masked_throughputs(g, [np.zeros(g.m, dtype=np.int64), np.array([0, -1])], [0, 1], mode)


def test_masked_throughputs_refuse_ranks_of_another_shape(monkeypatch):
    # a short rank array would mask the wrong links and a long one index
    # past them; both are refused in the parent, before a pool starts
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    g = grid_graph(3, 3)
    assert masked_throughputs(g, [np.zeros(g.m, dtype=np.int64)], [0, 1], "flow-ratio") == [[72, 0]]
    for mode in MODES:
        for jobs in (1, 2):
            for shape in ((5,), (20,), (g.m, 1), ()):
                ranks = [np.zeros(g.m, dtype=np.int64), np.zeros(shape, dtype=np.int64)]
                with pytest.raises(ValueError, match=rf"^ranks must have shape \(12,\), "
                                                     rf"got {re.escape(str(shape))}$"):
                    masked_throughputs(g, ranks, [0, 1], mode, jobs)


def test_masked_throughputs_of_no_targets_are_empty_lists():
    # no targets, no work items: one empty list per trial in either mode
    g = grid_graph(3, 3)
    ranks = [np.zeros(g.m, dtype=np.int64), np.arange(g.m)]
    for mode in MODES:
        for jobs in (1, 2):
            assert masked_throughputs(g, ranks, [], mode, jobs) == [[], []]


def test_link_load_is_integer_array():
    fa = route_all_pairs(wheel_graph(10))
    assert fa.link_load.dtype == np.int64


def test_source_blocking(monkeypatch):
    # force the multi-block path that normally only triggers on large graphs:
    # a deep tie-heavy grid, two components (a triangle with a pendant link,
    # and a path that is peeled whole) plus isolated nodes, K9 with slots
    # >> n, and a 13-cycle under 20 tree nodes, each routed one root per
    # block and in blocks of 5 roots (5 divides none of their routed 2-core
    # node counts)
    import netelast.routing as routing

    two_parts = make_graph(14, [(0, 3), (3, 5), (5, 0), (5, 8), (2, 9), (9, 12), (12, 13)])
    trees_on_cycle = with_trees(cycle_graph(13), 20, seed=10)
    # Its core ids interleave with peeled ids, and core nodes carrying a
    # tree sit inside blocks, so each root must scale by its own weight,
    # not by the weight of the node whose id is the root's rank in the core.
    core = two_core(trees_on_cycle)
    assert core != list(range(len(core)))
    bearing = {u for e in trees_on_cycle.edges for u, v in (e, e[::-1])
               if u in core and v not in core}
    assert sum(core.index(v) % 5 > 0 for v in bearing) >= 2
    for g in (erdos_renyi(26, 0.3, seed=13), grid_graph(6, 7), two_parts, complete_graph(9),
              trees_on_cycle):
        size = len(two_core(g))
        assert size % 5
        for cells in (1, 5 * size):
            monkeypatch.setattr(routing, "_BLOCK_CELLS", cells)
            assert_matches_oracle(g)


def test_route_memory_is_bounded_by_block_cells():
    # a block holds roots x 2-core nodes cells, about 52 bytes each (node 4;
    # parent position, subtree sum, level order and two gather buffers 8
    # each; the tree-link lookup 8), and each root adds one BFS over n
    # vertices.  K200 has 39,800 slots for 200 nodes; the 1,500-node wheel
    # has no pendant node, so all of its 2.25 M cells are routed, about
    # 110 MiB in a single block.
    for g in (complete_graph(200), wheel_graph(1500)):
        tracemalloc.start()
        try:
            route_all_pairs(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_route_refuses_a_search_order_out_of_range(monkeypatch):
    # The gathers take no bounds check (np.take in "clip" mode would read
    # node -1 as node 0), so the route range checks its own index arrays.
    # The route imports breadth_first_order when it runs, so it is patched
    # in scipy's csgraph module.
    import scipy.sparse.csgraph as csgraph

    def corrupted(graph, t, return_predecessors):
        order, pred = breadth_first_order(graph, t, return_predecessors=return_predecessors)
        order[-1] = -1
        return order, pred

    monkeypatch.setattr(csgraph, "breadth_first_order", corrupted)
    with pytest.raises(IndexError, match="route index out of range"):
        route_all_pairs(cycle_graph(6))


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 4)), max_size=24))
@example(runs=[(1, 2), (3, 4)])  # a single root, two levels
@example(runs=[(1, 2), (7, 1), (3, 3), (8, 0)])  # two roots, unequal depth
@example(runs=[(5, 0), (9, 0), (5, 0), (9, 0)])  # every run empty
def test_runs_equal_the_repeat_reference(runs):
    # runs is a level table raveled as the route ravels it, level by level
    # and within a level root by root: each run's first position and length
    lo = np.array([start for start, _ in runs], dtype=np.int64)
    lens = np.array([length for _, length in runs], dtype=np.int64)
    reference = np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    out = np.full(lens.sum() + 3, -7, dtype=np.int64)
    order = _runs(lo, lens, out)
    assert order.tolist() == reference.tolist()
    assert order.base is out
    assert out[len(order):].tolist() == [-7] * 3


@st.composite
def ranked_graphs(draw):
    """A graph with isolated nodes likely, one to three rank arrays over its
    links (one per trial, ties likely) and targets in any order, repeats
    likely, that include 0 (every link kept) and one above every rank (none
    kept)."""
    n = draw(st.integers(0, 14))
    node = st.integers(0, max(n - 1, 0))
    g = make_graph(n, draw(st.lists(st.tuples(node, node), max_size=25)) if n else [])
    rank = st.lists(st.integers(0, 8), min_size=g.m, max_size=g.m)
    ranks = [np.array(r, dtype=np.int64) for r in draw(st.lists(rank, min_size=1, max_size=3))]
    targets = draw(st.lists(st.integers(0, 9), max_size=6))
    return g, ranks, draw(st.permutations([0, 9, *targets]))


@settings(max_examples=150, deadline=None)
@given(case=ranked_graphs())
@example(case=(make_graph(0, []), [np.zeros(0, dtype=np.int64)], [0, 0, 1]))
@example(case=(make_graph(6, []), [np.zeros(0, dtype=np.int64)] * 2, [0, 1]))
@example(case=(make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)]),
               [np.array([2, 2, 0, 2, 1]), np.array([1, 1, 1, 1, 1])], [2, 0, 9, 2, 1, 0]))
def test_masked_throughputs_equal_each_masked_graph(case):
    g, ranks, targets = case
    counts = masked_throughputs(g, ranks, targets, "flow-ratio")
    rates = masked_throughputs(g, ranks, targets, "bottleneck")
    assert len(counts) == len(rates) == len(ranks)
    for rank, trial_counts, trial_rates in zip(ranks, counts, rates):
        assert len(trial_counts) == len(trial_rates) == len(targets)
        for t, count, rate in zip(targets, trial_counts, trial_rates):
            masked = make_graph(g.n, [e for e, r in zip(g.edges, rank) if r >= t])
            assert type(count) is int
            assert count == sum(s * (s - 1) for s in connected_components(masked).component_sizes)
            assert rate == throughput(masked, "bottleneck")
        intact = trial_counts[targets.index(0)]
        assert intact == delivered_flow_count(g) == route_all_pairs(g).delivered


@settings(max_examples=150, deadline=None)
@given(case=ranked_graphs())
@example(case=(make_graph(5, [(1, 3)]), [np.zeros(1, dtype=np.int64)], [0, 1]))
def test_masked_route_equals_routing_the_rebuilt_graph(case):
    # the masked route cuts each sample from g's CSR; the reference builds it
    g, ranks, targets = case
    rates = masked_throughputs(g, ranks, targets, "bottleneck")
    for rank, trial_rates in zip(ranks, rates, strict=True):
        for t, rate in zip(targets, trial_rates, strict=True):
            keep = rank >= t
            fa = route_all_pairs(g, keep)
            ref = route_all_pairs(Graph(g.n, [e for e, k in zip(g.edges, keep) if k]))
            loads = np.zeros(g.m, dtype=np.int64)
            loads[keep] = ref.link_load
            assert fa.link_load.dtype == np.int64
            assert fa.link_load.tolist() == loads.tolist()
            assert (fa.delivered, fa.max_link_load) == (ref.delivered, ref.max_link_load)
            assert rate == (ref.delivered / ref.max_link_load if ref.max_link_load else 0.0)

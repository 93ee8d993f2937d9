import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import (
    Graph,
    complete_graph,
    connected_components,
    erdos_renyi,
    grid_graph,
    make_graph,
    normalized_throughput,
    path_graph,
    remove_links,
    remove_nodes,
    route_all_pairs,
    scale_free_ba,
    star_graph,
    throughput,
    wheel_graph,
)
from netelast.routing import delivered_flow_count, masked_throughputs

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


def test_oracle_equivalence_fixtures():
    # BA-1024 is the bottleneck-mode scale the benchmark sweeps
    for g in (
        path_graph(7), complete_graph(6), star_graph(6), wheel_graph(8),
        scale_free_ba(1024, 3, 3, seed=42),
    ):
        assert_matches_oracle(g)


def test_delivered_even_and_component_identity():
    for seed in range(20):
        g = erdos_renyi(20, 0.12, seed=seed)
        fa = route_all_pairs(g)
        assert fa.delivered % 2 == 0
        assert fa.delivered == delivered_flow_count(g)


def test_delivered_invariant_under_relabeling():
    for seed in range(10):
        g = erdos_renyi(15, 0.25, seed=seed)
        perm = list(range(g.n))
        random.Random(seed + 99).shuffle(perm)
        h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert route_all_pairs(h).delivered == route_all_pairs(g).delivered


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
        masked_throughputs(g, np.zeros(g.m, dtype=np.int64), [0], "fastest")


def test_link_load_is_integer_array():
    fa = route_all_pairs(wheel_graph(10))
    assert fa.link_load.dtype == np.int64


def test_source_blocking(monkeypatch):
    # force the multi-block path that normally only triggers on large graphs:
    # a deep tie-heavy grid, two components plus isolated nodes, and K9 with
    # slots >> n, each routed one source per block and in blocks of 5 sources
    # (5 divides none of their linked-node counts)
    import netelast.routing as routing

    two_parts = make_graph(14, [(0, 3), (3, 5), (5, 0), (5, 8), (2, 9), (9, 12), (12, 13)])
    for g in (erdos_renyi(26, 0.3, seed=13), grid_graph(6, 7), two_parts, complete_graph(9)):
        for cells in (1, 5 * 2 * g.m):
            monkeypatch.setattr(routing, "_BLOCK_CELLS", cells)
            assert_matches_oracle(g)


def test_route_memory_is_bounded_by_block_cells():
    # K200 has 39,800 slots: blocks sized by nodes would hold all 200 sources
    # and a 64 MB key array; sized by slots, each block array stays ~12 MB
    g = complete_graph(200)
    tracemalloc.start()
    try:
        route_all_pairs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@st.composite
def ranked_graphs(draw):
    """A graph with isolated nodes likely, a rank per link and sorted targets
    that include 0 (every link kept) and one above every rank (none kept)."""
    n = draw(st.integers(0, 14))
    node = st.integers(0, max(n - 1, 0))
    g = make_graph(n, draw(st.lists(st.tuples(node, node), max_size=25)) if n else [])
    rank = draw(st.lists(st.integers(0, 8), min_size=g.m, max_size=g.m))
    targets = draw(st.lists(st.integers(0, 9), max_size=6))
    return g, np.array(rank, dtype=np.int64), sorted([0, 9, *targets])


@settings(max_examples=150, deadline=None)
@given(case=ranked_graphs())
@example(case=(make_graph(0, []), np.zeros(0, dtype=np.int64), [0, 0, 1]))
@example(case=(make_graph(6, []), np.zeros(0, dtype=np.int64), [0, 1]))
def test_masked_throughputs_equal_each_masked_graph(case):
    g, rank, targets = case
    counts = masked_throughputs(g, rank, targets, "flow-ratio")
    rates = masked_throughputs(g, rank, targets, "bottleneck")
    assert len(counts) == len(rates) == len(targets)
    for t, count, rate in zip(targets, counts, rates):
        masked = make_graph(g.n, [e for e, r in zip(g.edges, rank) if r >= t])
        assert type(count) is int
        assert count == sum(s * (s - 1) for s in connected_components(masked).component_sizes)
        assert rate == throughput(masked, "bottleneck")
    assert counts[0] == delivered_flow_count(g) == route_all_pairs(g).delivered


@settings(max_examples=150, deadline=None)
@given(case=ranked_graphs())
@example(case=(make_graph(5, [(1, 3)]), np.zeros(1, dtype=np.int64), [0, 1]))
def test_masked_route_equals_routing_the_rebuilt_graph(case):
    # the masked route cuts each sample from g's CSR; the reference builds it
    g, rank, targets = case
    rates = masked_throughputs(g, rank, targets, "bottleneck")
    for t, rate in zip(targets, rates):
        keep = rank >= t
        fa = route_all_pairs(g, keep)
        ref = route_all_pairs(Graph(g.n, [e for e, k in zip(g.edges, keep) if k]))
        loads = np.zeros(g.m, dtype=np.int64)
        loads[keep] = ref.link_load
        assert fa.link_load.dtype == np.int64
        assert fa.link_load.tolist() == loads.tolist()
        assert (fa.delivered, fa.max_link_load) == (ref.delivered, ref.max_link_load)
        assert rate == (ref.delivered / ref.max_link_load if ref.max_link_load else 0.0)

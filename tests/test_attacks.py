import heapq
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import (
    averaged_elasticity,
    complete_graph,
    grid_graph,
    make_graph,
    path_graph,
    plan_random_links,
    plan_random_nodes,
    plan_targeted_degree,
    scale_free_ba,
    star_graph,
)
from netelast.attacks import _random_plan


def test_targeted_star_hits_hub_first():
    plan = plan_targeted_degree(star_graph(5), 1)
    assert plan.order == (0,)


def test_targeted_p4_recompute_trace():
    # hand-trace: remove 1 (deg 2, lowest id of tie), then degrees are
    # 0, 1, 1 over {0, 2, 3} so node 2 wins
    plan = plan_targeted_degree(path_graph(4), 2, recompute=True)
    assert plan.order == (1, 2)


def test_targeted_tie_break_lowest_id():
    plan = plan_targeted_degree(complete_graph(4), 2)
    assert plan.order == (0, 1)


def test_targeted_static_uses_initial_degrees():
    from netelast import erdos_renyi

    plan = plan_targeted_degree(path_graph(4), 2, recompute=False)
    assert plan.order == (1, 2)  # initial degrees 1,2,2,1; ties by id
    for seed in range(8):
        g = erdos_renyi(30, 0.15, seed=seed)
        deg = g.degrees()
        ranked = sorted(range(g.n), key=lambda v: (-deg[v], v))
        assert plan_targeted_degree(g, g.n, recompute=False).order == tuple(ranked)
        assert plan_targeted_degree(g, 10, recompute=False).order == tuple(ranked[:10])


def test_targeted_greedy_invariant():
    from netelast import erdos_renyi, remove_nodes

    for seed in range(8):
        g = erdos_renyi(15, 0.3, seed=seed)
        plan = plan_targeted_degree(g, g.n)
        removed = []
        for victim in plan.order:
            current, survivors = remove_nodes(g, removed)
            degree_of = dict(zip(survivors, current.degrees()))
            top = max(degree_of.values())
            assert victim == min(v for v, d in degree_of.items() if d == top)
            removed.append(victim)


def test_targeted_count_validation():
    with pytest.raises(ValueError):
        plan_targeted_degree(path_graph(3), 4)


def test_planners_refuse_a_count_that_is_not_an_integer():
    g = path_graph(5)
    for plan in (plan_targeted_degree, lambda g, count: plan_random_nodes(g, count, seed=1),
                 lambda g, count: plan_random_links(g, count, seed=1)):
        for bad in (2.5, 2.0, "2", -1, 6):
            with pytest.raises(ValueError, match="count must lie in 0..[45]$"):
                plan(g, bad)
        assert plan(g, np.int64(2)) == plan(g, 2)


def test_random_planners_refuse_a_negative_seed():
    # random.Random seeds an int by its absolute value, so seed -3 would
    # repeat seed 3's plan
    g = path_graph(5)
    for plan in (plan_random_nodes, plan_random_links):
        for bad in (-1, -3):
            with pytest.raises(ValueError, match=f"^seed must be nonnegative, got {bad}$"):
                plan(g, 2, seed=bad)
        assert plan(g, 2, seed=0).seed == 0
    with pytest.raises(ValueError, match="got -3$"):
        averaged_elasticity(grid_graph(4, 4), "random-node", trials=6, seed=-3, mode="flow-ratio")


def test_random_nodes_full_permutation():
    g = path_graph(6)
    plan = plan_random_nodes(g, 6, seed=3)
    assert sorted(plan.order) == list(range(6))


def test_random_plans_deterministic():
    g = path_graph(50)
    assert plan_random_nodes(g, 20, seed=5) == plan_random_nodes(g, 20, seed=5)
    assert plan_random_links(g, 20, seed=5) == plan_random_links(g, 20, seed=5)
    assert plan_random_nodes(g, 20, seed=5).order != plan_random_nodes(g, 20, seed=6).order


def test_random_nodes_golden_first_elements():
    # recorded from this implementation's seeded Fisher-Yates shuffle; any
    # change to the draw sequence is a reproducibility break
    plan = plan_random_nodes(path_graph(1000), 800, seed=7)
    assert plan.order[:5] == (878, 857, 349, 313, 382)


def test_random_links_golden():
    plan = plan_random_links(complete_graph(40), 5, seed=11)
    assert plan.order == ((4, 8), (4, 23), (34, 38), (15, 19), (22, 31))


def test_random_links_exhaustive_cover():
    k3 = complete_graph(3)
    plan = plan_random_links(k3, 3, seed=0)
    assert tuple(sorted(plan.order)) == k3.edges
    p2 = path_graph(2)
    assert plan_random_links(p2, 1, seed=0).order == ((0, 1),)
    with pytest.raises(ValueError):
        plan_random_links(p2, 2, seed=0)


def test_random_first_pick_frequency():
    # each of the 5 nodes should lead ~2000 of 10000 seeded plans
    g = path_graph(5)
    counts = [0] * 5
    for seed in range(10_000):
        counts[plan_random_nodes(g, 1, seed=seed).order[0]] += 1
    for c in counts:
        assert 1800 <= c <= 2200


def test_plans_independent_of_input_edge_order():
    edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
    a = make_graph(4, edges)
    b = make_graph(4, [(v, u) for u, v in reversed(edges)])
    assert a.edges == b.edges
    assert plan_targeted_degree(a, 4).order == plan_targeted_degree(b, 4).order
    assert plan_random_nodes(a, 4, seed=1).order == plan_random_nodes(b, 4, seed=1).order
    assert plan_random_links(a, 4, seed=1).order == plan_random_links(b, 4, seed=1).order


def test_plan_orders_have_no_duplicates():
    g = make_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    for plan in (
        plan_targeted_degree(g, 8),
        plan_random_nodes(g, 8, seed=4),
        plan_random_links(g, 8, seed=4),
    ):
        assert len(set(plan.order)) == len(plan.order)


def _tuple_heap_order(g, count, recompute):
    """The degree planner as first written, keyed by (-degree, id) tuples;
    the reference the int-keyed heap must match."""
    indptr, indices, _ = g.csr
    degree = g.degrees()
    heap = [(-d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    alive = [True] * g.n
    order = []
    while len(order) < count:
        d, v = heapq.heappop(heap)
        if -d != degree[v]:
            continue
        order.append(v)
        alive[v] = False
        if recompute:
            for u in indices[indptr[v]:indptr[v + 1]].tolist():
                if alive[u]:
                    degree[u] -= 1
                    heapq.heappush(heap, (-degree[u], u))
    return tuple(order)


@st.composite
def degree_graphs(draw):
    n = draw(st.integers(0, 60))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=150)) if n else []
    return make_graph(n, pairs)  # nodes no pair names stay isolated


@settings(max_examples=150, deadline=None)
@given(g=degree_graphs())
@example(g=make_graph(0, []))
@example(g=make_graph(5, [(0, 1)]))
def test_degree_plan_matches_the_tuple_heap(g):
    for recompute in (True, False):
        for count in range(g.n + 1):
            want = _tuple_heap_order(g, count, recompute)
            assert plan_targeted_degree(g, count, recompute).order == want


@pytest.mark.parametrize("g", [scale_free_ba(1024, 3, 3, seed=42), grid_graph(32, 32)],
                         ids=["ba-1024", "grid-32x32"])
def test_full_degree_plans_match_the_tuple_heap(g):
    for recompute in (True, False):
        assert plan_targeted_degree(g, g.n, recompute).order == _tuple_heap_order(g, g.n, recompute)


def _check_random_plan_is_a_shuffle_prefix(total, count, seed):
    # a random plan is the first count ids of random.Random(seed).shuffle
    # over range(total): nodes of an empty graph, links of a path
    want = list(range(total))
    random.Random(seed).shuffle(want)
    del want[count:]
    for kind, g in (("node", make_graph(total, [])), ("link", path_graph(total + 1))):
        plan, ids = _random_plan(g, kind, count, seed)
        assert ids == want
        assert plan.order == (tuple(ids) if kind == "node" else tuple((i, i + 1) for i in ids))
        assert plan.seed == seed


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 42, 61, 2**32 + 5, 2**70])
def test_random_plans_are_random_shuffle_prefixes(seed):
    totals = {0, 1, 2, 3, 1984} | {2**k + d for k in range(13) for d in (-1, 0, 1)}
    for total in sorted(totals):
        for count in {total, total // 3}:
            _check_random_plan_is_a_shuffle_prefix(total, count, seed)


@settings(max_examples=100, deadline=None)
@given(total=st.integers(0, 3000), data=st.data(), seed=st.integers(0, 2**64))
def test_random_plans_are_random_shuffle_prefixes_property(total, data, seed):
    count = data.draw(st.integers(0, total))
    _check_random_plan_is_a_shuffle_prefix(total, count, seed)


def test_random_planners_take_integer_seeds_only():
    g = grid_graph(4, 4)
    for plan in (plan_random_nodes, plan_random_links):
        by_numpy = plan(g, 5, np.int64(3))
        assert by_numpy == plan(g, 5, 3) and type(by_numpy.seed) is int
        for bad in (3.0, 3.5, True, "3", np.float64(3)):  # True would repeat seed 1
            with pytest.raises(ValueError) as err:
                plan(g, 5, bad)
            assert str(err.value) == f"seed must be an integer, got {bad!r}"
    # a study echoes a numpy seed as an int, as the planners do, so its
    # result dumps as JSON
    for strategy in ("degree", "random-node"):
        by_numpy = averaged_elasticity(g, strategy, trials=2, seed=np.int64(3), mode="flow-ratio")
        assert by_numpy == averaged_elasticity(g, strategy, trials=2, seed=3, mode="flow-ratio")
        assert type(by_numpy.result.seed) is int and json.dumps(by_numpy.result.to_dict())

import numpy as np
import pytest

from netelast import (
    complete_graph,
    make_graph,
    path_graph,
    plan_random_links,
    plan_random_nodes,
    plan_targeted_degree,
    star_graph,
)


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
    assert sorted(plan.order) == k3.edges
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

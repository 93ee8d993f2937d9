import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import (
    EdgeListParseError,
    Graph,
    averaged_elasticity,
    connected_components,
    cycle_graph,
    dump_edge_list,
    erdos_renyi,
    laplacian,
    load_edge_list,
    make_graph,
    path_graph,
    plan_targeted_degree,
    remove_links,
    remove_nodes,
    route_all_pairs,
    star_graph,
    throughput,
    wheel_graph,
)


def test_load_path_graph():
    g = load_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.m == 2
    assert g.edges == [(0, 1), (1, 2)]


def test_load_dedup_and_loop_drop():
    g = load_edge_list("5 5\n5 9\n9 5")
    assert g.n == 2
    assert g.m == 1
    assert g.edges == [(0, 1)]
    assert g.labels == [5, 9]


def test_load_parse_error_reports_line():
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list("a b")
    assert exc.value.line_no == 1
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list("0 1\n2\n")
    assert exc.value.line_no == 2
    with pytest.raises(EdgeListParseError):
        load_edge_list("0 -1")
    # int() would read these as 10, 3 and 3; ids are ASCII digits only
    for bad in ("1_0 2", "+3 4", "\u0663 1"):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(f"0 1\n{bad}\n")
        assert exc.value.line_no == 2


def test_load_empty_and_comments():
    assert load_edge_list("").n == 0
    g = load_edge_list("# header\n\n0 1\n# trailing\n")
    assert g.n == 2 and g.m == 1


def test_load_first_appearance_relabeling():
    g = load_edge_list("10 20\n20 30\n5 10")
    assert g.labels == [10, 20, 30, 5]
    assert g.edges == [(0, 1), (0, 3), (1, 2)]


def test_components():
    assert connected_components(path_graph(3)).component_sizes == [3]
    two = make_graph(4, [(0, 1), (2, 3)])
    lab = connected_components(two)
    assert lab.component_sizes == [2, 2]
    assert lab.component_id == [0, 0, 1, 1]
    empty = make_graph(0, [])
    assert connected_components(empty).count == 0


def test_component_sizes_sum_to_n():
    for seed in range(20):
        g = erdos_renyi(random.Random(seed).randrange(1, 40), 0.1, seed=seed)
        lab = connected_components(g)
        assert sum(lab.component_sizes) == g.n
        # component ids first appear in ascending node order
        first_seen = list(dict.fromkeys(lab.component_id))
        assert first_seen == list(range(lab.count))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        members = [set() for _ in range(lab.count)]
        for v, c in enumerate(lab.component_id):
            members[c].add(v)
        assert sorted(map(sorted, members)) == sorted(map(sorted, nx.connected_components(h)))


def test_remove_nodes_star_hub():
    g, survivors = remove_nodes(star_graph(5), {0})
    assert g.n == 4 and g.m == 0
    assert survivors == [1, 2, 3, 4]


def test_remove_nodes_wheel_hub_leaves_cycle():
    g, _ = remove_nodes(wheel_graph(6), {0})
    assert g.n == 5
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2]
    assert connected_components(g).component_sizes == [5]


def test_remove_nodes_identity_and_errors():
    g = wheel_graph(6)
    h, survivors = remove_nodes(g, set())
    assert h.edges == g.edges and h.n == g.n
    assert survivors == list(range(6))
    with pytest.raises(ValueError):
        remove_nodes(g, {6})
    assert g.m == 10  # original untouched


def test_remove_nodes_degree_recount():
    rng = random.Random(5)
    for seed in range(15):
        g = erdos_renyi(12, 0.3, seed=seed)
        victims = {v for v in range(g.n) if rng.random() < 0.3}
        h, survivors = remove_nodes(g, victims)
        for new_id, old in enumerate(survivors):
            expected = sum(1 for e in g.edges if old in e and not victims & set(e))
            assert h.degrees()[new_id] == expected


def test_remove_links():
    k3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    p = remove_links(k3, [(0, 2)])
    assert p.edges == [(0, 1), (1, 2)]
    p2 = remove_links(make_graph(2, [(0, 1)]), [(1, 0)])  # orientation normalized
    assert p2.n == 2 and p2.m == 0
    same = remove_links(k3, [])
    assert same.edges == k3.edges
    with pytest.raises(ValueError):
        remove_links(p, [(0, 2)])


def test_dense_input_ids_kept_verbatim():
    g = load_edge_list("1 2\n0 2")
    assert g.n == 3
    assert g.edges == [(0, 2), (1, 2)]
    assert g.labels is None


def test_dump_load_round_trip():
    # dense ids reload verbatim, so any isolate-free graph round-trips
    from netelast import grid_graph, complete_graph, scale_free_ba

    graphs = [
        wheel_graph(7),
        cycle_graph(9),
        star_graph(6),
        path_graph(5),
        grid_graph(4, 6),
        complete_graph(5),
        scale_free_ba(60, 3, 2, seed=3),
    ]
    for g in graphs:
        again = load_edge_list(dump_edge_list(g))
        assert again.n == g.n
        assert again.edges == g.edges


def test_round_trip_preserves_structure():
    # Arbitrary graphs may be relabeled by the round trip (and isolated
    # nodes are not expressible in the edge-list format), but every
    # relabeling-invariant feature must survive.
    for seed in range(25):
        g = erdos_renyi(14, 0.35, seed=seed)
        again = load_edge_list(dump_edge_list(g))
        assert again.m == g.m
        assert again.n == sum(1 for d in g.degrees() if d > 0)
        assert sorted(again.degrees()) == sorted(d for d in g.degrees() if d > 0)
        assert sorted(connected_components(again).component_sizes) == sorted(
            s for s in connected_components(g).component_sizes if s > 1
        )


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 16))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=40)) if n else []
    return make_graph(n, pairs)


@settings(max_examples=200, deadline=None)
@given(g=graphs())
@example(g=make_graph(0, []))
def test_csr_rows_slot_links_and_degrees(g):
    indptr, indices, slot_link = g.csr
    assert len(indptr) == g.n + 1 and len(indices) == len(slot_link) == 2 * g.m
    degree = [0] * g.n
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert np.diff(indptr).tolist() == degree == g.degrees()
    for v in range(g.n):
        row = indices[indptr[v]:indptr[v + 1]].tolist()
        assert row == sorted(row)
        for s in range(indptr[v], indptr[v + 1]):
            assert g.edges[slot_link[s]] == (min(v, indices[s]), max(v, indices[s]))


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (0, 2), (0, 2)],  # repeated link
    [(0, 1), (1, 1), (1, 2)],  # self-loop
    [(0, 1), (1, 3)],  # id past n - 1
    [(0, 2), (0, 1)],  # links out of order
], ids=["duplicate", "self-loop", "out-of-range", "descending"])
def test_non_canonical_edge_list_is_refused(edges):
    # Routing, the degree planner, degrees() and the Laplacian all read the
    # CSR, so each refuses the list with the same message; flow-ratio mode,
    # whose union-find reads the edges alone, reads the CSR to check them.
    readers = [lambda g: g.csr, Graph.degrees, route_all_pairs, laplacian,
               lambda g: plan_targeted_degree(g, g.n),
               lambda g: throughput(g, "flow-ratio"),
               lambda g: averaged_elasticity(g, "random-link", trials=2, mode="flow-ratio")]
    for read in readers:
        with pytest.raises(ValueError, match="edges must be canonical"):
            read(Graph(3, edges))

import io
import random
import re

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
from netelast.routing import delivered_flow_count


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


def reference_load(source):
    """The per-line parser load_edge_list replaced, canonicalizing with a
    set: (n, edges, labels), or EdgeListParseError."""
    lines = source.splitlines() if isinstance(source, str) else source
    appearance, seen, raw_pairs = [], set(), []
    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected two integer tokens, got {text!r}")
        u, v = tokens
        if not (u.isdigit() and v.isdigit() and u.isascii() and v.isascii()):
            raise EdgeListParseError(line_no, f"node ids must be nonnegative integers, got {text!r}")
        a, b = int(u), int(v)
        for ext in (a, b):
            if ext not in seen:
                seen.add(ext)
                appearance.append(ext)
        if a != b:
            raw_pairs.append((a, b))
    n = len(appearance)
    labels = None
    if n and max(seen) != n - 1:
        dense = {ext: i for i, ext in enumerate(appearance)}
        raw_pairs = [(dense[a], dense[b]) for a, b in raw_pairs]
        labels = appearance
    return n, sorted({(min(a, b), max(a, b)) for a, b in raw_pairs}), labels


def load_outcome(load, source):
    try:
        g = load(source)
    except EdgeListParseError as exc:
        return exc.line_no, str(exc)
    return g if isinstance(g, tuple) else (g.n, g.edges, g.labels)


# The characters where a str and a text file's lines part ways.
# str.splitlines ends a line at "\r\n", "\r", "\n" and the first four of
# _SPACES; a text file (universal newlines) only at the first three, and
# reads all of _SPACES as whitespace.  "+", "-", "_" and the Arabic-Indic
# three are what int() would accept in an id, and ids from 2**63 up do not
# fit an int64.
_SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\x1f", "\xa0"]
_BREAKS = ["\r\n", "\r", "\n"] + _SPACES[:4]
_ODD = _BREAKS + _SPACES[4:] + [" ", "#", "+", "-", "_", "\u0663"]
_ids = st.one_of(st.integers(0, 7), st.integers(2**63, 2**63 + 2)).map(str)
_space = st.lists(st.sampled_from([" "] * 20 + _SPACES), max_size=2).map("".join)
_pair_line = st.builds(lambda a, u, b, v, c: a + u + b + v + c,
                       _space, _ids, _space.filter(bool), _ids, _space)
_odd = st.sampled_from(_ODD)
# mostly well-formed lines, so that most texts parse (one_of would fold
# repeated branches into one, hence the weighted pick)
_line = st.sampled_from([0] * 12 + [1, 2, 3, 4, 5, 5]).flatmap(lambda k: [
    _pair_line, _space.map(lambda a: a + "# x"), _ids, _odd,
    st.tuples(_pair_line, _odd).map("".join),
    st.tuples(_ids, _odd, _space.filter(bool), _ids).map("".join)][k])
_line_end = st.sampled_from(["\n"] * 6 + _BREAKS)


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.tuples(_line, _line_end), max_size=12),
       as_file=st.booleans())
@example(pieces=[("# c", "\n"), (" 3 \xa05", "\r\n"), ("5 9", "\x85")], as_file=True)
@example(pieces=[("0 1", "\n"), ("1_0 2", "\n")], as_file=False)
@example(pieces=[(str(2**63), "\n"), (f"1 {2**64}", "\n")], as_file=False)
def test_load_matches_the_per_line_reference(pieces, as_file):
    # the bulk loader gives the per-line parser's graph, or its error line
    # and message, both on a str and on a text file's lines
    text = "".join(line + end for line, end in pieces)

    def source():
        return io.StringIO(text, newline=None) if as_file else text

    assert load_outcome(load_edge_list, source()) == load_outcome(reference_load, source())


def test_load_huge_sparse_ids_keep_their_labels():
    big = 2**64 + 7
    g = load_edge_list(f"{big} 3\n3 {2**63}\n")
    assert (g.n, g.edges, g.labels) == (3, [(0, 1), (1, 2)], [big, 3, 2**63])


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (2**63, 0)], "edge (9223372036854775808, 0) out of range for n=3"),
    ([(0, 1), (1, -1), (2**64, 0)], "edge (1, -1) out of range for n=3"),
    ([(0, 3), (-2**70, 1)], "edge (0, 3) out of range for n=3"),
    ([(1, 2), (0, -2**70)], "edge (0, -1180591620717411303424) out of range for n=3"),
    (np.array([[0, 1], [2, 5], [7, 0]]), "edge (2, 5) out of range for n=3"),
])
def test_make_graph_names_the_first_pair_out_of_range(pairs, message):
    with pytest.raises(ValueError) as exc:
        make_graph(3, pairs)
    assert str(exc.value) == message


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1.9, 2), ("0", 2)], "edge (1.9, 2) has a node id that is not an integer"),
    ([(0, 1), (2, 2.0)], "edge (2, 2.0) has a node id that is not an integer"),
    ([("1", "2")], "edge ('1', '2') has a node id that is not an integer"),
    (np.array([[0.0, 1.0], [1.5, 2.0]]), "edge (0.0, 1.0) has a node id that is not an integer"),
])
def test_make_graph_names_the_first_pair_with_an_id_that_is_not_an_integer(pairs, message):
    with pytest.raises(ValueError) as exc:
        make_graph(3, pairs)
    assert str(exc.value) == message


@pytest.mark.parametrize("pairs, message", [
    ([1, 2], "edge 1 is not a pair of node ids"),
    ([1], "edge 1 is not a pair of node ids"),
    ([(0, 1, 2)], "edge (0, 1, 2) is not a pair of node ids"),
    ([(1, 2, 3)], "edge (1, 2, 3) is not a pair of node ids"),
    ([(0, 1), (1.5, 2), (3,)], "edge (1.5, 2) has a node id that is not an integer"),
])
def test_make_graph_and_remove_links_name_the_first_item_that_is_not_a_pair(pairs, message):
    for build in (lambda: make_graph(3, pairs), lambda: remove_links(path_graph(5), pairs)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


@pytest.mark.parametrize("pairs, message", [
    (np.array([1, 2]), "an integer edge array must have shape (k, 2), got shape (2,)"),
    (np.array([[0, 1, 2]]), "an integer edge array must have shape (k, 2), got shape (1, 3)"),
    (np.zeros((2, 2, 2), dtype=int), "an integer edge array must have shape (k, 2), got shape (2, 2, 2)"),
])
def test_make_graph_names_the_shape_of_an_integer_array_that_is_not_k_by_2(pairs, message):
    with pytest.raises(ValueError) as exc:
        make_graph(3, pairs)
    assert str(exc.value) == message


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6), pairs=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                                          max_size=12))
def test_make_graph_canonicalizes_like_a_set(n, pairs):
    bad = [p for p in pairs if not (0 <= p[0] < n and 0 <= p[1] < n)]
    if bad:
        with pytest.raises(ValueError, match=rf"^edge \({bad[0][0]}, {bad[0][1]}\) out of range"):
            make_graph(n, pairs)
        return
    expected = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    for given_pairs in (pairs, iter(pairs), np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        g = make_graph(n, given_pairs)
        assert (g.n, g.edges) == (n, expected)
        assert all(type(x) is int for e in g.edges for x in e)


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
    for bad in (6, 1.5):
        with pytest.raises(ValueError, match=f"victim id {bad}"):
            remove_nodes(g, {bad})
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
    with pytest.raises(ValueError, match=r"edge \(0, 2\) not present in graph"):
        remove_links(p, [(0, 2)])
    # link ids follow make_graph's integer rule; a numpy integer is one
    p5 = path_graph(5)
    for bad in ((1.0, 2), (1.5, 2), ("1", 2)):
        with pytest.raises(ValueError, match=re.escape(f"edge {bad!r} has a node id that is not an integer")):
            remove_links(p5, [bad])
    assert remove_links(p5, [(np.int64(2), 1)]).edges == [(0, 1), (2, 3), (3, 4)]


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
    # Every reader of the links as numbers reads g.ends, which refuses the
    # list with one message.
    readers = [lambda g: g.ends, lambda g: g.csr, Graph.degrees, route_all_pairs, laplacian,
               connected_components, delivered_flow_count,
               lambda g: plan_targeted_degree(g, g.n),
               lambda g: throughput(g, "flow-ratio"),
               lambda g: averaged_elasticity(g, "random-link", trials=2, mode="flow-ratio")]
    for read in readers:
        with pytest.raises(ValueError, match="edges must be canonical"):
            read(Graph(3, edges))


def test_ends_are_built_once_and_read_only():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert g.ends is g.ends
    assert g.ends.tolist() == [0, 1, 1, 2]
    with pytest.raises(ValueError, match="read-only"):
        g.ends[0] = 2

import copy
import io
import json
import pickle
import random
import re
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import (
    EdgeListParseError,
    Graph,
    averaged_elasticity,
    complete_graph,
    connected_components,
    cycle_graph,
    degree_histogram,
    dump_edge_list,
    erdos_renyi,
    grid_graph,
    laplacian,
    load_edge_list,
    make_graph,
    path_graph,
    plan_random_links,
    plan_random_nodes,
    plan_targeted_degree,
    remove_links,
    remove_nodes,
    route_all_pairs,
    scale_free_ba,
    star_graph,
    summarize,
    sweep,
    throughput,
    wheel_graph,
)
from netelast import graph as graph_module
from netelast.routing import MODES, delivered_flow_count, masked_throughputs


def test_load_path_graph():
    g = load_edge_list("0 1\n1 2")
    assert g.n == 3
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_load_dedup_and_loop_drop():
    g = load_edge_list("5 5\n5 9\n9 5")
    assert g.n == 2
    assert g.m == 1
    assert g.edges == ((0, 1),)
    assert g.labels == (5, 9)


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
    # nor may U+F460C reach loadtxt, which numpy 2.4 has misread or crashed on
    # a file's readlines() list names the line its text does
    for bad in ("1_0 2", "+3 4", "\u0663 1", "0\U000f460c1"):
        text = f"0 1\n{bad}\n"
        for source in (text, io.StringIO(text).readlines()):
            with pytest.raises(EdgeListParseError) as exc:
                load_edge_list(source)
            assert exc.value.line_no == 2


def test_load_empty_and_comments():
    assert load_edge_list("").n == 0
    g = load_edge_list("# header\n\n0 1\n# trailing\n")
    assert g.n == 2 and g.m == 1


def test_load_first_appearance_relabeling():
    g = load_edge_list("10 20\n20 30\n5 10")
    assert g.labels == (10, 20, 30, 5)
    assert g.edges == ((0, 1), (0, 3), (1, 2))


def reference_load(source):
    """The per-line parser load_edge_list replaced, canonicalizing with a
    set: (n, edges, labels), or EdgeListParseError.  The loader's one line
    rule, spelled another way: a list's items, less trailing whitespace,
    join into a text; a str or a file's text is read by universal newlines."""
    if isinstance(source, list):
        source = "\n".join(item.rstrip() for item in source)
    lines = io.StringIO(source if isinstance(source, str) else source.read(), newline=None)
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
        labels = tuple(appearance)
    return n, tuple(sorted({(min(a, b), max(a, b)) for a, b in raw_pairs})), labels


def load_outcome(load, source):
    try:
        g = load(source)
    except EdgeListParseError as exc:
        return exc.line_no, str(exc)
    return g if isinstance(g, tuple) else (g.n, g.edges, g.labels)


# Line ends and near misses.  _BREAKS are where str.splitlines ends a
# line; the loader, as universal newlines do, ends one only at the first
# three, and reads the rest, like all of _SPACES, as whitespace.  "+", "-",
# "_" and the Arabic-Indic three are what int() would accept in an id, and
# ids from 2**63 up do not fit an int64.
_SPACES = ["\x0b", "\x0c", "\x1c", "\x85", "\x1f", "\xa0"]
_BREAKS = ["\r\n", "\r", "\n"] + _SPACES[:4]
_ODD = _BREAKS + _SPACES[4:] + [" ", "#", "+", "-", "_", "\u0663"]
_ids = st.builds(lambda zeros, i: zeros + str(i), st.sampled_from([""] * 6 + ["0", "00"]),
                 st.sampled_from([0] * 6 + [1, 2]).flatmap(lambda k: [
                     st.integers(0, 7), st.integers(8, 999), st.integers(2**63 - 2, 2**63 + 2)][k]))
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
# plain texts, which loadtxt alone reads: ASCII digits, spaces, tabs and
# "\n" only, around comment lines of any other text
_blank = st.lists(st.sampled_from(" \t"), max_size=2).map("".join)


@st.composite
def _plain_line(draw):
    """Two ids, more rarely 0, 1 or 3, between runs of spaces and tabs; or a comment."""
    k = draw(st.sampled_from([2] * 8 + [0, 1, 3, -1]))
    if k < 0:
        return draw(_blank) + "#" + draw(st.text("ab #\t\xe9", max_size=4))
    line = draw(_blank)
    for j in range(k):
        line += draw(_ids) + draw(_blank if j == k - 1 else _blank.filter(bool))
    return line


_plain = st.lists(st.tuples(_plain_line(), st.just("\n")), max_size=12)


@settings(max_examples=400, deadline=None)
@given(pieces=st.one_of(st.lists(st.tuples(_line, _line_end), max_size=12), _plain),
       as_file=st.booleans())
@example(pieces=[("# c", "\n"), (" 3 \xa05", "\r\n"), ("5 9", "\x85")], as_file=True)
@example(pieces=[("0 1", "\n"), ("1_0 2", "\n")], as_file=False)
@example(pieces=[(str(2**63), "\n"), (f"1 {2**64}", "\n")], as_file=False)
@example(pieces=[(f"{2**63 - 1} 007", "\n"), ("7 12", "\n")], as_file=False)  # int64 ids
@example(pieces=[(f"{2**63 - 1} 007", "\n"), (f"7 {2**63}", "\n")], as_file=True)  # past int64
@example(pieces=[("# c", "\x0c"), ("0 1", "\n")], as_file=False)  # a comment runs past a "\x0c"
@example(pieces=[("\t0\t00", "\n"), ("", "\n"), (" \t", "\n"), ("# \xe9", "\n"), ("1 2 3", "\n")],
         as_file=False)
def test_load_matches_the_per_line_reference(pieces, as_file):
    # the bulk loader gives the per-line parser's graph, or its error line
    # and message, both on a str and on a text file's lines, and so does
    # the list that reading the file's lines with their ends gives
    text = "".join(line + end for line, end in pieces)

    def source():
        return io.StringIO(text, newline=None) if as_file else text

    outcome = load_outcome(load_edge_list, source())
    assert outcome == load_outcome(reference_load, source())
    assert load_outcome(load_edge_list, io.StringIO(text, newline="").readlines()) == outcome


SNAP = "# Undirected graph: toy\n# Nodes: 4 Edges: 4\n# FromNodeId\tToNodeId\n0\t1\n0\t2\n1\t2\n2\t3\n"


@pytest.mark.parametrize("text, graph", [
    (SNAP, (4, ((0, 1), (0, 2), (1, 2), (2, 3)), None)),
    ("  007\t3 \n\n \t\n3 10\n\t#\xe9 x\n", (3, ((0, 1), (1, 2)), (7, 3, 10))),
    (f"0 {2**63 - 1}\n", (2, ((0, 1),), (0, 2**63 - 1))),
    ("# only a header\n", (0, (), None))], ids=["snap", "sparse", "int64", "empty"])
def test_a_plain_text_loads_without_the_vet(text, graph, monkeypatch):
    # ASCII digits and whitespace around comment lines go straight to
    # loadtxt, as a str, a file's lines and the CLI's split read alike, and
    # so do a CRLF str and ids parted by any other whitespace
    def refused(lines):
        raise AssertionError("read line by line")

    monkeypatch.setattr(graph_module, "_line_ids", refused)
    wide = text.replace(" ", "\xa0").replace("\t", "\u3000")
    for source in (text, io.StringIO(text), text.split("\n"), text.replace("\n", "\r\n"), wide):
        assert load_outcome(load_edge_list, source) == graph
    # what is not plain is still read line by line
    for odd in (text + "0 1 #\n", text + "1\n", text + "0\U000f460c1\n"):
        with pytest.raises(AssertionError, match="read line by line"):
            load_edge_list(odd)


@pytest.mark.parametrize("text", ["", "\n", " \t\n\n", "# only\n  # comments", "#\n\n#\n"],
                         ids=["empty", "newline", "blank", "comments", "comments-and-blanks"])
@pytest.mark.parametrize("as_file", [False, True])
def test_text_without_a_link_line_loads_the_empty_graph_without_a_warning(text, as_file):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_edge_list(io.StringIO(text) if as_file else text)
    assert (g.n, g.edges, g.labels, g.ends.tolist()) == (0, (), None, [])


def test_a_carriage_return_inside_an_item_ends_a_line():
    # as it does in a str and a file, so the items after it are numbered
    # one line on
    for lines, outcome in [(["0\r1", "1 2"], (1, "line 1: expected two integer tokens, got '0'")),
                           (["5 9\r\n9 5", "x y"], (3, "line 3: node ids must be nonnegative "
                                                         "integers, got 'x y'"))]:
        text = "\n".join(lines)
        for source in (lines, text, io.StringIO(text, newline="")):
            assert load_outcome(load_edge_list, source) == outcome


def test_a_newline_inside_an_item_ends_a_line():
    # as in the str the items join to; loadtxt, handed such an item, would
    # take all of it for a comment where it starts with "#"
    for lines in (["# c\n0 1", "2 3"], ["0 1\n2 3", "# c"], ["0 1\n2", "3 4"]):
        assert load_outcome(load_edge_list, lines) == load_outcome(load_edge_list, "\n".join(lines))
    assert load_outcome(load_edge_list, ["# c\n0 1", "2 3"]) == (4, ((0, 1), (2, 3)), None)


@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
def test_a_file_ends_its_lines_as_universal_newlines_do(tmp_path, newline):
    # whatever newline mode it was opened in, a file, read in one call,
    # ends its lines at "\r\n", "\r" and "\n", as the str of its text
    # does: a comment ended by a lone "\r" swallows no link, and a bad line
    # keeps its number
    path = tmp_path / "ends.txt"
    for text in ("# c\r0 1\r\n1 2\n5 9\r", "0 1\r\r\n2 3\rx y\n"):
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline=newline) as fh:
            assert load_outcome(load_edge_list, fh) == load_outcome(load_edge_list, text)


_WHITESPACE = [c for c in map(chr, range(0x110000)) if c.isspace()]


def test_the_plain_class_is_ascii_digits_and_whitespace():
    # loadtxt parts ids at exactly the characters str.split parts them at,
    # and no other character may reach it
    assert len(_WHITESPACE) == 29
    plain = {c for c in map(chr, range(0x110000)) if graph_module._PLAIN_TEXT.fullmatch(c)}
    assert plain == {*"0123456789", *_WHITESPACE}


def test_ids_parted_by_any_whitespace_load_as_the_reference_does(monkeypatch):
    # Only "\r\n", "\r" and "\n" end a line, in a str, a file in any newline
    # mode and a list of lines alike, so every source gives the reference's
    # one graph or error line, and loadtxt alone reads each graph.
    line_ids, calls = graph_module._line_ids, []
    monkeypatch.setattr(graph_module, "_line_ids", lambda lines: calls.append(1) or line_ids(lines))
    for c in _WHITESPACE:
        text = f"0{c}1\n1{c}2\n"
        sources = [lambda: text, lambda: text.split("\n"), lambda: io.StringIO(text).readlines()]
        sources += [lambda newline=newline: io.StringIO(text, newline=newline)
                    for newline in (None, "", "\n", "\r", "\r\n")]
        outcomes = []
        for source in sources:
            calls.clear()
            outcomes.append(load_outcome(load_edge_list, source()))
            assert outcomes[-1] == load_outcome(reference_load, source()), repr(c)
            if len(outcomes[-1]) == 3:
                assert not calls, repr(c)
        assert outcomes == outcomes[:1] * len(sources), repr(c)


def test_load_huge_sparse_ids_keep_their_labels():
    big = 2**64 + 7
    g = load_edge_list(f"{big} 3\n3 {2**63}\n")
    assert (g.n, g.edges, g.labels) == (3, ((0, 1), (1, 2)), (big, 3, 2**63))


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
    ([(0, 1), (True, False)], "edge (True, False) has a node id that is not an integer"),
    (np.array([[True, False]]), "edge (True, False) has a node id that is not an integer"),
])
def test_make_graph_names_the_first_pair_with_an_id_that_is_not_an_integer(pairs, message):
    # a bool is no node id, though it is an int: True would name node 1
    for build in (Graph, make_graph):
        with pytest.raises(ValueError) as exc:
            build(3, pairs)
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
    for build in (make_graph, Graph):
        with pytest.raises(ValueError) as exc:
            build(3, pairs)
        assert str(exc.value) == message


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6), pairs=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                                          max_size=12))
def test_make_graph_canonicalizes_like_a_set(n, pairs):
    bad = [p for p in pairs if not (0 <= p[0] < n and 0 <= p[1] < n)]
    if bad:
        first = rf"^edge \({bad[0][0]}, {bad[0][1]}\) out of range"
        for build in (make_graph, Graph):
            with pytest.raises(ValueError, match=first):
                build(n, pairs)
        return
    expected = tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    for given_pairs in (pairs, iter(pairs), np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        g = make_graph(n, given_pairs)
        assert (g.n, g.edges) == (n, expected)
        assert all(type(x) is int for e in g.edges for x in e)
    g = Graph(n, pairs)  # the constructor itself, not through make_graph
    assert (g.n, g.edges) == (n, expected)


def test_n_is_at_most_the_largest_whose_link_keys_fit_an_int64():
    # the key u*n + v of the last pair, n*n - n - 1, fits an int64, and for
    # one node more it would wrap and a link would be lost.  The constructor
    # builds only m-sized arrays; csr and degrees would be n-sized, so
    # neither is read here.
    n = 3_037_000_500
    assert n * n - n - 1 <= 2**63 - 1 < (n + 1) * n - 1
    g = Graph(n, [(n - 2, n - 1), (0, 1)])
    assert (g.n, g.edges) == (n, ((0, 1), (n - 2, n - 1)))
    with pytest.raises(ValueError, match=r"^n must lie in 0\.\.3037000500$"):
        Graph(n + 1, [(n - 1, n), (0, 1)])


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
    for bad in (6, 1.5, True):
        with pytest.raises(ValueError, match=f"victim id {bad}"):
            remove_nodes(g, {bad})
        with pytest.raises(ValueError, match=f"victim id {bad}"):
            remove_nodes(g, [1, bad])  # a set would fold True into the 1
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
    assert p.edges == ((0, 1), (1, 2))
    p2 = remove_links(make_graph(2, [(0, 1)]), [(1, 0)])  # orientation normalized
    assert p2.n == 2 and p2.m == 0
    same = remove_links(k3, [])
    assert same.edges == k3.edges
    with pytest.raises(ValueError, match=r"edge \(0, 2\) not present in graph"):
        remove_links(p, [(0, 2)])
    # link ids follow make_graph's integer rule; a numpy integer is one
    p5 = path_graph(5)
    for bad in ((1.0, 2), (1.5, 2), ("1", 2), (False, True)):
        with pytest.raises(ValueError, match=re.escape(f"edge {bad!r} has a node id that is not an integer")):
            remove_links(p5, [bad])
    assert remove_links(p5, [(np.int64(2), 1)]).edges == ((0, 1), (2, 3), (3, 4))


def test_dense_input_ids_kept_verbatim():
    g = load_edge_list("1 2\n0 2")
    assert g.n == 3
    assert g.edges == ((0, 2), (1, 2))
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


# Every reader of the links as numbers reads g.ends, which the constructor
# alone builds.
READERS = [lambda g: g, lambda g: g.ends, lambda g: g.csr, Graph.degrees, route_all_pairs,
           laplacian, connected_components, delivered_flow_count,
           lambda g: plan_targeted_degree(g, g.n),
           lambda g: throughput(g, "flow-ratio"),
           lambda g: averaged_elasticity(g, "random-link", trials=2, mode="flow-ratio")]


@pytest.mark.parametrize("edges, canonical", [
    ([(0, 1), (1, 2), (0, 2), (0, 2)], [(0, 1), (0, 2), (1, 2)]),  # repeated link
    ([(0, 1), (1, 1), (1, 2)], [(0, 1), (1, 2)]),  # self-loop
    ([(0, 2), (0, 1)], [(0, 1), (0, 2)]),  # links out of order
    ([(1, 0), (0, 1), (2, 2)], [(0, 1)]),  # one link both ways, and a self-loop
], ids=["duplicate", "self-loop", "descending", "reversed"])
def test_non_canonical_edge_list_is_canonicalized(edges, canonical):
    # Graph(n, pairs) is make_graph(n, pairs): the graph of the set of
    # links, so every reader sees the canonical graph, whichever is called.
    g = Graph(3, edges)
    assert g == make_graph(3, edges) == make_graph(3, canonical) and list(g.edges) == canonical
    for read in READERS:
        # pickled bytes compare arrays, dataclasses and floats exactly
        builds = (g, make_graph(3, edges), make_graph(3, canonical))
        assert len({pickle.dumps(read(h)) for h in builds}) == 1


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (1, 3)], "edge (1, 3) out of range for n=3"),  # id past n - 1
    # ids that are not integers, which astype would truncate
    (np.array([[0, 1], [1, 2.5]]), "edge (0.0, 1.0) has a node id that is not an integer"),
], ids=["out-of-range", "float-array"])
def test_non_canonical_edge_list_is_refused(edges, message):
    # The constructor refuses the list with make_graph's message, so no
    # reader ever sees it.
    for build in (Graph, make_graph):
        with pytest.raises(ValueError) as exc:
            build(3, edges)
        assert str(exc.value) == message


@pytest.mark.parametrize("n, links, labels", [
    (3, [(0, 1)], [7]), (1, [], [7, 8]), (0, [], [7])])
def test_labels_name_every_node_once(n, links, labels):
    # one external id per node: a label list of another length is refused
    # at construction, not when a reader first indexes it
    for build in (Graph, make_graph):
        with pytest.raises(ValueError) as exc:
            build(n, links, labels)
        assert str(exc.value) == f"labels must have n={n} entries, got {len(labels)}"
    assert Graph(2, [(0, 1)], [7, 9]).labels == (7, 9)


@pytest.mark.parametrize("labels, message", [
    (["a", None], "label 'a' is not a nonnegative integer"),
    ([True, 1], "label True is not a nonnegative integer"),
    ([-1, 0], "label -1 is not a nonnegative integer"),
    ([1.0, 2], "label 1.0 is not a nonnegative integer"),
    ([3, 3], "label 3 names two nodes"),
    ([np.int64(3), 3], "label 3 names two nodes")])
def test_labels_are_distinct_nonnegative_integers(labels, message):
    # what the loader could have given: a label for each node, in input order
    for build in (Graph, make_graph):
        with pytest.raises(ValueError) as exc:
            build(2, [(0, 1)], labels)
        assert str(exc.value) == message
    g = Graph(2, [(0, 1)], [np.int64(2**63 - 1), np.uint8(0)])
    assert g.labels == (2**63 - 1, 0) and {type(x) for x in g.labels} == {int}


def test_ends_are_built_once_and_read_only():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert g.ends is g.ends
    assert g.ends.tolist() == [0, 1, 1, 2] and g.ends.dtype == np.int64
    assert not g.ends.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g.ends[0] = 2
    links = np.array([[0, 1], [1, 2]])
    assert Graph(3, links) == g and links.flags.writeable  # the caller's array is copied


def test_links_and_labels_cannot_change_in_place():
    # edges is a tuple and labels the graph's own tuple, so neither a
    # reader nor the caller's labels list can make a graph drift from ends
    labels = [5, 6, 7]
    g = Graph(3, [(0, 1)], labels)
    labels.append(8)
    assert g.labels == (5, 6, 7) and g == Graph(3, [(0, 1)], [5, 6, 7])
    for attr in ("edges", "labels"):
        with pytest.raises(AttributeError):
            getattr(g, attr).append((1, 2))
    assert dump_edge_list(g) == "0 1\n" and g.m == 1


def test_a_copied_graph_is_checked_again_and_caches_nothing():
    # pickle (what a spawn or forkserver pool does to its initargs) and
    # deepcopy rebuild a Graph through its constructor from n, its links as
    # a (k, 2) view of ends, and labels
    g = load_edge_list("10 20\n20 30\n30 10\n30 40\n")
    assert g.csr and g.edges
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied == g and copied.labels == (10, 20, 30, 40)
        assert not copied.ends.flags.writeable
        assert "csr" not in vars(copied) and "edges" not in vars(copied)
    assert g != Graph(g.n, g.ends.reshape(-1, 2)) and g != (g.n, g.ends, g.labels)


def test_the_numeric_pipeline_never_builds_the_tuple_view():
    # Every numeric reader takes g.ends.  g.edges is read only by a random
    # link plan's link order, by _link_ids (a sweep of a link plan and
    # remove_links), by remove_nodes and by dump_edge_list.
    g = grid_graph(4, 4)
    summarize(g)
    degree_histogram(g)
    laplacian(g)
    route_all_pairs(g)
    sweep(g, plan_targeted_degree(g, g.n), 0.5, 4)
    for mode in MODES:
        for strategy in ("degree", "random-node"):
            averaged_elasticity(g, strategy, trials=2, steps=4, mode=mode)
    assert "edges" not in vars(g)
    plan_random_links(g, 2, seed=1)
    assert "edges" in vars(g)


GRID = grid_graph(3, 3)
NOT_INTEGERS = (2.5, 2.0, "2", True, None)


def study(**kwargs):
    return averaged_elasticity(GRID, "random-link", **{"trials": 2, "steps": 2,
                                                       "mode": "flow-ratio", **kwargs})


def echoed(name):
    """Reads field name of a study's result after a JSON round trip."""
    return lambda s: json.loads(json.dumps(s.result.to_dict()))[name]


@pytest.mark.parametrize("name, good, bads, call, echo", [
    pytest.param("count", 2, NOT_INTEGERS, lambda v: plan_targeted_degree(GRID, v), None,
                 id="plan_targeted_degree-count"),
    pytest.param("count", 2, NOT_INTEGERS, lambda v: plan_random_nodes(GRID, v, seed=1), None,
                 id="plan_random_nodes-count"),
    pytest.param("seed", 2, NOT_INTEGERS, lambda v: plan_random_nodes(GRID, 2, seed=v),
                 lambda plan: plan.seed, id="plan_random_nodes-seed"),
    pytest.param("count", 2, NOT_INTEGERS, lambda v: plan_random_links(GRID, v, seed=1), None,
                 id="plan_random_links-count"),
    pytest.param("seed", 2, NOT_INTEGERS, lambda v: plan_random_links(GRID, 2, seed=v),
                 lambda plan: plan.seed, id="plan_random_links-seed"),
    pytest.param("seed", 2, NOT_INTEGERS, lambda v: erdos_renyi(6, 0.5, seed=v), None,
                 id="erdos_renyi-seed"),
    pytest.param("seed", 2, NOT_INTEGERS, lambda v: scale_free_ba(8, 2, 2, seed=v), None,
                 id="scale_free_ba-seed"),
    pytest.param("n", 2, NOT_INTEGERS, lambda v: make_graph(v, [(0, 1)]), lambda g: g.n,
                 id="make_graph-n"),
    pytest.param("n", 3, (*NOT_INTEGERS, -1, 3_037_000_501), lambda v: Graph(v, [(0, 1)]),
                 lambda g: g.n, id="Graph-n"),
    pytest.param("trials", 2, NOT_INTEGERS, lambda v: study(trials=v), echoed("trials"),
                 id="averaged_elasticity-trials"),
    pytest.param("steps", 2, NOT_INTEGERS, lambda v: study(steps=v), echoed("steps"),
                 id="averaged_elasticity-steps"),
    pytest.param("seed", 2, NOT_INTEGERS, lambda v: study(seed=v), echoed("seed"),
                 id="averaged_elasticity-seed"),
    pytest.param("jobs", 2, NOT_INTEGERS, lambda v: study(jobs=v), None,
                 id="averaged_elasticity-jobs"),
    pytest.param("steps", 2, NOT_INTEGERS,
                 lambda v: sweep(GRID, plan_targeted_degree(GRID, 9), steps=v, mode="flow-ratio"),
                 lambda curve: curve.steps, id="sweep-steps"),
    pytest.param("jobs", 2, NOT_INTEGERS,
                 lambda v: masked_throughputs(GRID, [np.arange(GRID.m)], [0, 6], "flow-ratio", v),
                 None, id="masked_throughputs-jobs"),
    pytest.param("size_guard", 2, NOT_INTEGERS,
                 lambda v: laplacian(path_graph(2), size_guard=v).tolist(), None,
                 id="laplacian-size_guard"),
    # each generator's sizes, and the values just outside the range it states
    *[pytest.param(name, good, (*NOT_INTEGERS, *outside), call, lambda g: g.n, id=f"{gen}-{name}")
      for gen, name, good, outside, call in [
          ("path_graph", "n", 2, (0,), path_graph),
          ("cycle_graph", "n", 3, (2,), cycle_graph),
          ("complete_graph", "n", 3, (0,), complete_graph),
          ("star_graph", "n", 3, (0,), star_graph),
          ("wheel_graph", "n", 4, (3,), wheel_graph),
          ("grid_graph", "rows", 2, (0,), lambda v: grid_graph(v, 3)),
          ("grid_graph", "cols", 2, (0,), lambda v: grid_graph(3, v)),
          ("erdos_renyi", "n", 4, (0,), lambda v: erdos_renyi(v, 0.5)),
          ("scale_free_ba", "n", 8, (0,), lambda v: scale_free_ba(v, 2, 2)),
          ("scale_free_ba", "seed_nodes", 2, (0, 6), lambda v: scale_free_ba(5, v, 1)),
          ("scale_free_ba", "links_per_node", 2, (0, 3), lambda v: scale_free_ba(5, 2, v))]],
    pytest.param("max_removal_fraction", 0.5, (True, "0.5", None),
                 lambda v: study(max_removal_fraction=v), echoed("max_removal_fraction"),
                 id="averaged_elasticity-max_removal_fraction"),
    pytest.param("p", 0.5, (True, "0.5", None, -0.1, 1.5), lambda v: erdos_renyi(6, v), None,
                 id="erdos_renyi-p"),
])
def test_every_integer_argument_follows_one_rule(name, good, bads, call, echo, spy_pool):
    # A float, a string, None, True (1's twin) or a value outside the
    # argument's range is refused with a ValueError naming the argument; a
    # numpy scalar acts as the plain value, and an echoed one comes back as
    # a plain int, so a result dumps as JSON.  The sweep width and
    # erdos_renyi's p follow their own rule, a real number in a range.
    for bad in bads:
        with pytest.raises(ValueError, match=f"^{name} must "):
            call(bad)
    out = call(np.asarray(good)[()])  # good as a numpy scalar
    assert out == call(good)
    if echo:
        assert type(echo(out)) is type(good)

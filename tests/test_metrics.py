from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netelast import (
    assortativity,
    complete_graph,
    cycle_graph,
    degree_histogram,
    erdos_renyi,
    grid_graph,
    make_graph,
    path_graph,
    scale_free_ba,
    star_graph,
    summarize,
    wheel_graph,
)


def test_star_assortativity_exactly_minus_one():
    for n in (3, 5, 12):
        assert assortativity(star_graph(n)) == pytest.approx(-1.0, abs=1e-9)


def test_p4_assortativity():
    assert assortativity(path_graph(4)) == pytest.approx(-0.5, abs=1e-9)


def test_regular_graphs_undefined():
    assert assortativity(cycle_graph(5)) is None
    assert assortativity(complete_graph(6)) is None


def test_assortativity_needs_links():
    with pytest.raises(ValueError):
        assortativity(make_graph(3, []))


def test_assortativity_relabeling_invariant():
    import random

    for seed in range(10):
        g = erdos_renyi(16, 0.25, seed=seed)
        if g.m == 0:
            continue
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        h = make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        a, b = assortativity(g), assortativity(h)
        if a is None:
            assert b is None
        else:
            assert b == pytest.approx(a, abs=1e-12)


def test_assortativity_bounded():
    for seed in range(20):
        g = erdos_renyi(15, 0.3, seed=seed)
        if g.m == 0:
            continue
        r = assortativity(g)
        if r is not None:
            assert -1.0 <= r <= 1.0


def test_scale_free_disassortative():
    g = scale_free_ba(1000, 3, 3, seed=42)
    r = assortativity(g)
    assert r is not None and r < 0


def test_degree_histogram_fixtures():
    assert degree_histogram(star_graph(5)).counts == {4: 1, 1: 4}
    assert degree_histogram(grid_graph(3, 3)).counts == {2: 4, 3: 4, 4: 1}
    assert degree_histogram(make_graph(2, [])).counts == {0: 2}


def test_histogram_moment_identities():
    for seed in range(15):
        g = erdos_renyi(20, 0.2, seed=seed)
        hist = degree_histogram(g)
        assert sum(hist.counts.values()) == g.n
        assert sum(k * c for k, c in hist.counts.items()) == 2 * g.m


def test_summarize_wheel():
    s = summarize(wheel_graph(6))
    assert (s.n, s.m, s.max_degree) == (6, 10, 5)
    assert s.avg_degree == pytest.approx(10 / 3)


def test_summarize_complete():
    s = summarize(complete_graph(4))
    assert (s.n, s.m, s.max_degree, s.avg_degree) == (4, 6, 3, 3.0)
    assert s.assortativity is None


def test_summarize_matches_histogram_mean():
    for seed in range(10):
        g = erdos_renyi(18, 0.25, seed=seed)
        s = summarize(g)
        hist = degree_histogram(g)
        mean = sum(k * c for k, c in hist.counts.items()) / g.n
        assert s.avg_degree == mean


def test_summarize_edgeless_and_empty():
    s = summarize(make_graph(3, []))
    assert s.assortativity is None and s.max_degree == 0
    with pytest.raises(ValueError):
        summarize(make_graph(0, []))


def per_link_assortativity(g):
    """r from the per-link integer sums, one Python-int step per link: the
    form assortativity replaced."""
    deg = g.degrees()
    s_prod = s_sum = s_sq = 0
    for u, v in g.edges:
        s_prod += deg[u] * deg[v]
        s_sum += deg[u] + deg[v]
        s_sq += deg[u] ** 2 + deg[v] ** 2
    denominator = 2 * g.m * s_sq - s_sum * s_sum
    return None if denominator == 0 else (4 * g.m * s_prod - s_sum * s_sum) / denominator


# graphs on up to 12 nodes, some of them isolated, as (n, pairs)
_graphs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)))


@settings(max_examples=200, deadline=None)
@given(graph=_graphs)
@example(graph=(5, [(i, (i + 1) % 5) for i in range(5)]))  # regular: None
@example(graph=(8, [(0, 1), (2, 3), (4, 5)]))  # regular links, isolated nodes: None
@example(graph=(9, [(0, i) for i in range(1, 6)] + [(6, 7)]))  # a star and a link, isolated node
def test_assortativity_matches_the_per_link_sums(graph):
    # the degree-sum form gives the per-link integers, so the same float
    g = make_graph(*graph)
    if g.m == 0:
        with pytest.raises(ValueError):
            assortativity(g)
    else:
        assert assortativity(g) == per_link_assortativity(g)


@settings(max_examples=100, deadline=None)
@given(graph=_graphs)
def test_degree_histogram_counts_the_degrees(graph):
    g = make_graph(*graph)
    assert degree_histogram(g).counts == Counter(g.degrees())

import pytest

from netelast import (
    complete_graph,
    erdos_renyi,
    generate,
    grid_graph,
    parse_generator_spec,
    scale_free_ba,
    wheel_graph,
)


def test_wheel_structure():
    g = wheel_graph(6)
    assert g.degrees() == [5, 3, 3, 3, 3, 3]
    assert g.m == 10


def test_complete_structure():
    g = complete_graph(4)
    assert g.degrees() == [3, 3, 3, 3]
    assert g.m == 6


def test_grid_structure():
    g = grid_graph(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4  # rows*(cols-1) + cols*(rows-1)
    assert g.degrees()[0] == 2  # corner
    assert g.degrees()[5] == 4  # interior


def test_ba_edge_count_and_simplicity():
    g = scale_free_ba(1000, 3, 3, seed=11)
    assert g.m == 3 + 3 * 997
    assert len(set(g.edges)) == g.m
    assert all(u != v for u, v in g.edges)


def test_ba_degenerate_seed_graph():
    g = scale_free_ba(5, 1, 1, seed=0)
    assert g.n == 5 and g.m == 4


def test_generators_reproducible():
    for spec in ("er:30:0.2", "ba:50:3:3"):
        kind, params = parse_generator_spec(spec)
        a = generate(kind, params, seed=9)
        b = generate(kind, params, seed=9)
        c = generate(kind, params, seed=10)
        assert a.edges == b.edges
        assert a.edges != c.edges


def test_negative_seeds_are_refused():
    # random.Random seeds an int by its absolute value, so seed -5 would
    # repeat the graph of seed 5
    for build in (lambda seed: erdos_renyi(30, 0.2, seed=seed),
                  lambda seed: scale_free_ba(50, 3, 3, seed=seed),
                  lambda seed: generate("ba", (50, 3, 3), seed=seed)):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -5$"):
            build(-5)
        assert build(0).m > 0
    assert generate("grid", (2, 2), seed=-5).m == 4  # unseeded kinds ignore it


def test_erdos_renyi_extremes():
    assert erdos_renyi(10, 0.0, seed=1).m == 0
    assert erdos_renyi(10, 1.0, seed=1).m == 45


def test_parse_generator_spec():
    assert parse_generator_spec("wheel:6") == ("wheel", (6,))
    assert parse_generator_spec("grid:32:32") == ("grid", (32, 32))
    assert parse_generator_spec("ba:1000:3:3") == ("scale_free_ba", (1000, 3, 3))
    assert parse_generator_spec("er:100:0.05") == ("erdos_renyi", (100, 0.05))
    with pytest.raises(ValueError):
        parse_generator_spec("torus:3:3")
    with pytest.raises(ValueError):
        parse_generator_spec("wheel:6:6")
    with pytest.raises(ValueError):
        parse_generator_spec("er:100:lots")


def test_invalid_parameters():
    with pytest.raises(ValueError):
        wheel_graph(3)
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, seed=0)
    with pytest.raises(ValueError):
        scale_free_ba(10, 3, 4, seed=0)
    with pytest.raises(ValueError):
        scale_free_ba(2, 3, 1, seed=0)
    with pytest.raises(ValueError):
        generate("path", (), seed=0)

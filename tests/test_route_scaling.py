import importlib.util
from pathlib import Path

import numpy as np

from netelast import grid_graph, plan_targeted_degree, route_all_pairs, scale_free_ba

TOOL = Path(__file__).resolve().parents[1] / "tools" / "route_scaling.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("route_scaling", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_route_scaling_measures_small_routes():
    tool = load_tool()
    seconds, faults, peak = tool.measure(grid_graph(4, 5))
    assert seconds > 0 and peak > 0
    assert type(faults) is int and faults >= 0
    g = scale_free_ba(60, 3, 3, seed=1)
    keep = tool.degree_attack_keep(g, 0.2)
    # the 12 highest-degree nodes go, so only links between the others stay
    gone = set(plan_targeted_degree(g, 12).order)
    assert keep.tolist() == [u not in gone and v not in gone for u, v in g.edges]
    assert keep.dtype == np.bool_ and 0 < keep.sum() < g.m
    seconds, faults, peak = tool.measure(g, keep)
    assert seconds > 0 and peak > 0
    assert type(faults) is int and faults >= 0
    assert route_all_pairs(g, keep).link_load[~keep].sum() == 0

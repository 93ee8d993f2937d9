"""Correctness checks on the outputs of one workload run.

Each check returns a list of problems (empty when the output is right).
They run after the timed region, in the benchmark's own process, against
references that share no code with the path being checked: numpy's LAPACK
eigensolver, networkx assortativity, the brute-force path-length oracle in
``tests/flow_oracle.py``, and degree counts taken from the edge list here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

# Inputs on which sweep-bottleneck checks routing against the oracle.
ROUTING_REFERENCE = ("ba-1024", "grid-32")
SPECTRUM_ATOL = 1e-6
ASSORTATIVITY_ATOL = 1e-9
# Largest gap, in units in the last place, allowed between an averaged
# (multi-trial) E and area / (100 * max_removal).  The program averages
# per-trial E values and per-trial areas separately, so for trials > 1 the
# identity holds only to rounding; single-trial results must match exactly.
AVERAGED_IDENTITY_ULPS = 4


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_sweep(result_path: Path, curve_path: Path) -> list[str]:
    res = json.loads(result_path.read_text(encoding="utf-8"))
    e, area, width = res["elasticity"], res["area"], res["max_removal_fraction"]
    problems = []
    if not 0.0 <= e <= 1.0:
        problems.append(f"E={e!r} outside [0, 1]")
    identity = area / (100 * width)
    if res["trials"] == 1:
        if e != identity:
            problems.append(f"E={e!r} != area/(100*max_removal)={identity!r}")
    else:
        per_trial = res["per_trial_elasticity"]
        if len(per_trial) != res["trials"]:
            problems.append(f"{len(per_trial)} per-trial values for {res['trials']} trials")
        elif e != math.fsum(per_trial) / len(per_trial):
            problems.append(f"E={e!r} is not the mean of the per-trial values")
        if abs(e - identity) > AVERAGED_IDENTITY_ULPS * math.ulp(identity):
            problems.append(f"E={e!r} far from area/(100*max_removal)={identity!r}")
    rows = list(csv.reader(io.StringIO(curve_path.read_text(encoding="utf-8"))))
    if rows[0] != ["percent_remaining", "throughput"] or rows[1] != ["100.000000", "1.000000"]:
        problems.append("curve does not start with its header and the intact sample")
    points = [(float(p), float(t)) for p, t in rows[1:]]
    if any(a[0] <= b[0] for a, b in zip(points, points[1:])):
        problems.append("curve percentages are not strictly decreasing")
    if any(not 0.0 <= t <= 1.0 for _, t in points):
        problems.append("curve throughput outside [0, 1]")
    return problems


def check_routing(g) -> list[str]:
    """Routing of the intact graph against component sizes and the path-length oracle."""
    from flow_oracle import total_path_length
    from netelast.routing import delivered_flow_count, route_all_pairs

    fa = route_all_pairs(g)
    problems = []
    if fa.delivered != delivered_flow_count(g):
        problems.append(f"route_all_pairs delivered {fa.delivered} != delivered_flow_count")
    total = total_path_length(g)
    if int(fa.link_load.sum()) != total:
        problems.append(f"link loads sum to {int(fa.link_load.sum())}, path lengths to {total}")
    return problems


def check_spectrum(path: Path, n: int, edges: list[tuple[int, int]]) -> list[str]:
    import numpy as np

    out = json.loads(path.read_text(encoding="utf-8"))
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    reference = np.linalg.eigvalsh(lap)
    got = np.array(out["spectrum"])
    problems = []
    if (out["n"], out["m"]) != (n, len(edges)) or got.shape != reference.shape:
        return [f"spectrum of n={out['n']} m={out['m']} with {got.size} values"]
    err = float(np.abs(got - reference).max())
    if err > SPECTRUM_ATOL * max(1.0, float(reference[-1])):
        problems.append(f"spectrum differs from eigvalsh by {err:.3g}")
    if n >= 2 and out["lambda2"] != out["spectrum"][1]:
        problems.append("lambda2 is not the second eigenvalue")
    if abs(out["mean_eigenvalue"] - 2 * len(edges) / n) > SPECTRUM_ATOL:
        problems.append("mean eigenvalue is not the mean degree")
    return problems


def check_metrics(path: Path, n: int, edges: list[tuple[int, int]]) -> list[str]:
    import networkx as nx

    out = json.loads(path.read_text(encoding="utf-8"))
    degree = Counter(x for e in edges for x in e)
    expected = {"n": n, "m": len(edges), "max_degree": max(degree.values()),
                "avg_degree": 2 * len(edges) / n}
    problems = [f"{k}={out[k]!r}, expected {v!r}" for k, v in expected.items() if out[k] != v]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    r = nx.degree_assortativity_coefficient(g)
    if math.isnan(r):
        if out["r"] != "undefined":
            problems.append(f"r={out['r']!r} where networkx finds it undefined")
    elif out["r"] == "undefined" or abs(out["r"] - r) > ASSORTATIVITY_ATOL:
        problems.append(f"r={out['r']!r}, networkx {r!r}")
    return problems


def check_ndd(path: Path, n: int, edges: list[tuple[int, int]]) -> list[str]:
    degree = Counter(x for e in edges for x in e)
    histogram = Counter(degree[v] for v in range(n))
    expected = ["degree,count,fraction"]
    expected += [f"{d},{c},{c / n:.6f}" for d, c in sorted(histogram.items())]
    got = path.read_text(encoding="utf-8").splitlines()
    return [] if got == expected else ["degree histogram differs from the edge-list count"]

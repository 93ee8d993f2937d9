"""How one all-pairs route grows with the graph: time, page faults and peak
allocation.

    python3 tools/route_scaling.py

Routes preferential-attachment graphs (ba:n:3:3, seed 42) and grids
(32x32, 32x64, 64x64, 64x128) of n = 1024, 2048, 4096 and 8192 nodes with
netelast.route_all_pairs, imported from this checkout's src/.  Each graph is
routed twice: once timed, counting the minor page faults the route takes
(memory freshly paged in), once under tracemalloc for the peak allocation
(tracing slows allocation, so it is kept out of the timed route).  Prints
one line per graph, then per family the exponent k of a least-squares fit
of time ~ n**k.  Last it routes the bottleneck sweep's real traffic:
BA-1024 masked to the samples its degree attack (degrees recomputed after
every removal, as in a sweep) leaves at 10%, 20% and 30% node removal, when
pendant trees abound.  The BA-8192 and 64x128 routes take the longest, tens
of seconds each on a 2-core VM.
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from netelast import grid_graph, plan_targeted_degree, route_all_pairs, scale_free_ba  # noqa: E402
from netelast.engine import _link_ranks, _sweep_targets  # noqa: E402

SIZES = (1024, 2048, 4096, 8192)
GRID_SIDES = {1024: (32, 32), 2048: (32, 64), 4096: (64, 64), 8192: (64, 128)}
FAMILIES = {
    "ba": lambda n: scale_free_ba(n, 3, 3, seed=42),
    "grid": lambda n: grid_graph(*GRID_SIDES[n]),
}
ATTACK_FRACTIONS = (0.1, 0.2, 0.3)


def degree_attack_keep(g, fraction: float) -> np.ndarray:
    """The links of g left once its degree attack has removed fraction of
    the nodes, as many as a sweep of that width removes."""
    plan = plan_targeted_degree(g, g.n)
    count = _sweep_targets(g, plan, fraction, 1)[1][-1]
    return _link_ranks(g, plan.kind, plan.order, count) >= count


def measure(g, keep: np.ndarray | None = None) -> tuple[float, int, float]:
    """Seconds and minor page faults of one route of g (masked to keep), and
    MiB at the peak of another, traced."""
    g.csr  # built once per graph, outside both measurements
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    route_all_pairs(g, keep)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        route_all_pairs(g, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, faults, peak / 2**20


def main() -> None:
    for family, build in FAMILIES.items():
        times = []
        for n in SIZES:
            g = build(n)
            seconds, faults, peak = measure(g)
            times.append(seconds)
            print(f"{family}-{n}: n={g.n} m={g.m} route {seconds:.3f} s, {faults} faults, "
                  f"peak {peak:.1f} MiB", flush=True)
        k = np.polyfit(np.log(SIZES), np.log(times), 1)[0]
        print(f"{family}: time ~ n^{k:.2f}", flush=True)
    g = FAMILIES["ba"](1024)
    for fraction in ATTACK_FRACTIONS:
        keep = degree_attack_keep(g, fraction)
        seconds, faults, peak = measure(g, keep)
        print(f"ba-1024 degree attack {fraction:.0%}: m={int(keep.sum())} "
              f"route {seconds:.3f} s, {faults} faults, peak {peak:.1f} MiB", flush=True)


if __name__ == "__main__":
    main()

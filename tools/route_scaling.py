"""How one all-pairs route grows with the graph: time and peak allocation.

    python3 tools/route_scaling.py

Routes preferential-attachment graphs (ba:n:3:3, seed 42) and grids
(32x32, 32x64, 64x64, 64x128) of n = 1024, 2048, 4096 and 8192 nodes with
netelast.route_all_pairs, imported from this checkout's src/.  Each graph is
routed twice: once timed, once under tracemalloc for the peak allocation
(tracing slows allocation, so it is kept out of the timed route).  Prints
one line per graph, then per family the exponent k of a least-squares fit
of time ~ n**k.  The BA-8192 and 64x128 routes take the longest, tens of
seconds each on a 2-core VM.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from netelast import grid_graph, route_all_pairs, scale_free_ba  # noqa: E402

SIZES = (1024, 2048, 4096, 8192)
GRID_SIDES = {1024: (32, 32), 2048: (32, 64), 4096: (64, 64), 8192: (64, 128)}
FAMILIES = {
    "ba": lambda n: scale_free_ba(n, 3, 3, seed=42),
    "grid": lambda n: grid_graph(*GRID_SIDES[n]),
}


def measure(g) -> tuple[float, float]:
    """Seconds of one route and MiB at the peak of another, traced."""
    g.csr  # built once per graph, outside both measurements
    start = time.perf_counter()
    route_all_pairs(g)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    try:
        route_all_pairs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak / 2**20


def main() -> None:
    for family, build in FAMILIES.items():
        times = []
        for n in SIZES:
            g = build(n)
            seconds, peak = measure(g)
            times.append(seconds)
            print(f"{family}-{n}: n={g.n} m={g.m} route {seconds:.3f} s, peak {peak:.1f} MiB",
                  flush=True)
        k = np.polyfit(np.log(SIZES), np.log(times), 1)[0]
        print(f"{family}: time ~ n^{k:.2f}", flush=True)


if __name__ == "__main__":
    main()

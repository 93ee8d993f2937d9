"""Topological summary metrics: degree assortativity and degree histograms."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from .graph import Graph

__all__ = [
    "DegreeHistogram",
    "MetricsSummary",
    "assortativity",
    "degree_histogram",
    "summarize",
]


@dataclass(frozen=True)
class MetricsSummary:
    """Headline per-graph numbers; assortativity is None when undefined."""

    assortativity: float | None
    n: int
    m: int
    max_degree: int
    avg_degree: float


@dataclass(frozen=True)
class DegreeHistogram:
    """Exact node count per degree value."""

    counts: dict[int, int]

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


def assortativity(g: Graph) -> float | None:
    """Pearson correlation of end-point degrees over all links.

    Evaluated from the integer per-link sums S_jk, S_(j+k), S_(j^2+k^2) as
    (4*m*S_jk - S1^2) / (2*m*S2 - S1^2), which is exact until the final
    division.  Returns None when the end-degree variance is zero (regular
    graphs): the correlation does not exist there, and conflating that with
    0 would pollute downstream scatter data.

    The sums are taken per node (Newman, PRL 89, 208701, 2002): a node of
    degree d ends d links, so S_(j+k) = sum d_v^2, S_(j^2+k^2) = sum d_v^3
    (both summed over the degree histogram) and S_jk = sum d_v * N_v / 2,
    where N_v sums v's neighbours' degrees.  N_v <= 2m, so int64 holds it
    exactly; every product and sum over it is a Python int.
    """
    if g.m < 1:
        raise ValueError("assortativity requires at least one link")
    deg = np.bincount(g.ends, minlength=g.n)
    # each link adds the degree at either end to the other end's N
    nbr = np.zeros(g.n, dtype=np.int64)
    np.add.at(nbr, g.ends, deg[g.ends].reshape(-1, 2)[:, ::-1].ravel())
    s_prod = sum(map(mul, deg.tolist(), nbr.tolist())) // 2
    counts = degree_histogram(g).counts.items()
    s_sum = sum(c * k * k for k, c in counts)
    s_sq = sum(c * k ** 3 for k, c in counts)
    m = g.m
    numerator = 4 * m * s_prod - s_sum * s_sum
    denominator = 2 * m * s_sq - s_sum * s_sum
    if denominator == 0:
        return None
    return numerator / denominator


def degree_histogram(g: Graph) -> DegreeHistogram:
    counts = np.bincount(np.bincount(g.ends, minlength=g.n)).tolist()
    return DegreeHistogram(counts={d: c for d, c in enumerate(counts) if c})


def summarize(g: Graph) -> MetricsSummary:
    """n, m, max/average degree and assortativity in one record."""
    if g.n == 0:
        raise ValueError("summarize requires at least one node")
    degrees = g.degrees()
    return MetricsSummary(
        assortativity=assortativity(g) if g.m >= 1 else None,
        n=g.n,
        m=g.m,
        max_degree=max(degrees),
        avg_degree=2 * g.m / g.n,
    )

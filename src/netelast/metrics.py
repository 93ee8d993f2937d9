"""Topological summary metrics: degree assortativity and degree histograms."""

from __future__ import annotations

from dataclasses import dataclass

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
    """
    if g.m < 1:
        raise ValueError("assortativity requires at least one link")
    deg = g.degrees()
    s_prod = 0
    s_sum = 0
    s_sq = 0
    for u, v in g.edges:
        ju, kv = deg[u], deg[v]
        s_prod += ju * kv
        s_sum += ju + kv
        s_sq += ju * ju + kv * kv
    m = g.m
    numerator = 4 * m * s_prod - s_sum * s_sum
    denominator = 2 * m * s_sq - s_sum * s_sum
    if denominator == 0:
        return None
    return numerator / denominator


def degree_histogram(g: Graph) -> DegreeHistogram:
    counts: dict[int, int] = {}
    for d in g.degrees():
        counts[d] = counts.get(d, 0) + 1
    return DegreeHistogram(counts=counts)


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

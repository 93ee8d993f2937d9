"""Laplacian spectrum at desk scale and algebraic connectivity.

Eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh) on
the dense Laplacian.  That matrix takes n^2 x 8 bytes, so a size guard
refuses Laplacians above 4000 nodes (about 128 MB) unless raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph

DEFAULT_SIZE_GUARD = 4000


class SizeGuardError(RuntimeError):
    """Matrix exceeds the dense-Laplacian size guard."""


@dataclass(frozen=True)
class SpectralSummary:
    """Full Laplacian spectrum (ascending) with its headline quantities."""

    eigenvalues: tuple[float, ...]
    lambda2: float | None
    mean_eigenvalue: float


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian L = D - A of the graph."""
    if g.n < 1:
        raise ValueError("laplacian requires at least one node")
    lap = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges:
        lap[u, v] = -1.0
        lap[v, u] = -1.0
    for v in range(g.n):
        lap[v, v] = float(g.degree(v))
    return lap


def eigenvalues(lap: np.ndarray, size_guard: int = DEFAULT_SIZE_GUARD) -> SpectralSummary:
    """Full symmetric eigendecomposition of a Laplacian, sorted ascending.

    LAPACK's symmetric eigensolver (numpy.linalg.eigvalsh) does the work.
    Matrices above size_guard nodes are refused: the dense matrix takes
    n^2 x 8 bytes (about 128 MB at the default 4000 nodes), so raise the
    guard deliberately if a larger graph's spectrum is truly needed.
    """
    if lap.shape[0] != lap.shape[1]:
        raise ValueError("Laplacian must be square")
    n = lap.shape[0]
    if n > size_guard:
        raise SizeGuardError(
            f"n={n} exceeds the dense-Laplacian guard ({size_guard}); "
            f"pass a larger size_guard to accept the n^2 x 8-byte matrix"
        )
    values = tuple(np.linalg.eigvalsh(lap).tolist())
    return SpectralSummary(
        eigenvalues=values,
        lambda2=values[1] if n >= 2 else None,
        mean_eigenvalue=math.fsum(values) / n,
    )


def algebraic_connectivity(g: Graph, size_guard: int = DEFAULT_SIZE_GUARD) -> float:
    """Second-smallest Laplacian eigenvalue; zero iff the graph is disconnected."""
    if g.n < 2:
        raise ValueError("algebraic connectivity requires n >= 2")
    summary = eigenvalues(laplacian(g), size_guard=size_guard)
    assert summary.lambda2 is not None
    return summary.lambda2

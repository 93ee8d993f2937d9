"""Laplacian spectrum at desk scale and algebraic connectivity.

Eigenvalues come from LAPACK's symmetric solver (numpy.linalg.eigvalsh) on
the dense Laplacian.  That matrix takes n^2 x 8 bytes, so a size guard
refuses to build Laplacians above 4000 nodes (about 128 MB) unless raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _integer

__all__ = [
    "DEFAULT_SIZE_GUARD",
    "SizeGuardError",
    "SpectralSummary",
    "algebraic_connectivity",
    "eigenvalues",
    "laplacian",
]

DEFAULT_SIZE_GUARD = 4000


class SizeGuardError(RuntimeError):
    """Matrix exceeds the dense-Laplacian size guard."""


@dataclass(frozen=True)
class SpectralSummary:
    """Full Laplacian spectrum (ascending) with its headline quantities."""

    eigenvalues: tuple[float, ...]
    lambda2: float | None
    mean_eigenvalue: float


def laplacian(g: Graph, size_guard: int = DEFAULT_SIZE_GUARD) -> np.ndarray:
    """Dense Laplacian L = D - A; refused above size_guard nodes, a
    nonnegative integer by _integer's rule, before the n^2 x 8-byte matrix
    exists (raise the guard deliberately if needed)."""
    if g.n < 1:
        raise ValueError("laplacian requires at least one node")
    if g.n > _integer("size_guard", size_guard):
        raise SizeGuardError(
            f"n={g.n} exceeds the dense-Laplacian guard ({size_guard}); "
            f"pass a larger size_guard to accept the n^2 x 8-byte matrix"
        )
    lap = np.diag(np.array(g.degrees(), dtype=np.float64))
    ends = g.ends
    lap[ends[0::2], ends[1::2]] = lap[ends[1::2], ends[0::2]] = -1.0
    return lap


def eigenvalues(lap: np.ndarray) -> SpectralSummary:
    """Full symmetric eigendecomposition of a Laplacian, sorted ascending.

    LAPACK's symmetric eigensolver (numpy.linalg.eigvalsh) does the work;
    the size guard sits in laplacian(), before the matrix is built.
    Anything but a non-empty square 2-D array of finite numbers, equal to
    its transpose, raises ValueError: the solver reads only the lower
    triangle and does not check for NaN, so it would return a wrong
    spectrum.
    """
    lap = np.asarray(lap)
    if lap.ndim != 2 or not lap.shape[0] == lap.shape[1] > 0:
        raise ValueError(f"Laplacian must be a non-empty square 2-D array, got shape {lap.shape}")
    if not np.isfinite(lap).all():
        raise ValueError("Laplacian must hold only finite numbers")
    if not (lap == lap.T).all():
        raise ValueError("Laplacian must be symmetric")
    n = lap.shape[0]
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
    summary = eigenvalues(laplacian(g, size_guard=size_guard))
    assert summary.lambda2 is not None
    return summary.lambda2

"""Immutable undirected simple graphs over dense integer node ids.

The substrate for the whole toolkit: edge-list ingestion, connectivity
labeling, node/link deletion into a new graph, and canonical serialization.
Graphs are treated as immutable after construction, so they can be shared
freely across sweeps and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with node ids exactly 0..n-1.

    edges is the canonical link list: (u, v) with u < v, sorted
    lexicographically (so any subset of it is canonical too).  labels, when
    present, maps each dense id back to the external id it was loaded under.
    """

    n: int
    edges: list[tuple[int, int]]
    labels: list[int] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's neighbor structure, built on first use: CSR adjacency
        (indptr, indices) over all n nodes and each slot's link id.

        Stable-sorting the flattened canonical edge list by endpoint lists
        each node's links in canonical order, which is ascending neighbor
        order (all lower neighbors precede all upper ones), i.e. exactly the
        sorted adjacency.  Entry 2e or 2e+1 of the flattened list belongs to
        link e, so the sort permutation itself is the slot->link map.  Every
        reader relies on that, so a non-canonical list is refused here.
        """
        ends = edge_ends(self)
        u, v = ends[0::2], ends[1::2]
        if self.m and not (u.min() >= 0 and v.max() < self.n and (u < v).all()
                           and (np.diff(u * self.n + v) > 0).all()):
            raise ValueError("edges must be canonical: ids in 0..n-1, u < v on "
                             "each link, links strictly ascending")
        order = np.argsort(ends, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
        return indptr, ends[order ^ 1], order // 2

    def degrees(self) -> list[int]:
        return np.diff(self.csr[0]).tolist()


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component ids (contiguous from 0) and their sizes."""

    component_id: list[int]
    component_sizes: list[int]

    @property
    def count(self) -> int:
        return len(self.component_sizes)


def make_graph(n: int, pairs: Iterable[tuple[int, int]], labels: list[int] | None = None) -> Graph:
    """Build a Graph from (u, v) pairs.

    Self-loops are dropped and duplicate links deduplicated, mirroring the
    edge-list ingestion rules.  Node ids outside 0..n-1 are an error.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            continue
        seen.add((u, v) if u < v else (v, u))
    return Graph(n=n, edges=sorted(seen), labels=labels)


def load_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse edge-list text into a Graph.

    Format: one link per line as ``<u> <v>`` (whitespace separated,
    nonnegative integers written as ASCII digits ``[0-9]+``: no sign,
    underscore or non-ASCII digit); blank lines and lines starting with
    ``#`` are ignored.  Self-loops are dropped and duplicates deduplicated
    (a node mentioned only in a self-loop still counts as present).
    External ids that already form a dense 0..n-1 range are kept verbatim,
    so canonical serializations reload to the identical graph; anything
    sparser is relabeled to dense ids in first-appearance order, with the
    original ids retained as labels.  Empty input gives the empty graph.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    appearance: list[int] = []
    seen: set[int] = set()
    raw_pairs: list[tuple[int, int]] = []

    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tokens = text.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected two integer tokens, got {text!r}")
        u, v = tokens
        if not (u.isdigit() and v.isdigit() and u.isascii() and v.isascii()):
            raise EdgeListParseError(line_no, f"node ids must be nonnegative integers, got {text!r}")
        a, b = int(u), int(v)
        for ext in (a, b):
            if ext not in seen:
                seen.add(ext)
                appearance.append(ext)
        if a != b:
            raw_pairs.append((a, b))

    n = len(appearance)
    if not n:
        return make_graph(0, [])
    if max(seen) == n - 1:
        return make_graph(n, raw_pairs)
    dense = {ext: i for i, ext in enumerate(appearance)}
    pairs = [(dense[a], dense[b]) for a, b in raw_pairs]
    return make_graph(n, pairs, labels=appearance)


def dump_edge_list(g: Graph) -> str:
    """Canonical serialization: sorted edges, one ``u v`` line each."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def edge_ends(g: Graph) -> np.ndarray:
    """The canonical edge list flattened to int64 [u0, v0, u1, v1, ...]."""
    return np.fromiter(chain.from_iterable(g.edges), np.int64, 2 * g.m)


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components; ids assigned in scan order of node 0..n-1."""
    ends = edge_ends(g)
    adj = coo_matrix((np.ones(g.m), (ends[0::2], ends[1::2])), shape=(g.n, g.n))
    count, component_id = _csgraph_components(adj, directed=False)
    sizes = np.bincount(component_id, minlength=count)
    return ComponentLabeling(component_id=component_id.tolist(), component_sizes=sizes.tolist())


def remove_nodes(g: Graph, victims: Iterable[int]) -> tuple[Graph, list[int]]:
    """Return a new re-densified Graph without the victim nodes.

    The second element maps new dense ids back to the ids they had in g
    (survivors in ascending order).  The input graph is left untouched.
    """
    victim_set = set(victims)
    for v in victim_set:
        if not (0 <= v < g.n):
            raise ValueError(f"victim id {v} out of range for n={g.n}")
    survivors = [v for v in range(g.n) if v not in victim_set]
    new_id = {old: i for i, old in enumerate(survivors)}
    # The relabel keeps id order, so the kept links stay canonical.
    edges = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    labels = [g.labels[old] for old in survivors] if g.labels is not None else None
    return Graph(n=len(survivors), edges=edges, labels=labels), survivors


def remove_links(g: Graph, victims: Iterable[tuple[int, int]]) -> Graph:
    """Return a new Graph with the victim links removed; nodes are kept.

    Isolated nodes produced by the removal stay in the graph (they still
    count toward percent-remaining bookkeeping in link sweeps).
    """
    normalized: set[tuple[int, int]] = set()
    edge_set = set(g.edges)
    for u, v in victims:
        key = (u, v) if u < v else (v, u)
        if key not in edge_set:
            raise ValueError(f"edge {key} not present in graph")
        normalized.add(key)
    return Graph(n=g.n, edges=[e for e in g.edges if e not in normalized], labels=g.labels)

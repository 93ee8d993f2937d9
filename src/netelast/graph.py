"""Immutable undirected simple graphs over dense integer node ids.

The substrate for the whole toolkit: edge-list ingestion, connectivity
labeling, node/link deletion into a new graph, and canonical serialization.
Graphs are treated as immutable after construction, so they can be shared
freely across sweeps and worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable

import numpy as np

__all__ = [
    "ComponentLabeling",
    "EdgeListParseError",
    "Graph",
    "connected_components",
    "dump_edge_list",
    "load_edge_list",
    "make_graph",
    "remove_links",
    "remove_nodes",
]

# The loader's text puts a "\n" before every line, the first too, and has
# no other "\n".  _BAD_LINE matches the "\n" before the first line that is
# neither blank, a comment, nor two runs of ASCII digits; starting at a
# literal "\n" lets the search skip from line to line at memchr speed.
# [^\S\n] is the whitespace that str.split and str.strip see, less "\n".
_BAD_LINE = re.compile(r"\n(?![^\S\n]*(?:#.*|[0-9]+[^\S\n]+[0-9]+)?$)", re.M)
_COMMENT_LINE = re.compile(r"^[^\S\n]*#.*", re.M)


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
    def ends(self) -> np.ndarray:
        """The edge list as read-only int64 [u0, v0, u1, v1, ...], built on
        first use.  Every numeric reader of the links reads it and relies on
        the list being canonical, so a list that is not is refused here."""
        ends = np.fromiter(chain.from_iterable(self.edges), np.int64, 2 * self.m)
        u, v = ends[0::2], ends[1::2]
        if self.m and not (u.min() >= 0 and v.max() < self.n and (u < v).all()
                           and (np.diff(u * self.n + v) > 0).all()):
            raise ValueError("edges must be canonical: ids in 0..n-1, u < v on "
                             "each link, links strictly ascending")
        ends.flags.writeable = False
        return ends

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph's neighbor structure, built on first use: CSR adjacency
        (indptr, indices) over all n nodes and each slot's link id.

        Stable-sorting ends lists each node's links in canonical order,
        which is ascending neighbor order (all lower neighbors precede all
        upper ones), i.e. exactly the sorted adjacency.  Entry 2e or 2e+1
        of ends belongs to link e, so the sort permutation itself is the
        slot->link map.
        """
        order = np.argsort(self.ends, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.ends, minlength=self.n), out=indptr[1:])
        return indptr, self.ends[order ^ 1], order // 2

    def degrees(self) -> list[int]:
        return np.bincount(self.ends, minlength=self.n).tolist()


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component ids (contiguous from 0) and their sizes."""

    component_id: list[int]
    component_sizes: list[int]

    @property
    def count(self) -> int:
        return len(self.component_sizes)


def _check_integer_pairs(pairs: Collection[tuple[int, int]]) -> None:
    try:  # a len and a type pass cost less than the isinstance loop
        plain = set(map(len, pairs)) <= {2} and set(map(type, chain.from_iterable(pairs))) <= {int}
    except TypeError:  # an item without len
        plain = False
    if not plain:
        for pair in pairs:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise ValueError(f"edge {pair!r} is not a pair of node ids") from None
            if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
                raise ValueError(f"edge ({u!r}, {v!r}) has a node id that is not an integer")


def make_graph(n: int, pairs: Iterable[tuple[int, int]] | np.ndarray,
               labels: list[int] | None = None) -> Graph:
    """Build a Graph from (u, v) pairs, or from an int array of them of
    shape (k, 2); an int array of any other shape is an error.

    The one canonicalizer of links: self-loops are dropped, and each link
    is keyed u*n + v with u < v, so sorting the keys and dropping repeats
    dedupes the links and lists them canonically.  Node ids that are not
    integers, or lie outside 0..n-1, are an error, which names the first
    such pair in input order.
    """
    if n < 0:
        raise ValueError("node count must be nonnegative")
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu":
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"an integer edge array must have shape (k, 2), got shape {pairs.shape}")
    else:
        pairs = pairs.tolist() if isinstance(pairs, np.ndarray) else list(pairs)
        _check_integer_pairs(pairs)
    try:
        ends = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        bad = np.flatnonzero(((ends < 0) | (ends >= n)).any(axis=1))[:1].tolist()
    except OverflowError:  # an id past int64 is out of range for any n
        bad = [next(i for i, (u, v) in enumerate(pairs) if not (0 <= u < n and 0 <= v < n))]
    if bad:
        u, v = pairs[bad[0]]
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    ends = ends[ends[:, 0] != ends[:, 1]]
    # np.unique would do, but numpy 2.4's hashes first: 0.12 s on 300k
    # keys, where this sort takes 4 ms
    key = np.sort(ends.min(axis=1) * n + ends.max(axis=1))
    u, v = np.divmod(key[np.diff(key, prepend=-1) > 0], n)
    return Graph(n=n, edges=list(zip(u.tolist(), v.tolist())), labels=labels)


def load_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse edge-list text into a Graph.

    Format: one link per line as ``<u> <v>`` (whitespace separated,
    nonnegative integers written as ASCII digits ``[0-9]+``: no sign,
    underscore or non-ASCII digit); blank lines and lines starting with
    ``#`` are ignored.  A str is split into lines by str.splitlines; any
    other iterable, such as a text file, yields one line per item.  The
    first bad line raises EdgeListParseError with its line number.
    Self-loops are dropped and duplicates deduplicated (a node mentioned
    only in a self-loop still counts as present).  External ids that
    already form a dense 0..n-1 range are kept verbatim, so canonical
    serializations reload to the identical graph; anything sparser is
    relabeled to dense ids in first-appearance order, with the original
    ids retained as labels.  Empty input gives the empty graph.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    # Outer whitespace never counts, so stripping each line's tail drops
    # its line end, and "\n" is the only line end left.
    text = "\n".join(chain([""], map(str.rstrip, lines)))
    bad = _BAD_LINE.search(text)
    if bad:
        line = text[bad.end():].split("\n", 1)[0].strip()
        problem = ("node ids must be nonnegative integers" if len(line.split()) == 2
                   else "expected two integer tokens")
        raise EdgeListParseError(text.count("\n", 0, bad.end()), f"{problem}, got {line!r}")
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    ids = list(map(int, text.split()))
    labels = list(dict.fromkeys(ids))
    n = len(labels)
    if max(labels, default=-1) == n - 1:
        return make_graph(n, np.fromiter(ids, np.int64, len(ids)).reshape(-1, 2))
    dense = dict(zip(labels, range(n)))
    pairs = np.fromiter(map(dense.__getitem__, ids), np.int64, len(ids)).reshape(-1, 2)
    return make_graph(n, pairs, labels=labels)


def dump_edge_list(g: Graph) -> str:
    """Canonical serialization: sorted edges, one ``u v`` line each."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components; ids assigned in scan order of node 0..n-1."""
    component_id, sizes = _label_components(*g.csr[:2])
    return ComponentLabeling(component_id=component_id.tolist(), component_sizes=sizes.tolist())


def _label_components(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component ids, in scan order of nodes 0..n-1, and component sizes of
    the symmetric CSR graph (indptr, indices)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as _csgraph_components

    n = len(indptr) - 1
    adj = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    count, component_id = _csgraph_components(adj, directed=False)
    return component_id, np.bincount(component_id, minlength=count)


def _node_ids(g: Graph, ids: Collection[int]) -> Collection[int]:
    """ids, after refusing the first that is not an integer, then one outside 0..g.n-1."""
    if not set(map(type, ids)) <= {int}:  # a type pass costs half an isinstance loop
        for v in ids:
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"victim id {v!r} is not an integer")
    for v in ids:
        if not 0 <= v < g.n:
            raise ValueError(f"victim id {v} out of range for n={g.n}")
    return ids


def _link_ids(g: Graph, pairs: Collection[tuple[int, int]]) -> list[int]:
    """Each pair's index in g.edges, the pair in either orientation (see remove_links)."""
    _check_integer_pairs(pairs)
    index = dict(zip(g.edges, range(g.m)))
    keys = [(u, v) if u < v else (v, u) for u, v in pairs]
    ids = [index.get(k, -1) for k in keys]
    if -1 in ids:
        raise ValueError(f"edge {keys[ids.index(-1)]} not present in graph")
    return ids


def remove_nodes(g: Graph, victims: Iterable[int]) -> tuple[Graph, list[int]]:
    """Return a new re-densified Graph without the victim nodes.

    The second element maps new dense ids back to the ids they had in g
    (survivors in ascending order).  The input graph is left untouched.
    """
    victim_set = _node_ids(g, set(victims))
    survivors = [v for v in range(g.n) if v not in victim_set]
    new_id = {old: i for i, old in enumerate(survivors)}
    # The relabel keeps id order, so the kept links stay canonical.
    edges = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    labels = [g.labels[old] for old in survivors] if g.labels is not None else None
    return Graph(n=len(survivors), edges=edges, labels=labels), survivors


def remove_links(g: Graph, victims: Iterable[tuple[int, int]]) -> Graph:
    """Return a new Graph with the victim links removed; nodes are kept.

    Victims may name links in either orientation; a non-integer id, then a pair
    that is no link of g, raises ValueError.  Isolated nodes stay, as link sweeps count them.
    """
    gone = set(_link_ids(g, list(victims)))
    return Graph(n=g.n, edges=[e for i, e in enumerate(g.edges) if i not in gone], labels=g.labels)

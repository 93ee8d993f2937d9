"""Immutable undirected simple graphs over dense integer node ids.

The substrate for the whole toolkit: edge-list ingestion, connectivity
labeling, node/link deletion into a new graph, and canonical serialization.
Graphs are treated as immutable after construction, so they can be shared
freely across sweeps and worker processes.
"""

from __future__ import annotations

import numbers
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

    The constructor is the one place that checks and canonicalizes a graph.
    n must follow _integer's rule and is stored as an int.  The links are
    (u, v) pairs, or an integer array of them of shape (k, 2); an integer
    array of any other shape, or a node id that is not an integer (a bool
    is not) or lies outside 0..n-1, raises ValueError naming the shape or
    the first such pair in input order.  Self-loops are dropped, and each
    link is keyed u*n + v with u < v, so sorting the keys and dropping
    repeats dedupes the links and lists them canonically: any list of
    pairs gives the graph of its set of links.  labels, when present, maps
    each dense id back to the external id it was loaded under, so it must
    have n entries; the graph keeps them as its own tuple.

    ends is the one stored copy of the links: the canonical link list, (u,
    v) with u < v sorted lexicographically (so any subset of it is
    canonical too), flattened to read-only int64 [u0, v0, u1, v1, ...];
    link id e names (ends[2e], ends[2e + 1]).  Graphs compare by value and
    are not hashable.
    """

    n: int
    ends: np.ndarray
    labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n, pairs = _integer("n", self.n), self.ends
        labels = None if self.labels is None else tuple(self.labels)
        if labels is not None and len(labels) != n:
            raise ValueError(f"labels must have n={n} entries, got {len(labels)}")
        if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu":
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError("an integer edge array must have shape (k, 2), "
                                 f"got shape {pairs.shape}")
        else:
            pairs = pairs.tolist() if isinstance(pairs, np.ndarray) else list(pairs)
            _check_integer_pairs(pairs)
        try:
            ends = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
            in_range = not len(ends) or (ends.min() >= 0 and ends.max() < n)
        except OverflowError:  # an id past int64 is out of range for any n
            in_range = False
        if not in_range:
            u, v = next((u, v) for u, v in pairs if not (0 <= u < n and 0 <= v < n))
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        a, b = ends[:, 0], ends[:, 1]
        # np.unique would do, but numpy 2.4's hashes first: 0.12 s on 300k
        # keys, where this sort takes 4 ms
        key = np.sort((np.minimum(a, b) * n + np.maximum(a, b))[a != b])
        ends = np.stack(np.divmod(key[np.diff(key, prepend=-1) > 0], n), axis=1).reshape(-1)
        ends.flags.writeable = False  # a new array, so the caller's is never frozen
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and (self.n, self.labels) == (other.n, other.labels)
                and np.array_equal(self.ends, other.ends))

    def __reduce__(self) -> tuple:
        # a copy goes back through the constructor as (k, 2) links: checked,
        # canonicalized again, read-only, no caches
        return Graph, (self.n, self.ends.reshape(-1, 2), self.labels)

    @property
    def m(self) -> int:
        return len(self.ends) // 2

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The links as (u, v) tuples of ints in canonical order, a view of
        ends built on first read and, as a tuple, never changed; no numeric
        reader needs it."""
        return tuple(zip(self.ends[0::2].tolist(), self.ends[1::2].tolist()))

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
            if not (_is_integer(u) and _is_integer(v)):
                raise ValueError(f"edge ({u!r}, {v!r}) has a node id that is not an integer")


def _is_integer(value: object) -> bool:
    """Whether value is an int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """Whether value is a real number (an integer too), and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value: int, low: int = 0, high: int | None = None) -> int:
    """value as a plain int, if _is_integer(value) and it lies in low..high
    (no upper bound where high is None); anything else raises ValueError
    naming the argument.  The one rule, type and range, of every integer
    argument: Graph's n, each generator's sizes, counts, seeds, trials,
    steps, jobs and size_guard.  Node ids take the same type test."""
    integer = _is_integer(value)
    if integer and low <= value and (high is None or value <= high):
        return int(value)
    if high is not None:
        raise ValueError(f"{name} must lie in {low}..{high}")
    if not integer:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    raise ValueError(f"{name} must be {f'>= {low}' if low else 'nonnegative'}, got {value}")


def make_graph(n: int, pairs: Iterable[tuple[int, int]] | np.ndarray,
               labels: list[int] | None = None) -> Graph:
    """Graph(n, pairs, labels), under the name the loader and the
    generators call; Graph's docstring gives the rules."""
    return Graph(n, pairs, labels)


def load_edge_list(source: str | Iterable[str]) -> Graph:
    """Parse edge-list text into a Graph.

    Format: one link per line as ``<u> <v>`` (whitespace separated,
    nonnegative integers written as ASCII digits ``[0-9]+``: no sign,
    underscore or non-ASCII digit); blank lines and lines starting with
    ``#`` are ignored.  A str is split into lines by str.splitlines; any
    other iterable, such as a text file, yields one line per item.  The
    first bad line raises EdgeListParseError with its line number.  The
    Graph is built by make_graph, so self-loops are dropped and duplicates
    deduplicated (a node mentioned only in a self-loop still counts as
    present).  External ids that already form a dense 0..n-1 range are
    kept verbatim, so canonical serializations reload to the identical
    graph; anything sparser is relabeled to dense ids in first-appearance
    order, with the original ids retained as labels, whatever their size.
    Empty input gives the empty graph.

    _BAD_LINE alone vets the text; numpy's C tokenizer (np.loadtxt) then
    reads the ids as int64, splitting on the same whitespace as str.split
    once a "\r" inside a line, which it would refuse, reads as a space.
    Only an id of 2**63 or more makes it raise ValueError; the ids are then
    read as Python ints, which never form a dense range, so they are
    relabeled.
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
    if not text.strip():  # no link line; loadtxt would warn "input contained no data"
        return make_graph(0, [])
    try:
        ids = np.loadtxt(text.replace("\r", " ").split("\n"), np.int64, ndmin=2).ravel()
    except ValueError:
        ids = list(map(int, text.split()))
    else:
        top = int(ids.max())
        if top < len(ids) and np.bincount(ids).all():  # dense: ids are 0..top
            return make_graph(top + 1, ids.reshape(-1, 2))
        ids = ids.tolist()
    labels = list(dict.fromkeys(ids))
    n = len(labels)
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
            if not _is_integer(v):
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
    # checked before the set, which would fold True or 1.0 into a 1 before it
    victim_set = set(_node_ids(g, list(victims)))
    survivors = [v for v in range(g.n) if v not in victim_set]
    new_id = {old: i for i, old in enumerate(survivors)}
    # The relabel keeps id order, so the kept links stay canonical.
    edges = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    labels = [g.labels[old] for old in survivors] if g.labels is not None else None
    return Graph(len(survivors), edges, labels), survivors


def remove_links(g: Graph, victims: Iterable[tuple[int, int]]) -> Graph:
    """Return a new Graph with the victim links removed; nodes are kept.

    Victims may name links in either orientation; a non-integer id, then a pair
    that is no link of g, raises ValueError.  Isolated nodes stay, as link sweeps count them.
    """
    gone = set(_link_ids(g, list(victims)))
    return Graph(g.n, [e for i, e in enumerate(g.edges) if i not in gone], g.labels)

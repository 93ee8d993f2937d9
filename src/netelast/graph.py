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

# A text is plain if, once its comment lines are blanked, it holds only
# ASCII digits and the 29 characters str.isspace() accepts.  np.loadtxt
# splits a line at exactly the characters str.split splits at (a "\r" it
# refuses, but the loader has made every "\r" a "\n" by then), and no other
# character may reach it: numpy 2.4 has crashed on U+F460C.
# Spelled out, the class costs what [0-9 \t\n] costs; [0-9\s] costs twice
# that.  A comment line starts at a literal "\n" (the text gets one in
# front), which the search finds at memchr speed, where "^" under re.M is
# tried at every character.  [^\S\n] is str.split's whitespace less "\n".
_PLAIN_TEXT = re.compile("[0-9\t-\r\x1c- \x85\xa0\u1680\u2000-\u200a"
                         "\u2028\u2029\u202f\u205f\u3000]*")
_COMMENT = re.compile(r"\n[^\S\n]*#[^\n]*")


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with node ids exactly 0..n-1.

    The constructor is the one place that checks and canonicalizes a graph.
    n must follow _integer's rule and lie in 0..3037000500, the largest n
    whose link keys (below) fit an int64; it is stored as an int.  The
    links are (u, v) pairs, or an integer array of them of shape (k, 2); an
    integer array of any other shape, or a node id that is not an integer
    (a bool is not) or lies outside 0..n-1, raises ValueError naming the
    shape or the first such pair in input order.  Self-loops are dropped,
    and each link is keyed u*n + v with u < v, so sorting the keys and
    dropping repeats dedupes the links and lists them canonically: any list
    of pairs gives the graph of its set of links.  labels, when present, maps
    each dense id back to the external id it was loaded under, so it must
    have n entries, each an integer (not a bool) of at least 0 and no two
    the same, as the loader gives; the graph keeps them as its own tuple of
    ints.  Any other labels raise ValueError naming the first bad one.

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
        n, pairs = _integer("n", self.n, high=3_037_000_500), self.ends
        labels = None if self.labels is None else _checked_labels(self.labels, n)
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


def _checked_labels(labels: Iterable[int], n: int) -> tuple[int, ...]:
    """labels as a tuple of n distinct nonnegative ints; see Graph."""
    labels = tuple(labels)
    if len(labels) != n:
        raise ValueError(f"labels must have n={n} entries, got {len(labels)}")
    # a type pass, min and set cost less than the isinstance loop
    if set(map(type, labels)) <= {int} and min(labels, default=0) >= 0 and len(set(labels)) == n:
        return labels
    seen = set()
    for label in labels:
        if not (_is_integer(label) and label >= 0):
            raise ValueError(f"label {label!r} is not a nonnegative integer")
        if label in seen:
            raise ValueError(f"label {label} names two nodes")
        seen.add(label)
    return tuple(map(int, labels))


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
    ``#`` are ignored.  Every source becomes one text, whose lines end at
    "\r\n", "\r" and "\n", as universal newlines (open's default) end them:
    a source with a read method, such as a text file opened in any newline
    mode, is read in one call; a str is that text; any other iterable gives
    one line per item, less its trailing whitespace, so a line end inside an
    item ends a line there too.  Every other whitespace character parts ids.
    The first bad line raises EdgeListParseError with its line number.  The
    Graph is built by make_graph, so self-loops are dropped and duplicates
    deduplicated (a node mentioned only in a self-loop still counts as
    present).  External ids that already form a dense 0..n-1 range are kept
    verbatim, so canonical serializations reload to the identical graph;
    anything sparser is relabeled to dense ids in first-appearance order,
    with the original ids retained as labels, of any size up to the digits
    int() accepts (sys.get_int_max_str_digits(), 4300 by default); a longer
    id is a bad line.  Empty input gives the empty graph.

    Comment lines are blanked, so every line keeps its number, and the text
    is split once.  A plain text (_PLAIN_TEXT: ASCII digits and whitespace)
    goes straight to numpy's C tokenizer (np.loadtxt), which reads the ids
    as int64.  What that does not read as pairs (a text that is not plain,
    a line without two ids, an id of 2**63 or more) is read line by line by
    _line_ids, which alone names a bad line; its ids go back to int64 where
    they fit, so a dense range there keeps its ids too.
    """
    text = source.read() if hasattr(source, "read") else source
    if not isinstance(text, str):  # lines, whose trailing whitespace and ends never count
        text = "\n".join(map(str.rstrip, text))
    # only a CRLF str or a newline mode other than open's default keeps a
    # "\r", and a search for "\r\n" alone costs 4 ms on a 3 MB text
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "#" in text:
        text = _COMMENT.sub("\n", "\n" + text)[1:]
    if not text or text.isspace():  # loadtxt would warn "input contained no data"
        return make_graph(0, [])
    lines = text.split("\n")
    ids = None
    if _PLAIN_TEXT.fullmatch(text):
        try:
            ids = np.loadtxt(lines, np.int64, ndmin=2)
        except ValueError:
            pass
    if ids is None or ids.shape[1] != 2:
        ids = _line_ids(lines)
        if max(ids) < 2**63:  # never empty: text holds more than comments and blanks
            ids = np.array(ids, np.int64)
    if isinstance(ids, np.ndarray):
        ids = ids.ravel()
        top = int(ids.max())
        if top < len(ids) and np.bincount(ids).all():  # dense: ids are 0..top
            return make_graph(top + 1, ids.reshape(-1, 2))
        ids = ids.tolist()
    labels = list(dict.fromkeys(ids))
    n = len(labels)
    dense = dict(zip(labels, range(n)))
    pairs = np.fromiter(map(dense.__getitem__, ids), np.int64, len(ids)).reshape(-1, 2)
    return make_graph(n, pairs, labels=labels)


def _line_ids(lines: list[str]) -> list[int]:
    """The ids of lines as ints, read one line at a time by the format's
    rule; the first line that is neither blank nor two ids raises
    EdgeListParseError.  The loader has blanked comment lines by then."""
    ids = []
    for line_no, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        digits = "".join(tokens)
        if len(tokens) != 2 or not (digits.isascii() and digits.isdigit()):
            problem = ("node ids must be nonnegative integers" if len(tokens) == 2
                       else "expected two integer tokens")
            raise EdgeListParseError(line_no, f"{problem}, got {line.strip()!r}")
        try:
            ids += map(int, tokens)
        except ValueError as error:  # more digits than sys.get_int_max_str_digits()
            raise EdgeListParseError(line_no, str(error)) from None
    return ids


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

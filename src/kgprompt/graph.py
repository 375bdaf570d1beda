"""In-memory directed labeled knowledge graph with adjacency queries.

A loader builds the graph once, node by node and edge by edge, and the graph
is the single place that rejects duplicates; afterwards it is treated as
immutable, so any number of workers may query it concurrently. Edges are
directed, but adjacency queries treat them as undirected because relational
evidence flows both ways for the extraction queries built on top of this
module.

All query results are deterministically ordered by the insertion order of
the first contributing edge, so downstream verbalization and seeded subset
selection are reproducible run to run.

Storage is an integer core:

- node ids are interned to ints in insertion order, with parallel lists of
  ids, names and types; labels are interned to small ints;
- the edges are three ``array`` columns (source, target, label) in insertion
  order, and a set of packed integer keys is the duplicate check. The set
  lives until the graph is dumped, and an add after that (or on a restored
  graph) rebuilds it from the columns;
- adjacency is a CSR (compressed sparse rows) that indexes the edge columns,
  built on the first query after an add: per node, the other end and the edge
  position of each link in global edge order, self-loops left out. A node's
  neighbors are the other ends of its row, deduplicated in first-link order;
- names are looked up without a whole-graph dict:
  :meth:`KnowledgeGraph.first_nodes_named` finds exact names in one pass over
  the name list, and :meth:`KnowledgeGraph.first_node_normalized` bisects a
  compact index of the normalized names (:func:`normalize_name`): the
  distinct normalized names in sorted order, UTF-8 encoded and joined into one
  byte ``array``, with an ``array`` of their offsets in it and one of the
  first node holding each. Like the CSR, the index is built on the first
  lookup after an add, so a graph that is never asked for a normalized name
  never builds it.

``Node`` and ``Edge`` objects are made only when a query returns them. The
whole core converts to and from plain values (:meth:`KnowledgeGraph.dump`,
:meth:`KnowledgeGraph.restore`), which is what an ingest snapshot stores.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Iterable, Iterator, Literal, NamedTuple

from .errors import DuplicateEdgeError, UnknownNodeError

Direction = Literal["out", "in"]
OUT: Direction = "out"
IN: Direction = "in"


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    name: str
    node_type: str = "unknown"


@dataclass(frozen=True, slots=True)
class Edge:
    source: str
    target: str
    label: str


class _Csr(NamedTuple):
    """Adjacency rows: node i's links are ``offsets[i]:offsets[i + 1]`` of
    ``other`` (their other ends) and ``edge`` (their edges' positions)."""

    offsets: array
    other: array
    edge: array


class _NameIndex(NamedTuple):
    """The distinct normalized names, UTF-8 encoded, in sorted order: the
    k-th is ``normalized[name_offsets[k]:name_offsets[k + 1]]`` and the first
    node added with it is ``name_nodes[k]``."""

    normalized: array
    name_offsets: array
    name_nodes: array


# The integer arrays of the core, by name, with their typecodes: the one layout
# that dump() gives, restore() takes and an ingest snapshot stores, in this order.
ARRAYS = {
    "sources": "i", "targets": "i", "edge_labels": "i",
    "offsets": "q", "other": "i", "edge": "i",
    "normalized": "B", "name_offsets": "q", "name_nodes": "i",
}


_NON_WORD = re.compile(r"\W+")


def normalize_name(name: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace: casefold, then turn
    each run of characters that are not word characters (punctuation and
    whitespace alike) into one space, and strip the ends."""
    return _NON_WORD.sub(" ", name.casefold()).strip()


def _edge_key(source: int, target: int, label: int) -> int:
    return (source << 64) | (target << 32) | label


class KnowledgeGraph:
    """Directed labeled graph over string node ids.

    Parallel edges between the same pair are allowed as long as their labels
    differ; exact duplicate (source, target, label) triples are rejected so
    they cannot silently inflate common-neighbor counts.
    """

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        self._index: dict[str, int] = {}  # node id -> its int
        self._ids: list[str] = []
        self._names: list[str] = []
        self._types: list[str] = []
        self._label_index: dict[str, int] = {}
        self._labels: list[str] = []
        self._sources = array("i")
        self._targets = array("i")
        self._edge_labels = array("i")
        # packed edge keys; None after a dump or restore, until an add needs them
        self._keys: set[int] | None = set()
        self._csr: _Csr | None = None  # None until the first query after an add
        self._name_index: _NameIndex | None = None  # None until the first lookup after an add
        for node in nodes:
            if not self.add_node(node):
                raise ValueError(f"duplicate node id: {node.id!r}")
        for edge in edges:
            if not self.add_edge(edge.source, edge.target, edge.label):
                key = (edge.source, edge.target, edge.label)
                raise DuplicateEdgeError(f"duplicate edge: {key!r}")

    def add_node(self, node: Node) -> bool:
        """Add a node while loading; False (and no change) if its id exists."""
        if node.id in self._index:
            return False
        if not node.id:
            raise ValueError("node id must be non-empty")
        if not node.name:
            raise ValueError(f"node {node.id!r}: name must be non-empty")
        return self.add_node_fields(node.id, node.name, node.node_type)

    def add_node_fields(self, node_id: str, name: str, node_type: str) -> bool:
        """:meth:`add_node` for a loader that has checked that ``node_id``
        and ``name`` are non-empty strings."""
        index = self._index
        if node_id in index:
            return False
        index[node_id] = len(self._ids)
        self._ids.append(node_id)
        self._names.append(name)
        self._types.append(node_type)
        self._csr = None
        self._name_index = None
        return True

    def add_edge(self, source: str, target: str, label: str) -> bool:
        """Add the edge source->target while loading; False (and no change)
        for a duplicate triple."""
        s = self._index.get(source)
        if s is None:
            raise UnknownNodeError(source)
        t = self._index.get(target)
        if t is None:
            raise UnknownNodeError(target)
        if not label:
            raise ValueError("edge label must be non-empty")
        return self.add_edge_ints(s, t, label)

    def add_edge_ints(self, s: int, t: int, label: str) -> bool:
        """:meth:`add_edge` from the node interned to s to the one interned
        to t, for a loader that has looked both up in :attr:`node_index` and
        checked that ``label`` is a non-empty string."""
        lab = self._label_index.get(label)
        if lab is None:
            lab = self._label_index[label] = len(self._labels)
            self._labels.append(label)
        keys = self._keys
        if keys is None:
            keys = self._keys = set(map(_edge_key, self._sources, self._targets, self._edge_labels))
        key = (s << 64) | (t << 32) | lab  # _edge_key, inlined: this runs once per edge loaded
        if key in keys:
            return False
        keys.add(key)
        self._sources.append(s)
        self._targets.append(t)
        self._edge_labels.append(lab)
        self._csr = None
        return True

    # --- basic accessors ---

    @property
    def nodes(self) -> dict[str, Node]:
        """Node id -> node, in insertion order (a new dict on each call)."""
        return {
            node_id: Node(node_id, name, node_type)
            for node_id, name, node_type in zip(self._ids, self._names, self._types)
        }

    @property
    def edges(self) -> list[Edge]:
        """Every edge once, in insertion order (a new list on each call)."""
        ids, labels = self._ids, self._labels
        return [
            Edge(ids[s], ids[t], labels[lab])
            for s, t, lab in zip(self._sources, self._targets, self._edge_labels)
        ]

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return len(self._sources)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    @property
    def node_index(self) -> dict[str, int]:
        """Node id -> its int: the live index, which a loader reads to intern
        ids in bulk; only the add methods change it."""
        return self._index

    def node(self, node_id: str) -> Node:
        return self.node_at(self.index_of(node_id))

    def first_nodes_named(self, names: Iterable[str]) -> dict[str, str]:
        """Name -> id of the first node added with exactly that name, for each
        of ``names`` that some node has."""
        wanted = frozenset(names)
        found: dict[str, str] = {}
        all_names, ids = self._names, self._ids
        for i in compress(range(len(all_names)), map(wanted.__contains__, all_names)):
            found.setdefault(all_names[i], ids[i])
        return found

    def first_node_normalized(self, key: str) -> str | None:
        """Id of the first node added whose normalized name is ``key``, or
        None; ``key`` is already normalized (:func:`normalize_name`)."""
        normalized, offsets, nodes = self._normalized_names()

        def name(k: int) -> array:
            return normalized[offsets[k]:offsets[k + 1]]

        target = array("B", _utf8(key))
        k = bisect_left(range(len(nodes)), target, key=name)
        return self._ids[nodes[k]] if k < len(nodes) and name(k) == target else None

    # --- adjacency queries ---

    def adjacency(self, x: str) -> Iterator[tuple[str, str, Direction]]:
        """Yield (other id, label, direction) links of x in insertion order.

        Self-loops are skipped: a node is never its own neighbor.
        """
        i = self.index_of(x)
        csr = self._adjacency()
        for p in range(csr.offsets[i], csr.offsets[i + 1]):
            yield (self._ids[csr.other[p]], *self._link(i, csr.edge[p]))

    def neighbor_ids(self, x: str) -> list[str]:
        """Ids of the nodes sharing an edge with x, deduplicated, in first-edge order."""
        ids = self._ids
        return [ids[j] for j in self._neighbors(self.index_of(x))]

    def neighbors(self, x: str) -> list[Node]:
        """Nodes sharing an edge with x, deduplicated, in first-edge order."""
        return [self.node_at(j) for j in self._neighbors(self.index_of(x))]

    def k_hop_neighbors(self, x: str, k: int) -> list[list[Node]]:
        """Per-hop node lists: hop h holds nodes at shortest distance exactly h.

        x itself never appears and hops are pairwise disjoint.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        hops: list[list[Node]] = [[] for _hop in range(k)]
        for j, hop in self.hop_distances(self.index_of(x), k).items():
            if hop:
                hops[hop - 1].append(self.node_at(j))
        return hops

    def relation_labels_between(self, x: str, y: str) -> list[tuple[str, Direction]]:
        """All labels on edges between x and y with their original direction.

        Direction is relative to x: "out" means the stored edge runs x->y.
        Order follows edge insertion order; empty when no edge exists.
        """
        j = self.index_of(y)
        return list(self.links(self.index_of(x), j))

    # --- the integer view, for algorithms that walk the adjacency in bulk ---

    def index_of(self, node_id: str) -> int:
        """The int node_id is interned to (its insertion position)."""
        i = self._index.get(node_id)
        if i is None:
            raise UnknownNodeError(node_id)
        return i

    def node_at(self, i: int) -> Node:
        """The node interned to i."""
        return Node(self._ids[i], self._names[i], self._types[i])

    def links(self, i: int, j: int) -> Iterator[tuple[str, Direction]]:
        """Label and direction, relative to i, of each stored edge between
        the nodes interned to i and j, in edge insertion order."""
        csr = self._adjacency()
        p, end = csr.offsets[i], csr.offsets[i + 1]
        while True:
            try:
                p = csr.other.index(j, p, end)
            except ValueError:
                return
            yield self._link(i, csr.edge[p])
            p += 1

    def row(self, i: int) -> array:
        """The other ends of node i's links, in edge insertion order, with a
        repeat per parallel edge and no self-loops."""
        csr = self._adjacency()
        return csr.other[csr.offsets[i]:csr.offsets[i + 1]]

    def hop_distances(self, i: int, depth: int, avoid: int = -1) -> dict[int, int]:
        """Node -> hop distance from node i, for every node within ``depth``
        hops of it (i itself at 0), in breadth-first discovery order. Walks
        never pass through the node ``avoid``, which is left out."""
        row = self.row
        dist = {i: 0}
        frontier = [i]
        for d in range(1, depth + 1):
            if not frontier:
                break
            reached = []
            for u in frontier:
                for v in row(u):  # repeats of parallel links are harmless here
                    if v not in dist and v != avoid:
                        dist[v] = d
                        reached.append(v)
            frontier = reached
        return dist

    # --- the core ---

    def _neighbors(self, i: int) -> Iterable[int]:
        """Node i's neighbors: its row deduplicated in first-link order."""
        return dict.fromkeys(self.row(i))

    def _link(self, i: int, e: int) -> tuple[str, Direction]:
        """Label and direction, relative to node i, of i's link along the edge
        at position e: the edge's label, OUT exactly when i is its source."""
        return self._labels[self._edge_labels[e]], OUT if self._sources[e] == i else IN

    def _normalized_names(self) -> _NameIndex:
        index = self._name_index
        if index is None:
            index = self._name_index = _build_name_index(self._names)
        return index

    def _adjacency(self) -> _Csr:
        csr = self._csr
        if csr is None:
            csr = self._csr = _build_csr(len(self._ids), self._sources, self._targets)
        return csr

    def dump(self) -> tuple[dict[str, list[str]], dict[str, array]]:
        """The whole core as plain values: the string tables and the integer
        arrays (adjacency and the normalized-name index included), each built
        first if need be."""
        self._keys = None  # the duplicate check is done; an add rebuilds it
        tables = {"ids": self._ids, "names": self._names, "types": self._types, "labels": self._labels}
        arrays = {
            "sources": self._sources,
            "targets": self._targets,
            "edge_labels": self._edge_labels,
            **self._adjacency()._asdict(),
            **self._normalized_names()._asdict(),
        }
        return tables, arrays

    @classmethod
    def restore(cls, tables: dict[str, list[str]], arrays: dict[str, array]) -> "KnowledgeGraph":
        """The graph whose :meth:`dump` gave ``tables`` and ``arrays``; it
        takes them over without a copy.

        Raises ValueError or TypeError when they do not fit together: other
        names or types, or tables and arrays of mismatched lengths.
        """
        if set(tables) != {"ids", "names", "types", "labels"} or not all(
            isinstance(table, list) for table in tables.values()
        ):
            raise TypeError("graph state: wrong string tables")
        if {name: values.typecode for name, values in arrays.items()} != ARRAYS:
            raise TypeError("graph state: wrong integer arrays")
        graph = cls()
        graph._ids, graph._names, graph._types = tables["ids"], tables["names"], tables["types"]
        graph._labels = tables["labels"]
        n = len(graph._ids)
        graph._index = dict(zip(graph._ids, range(n)))
        graph._label_index = dict(zip(graph._labels, range(len(graph._labels))))
        csr = _Csr(*(arrays[name] for name in _Csr._fields))
        index = _NameIndex(*(arrays[name] for name in _NameIndex._fields))
        edges = len(arrays["sources"])
        if (
            len(graph._names) != n or len(graph._types) != n or len(graph._index) != n
            or len(graph._label_index) != len(graph._labels)
            or len(arrays["targets"]) != edges or len(arrays["edge_labels"]) != edges
            or len(csr.offsets) != n + 1
            or not len(csr.other) == len(csr.edge) == csr.offsets[-1]
            or not len(index.name_offsets) == len(index.name_nodes) + 1 <= n + 1
            or index.name_offsets[-1] != len(index.normalized)
        ):
            raise ValueError("graph state: tables and arrays do not match")
        graph._sources, graph._targets = arrays["sources"], arrays["targets"]
        graph._edge_labels = arrays["edge_labels"]
        graph._keys = None
        graph._csr = csr
        graph._name_index = index
        return graph


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate passes, so every str has bytes, and
    the bytes sort as the strs do (by code point)."""
    return text.encode("utf-8", "surrogatepass")


def _build_name_index(names: list[str]) -> _NameIndex:
    """The name index of nodes with these names, in insertion order."""
    # a dict keeps the last value given for a key, so feed it backwards
    first = dict(zip(
        (_utf8(normalize_name(name)) for name in reversed(names)), range(len(names) - 1, -1, -1)
    ))
    keys = sorted(first)
    return _NameIndex(
        array("B", b"".join(keys)),
        array("q", accumulate(map(len, keys), initial=0)),
        array("i", map(first.__getitem__, keys)),
    )


def _build_csr(n: int, sources: array, targets: array) -> _Csr:
    """Adjacency rows of n nodes from the edge columns, in two passes: count
    each node's links, then fill its row in global edge order."""
    degree = [0] * n
    for s, t in zip(sources, targets):
        if s != t:  # a self-loop makes no link
            degree[s] += 1
            degree[t] += 1
    offsets = array("q", accumulate(degree, initial=0))
    links = offsets[-1]
    other = array("i", [0]) * links
    edge = array("i", [0]) * links
    free = offsets.tolist()  # the next free slot of each row
    for e, (s, t) in enumerate(zip(sources, targets)):
        if s == t:
            continue
        p = free[s]
        free[s] = p + 1
        other[p] = t
        edge[p] = e
        p = free[t]
        free[t] = p + 1
        other[p] = s
        edge[p] = e
    return _Csr(offsets, other, edge)

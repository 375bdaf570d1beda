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
  order, and a set of packed integer keys is the duplicate check;
- adjacency is a CSR (compressed sparse rows) built from the columns on the
  first query after an add: per node, the other end, label and direction of
  each link in global edge order, self-loops left out. A node's neighbors
  are the other ends of its row, deduplicated in first-link order;
- each node's normalized name (:func:`normalize_name`), which
  :meth:`KnowledgeGraph.name_tables` indexes, is built when first needed
  after an add.

``Node`` and ``Edge`` objects are made only when a query returns them. The
whole core converts to and from plain values (:meth:`KnowledgeGraph.dump`,
:meth:`KnowledgeGraph.restore`), which is what an ingest snapshot stores.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Literal, NamedTuple

from .errors import DuplicateEdgeError, UnknownNodeError

Direction = Literal["out", "in"]
OUT: Direction = "out"
IN: Direction = "in"
_DIRECTIONS: tuple[Direction, Direction] = (OUT, IN)  # indexed by the CSR's direction byte


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
    ``other``/``label``/``direction``."""

    offsets: array
    other: array
    label: array
    direction: array


# the typecode of each integer array of the core, by its name in dump()
_ARRAYS = {
    "sources": "i", "targets": "i", "edge_labels": "i",
    "offsets": "q", "other": "i", "label": "i", "direction": "b",
}


_PUNCT = re.compile(r"[^\w\s]", re.UNICODE)
_SPACES = re.compile(r"\s+")


def normalize_name(name: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _SPACES.sub(" ", _PUNCT.sub(" ", name.casefold())).strip()


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
        # packed edge keys; None until an add needs them on a restored graph
        self._keys: set[int] | None = set()
        self._csr: _Csr | None = None  # None until the first query after an add
        self._normalized: list[str] | None = None  # likewise
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
        self._index[node.id] = len(self._ids)
        self._ids.append(node.id)
        self._names.append(node.name)
        self._types.append(node.node_type)
        self._csr = None
        self._normalized = None
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
        lab = self._label_index.get(label)
        if lab is None:
            lab = self._label_index[label] = len(self._labels)
            self._labels.append(label)
        keys = self._keys
        if keys is None:
            keys = self._keys = set(map(_edge_key, self._sources, self._targets, self._edge_labels))
        key = _edge_key(s, t, lab)
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

    def node(self, node_id: str) -> Node:
        return self._node(self.index_of(node_id))

    def name_tables(self) -> tuple[dict[str, str], dict[str, str]]:
        """Two new dicts, name -> node id and normalized name -> node id;
        when nodes share a (normalized) name, the first added wins."""
        # a dict keeps the last value given for a key, so feed it backwards
        exact = dict(zip(reversed(self._names), reversed(self._ids)))
        return exact, dict(zip(reversed(self._normalized_names()), reversed(self._ids)))

    # --- adjacency queries ---

    def adjacency(self, x: str) -> Iterator[tuple[str, str, Direction]]:
        """Yield (other id, label, direction) links of x in insertion order.

        Self-loops are skipped: a node is never its own neighbor.
        """
        i = self.index_of(x)
        csr = self._adjacency()
        ids, labels = self._ids, self._labels
        for p in range(csr.offsets[i], csr.offsets[i + 1]):
            yield ids[csr.other[p]], labels[csr.label[p]], _DIRECTIONS[csr.direction[p]]

    def neighbor_ids(self, x: str) -> list[str]:
        """Ids of the nodes sharing an edge with x, deduplicated, in first-edge order."""
        ids = self._ids
        return [ids[j] for j in self._neighbors(self.index_of(x))]

    def neighbors(self, x: str) -> list[Node]:
        """Nodes sharing an edge with x, deduplicated, in first-edge order."""
        return [self._node(j) for j in self._neighbors(self.index_of(x))]

    def k_hop_neighbors(self, x: str, k: int) -> list[list[Node]]:
        """Per-hop node lists: hop h holds nodes at shortest distance exactly h.

        x itself never appears and hops are pairwise disjoint.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        i = self.index_of(x)
        visited = {i}
        frontier = [i]
        hops: list[list[Node]] = []
        for _hop in range(k):
            next_ints: list[int] = []
            for current in frontier:
                for other in self._neighbors(current):
                    if other not in visited:
                        visited.add(other)
                        next_ints.append(other)
            hops.append([self._node(j) for j in next_ints])
            frontier = next_ints
        return hops

    def relation_labels_between(self, x: str, y: str) -> list[tuple[str, Direction]]:
        """All labels on edges between x and y with their original direction.

        Direction is relative to x: "out" means the stored edge runs x->y.
        Order follows edge insertion order; empty when no edge exists.
        """
        j = self.index_of(y)
        i = self.index_of(x)
        csr = self._adjacency()
        labels = self._labels
        found: list[tuple[str, Direction]] = []
        p, end = csr.offsets[i], csr.offsets[i + 1]
        while True:
            try:
                p = csr.other.index(j, p, end)
            except ValueError:
                return found
            found.append((labels[csr.label[p]], _DIRECTIONS[csr.direction[p]]))
            p += 1

    # --- the integer view, for algorithms that walk the adjacency in bulk ---

    def index_of(self, node_id: str) -> int:
        """The int node_id is interned to (its insertion position)."""
        i = self._index.get(node_id)
        if i is None:
            raise UnknownNodeError(node_id)
        return i

    def node_at(self, i: int) -> Node:
        """The node interned to i."""
        return self._node(i)

    def first_link(self, i: int, j: int) -> tuple[str, Direction]:
        """Label and direction, relative to i, of the first stored edge
        between the nodes interned to i and j; the first item of
        ``relation_labels_between`` for their ids. ValueError when they
        share no edge."""
        csr = self._adjacency()
        p = csr.other.index(j, csr.offsets[i], csr.offsets[i + 1])
        return self._labels[csr.label[p]], _DIRECTIONS[csr.direction[p]]

    def link_rows(self) -> tuple[array, array]:
        """``(offsets, other)``: node i's links end at the nodes
        ``other[offsets[i]:offsets[i + 1]]``, in edge insertion order, with a
        repeat per parallel edge and no self-loops."""
        csr = self._adjacency()
        return csr.offsets, csr.other

    # --- the core ---

    def _node(self, i: int) -> Node:
        return Node(self._ids[i], self._names[i], self._types[i])

    def _neighbors(self, i: int) -> Iterable[int]:
        """Node i's neighbors: the other ends of its links, deduplicated in
        first-link order (self-loops are not in the rows)."""
        csr = self._adjacency()
        return dict.fromkeys(csr.other[csr.offsets[i]:csr.offsets[i + 1]])

    def _normalized_names(self) -> list[str]:
        normalized = self._normalized
        if normalized is None:
            normalized = self._normalized = list(map(normalize_name, self._names))
        return normalized

    def _adjacency(self) -> _Csr:
        csr = self._csr
        if csr is None:
            csr = self._csr = _build_csr(
                len(self._ids), self._sources, self._targets, self._edge_labels
            )
        return csr

    def dump(self) -> tuple[dict[str, list[str]], dict[str, array]]:
        """The whole core as plain values: the string tables (normalized names
        included) and the integer arrays (adjacency included), each built
        first if need be."""
        tables = {
            "ids": self._ids, "names": self._names, "types": self._types, "labels": self._labels,
            "normalized_names": self._normalized_names(),
        }
        arrays = {
            "sources": self._sources,
            "targets": self._targets,
            "edge_labels": self._edge_labels,
            **self._adjacency()._asdict(),
        }
        return tables, arrays

    @classmethod
    def restore(cls, tables: dict[str, list[str]], arrays: dict[str, array]) -> "KnowledgeGraph":
        """The graph whose :meth:`dump` gave ``tables`` and ``arrays``; it
        takes them over without a copy.

        Raises ValueError or TypeError when they do not fit together: other
        names or types, or tables and arrays of mismatched lengths.
        """
        if set(tables) != {"ids", "names", "types", "labels", "normalized_names"} or not all(
            isinstance(table, list) for table in tables.values()
        ):
            raise TypeError("graph state: wrong string tables")
        if {name: values.typecode for name, values in arrays.items()} != _ARRAYS:
            raise TypeError("graph state: wrong integer arrays")
        graph = cls()
        graph._ids, graph._names, graph._types = tables["ids"], tables["names"], tables["types"]
        graph._labels = tables["labels"]
        graph._normalized = tables["normalized_names"]
        n = len(graph._ids)
        graph._index = dict(zip(graph._ids, range(n)))
        graph._label_index = dict(zip(graph._labels, range(len(graph._labels))))
        csr = _Csr(*(arrays[name] for name in _Csr._fields))
        edges = len(arrays["sources"])
        if (
            len(graph._names) != n or len(graph._types) != n or len(graph._index) != n
            or len(graph._normalized) != n
            or len(graph._label_index) != len(graph._labels)
            or len(arrays["targets"]) != edges or len(arrays["edge_labels"]) != edges
            or len(csr.offsets) != n + 1
            or not len(csr.other) == len(csr.label) == len(csr.direction) == csr.offsets[-1]
        ):
            raise ValueError("graph state: tables and arrays do not match")
        graph._sources, graph._targets = arrays["sources"], arrays["targets"]
        graph._edge_labels = arrays["edge_labels"]
        graph._keys = None
        graph._csr = csr
        return graph


def _build_csr(n: int, sources: array, targets: array, labels: array) -> _Csr:
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
    label = array("i", [0]) * links
    direction = array("b", [0]) * links  # 0 is OUT
    free = offsets.tolist()  # the next free slot of each row
    for s, t, lab in zip(sources, targets, labels):
        if s == t:
            continue
        p = free[s]
        free[s] = p + 1
        other[p] = t
        label[p] = lab
        p = free[t]
        free[t] = p + 1
        other[p] = s
        label[p] = lab
        direction[p] = 1
    return _Csr(offsets, other, label, direction)

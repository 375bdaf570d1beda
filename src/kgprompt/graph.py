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

- node ids are interned to ints in insertion order, and labels to small ints;
- a graph that is built holds its node ids, names and types as three lists,
  with a dict from id to int. :meth:`KnowledgeGraph.dump` packs them, and
  :meth:`KnowledgeGraph.restore` takes them packed: the ids and the names
  each become one byte ``array`` of the UTF-8 encoded strings with an
  ``array`` of their offsets, plus an ``array`` of the node ints in sorted
  order of the strings, which lookups by id or by exact name bisect; the
  types become an ``array`` of int codes into a table of the distinct types.
  A packed graph holds no per-node Python object, so no refcount writes to
  its pages. A node added after that unpacks the lists and the dict again;
- each edge's label is an ``array`` column in insertion order, so an edge's
  position is its index there;
- adjacency is a CSR (compressed sparse rows), built on the first query after
  an add: per node, the other end and the signed edge code of each link in
  global edge order. The code is the edge's position ``e`` in its source's
  row and ``~e`` in its target's, so a link gives its label and direction
  without a look at the edge's ends. The CSR leaves self-loops out; they are
  two ``array`` columns of their own, the loop edges' positions and nodes. A
  node's neighbors are the other ends of its row, deduplicated in first-link
  order;
- a graph that is built also holds its edges' source and target columns, in
  insertion order, and a set of packed integer keys as the duplicate check.
  :meth:`KnowledgeGraph.dump` drops both, and a restored graph has neither,
  so each edge's ends are stored once, in the CSR. The columns come back in
  one pass over the CSR and the loops when something asks for them
  (:meth:`KnowledgeGraph.edge_at`, :attr:`KnowledgeGraph.edges`), and the
  first add after a dump or restore also rebuilds the key set from them;
- :meth:`KnowledgeGraph.first_node_normalized` bisects a compact index of
  the normalized names (:func:`normalize_name`): the distinct normalized
  names in sorted order, packed as the node strings are, with an ``array``
  of the first node holding each. Like the CSR, the index is built on the
  first lookup after a node is added, so a graph that is never asked for a
  normalized name and never dumped never builds it.

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
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

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


class _NodeLists(NamedTuple):
    """Node ids, names and types as a graph is built: lists in insertion
    order and a dict from id to int."""

    position: dict[str, int]
    ids: list[str]
    names: list[str]
    types: list[str]

    def size(self) -> int:
        return len(self.ids)

    def id_at(self, i: int) -> str:
        return self.ids[i]

    def name_at(self, i: int) -> str:
        return self.names[i]

    def type_at(self, i: int) -> str:
        return self.types[i]

    def find(self, node_id: str) -> int | None:
        return self.position.get(node_id)

    def first_named(self, names: Iterable[str]) -> dict[str, str]:
        wanted = frozenset(names)
        found: dict[str, str] = {}
        all_names, ids = self.names, self.ids
        for i in compress(range(len(all_names)), map(wanted.__contains__, all_names)):
            found.setdefault(all_names[i], ids[i])
        return found


class _NodeColumns(NamedTuple):
    """Node ids, names and types packed: node i's id is the UTF-8 encoded
    ``node_ids[node_id_offsets[i]:node_id_offsets[i + 1]]``, and its name
    likewise; ``id_order`` and ``name_order`` hold the node ints in sorted
    order of their ids and of their names, equal names in insertion order;
    node i's type is ``types[node_types[i]]``."""

    node_ids: array
    node_id_offsets: array
    id_order: array
    node_names: array
    node_name_offsets: array
    name_order: array
    node_types: array
    types: list[str]  # the distinct types: a table, not an array

    def size(self) -> int:
        return len(self.node_types)

    def id_at(self, i: int) -> str:
        return _text(self.node_ids, self.node_id_offsets, i)

    def name_at(self, i: int) -> str:
        return _text(self.node_names, self.node_name_offsets, i)

    def type_at(self, i: int) -> str:
        return self.types[self.node_types[i]]

    def find(self, node_id: str) -> int | None:
        return _find(self.node_ids, self.node_id_offsets, self.id_order, node_id)

    def first_named(self, names: Iterable[str]) -> dict[str, str]:
        found: dict[str, str] = {}
        for name in dict.fromkeys(names):
            i = _find(self.node_names, self.node_name_offsets, self.name_order, name)
            if i is not None:
                found[name] = self.id_at(i)
        return found


class _Csr(NamedTuple):
    """Adjacency rows: node i's links are ``offsets[i]:offsets[i + 1]`` of
    ``other`` (their other ends) and ``edge`` (their edge codes: the edge's
    position where i is its source, its complement where i is its target).
    The self-loop at position ``loop_edges[k]`` is on node ``loop_nodes[k]``."""

    offsets: array
    other: array
    edge: array
    loop_edges: array
    loop_nodes: array


class _NameIndex(NamedTuple):
    """The distinct normalized names, UTF-8 encoded, in sorted order: the
    k-th is ``normalized[name_offsets[k]:name_offsets[k + 1]]`` and the first
    node added with it is ``name_nodes[k]``."""

    normalized: array
    name_offsets: array
    name_nodes: array


# The arrays of the core, by name, with their typecodes: the one layout that
# dump() gives, restore() takes and an ingest snapshot stores, in this order.
# Edge positions are "i", so a link count (at most twice the edges) fits "I".
ARRAYS = {
    "node_ids": "B", "node_id_offsets": "I", "id_order": "i",
    "node_names": "B", "node_name_offsets": "I", "name_order": "i", "node_types": "i",
    "edge_labels": "i",
    "offsets": "I", "other": "i", "edge": "i", "loop_edges": "i", "loop_nodes": "i",
    "normalized": "B", "name_offsets": "I", "name_nodes": "i",
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
        # the node ids, names and types: lists while the graph is built,
        # packed columns after a dump or restore, until a node is added
        self._nodes: _NodeLists | _NodeColumns = _NodeLists({}, [], [], [])
        self._label_index: dict[str, int] = {}
        self._labels: list[str] = []
        self._edge_labels = array("i")
        # the edges' ends: None after a dump or restore, until something asks
        # for them; the CSR is never None while they are
        self._sources: array | None = array("i")
        self._targets: array | None = array("i")
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
        if self.has_node(node.id):
            return False
        if not node.id:
            raise ValueError("node id must be non-empty")
        if not node.name:
            raise ValueError(f"node {node.id!r}: name must be non-empty")
        return self.add_node_fields(node.id, node.name, node.node_type)

    def add_node_fields(self, node_id: str, name: str, node_type: str) -> bool:
        """:meth:`add_node` for a loader that has checked that ``node_id``
        and ``name`` are non-empty strings."""
        if self._keys is None:  # the CSR is about to go: keep the edges
            self._thaw()
        nodes = self._nodes
        if type(nodes) is not _NodeLists:
            nodes = self._unpack()
        position = nodes.position
        if node_id in position:
            return False
        position[node_id] = len(nodes.ids)
        nodes.ids.append(node_id)
        nodes.names.append(name)
        nodes.types.append(node_type)
        self._csr = None
        self._name_index = None
        return True

    def add_edge(self, source: str, target: str, label: str) -> bool:
        """Add the edge source->target while loading; False (and no change)
        for a duplicate triple."""
        s = self._nodes.find(source)
        if s is None:
            raise UnknownNodeError(source)
        t = self._nodes.find(target)
        if t is None:
            raise UnknownNodeError(target)
        if not label:
            raise ValueError("edge label must be non-empty")
        return self.add_edge_ints(s, t, label)

    def add_edge_ints(self, s: int, t: int, label: str) -> bool:
        """:meth:`add_edge` from the node interned to s to the one interned
        to t, for a loader that has looked both up in :attr:`node_index` and
        checked that ``label`` is a non-empty string."""
        keys = self._keys
        if keys is None:
            keys = self._thaw()
        lab = self._label_index.get(label)
        if lab is None:
            lab = self._label_index[label] = len(self._labels)
            self._labels.append(label)
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
        return {node.id: node for node in map(self.node_at, range(self.node_count))}

    @property
    def edges(self) -> list[Edge]:
        """Every edge once, in insertion order (a new list on each call)."""
        return list(map(self.edge_at, range(self.edge_count)))

    @property
    def node_count(self) -> int:
        return self._nodes.size()

    @property
    def edge_count(self) -> int:
        return len(self._edge_labels)

    def has_node(self, node_id: str) -> bool:
        return self._nodes.find(node_id) is not None

    @property
    def node_index(self) -> dict[str, int]:
        """Node id -> its int: the live index, which a loader reads to intern
        ids in bulk; only the add methods change it. A dumped or restored
        graph unpacks its node lists to give it."""
        nodes = self._nodes
        return (nodes if type(nodes) is _NodeLists else self._unpack()).position

    def node(self, node_id: str) -> Node:
        return self.node_at(self.index_of(node_id))

    def first_nodes_named(self, names: Iterable[str]) -> dict[str, str]:
        """Name -> id of the first node added with exactly that name, for each
        of ``names`` that some node has."""
        return self._nodes.first_named(names)

    def first_node_normalized(self, key: str) -> str | None:
        """Id of the first node added whose normalized name is ``key``, or
        None; ``key`` is already normalized (:func:`normalize_name`)."""
        normalized, offsets, nodes = self._normalized_names()
        k = _find(normalized, offsets, range(len(nodes)), key)
        return None if k is None else self._nodes.id_at(nodes[k])

    # --- adjacency queries ---

    def adjacency(self, x: str) -> Iterator[tuple[str, str, Direction]]:
        """Yield (other id, label, direction) links of x in insertion order.

        Self-loops are skipped: a node is never its own neighbor.
        """
        i = self.index_of(x)
        csr = self._adjacency()
        for p in range(csr.offsets[i], csr.offsets[i + 1]):
            yield (self._nodes.id_at(csr.other[p]), *self._link(csr.edge[p]))

    def neighbor_ids(self, x: str) -> list[str]:
        """Ids of the nodes sharing an edge with x, deduplicated, in first-edge order."""
        return list(map(self._nodes.id_at, self._neighbors(self.index_of(x))))

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
        i = self._nodes.find(node_id)
        if i is None:
            raise UnknownNodeError(node_id)
        return i

    def node_at(self, i: int) -> Node:
        """The node interned to i."""
        nodes = self._nodes
        return Node(nodes.id_at(i), nodes.name_at(i), nodes.type_at(i))

    def edge_at(self, e: int) -> Edge:
        """The edge at position e of the insertion order."""
        sources, targets = self._edge_columns()
        nodes = self._nodes
        return Edge(nodes.id_at(sources[e]), nodes.id_at(targets[e]), self._labels[self._edge_labels[e]])

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
            yield self._link(csr.edge[p])
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

    def _link(self, code: int) -> tuple[str, Direction]:
        """Label and direction of the link with this edge code, relative to
        the node whose row holds it: OUT exactly when the node is the edge's
        source."""
        if code >= 0:
            return self._labels[self._edge_labels[code]], OUT
        return self._labels[self._edge_labels[~code]], IN

    def _normalized_names(self) -> _NameIndex:
        index = self._name_index
        if index is None:  # a packed graph always has its index, so the names are lists
            index = self._name_index = _build_name_index(self._nodes.names)
        return index

    def _adjacency(self) -> _Csr:
        csr = self._csr
        if csr is None:
            csr = self._csr = _build_csr(self.node_count, self._sources, self._targets)
        return csr

    def _edge_columns(self) -> tuple[array, array]:
        """The edges' source and target columns, rebuilt from the CSR and the
        loops if the graph was dumped or restored since it last had them."""
        if self._sources is None:
            self._sources, self._targets = _edge_ends(self._csr, self.edge_count)
        return self._sources, self._targets

    def _thaw(self) -> set[int]:
        """Ready a dumped or restored graph for its first add: take the label
        table and column over from the dump it may share them with, get the
        edge columns back and rebuild the duplicate check from them."""
        self._labels = list(self._labels)
        self._edge_labels = array("i", self._edge_labels)
        keys = self._keys = set(map(_edge_key, *self._edge_columns(), self._edge_labels))
        return keys

    def _unpack(self) -> _NodeLists:
        """The node lists and id dict again, from the packed columns, for an add."""
        columns = self._nodes
        every = range(columns.size())
        ids = list(map(columns.id_at, every))
        nodes = self._nodes = _NodeLists(
            dict(zip(ids, every)), ids, list(map(columns.name_at, every)), list(map(columns.type_at, every))
        )
        return nodes

    def dump(self) -> tuple[dict[str, list[str]], dict[str, array]]:
        """The whole core as plain values: the type and label tables and the
        arrays (packed node strings, adjacency and the normalized-name index
        included), each built first if need be. From then on the graph keeps
        its nodes packed and its edges in the CSR alone, without the edge
        columns and the duplicate check, as a restored graph does.

        Raises OverflowError when the graph's node ids, names or normalized
        names take more bytes than a 4-byte offset can count. The graph then
        keeps its node lists and edge columns, and answers as before.
        """
        # the duplicate check goes first, so it is not held while the CSR is
        # built; an add rebuilds it from the edge columns
        self._keys = None
        index = self._normalized_names()  # built from the lists, before they go
        csr = self._adjacency()
        nodes = self._nodes
        if type(nodes) is _NodeLists:
            nodes = _pack_nodes(nodes)
        self._nodes = nodes
        self._sources = self._targets = None
        parts = {**nodes._asdict(), "edge_labels": self._edge_labels, **csr._asdict(), **index._asdict()}
        return {"types": nodes.types, "labels": self._labels}, {name: parts[name] for name in ARRAYS}

    @classmethod
    def restore(cls, tables: dict[str, list[str]], arrays: dict[str, array]) -> "KnowledgeGraph":
        """The graph whose :meth:`dump` gave ``tables`` and ``arrays``; it
        takes them over without a copy.

        Raises ValueError or TypeError when they do not fit together: other
        names or types, or tables and arrays of mismatched lengths.
        """
        if set(tables) != {"types", "labels"} or not all(isinstance(table, list) for table in tables.values()):
            raise TypeError("graph state: wrong string tables")
        if {name: values.typecode for name, values in arrays.items()} != ARRAYS:
            raise TypeError("graph state: wrong integer arrays")
        graph = cls()
        graph._labels = tables["labels"]
        graph._label_index = dict(zip(graph._labels, range(len(graph._labels))))
        nodes = _NodeColumns(*(arrays[name] for name in _NodeColumns._fields[:-1]), tables["types"])
        csr = _Csr(*(arrays[name] for name in _Csr._fields))
        index = _NameIndex(*(arrays[name] for name in _NameIndex._fields))
        n = len(arrays["node_types"])
        edges = len(arrays["edge_labels"])
        if (
            len(graph._label_index) != len(graph._labels)
            or not len(nodes.node_id_offsets) == len(nodes.node_name_offsets) == n + 1
            or not len(nodes.id_order) == len(nodes.name_order) == n
            or nodes.node_id_offsets[-1] != len(nodes.node_ids)
            or nodes.node_name_offsets[-1] != len(nodes.node_names)
            or len(csr.offsets) != n + 1
            or not len(csr.other) == len(csr.edge) == csr.offsets[-1]
            or len(csr.loop_edges) != len(csr.loop_nodes)
            or csr.offsets[-1] != 2 * (edges - len(csr.loop_edges))
            or not len(index.name_offsets) == len(index.name_nodes) + 1 <= n + 1
            or index.name_offsets[-1] != len(index.normalized)
        ):
            raise ValueError("graph state: tables and arrays do not match")
        graph._nodes = nodes
        graph._sources = graph._targets = None
        graph._edge_labels = arrays["edge_labels"]
        graph._keys = None
        graph._csr = csr
        graph._name_index = index
        return graph


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate passes, so every str has bytes, and
    the bytes sort as the strs do (by code point)."""
    return text.encode("utf-8", "surrogatepass")


def _packed(encoded: list[bytes]) -> tuple[array, array]:
    """Byte strings joined into one byte array, and the array of their offsets in it."""
    return array("B", b"".join(encoded)), array("I", accumulate(map(len, encoded), initial=0))


def _text(data: array, offsets: array, i: int) -> str:
    """The i-th string of a packed column."""
    return data[offsets[i]:offsets[i + 1]].tobytes().decode("utf-8", "surrogatepass")


def _find(data: array, offsets: array, order: Sequence[int], text: str) -> int | None:
    """The first item of ``order`` whose string in a packed column is
    ``text``, or None; ``order`` lists the items in sorted order of their
    strings."""

    def item_bytes(k: int) -> array:
        i = order[k]
        return data[offsets[i]:offsets[i + 1]]

    target = array("B", _utf8(text))
    k = bisect_left(range(len(order)), target, key=item_bytes)
    return order[k] if k < len(order) and item_bytes(k) == target else None


def _pack_nodes(nodes: _NodeLists) -> _NodeColumns:
    """The packed columns of these node lists."""
    ids, names = list(map(_utf8, nodes.ids)), list(map(_utf8, nodes.names))
    every = range(len(ids))
    codes = dict.fromkeys(nodes.types)  # each distinct type, in order of first use
    for code, node_type in enumerate(codes):
        codes[node_type] = code
    return _NodeColumns(
        *_packed(ids), array("i", sorted(every, key=ids.__getitem__)),
        *_packed(names), array("i", sorted(every, key=names.__getitem__)),
        array("i", map(codes.__getitem__, nodes.types)), list(codes),
    )


def _build_name_index(names: list[str]) -> _NameIndex:
    """The name index of nodes with these names, in insertion order."""
    # a dict keeps the last value given for a key, so feed it backwards
    first = dict(zip(
        (_utf8(normalize_name(name)) for name in reversed(names)), range(len(names) - 1, -1, -1)
    ))
    keys = sorted(first)
    return _NameIndex(*_packed(keys), array("i", map(first.__getitem__, keys)))


def _build_csr(n: int, sources: array, targets: array) -> _Csr:
    """Adjacency rows of n nodes from the edge columns, in two passes: count
    each node's links, then fill its row in global edge order; the second
    pass sets the self-loops apart."""
    degree = [0] * n
    for s, t in zip(sources, targets):
        if s != t:  # a self-loop makes no link
            degree[s] += 1
            degree[t] += 1
    offsets = array("I", accumulate(degree, initial=0))
    links = offsets[-1]
    other = array("i", [0]) * links
    edge = array("i", [0]) * links
    loop_edges, loop_nodes = array("i"), array("i")
    free = offsets.tolist()  # the next free slot of each row
    for e, (s, t) in enumerate(zip(sources, targets)):
        if s == t:
            loop_edges.append(e)
            loop_nodes.append(s)
            continue
        p = free[s]
        free[s] = p + 1
        other[p] = t
        edge[p] = e
        p = free[t]
        free[t] = p + 1
        other[p] = s
        edge[p] = ~e
    return _Csr(offsets, other, edge, loop_edges, loop_nodes)


def _edge_ends(csr: _Csr, edges: int) -> tuple[array, array]:
    """The source and target columns of ``edges`` edges, from their CSR: an
    edge's source is the node whose row holds the edge's position as a code,
    and its target is the other end of that link; a self-loop's ends are its
    node."""
    sources = array("i", [0]) * edges
    targets = array("i", [0]) * edges
    offsets, other, edge = csr.offsets, csr.other, csr.edge
    for s in range(len(offsets) - 1):
        a, b = offsets[s], offsets[s + 1]
        for e, t in zip(edge[a:b], other[a:b]):
            if e >= 0:
                sources[e] = s
                targets[e] = t
    for e, s in zip(csr.loop_edges, csr.loop_nodes):
        sources[e] = targets[e] = s
    return sources, targets

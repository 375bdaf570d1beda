"""Directed labeled knowledge graph: built once, then only queried.

A graph is made in two steps. A :class:`GraphBuilder` takes the nodes and
edges one by one, as a loader reads them, and is the single place that
rejects duplicates. :meth:`GraphBuilder.freeze` turns what it holds into a
:class:`KnowledgeGraph`, which has no add and changes no state of its own,
so any number of workers may query it concurrently. Edges are directed, but
adjacency queries treat them as undirected because relational evidence flows
both ways for the extraction queries built on top of this module.

All query results are deterministically ordered by the insertion order of
the first contributing edge, so downstream verbalization and seeded subset
selection are reproducible run to run.

Storage is an integer core. Node ids are interned to ints in insertion
order, and labels to small ints. A builder holds its node ids, names and
types as three lists, with a dict from id to int; its edges as source,
target and label ``array`` columns in insertion order; and a set of packed
integer keys as the duplicate check. A frozen graph holds the table of the
distinct node types, the label table and the arrays of :data:`ARRAYS`, one
slot each; the comment above ``ARRAYS`` describes them. It holds no per-node
Python object, so no refcount writes to its pages. ``Node`` and ``Edge``
objects are made only when a query returns them.

Each array takes the narrowest typecode that its range allows, chosen at the
freeze from the counts the builder has, so a graph of Hetionet's size holds
a node int in 2 bytes and a label code in 1, and a graph of any size holds
what it needs. A frozen graph converts to and from plain values
(:meth:`KnowledgeGraph.dump`, :meth:`KnowledgeGraph.restore`), which is what
an ingest snapshot stores.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Literal, Sequence

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


# A frozen graph's arrays, by name, with their ranges: the one layout that
# its slots hold (one "_<name>" each, beside the type and label tables), that
# dump() gives, restore() takes and an ingest snapshot stores, in this order.
# - Nodes, packed: node i's id is the UTF-8 encoded
#   node_ids[node_id_offsets[i]:node_id_offsets[i + 1]], and its name likewise
#   in node_names; id_order and name_order hold the node ints in sorted order
#   of their ids and of their names, equal names in insertion order, for
#   lookups to bisect; node i's type is types[node_types[i]].
# - Edges: edge e's label is labels[edge_labels[e]]. Its ends are in the CSR
#   (compressed sparse rows): node i's links are offsets[i]:offsets[i + 1] of
#   other (their other ends) and edge (their edge codes: e where i is the
#   edge's source, ~e where i is its target), in global edge order, so a link
#   gives its label and direction without a look at the edge's ends. The CSR
#   leaves self-loops out: the loop at position loop_edges[k] is on node
#   loop_nodes[k]. Each edge's ends are so stored once.
# - The name index: the distinct normalized names (normalize_name), UTF-8
#   encoded, in sorted order; the k-th is
#   normalized[name_offsets[k]:name_offsets[k + 1]] and the first node added
#   with it is name_nodes[k].
# Each array's range decides its typecode when the graph is frozen: the
# narrowest integer typecode whose items hold the count that the range names
# (_typecode), and so every value of the array. "nodes" is the node count,
# "types" and "labels" the sizes of the type and label tables, "links" the
# CSR's link count, a byte array's name its length (for its offsets), and
# "edges" the edge count, signed, for the edge codes and the loop positions.
# A "bytes" array is "B".
ARRAYS = {
    "node_ids": "bytes", "node_id_offsets": "node_ids", "id_order": "nodes",
    "node_names": "bytes", "node_name_offsets": "node_names", "name_order": "nodes", "node_types": "types",
    "edge_labels": "labels",
    "offsets": "links", "other": "nodes", "edge": "edges", "loop_edges": "edges", "loop_nodes": "nodes",
    "normalized": "bytes", "name_offsets": "normalized", "name_nodes": "nodes",
}


# The integer typecodes, narrowest first, each with the least count its items
# do not hold; the signed ones are under True.
_LIMITS = {
    signed: [(code, 1 << (8 * array(code).itemsize - signed)) for code in ("bhiq" if signed else "BHIQ")]
    for signed in (False, True)
}


def _typecode(count: int, signed: bool = False) -> str:
    """The narrowest integer typecode whose items hold ``count``, and so
    every int from 0 to it (and, signed, from ``~count``)."""
    for code, limit in _LIMITS[signed]:
        if count < limit:
            return code
    raise OverflowError(f"no integer typecode holds {count}")


_NON_WORD = re.compile(r"\W+")


def normalize_name(name: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace: casefold, then turn
    each run of characters that are not word characters (punctuation and
    whitespace alike) into one space, and strip the ends."""
    return _NON_WORD.sub(" ", name.casefold()).strip()


class GraphBuilder:
    """Takes a graph's nodes and edges one by one and rejects duplicates;
    :meth:`freeze` makes the :class:`KnowledgeGraph`.

    Parallel edges between the same pair are allowed as long as their labels
    differ; exact duplicate (source, target, label) triples are rejected so
    they cannot silently inflate common-neighbor counts.
    """

    def __init__(self) -> None:
        # node id -> its int: a loader reads it to intern ids in bulk; only
        # the add methods change it
        self.node_index: dict[str, int] = {}
        self._ids: list[str] = []
        self._names: list[str] = []
        self._types: list[str] = []
        self._label_index: dict[str, int] = {}
        self._labels: list[str] = []
        self._sources = array("i")
        self._targets = array("i")
        self._edge_labels = array("i")
        self._keys: set[int] = set()  # each edge as (source << 64) | (target << 32) | label

    def add_node(self, node: Node) -> bool:
        """Add a node; False (and no change) if its id exists."""
        if node.id in self.node_index:
            return False
        if not node.id:
            raise ValueError("node id must be non-empty")
        if not node.name:
            raise ValueError(f"node {node.id!r}: name must be non-empty")
        return self.add_node_fields(node.id, node.name, node.node_type)

    def add_node_fields(self, node_id: str, name: str, node_type: str) -> bool:
        """:meth:`add_node` for a loader that has checked that ``node_id``
        and ``name`` are non-empty strings."""
        position = self.node_index
        if node_id in position:
            return False
        position[node_id] = len(self._ids)
        self._ids.append(node_id)
        self._names.append(name)
        self._types.append(node_type)
        return True

    def add_edge(self, source: str, target: str, label: str) -> bool:
        """Add the edge source->target; False (and no change) for a
        duplicate triple."""
        s = self.node_index.get(source)
        if s is None:
            raise UnknownNodeError(source)
        t = self.node_index.get(target)
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
        key = (s << 64) | (t << 32) | lab  # this runs once per edge loaded
        keys = self._keys
        if key in keys:
            return False
        keys.add(key)
        self._sources.append(s)
        self._targets.append(t)
        self._edge_labels.append(lab)
        return True

    def freeze(self) -> KnowledgeGraph:
        """The graph built so far, read-only; the builder is left empty."""
        return object.__new__(KnowledgeGraph)._set(*self._frozen())

    def _frozen(self) -> tuple[dict[str, list[str]], dict[str, array]]:
        """The tables and arrays of a frozen graph, built from this builder's
        state, which is then released."""
        self._keys = set()  # the duplicate check goes first, so it is not held while the CSR is built
        # the one column built before the label count was known: converted once, to its final width
        self._edge_labels = array(_typecode(len(self._labels)), self._edge_labels)
        index = _build_name_index(self._names)
        csr = _build_csr(len(self._ids), self._sources, self._targets)
        types, nodes = _pack_nodes(self._ids, self._names, self._types)
        tables = {"types": types, "labels": self._labels}
        arrays = {**nodes, "edge_labels": self._edge_labels, **csr, **index}
        self.__init__()  # the lists go; what was frozen is no longer the builder's
        return tables, arrays


class KnowledgeGraph:
    """A frozen directed labeled graph over string node ids: every query,
    no add. :class:`GraphBuilder` makes one; so do the constructor, from
    whole nodes and edges, and :meth:`restore`, from a :meth:`dump`."""

    __slots__ = ("_types", "_labels", *(f"_{name}" for name in ARRAYS))

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        builder = GraphBuilder()
        for node in nodes:
            if not builder.add_node(node):
                raise ValueError(f"duplicate node id: {node.id!r}")
        for edge in edges:
            if not builder.add_edge(edge.source, edge.target, edge.label):
                key = (edge.source, edge.target, edge.label)
                raise DuplicateEdgeError(f"duplicate edge: {key!r}")
        self._set(*builder._frozen())

    def _set(self, tables: dict[str, list[str]], arrays: dict[str, array]) -> KnowledgeGraph:
        self._types = tables["types"]
        self._labels = tables["labels"]
        for name in ARRAYS:
            setattr(self, f"_{name}", arrays[name])
        return self

    # --- basic accessors ---

    @property
    def nodes(self) -> dict[str, Node]:
        """Node id -> node, in insertion order (a new dict on each call)."""
        return {node.id: node for node in map(self.node_at, range(self.node_count))}

    @property
    def edges(self) -> list[Edge]:
        """Every edge once, in insertion order (a new list on each call)."""
        return list(self.iter_edges())

    def iter_edges(self) -> Iterator[Edge]:
        """Every edge once, in insertion order, made one at a time from the
        ends that one pass over the CSR and the loops gives."""
        sources, targets = _edge_ends(self)
        id_at, labels = self._id_at, self._labels
        for s, t, lab in zip(sources, targets, self._edge_labels):
            yield Edge(id_at(s), id_at(t), labels[lab])

    @property
    def node_count(self) -> int:
        return len(self._node_types)

    @property
    def edge_count(self) -> int:
        return len(self._edge_labels)

    def has_node(self, node_id: str) -> bool:
        return _find(self._node_ids, self._node_id_offsets, self._id_order, node_id) is not None

    def node(self, node_id: str) -> Node:
        return self.node_at(self.index_of(node_id))

    def first_nodes_named(self, names: Iterable[str]) -> dict[str, str]:
        """Name -> id of the first node added with exactly that name, for each
        of ``names`` that some node has."""
        found: dict[str, str] = {}
        for name in dict.fromkeys(names):
            i = _find(self._node_names, self._node_name_offsets, self._name_order, name)
            if i is not None:
                found[name] = self._id_at(i)
        return found

    def first_node_normalized(self, key: str) -> str | None:
        """Id of the first node added whose normalized name is ``key``, or
        None; ``key`` is already normalized (:func:`normalize_name`)."""
        nodes = self._name_nodes
        k = _find(self._normalized, self._name_offsets, range(len(nodes)), key)
        return None if k is None else self._id_at(nodes[k])

    # --- adjacency queries ---

    def adjacency(self, x: str) -> Iterator[tuple[str, str, Direction]]:
        """Yield (other id, label, direction) links of x in insertion order.

        Self-loops are skipped: a node is never its own neighbor.
        """
        i = self.index_of(x)
        for p in range(self._offsets[i], self._offsets[i + 1]):
            yield (self._id_at(self._other[p]), *self._link(self._edge[p]))

    def neighbor_ids(self, x: str) -> list[str]:
        """Ids of the nodes sharing an edge with x, deduplicated, in first-edge order."""
        return list(map(self._id_at, self._neighbors(self.index_of(x))))

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
        i = _find(self._node_ids, self._node_id_offsets, self._id_order, node_id)
        if i is None:
            raise UnknownNodeError(node_id)
        return i

    def node_at(self, i: int) -> Node:
        """The node interned to i."""
        name = _text(self._node_names, self._node_name_offsets, i)
        return Node(self._id_at(i), name, self._types[self._node_types[i]])

    def edge_at(self, e: int) -> Edge:
        """The edge at position e of the insertion order: its source holds
        the code e in its row, found by a scan of the CSR's codes."""
        e = range(self.edge_count)[e]
        try:
            p = self._edge.index(e)
        except ValueError:  # a self-loop
            s = t = self._loop_nodes[self._loop_edges.index(e)]
        else:
            s, t = bisect_right(self._offsets, p) - 1, self._other[p]
        return Edge(self._id_at(s), self._id_at(t), self._labels[self._edge_labels[e]])

    def links(self, i: int, j: int) -> Iterator[tuple[str, Direction]]:
        """Label and direction, relative to i, of each stored edge between
        the nodes interned to i and j, in edge insertion order."""
        other = self._other
        p, end = self._offsets[i], self._offsets[i + 1]
        while True:
            try:
                p = other.index(j, p, end)
            except ValueError:
                return
            yield self._link(self._edge[p])
            p += 1

    def row(self, i: int) -> array:
        """The other ends of node i's links, in edge insertion order, with a
        repeat per parallel edge and no self-loops."""
        return self._other[self._offsets[i]:self._offsets[i + 1]]

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

    def _id_at(self, i: int) -> str:
        """The id of the node interned to i."""
        return _text(self._node_ids, self._node_id_offsets, i)

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

    def dump(self) -> tuple[dict[str, list[str]], dict[str, array]]:
        """The graph as plain values: the type and label tables and the
        arrays of :data:`ARRAYS`, the graph's own, not copies."""
        arrays = {name: getattr(self, f"_{name}") for name in ARRAYS}
        return {"types": self._types, "labels": self._labels}, arrays

    @classmethod
    def restore(cls, tables: dict[str, list[str]], arrays: dict[str, array]) -> KnowledgeGraph:
        """The graph whose :meth:`dump` gave ``tables`` and ``arrays``; it
        takes them over without a copy.

        Raises ValueError or TypeError when they do not fit together: other
        names, tables and arrays of mismatched lengths, or an array of
        another typecode than its range's count gives it.
        """
        if set(tables) != {"types", "labels"} or not all(isinstance(table, list) for table in tables.values()):
            raise TypeError("graph state: wrong string tables")
        if arrays.keys() != ARRAYS.keys():
            raise TypeError("graph state: wrong integer arrays")
        labels, a = tables["labels"], arrays
        n, edges, loops = len(a["node_types"]), len(a["edge_labels"]), len(a["loop_edges"])
        if (
            len(set(labels)) != len(labels)
            or not len(a["node_id_offsets"]) == len(a["node_name_offsets"]) == len(a["offsets"]) == n + 1
            or not len(a["id_order"]) == len(a["name_order"]) == n
            or a["node_id_offsets"][-1] != len(a["node_ids"])
            or a["node_name_offsets"][-1] != len(a["node_names"])
            or not len(a["other"]) == len(a["edge"]) == a["offsets"][-1] == 2 * (edges - loops)
            or len(a["loop_nodes"]) != loops
            or not len(a["name_offsets"]) == len(a["name_nodes"]) + 1 <= n + 1
            or a["name_offsets"][-1] != len(a["normalized"])
        ):
            raise ValueError("graph state: tables and arrays do not match")
        counts = {
            "nodes": n, "types": len(tables["types"]), "labels": len(labels), "edges": edges, "links": len(a["other"]),
            **{name: len(a[name]) for name, what in ARRAYS.items() if what == "bytes"},
        }
        for name, what in ARRAYS.items():
            typecode = "B" if what == "bytes" else _typecode(counts[what], signed=what == "edges")
            if a[name].typecode != typecode:
                raise TypeError(f"graph state: {name} is of typecode {a[name].typecode!r}, not {typecode!r}")
        return object.__new__(cls)._set(tables, arrays)


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate passes, so every str has bytes, and
    the bytes sort as the strs do (by code point)."""
    return text.encode("utf-8", "surrogatepass")


def _packed(encoded: list[bytes]) -> tuple[array, array]:
    """Byte strings joined into one byte array, and the array of their
    offsets in it."""
    data = b"".join(encoded)
    return array("B", data), array(_typecode(len(data)), accumulate(map(len, encoded), initial=0))


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


def _pack_nodes(ids: list[str], names: list[str], types: list[str]) -> tuple[list[str], dict[str, array]]:
    """The type table and the packed node arrays of nodes with these ids,
    names and types."""
    ids, names = list(map(_utf8, ids)), list(map(_utf8, names))
    every, node = range(len(ids)), _typecode(len(ids))
    codes = dict.fromkeys(types)  # each distinct type, in order of first use
    for code, node_type in enumerate(codes):
        codes[node_type] = code
    node_ids, node_id_offsets = _packed(ids)
    node_names, node_name_offsets = _packed(names)
    return list(codes), {
        "node_ids": node_ids, "node_id_offsets": node_id_offsets,
        "id_order": array(node, sorted(every, key=ids.__getitem__)),
        "node_names": node_names, "node_name_offsets": node_name_offsets,
        "name_order": array(node, sorted(every, key=names.__getitem__)),
        "node_types": array(_typecode(len(codes)), map(codes.__getitem__, types)),
    }


def _build_name_index(names: list[str]) -> dict[str, array]:
    """The name index of nodes with these names, in insertion order."""
    # a dict keeps the last value given for a key, so feed it backwards
    first = dict(zip(
        (_utf8(normalize_name(name)) for name in reversed(names)), range(len(names) - 1, -1, -1)
    ))
    keys = sorted(first)
    normalized, name_offsets = _packed(keys)
    name_nodes = array(_typecode(len(names)), map(first.__getitem__, keys))
    return {"normalized": normalized, "name_offsets": name_offsets, "name_nodes": name_nodes}


def _build_csr(n: int, sources: array, targets: array) -> dict[str, array]:
    """Adjacency rows of n nodes from the edge columns, in two passes: count
    each node's links, then fill its row in global edge order; the second
    pass sets the self-loops apart."""
    degree = [0] * n
    for s, t in zip(sources, targets):
        if s != t:  # a self-loop makes no link
            degree[s] += 1
            degree[t] += 1
    free = list(accumulate(degree, initial=0))  # the next free slot of each row
    links = free[-1]
    node, code = _typecode(n), _typecode(len(sources), signed=True)
    offsets = array(_typecode(links), free)
    other = array(node, [0]) * links
    edge = array(code, [0]) * links
    loop_edges, loop_nodes = array(code), array(node)
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
    return {
        "offsets": offsets, "other": other, "edge": edge, "loop_edges": loop_edges, "loop_nodes": loop_nodes
    }


def _edge_ends(graph: KnowledgeGraph) -> tuple[array, array]:
    """A graph's source and target columns, from its CSR: an edge's source
    is the node whose row holds the edge's position as a code, and its
    target is the other end of that link; a self-loop's ends are its node."""
    offsets, other, edge = graph._offsets, graph._other, graph._edge
    sources = array(other.typecode, [0]) * graph.edge_count
    targets = array(other.typecode, [0]) * graph.edge_count
    for s in range(len(offsets) - 1):
        a, b = offsets[s], offsets[s + 1]
        for e, t in zip(edge[a:b], other[a:b]):
            if e >= 0:
                sources[e] = s
                targets[e] = t
    for e, s in zip(graph._loop_edges, graph._loop_nodes):
        sources[e] = targets[e] = s
    return sources, targets

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

Storage is kept lean for Hetionet-sized graphs: the edges live once, as
(source, target, label) keys of one insertion-ordered dict that is both the
edge list and the duplicate check, and each node's adjacency holds plain
(other, label, direction) tuples. ``Edge`` objects are made only when
``edges`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

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


class KnowledgeGraph:
    """Directed labeled graph over string node ids.

    Parallel edges between the same pair are allowed as long as their labels
    differ; exact duplicate (source, target, label) triples are rejected so
    they cannot silently inflate common-neighbor counts.
    """

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        self._nodes: dict[str, Node] = {}
        # every edge once, as a (source, target, label) key in insertion
        # order: this dict is both the edge list and the duplicate check
        self._edges: dict[tuple[str, str, str], None] = {}
        # per-node adjacency in global edge-insertion order:
        # (other endpoint, label, direction as seen from the node)
        self._adj: dict[str, list[tuple[str, str, Direction]]] = {}
        for node in nodes:
            if not self.add_node(node):
                raise ValueError(f"duplicate node id: {node.id!r}")
        for edge in edges:
            if not self.add_edge(edge.source, edge.target, edge.label):
                key = (edge.source, edge.target, edge.label)
                raise DuplicateEdgeError(f"duplicate edge: {key!r}")

    def add_node(self, node: Node) -> bool:
        """Add a node while loading; False (and no change) if its id exists."""
        if node.id in self._nodes:
            return False
        if not node.id:
            raise ValueError("node id must be non-empty")
        if not node.name:
            raise ValueError(f"node {node.id!r}: name must be non-empty")
        self._nodes[node.id] = node
        self._adj[node.id] = []
        return True

    def add_edge(self, source: str, target: str, label: str) -> bool:
        """Add the edge source->target while loading; False (and no change)
        for a duplicate triple."""
        out_links = self._adj.get(source)
        if out_links is None:
            raise UnknownNodeError(source)
        in_links = self._adj.get(target)
        if in_links is None:
            raise UnknownNodeError(target)
        if not label:
            raise ValueError("edge label must be non-empty")
        key = (source, target, label)
        if key in self._edges:
            return False
        self._edges[key] = None
        out_links.append((target, label, OUT))
        if target != source:
            in_links.append((source, label, IN))
        return True

    # --- basic accessors ---

    @property
    def nodes(self) -> dict[str, Node]:
        return self._nodes

    @property
    def edges(self) -> list[Edge]:
        """Every edge once, in insertion order (a new list on each call)."""
        return [Edge(source, target, label) for source, target, label in self._edges]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    # --- adjacency queries ---

    def adjacency(self, x: str) -> Iterator[tuple[str, str, Direction]]:
        """Yield (other id, label, direction) links of x in insertion order.

        Self-loops are skipped: a node is never its own neighbor.
        """
        if x not in self._nodes:
            raise UnknownNodeError(x)
        for other, label, direction in self._adj[x]:
            if other != x:
                yield other, label, direction

    def neighbor_ids(self, x: str) -> list[str]:
        """Ids of the nodes sharing an edge with x, deduplicated, in first-edge order."""
        if x not in self._nodes:
            raise UnknownNodeError(x)
        ids = dict.fromkeys([other for other, _label, _direction in self._adj[x]])
        ids.pop(x, None)  # a self-loop does not make x its own neighbor
        return list(ids)

    def neighbors(self, x: str) -> list[Node]:
        """Nodes sharing an edge with x, deduplicated, in first-edge order."""
        return [self._nodes[other] for other in self.neighbor_ids(x)]

    def k_hop_neighbors(self, x: str, k: int) -> list[list[Node]]:
        """Per-hop node lists: hop h holds nodes at shortest distance exactly h.

        x itself never appears and hops are pairwise disjoint.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if x not in self._nodes:
            raise UnknownNodeError(x)
        visited = {x}
        frontier = [x]
        hops: list[list[Node]] = []
        for _hop in range(k):
            next_ids: list[str] = []
            for current in frontier:
                for other, _label, _direction in self.adjacency(current):
                    if other not in visited:
                        visited.add(other)
                        next_ids.append(other)
            hops.append([self._nodes[nid] for nid in next_ids])
            frontier = next_ids
        return hops

    def relation_labels_between(self, x: str, y: str) -> list[tuple[str, Direction]]:
        """All labels on edges between x and y with their original direction.

        Direction is relative to x: "out" means the stored edge runs x->y.
        Order follows edge insertion order; empty when no edge exists.
        """
        if y not in self._nodes:
            raise UnknownNodeError(y)
        return [
            (label, direction)
            for other, label, direction in self.adjacency(x)
            if other == y
        ]

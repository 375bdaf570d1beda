"""Independent brute-force oracles used to check the library's answers.

Everything here works on raw (source, target, label) edge triples and plain
prediction/gold label pairs, never on the package's graph or metric types,
so the two sides of each check stay independent. The exceptions are the
frozen copies of earlier implementations (the metapath enumerator, the graph
and its loaders), which pin the orders and errors the current code must keep.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import asdict, fields
from pathlib import Path
from random import Random
from typing import Iterable, Iterator

from kgprompt.dataset import FewShotConfig
from kgprompt.errors import (
    ConfigError, DuplicateEdgeError, ParseError, SchemaError, UnknownNodeError, require_fields,
)
from kgprompt.graph import IN, OUT, Direction, Edge, KnowledgeGraph, Node
from kgprompt.ingest import IngestReport, hetionet_node_id
from kgprompt.pipeline import FoldConfig, KgSource, MockBackend, _backend, _label_mapping, _section
from kgprompt.prompts import DEFAULT_MASK_TOKEN, Architecture, TruncationPolicy
from kgprompt.structures import ExtractionLimits, StructureKind
from kgprompt.verbalize import TemplateSet


def undirected_neighbor_ids(edges: list[tuple[str, str, str]], x: str) -> set[str]:
    """Brute-force neighbor set of x, scanning the raw edge list."""
    result = set()
    for source, target, _label in edges:
        if source == x and target != x:
            result.add(target)
        if target == x and source != x:
            result.add(source)
    return result


def common_neighbor_ids(edges: list[tuple[str, str, str]], x: str, y: str) -> set[str]:
    return undirected_neighbor_ids(edges, x) & undirected_neighbor_ids(edges, y)


def bfs_hop_partition(
    edges: list[tuple[str, str, str]], x: str, k: int
) -> list[set[str]]:
    """Nodes at shortest undirected distance exactly h, for h = 1..k."""
    adjacency: dict[str, set[str]] = {}
    for source, target, _label in edges:
        if source != target:
            adjacency.setdefault(source, set()).add(target)
            adjacency.setdefault(target, set()).add(source)
    distance = {x: 0}
    queue = deque([x])
    while queue:
        current = queue.popleft()
        for other in adjacency.get(current, ()):
            if other not in distance:
                distance[other] = distance[current] + 1
                queue.append(other)
    return [
        {node for node, d in distance.items() if d == hop} for hop in range(1, k + 1)
    ]


def dfs_simple_path_set(
    edges: list[tuple[str, str, str]], x: str, y: str, max_hops: int
) -> set[tuple[str, ...]]:
    """All simple undirected x..y node sequences with 2..max_hops hops.

    The 2-node direct path is excluded, mirroring the direct-path ban.
    """
    adjacency: dict[str, set[str]] = {}
    for source, target, _label in edges:
        if source != target:
            adjacency.setdefault(source, set()).add(target)
            adjacency.setdefault(target, set()).add(source)
    paths: set[tuple[str, ...]] = set()

    def walk(node: str, trail: tuple[str, ...]) -> None:
        for other in adjacency.get(node, ()):
            if other == y:
                if 2 <= len(trail) <= max_hops:
                    paths.add(trail + (y,))
                continue
            if len(trail) >= max_hops or other in trail:
                continue
            walk(other, trail + (other,))

    walk(x, (x,))
    return paths


# Frozen copy of the metapath enumerator before distance pruning: a plain DFS
# in adjacency order. The pruned enumerator must return the same sequences,
# in the same order, with the same truncation flag. Unlike the oracles
# above, it reads the package's graph, because the order it pins is the
# graph's adjacency order.
def frozen_simple_path_sequences(
    kg: KnowledgeGraph, x: str, y: str, max_hops: int, ceiling: int
) -> tuple[list[tuple[str, ...]], bool]:
    # Iterative-deepening-free DFS; adjacency order makes results deterministic.
    neighbor_order: dict[str, list[str]] = {}

    def ordered_neighbors(u: str) -> list[str]:
        cached = neighbor_order.get(u)
        if cached is None:
            cached = [n.id for n in kg.neighbors(u)]
            neighbor_order[u] = cached
        return cached

    sequences: list[tuple[str, ...]] = []
    truncated = False
    path = [x]
    on_path = {x}

    def dfs(u: str) -> None:
        nonlocal truncated
        if truncated:
            return
        hops_so_far = len(path) - 1
        for v in ordered_neighbors(u):
            if truncated:
                return
            if v == y:
                if 2 <= hops_so_far + 1 <= max_hops:
                    if len(sequences) >= ceiling:
                        truncated = True
                        return
                    sequences.append(tuple(path) + (y,))
                continue
            if hops_so_far + 1 >= max_hops or v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            dfs(v)
            path.pop()
            on_path.remove(v)

    dfs(x)
    return sequences, truncated


def brute_force_confusion(
    pairs: list[tuple[str, str]], positive: str = "causal"
) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) from (predicted, gold) label pairs."""
    tp = fp = fn = tn = 0
    for predicted, gold in pairs:
        if predicted == positive and gold == positive:
            tp += 1
        elif predicted == positive and gold != positive:
            fp += 1
        elif predicted != positive and gold == positive:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def random_graph(
    rng: Random, max_nodes: int = 50, max_edges: int = 200
) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    """Random labeled digraph: (nodes as (id, name, type), edge triples).

    No self-loops and no exact duplicate triples, matching the graph
    construction contract.
    """
    n = rng.randint(2, max_nodes)
    nodes = [(f"n{i}", f"node {i}", rng.choice(["gene", "disease", "compound"])) for i in range(n)]
    labels = ["binds", "treats", "regulates", "associates", "expresses"]
    edges: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    target_count = rng.randint(1, max_edges)
    for _attempt in range(target_count * 3):
        if len(edges) >= target_count:
            break
        source = f"n{rng.randrange(n)}"
        target = f"n{rng.randrange(n)}"
        if source == target:
            continue
        triple = (source, target, rng.choice(labels))
        if triple in seen:
            continue
        seen.add(triple)
        edges.append(triple)
    return nodes, edges


# Frozen copies of the graph and of both graph loaders before the edge store
# became one dict of triples and the loaders paused the GC and released each
# record once read. The current loaders must give the same report, nodes,
# edges and adjacency, in the same order, and raise the same errors. Only the
# names are changed; the bodies are verbatim.
_HETIONET_DIRECTIONS = ("forward", "backward", "both")


class FrozenKnowledgeGraph:
    """Directed labeled graph over string node ids.

    Parallel edges between the same pair are allowed as long as their labels
    differ; exact duplicate (source, target, label) triples are rejected so
    they cannot silently inflate common-neighbor counts.
    """

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        self._nodes: dict[str, Node] = {}
        self._edges: list[Edge] = []
        # per-node adjacency in global edge-insertion order:
        # (edge ordinal, other endpoint, label, direction as seen from the node)
        self._adj: dict[str, list[tuple[int, str, str, Direction]]] = {}
        self._edge_keys: set[tuple[str, str, str]] = set()
        for node in nodes:
            if not self.add_node(node):
                raise ValueError(f"duplicate node id: {node.id!r}")
        for edge in edges:
            if not self.add_edge(edge):
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

    def add_edge(self, edge: Edge) -> bool:
        """Add an edge while loading; False (and no change) for a duplicate triple."""
        for endpoint in (edge.source, edge.target):
            if endpoint not in self._nodes:
                raise UnknownNodeError(endpoint)
        if not edge.label:
            raise ValueError("edge label must be non-empty")
        key = (edge.source, edge.target, edge.label)
        if key in self._edge_keys:
            return False
        ordinal = len(self._edges)
        self._edges.append(edge)
        self._edge_keys.add(key)
        self._adj[edge.source].append((ordinal, edge.target, edge.label, OUT))
        if edge.target != edge.source:
            self._adj[edge.target].append((ordinal, edge.source, edge.label, IN))
        return True

    # --- basic accessors ---

    @property
    def nodes(self) -> dict[str, Node]:
        return self._nodes

    @property
    def edges(self) -> list[Edge]:
        return self._edges

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
        for _ordinal, other, label, direction in self._adj[x]:
            if other != x:
                yield other, label, direction

    def neighbor_ids(self, x: str) -> list[str]:
        """Ids of the nodes sharing an edge with x, deduplicated, in first-edge order."""
        if x not in self._nodes:
            raise UnknownNodeError(x)
        ids = dict.fromkeys([other for _ordinal, other, _label, _direction in self._adj[x]])
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


def _nonempty(record: dict, name: str, what: str, line: int | None = None) -> str:
    """A field's value as a string; names and labels must not be empty."""
    value = str(record[name])
    if not value:
        raise SchemaError(f"{what}: empty {name!r}", line=line)
    return value


def frozen_load_hetionet_json(path: str | Path) -> tuple[FrozenKnowledgeGraph, IngestReport]:
    """Load the Hetionet JSON dump format into a KnowledgeGraph.

    Node records carry kind/identifier/name; edge records carry source_id,
    target_id, kind and a direction marker. "both"-direction edges are
    expanded into two directed edges so the in-memory model stays purely
    directed while preserving undirected semantics. Exact duplicate triples
    are skipped with a warning, never a failure.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at column {exc.colno}: {exc.msg}", line=exc.lineno) from exc

    require_fields(data, ("nodes", "edges"), "top-level document")
    for key in ("nodes", "edges"):
        if not isinstance(data[key], list):
            raise SchemaError(f"top-level {key!r} must be an array")

    report = IngestReport()
    graph = FrozenKnowledgeGraph()
    for i, record in enumerate(data["nodes"]):
        require_fields(record, ("kind", "identifier", "name"), f"node record {i}")
        kind = sys.intern(str(record["kind"]))
        node_id = sys.intern(hetionet_node_id(kind, record["identifier"]))
        name = _nonempty(record, "name", f"node record {i}")
        if not graph.add_node(Node(id=node_id, name=name, node_type=kind)):
            report.warn(f"node record {i}: duplicate node id {node_id!r} skipped")

    for i, record in enumerate(data["edges"]):
        require_fields(record, ("source_id", "target_id", "kind", "direction"), f"edge record {i}")
        source = sys.intern(hetionet_node_id(*_endpoint(record["source_id"], i, "source_id")))
        target = sys.intern(hetionet_node_id(*_endpoint(record["target_id"], i, "target_id")))
        for endpoint in (source, target):
            if not graph.has_node(endpoint):
                raise SchemaError(f"edge record {i}: unknown node id {endpoint!r}")
        label = sys.intern(_nonempty(record, "kind", f"edge record {i}"))
        direction = record["direction"]
        if direction not in _HETIONET_DIRECTIONS:
            raise SchemaError(f"edge record {i}: unknown direction marker {direction!r}")
        oriented: list[tuple[str, str]] = []
        if direction in ("forward", "both"):
            oriented.append((source, target))
        if direction in ("backward", "both"):
            oriented.append((target, source))
        added = 0
        for src, dst in oriented:
            if graph.add_edge(Edge(source=src, target=dst, label=label)):
                added += 1
            else:
                report.duplicates_rejected += 1
                report.warn(f"edge record {i}: duplicate edge {(src, dst, label)!r} skipped")
        if added:
            report.edges_loaded += 1

    report.nodes_loaded = graph.node_count
    report.finish()
    return graph, report


def _endpoint(value: object, record_index: int, field_name: str) -> tuple[str, object]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(
            f"edge record {record_index}: {field_name} must be a [kind, identifier] pair"
        )
    return str(value[0]), value[1]


def frozen_load_edge_list_jsonl(path: str | Path) -> tuple[FrozenKnowledgeGraph, IngestReport]:
    """Load the JSONL edge-list interchange format.

    Each line is either ``{"node": {"id", "name", "type"}}`` or
    ``{"edge": {"source", "target", "label"}}``; the graph is assembled in
    file order, so a node must appear before any edge referencing it.
    """
    path = Path(path)
    report = IngestReport()
    graph = FrozenKnowledgeGraph()

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            require_fields(record, (), "record", line=lineno)
            has_node = "node" in record
            has_edge = "edge" in record
            if has_node and has_edge:
                raise SchemaError("record has both 'node' and 'edge' keys", line=lineno)
            if not has_node and not has_edge:
                raise SchemaError("record has neither 'node' nor 'edge' key", line=lineno)

            if has_node:
                body = require_fields(record["node"], ("id", "name"), "node record", line=lineno)
                node_id = sys.intern(_nonempty(body, "id", "node record", lineno))
                node = Node(
                    id=node_id,
                    name=_nonempty(body, "name", "node record", lineno),
                    node_type=sys.intern(str(body.get("type", "unknown"))),
                )
                if not graph.add_node(node):
                    report.warn(f"line {lineno}: duplicate node id {node_id!r} skipped")
            else:
                body = require_fields(record["edge"], ("source", "target", "label"), "edge record", line=lineno)
                source = sys.intern(str(body["source"]))
                target = sys.intern(str(body["target"]))
                for endpoint in (source, target):
                    if not graph.has_node(endpoint):
                        raise SchemaError(f"edge references unknown node id {endpoint!r}", line=lineno)
                label = sys.intern(_nonempty(body, "label", "edge record", lineno))
                if graph.add_edge(Edge(source=source, target=target, label=label)):
                    report.edges_loaded += 1
                else:
                    report.duplicates_rejected += 1
                    key = (source, target, label)
                    report.warn(f"line {lineno}: duplicate edge {key!r} skipped")

    report.nodes_loaded = graph.node_count
    report.finish()
    return graph, report


# Frozen copies of the bundle record writer, the config parser and canonical
# form, and the context renderer from before bundle payloads, config fields
# and contexts were each walked by one rule. Only the names are changed, the
# parser builds an ``ExperimentConfig`` it is given, and the renderer returns
# the text, source nodes and empty flag it set on the context instead of the
# context; the bodies are otherwise verbatim.


def frozen_bundle_record(instance_id: str, side: str, bundle) -> dict:
    record = {
        "instance_id": instance_id,
        "side": side,
        "kind": bundle.kind.value,
        "pair": list(bundle.pair),
        "candidate_count": bundle.candidate_count,
        "truncated": bundle.truncated,
        "selection_seed": bundle.selection_seed,
    }
    if bundle.kind is StructureKind.NN:
        record["payload"] = [
            {
                "node": {"id": link.node.id, "name": link.node.name, "type": link.node.node_type},
                "labels": [[label, direction] for label, direction in link.labels],
            }
            for link in bundle.payload
        ]
    elif bundle.kind is StructureKind.CNN:
        record["payload"] = [
            {"id": n.id, "name": n.name, "type": n.node_type} for n in bundle.payload
        ]
    else:
        record["payload"] = [
            {
                "nodes": [{"id": n.id, "name": n.name, "type": n.node_type} for n in path.nodes],
                "edges": [[label, direction] for label, direction in path.edges],
            }
            for path in bundle.payload
        ]
    return record


def frozen_config_from_dict(cls, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"configuration must be an object, not {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")
    for required in ("dataset", "kg", "out_dir"):
        if required not in data:
            raise ConfigError(f"configuration misses required field {required!r}")
    mask_token = data.get("mask_token", DEFAULT_MASK_TOKEN)
    if not mask_token:
        raise ConfigError("mask_token must be non-empty")
    return cls(
        dataset=data["dataset"],
        kg=_section(data, "kg", KgSource),
        out_dir=data["out_dir"],
        structure=StructureKind(data.get("structure", "NN")),
        limits=_section(data, "limits", ExtractionLimits),
        templates=_section(data, "templates", TemplateSet),
        architecture=Architecture.parse(str(data.get("architecture", "MLM"))),
        label_mapping=_section(data, "label_mapping", _label_mapping),
        few_shot=_section(data, "few_shot", FewShotConfig),
        folds=_section(data, "folds", FoldConfig),
        selection_seed=data.get("selection_seed", 203),
        truncation=_section(data, "truncation", TruncationPolicy),
        mask_token=mask_token,
        nn_include_labels=data.get("nn_include_labels", False),
        backend=_section(data, "backend", _backend),
        overrides=data.get("overrides"),
    )


def frozen_to_canonical_dict(self) -> dict:
    backend = None
    if self.backend is not None:
        kind = "mock" if isinstance(self.backend, MockBackend) else "http"
        backend = {"kind": kind, **asdict(self.backend)}
    return {
        "dataset": self.dataset,
        "kg": asdict(self.kg),
        "out_dir": self.out_dir,
        "structure": self.structure.value,
        "limits": asdict(self.limits),
        "templates": asdict(self.templates),
        "architecture": self.architecture.value,
        "label_mapping": {"mode": self.label_mapping.mode, **self.label_mapping.label_words()},
        "few_shot": asdict(self.few_shot),
        "folds": asdict(self.folds),
        "selection_seed": self.selection_seed,
        "truncation": asdict(self.truncation),
        "mask_token": self.mask_token,
        "nn_include_labels": self.nn_include_labels,
        "backend": backend,
        "overrides": self.overrides,
    }


def frozen_from_segments(kind, segments) -> dict:
    populated = [s for s in segments if s.items]
    text = "; ".join(s.render() for s in populated)
    sources: list[str] = []
    seen: set[str] = set()
    for segment in populated:
        for nid in segment.prefix_nodes:
            if nid not in seen:
                seen.add(nid)
                sources.append(nid)
        for _text, ids in segment.items:
            for nid in ids:
                if nid not in seen:
                    seen.add(nid)
                    sources.append(nid)
    return dict(
        text=text,
        source_nodes=tuple(sources),
        empty=not text,
    )

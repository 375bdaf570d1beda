"""Load knowledge graphs from local dump files.

Two formats are supported: the published Hetionet JSON dump (single JSON
document with ``nodes`` and ``edges`` arrays) and a line-delimited JSON
edge-list format used for fixtures and third-party graphs. Loading is
single-threaded; the resulting graph inherits the immutability contract of
:mod:`kgprompt.graph`.

Both loaders run with the cyclic garbage collector paused and restore the
caller's GC state afterwards, also when they raise: a load makes hundreds of
thousands of containers and no cycles, so every collection it would trigger
is wasted. The Hetionet loader drops each node and edge record of the parsed
document as soon as it is read, so the document shrinks while the graph
grows. Each edge endpoint is checked and mapped to the graph's own copy of
its id in one dict lookup. A file that is not valid UTF-8 is a
:class:`~kgprompt.errors.ParseError` naming the file and the line.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .atomic import write_jsonl
from .errors import ParseError, SchemaError, jsonl_records, require_fields, utf8_error
from .graph import KnowledgeGraph, Node

# Warnings kept verbatim in the report are capped; counts stay exact.
_MAX_WARNINGS = 50


@dataclass
class IngestReport:
    nodes_loaded: int = 0
    edges_loaded: int = 0
    duplicates_rejected: int = 0
    warnings: list[str] = field(default_factory=list)
    _suppressed: int = 0

    def warn(self, message: str) -> None:
        if len(self.warnings) < _MAX_WARNINGS:
            self.warnings.append(message)
        else:
            self._suppressed += 1

    def finish(self) -> None:
        if self._suppressed:
            self.warnings.append(f"... {self._suppressed} further warnings suppressed")
            self._suppressed = 0


def hetionet_node_id(kind: str, identifier: object) -> str:
    """Composite node id used for Hetionet records, e.g. ``Gene::5468``."""
    return f"{kind}::{identifier}"


def _nonempty(record: dict, name: str, what: str, line: int | None = None) -> str:
    """A field's value as a string; names and labels must not be empty."""
    value = str(record[name])
    if not value:
        raise SchemaError(f"{what}: empty {name!r}", line=line)
    return value


def load_hetionet_json(path: str | Path) -> tuple[KnowledgeGraph, IngestReport]:
    """Load the Hetionet JSON dump format into a KnowledgeGraph.

    Node records carry kind/identifier/name; edge records carry source_id,
    target_id, kind and a direction marker. "both"-direction edges are
    expanded into two directed edges so the in-memory model stays purely
    directed while preserving undirected semantics. Exact duplicate triples
    are skipped with a warning, never a failure.
    """
    path = Path(path)
    with _gc_paused():
        try:
            with path.open("r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at column {exc.colno}: {exc.msg}", line=exc.lineno) from exc
        except UnicodeDecodeError:
            raise utf8_error(path) from None

        require_fields(data, ("nodes", "edges"), "top-level document")
        for key in ("nodes", "edges"):
            if not isinstance(data[key], list):
                raise SchemaError(f"top-level {key!r} must be an array")

        report = IngestReport()
        graph = KnowledgeGraph()
        ids: dict[str, str] = {}  # node id -> the one copy the graph keeps
        records = data["nodes"]
        for i, record in enumerate(records):
            records[i] = None  # the document shrinks as the graph grows
            require_fields(record, ("kind", "identifier", "name"), f"node record {i}")
            kind = sys.intern(str(record["kind"]))
            node_id = hetionet_node_id(kind, record["identifier"])
            name = _nonempty(record, "name", f"node record {i}")
            if graph.add_node(Node(id=node_id, name=name, node_type=kind)):
                ids[node_id] = node_id
            else:
                report.warn(f"node record {i}: duplicate node id {node_id!r} skipped")

        records = data["edges"]
        for i, record in enumerate(records):
            records[i] = None
            require_fields(record, ("source_id", "target_id", "kind", "direction"), f"edge record {i}")
            source_id = hetionet_node_id(*_endpoint(record["source_id"], i, "source_id"))
            target_id = hetionet_node_id(*_endpoint(record["target_id"], i, "target_id"))
            source = ids.get(source_id)
            target = ids.get(target_id)
            for endpoint, known in ((source_id, source), (target_id, target)):
                if known is None:
                    raise SchemaError(f"edge record {i}: unknown node id {endpoint!r}")
            label = sys.intern(_nonempty(record, "kind", f"edge record {i}"))
            direction = record["direction"]
            if direction == "forward":
                oriented = ((source, target),)
            elif direction == "backward":
                oriented = ((target, source),)
            elif direction == "both":
                oriented = ((source, target), (target, source))
            else:
                raise SchemaError(f"edge record {i}: unknown direction marker {direction!r}")
            added = False
            for src, dst in oriented:
                if graph.add_edge(src, dst, label):
                    added = True
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


def load_edge_list_jsonl(path: str | Path) -> tuple[KnowledgeGraph, IngestReport]:
    """Load the JSONL edge-list interchange format.

    Each line is either ``{"node": {"id", "name", "type"}}`` or
    ``{"edge": {"source", "target", "label"}}``; the graph is assembled in
    file order, so a node must appear before any edge referencing it.
    """
    report = IngestReport()
    graph = KnowledgeGraph()
    ids: dict[str, str] = {}  # node id -> the one copy the graph keeps

    with _gc_paused():
        for lineno, record in jsonl_records(path):
            require_fields(record, (), "record", line=lineno)
            has_node = "node" in record
            has_edge = "edge" in record
            if has_node and has_edge:
                raise SchemaError("record has both 'node' and 'edge' keys", line=lineno)
            if not has_node and not has_edge:
                raise SchemaError("record has neither 'node' nor 'edge' key", line=lineno)

            if has_node:
                body = require_fields(record["node"], ("id", "name"), "node record", line=lineno)
                node_id = _nonempty(body, "id", "node record", lineno)
                node = Node(
                    id=node_id,
                    name=_nonempty(body, "name", "node record", lineno),
                    node_type=sys.intern(str(body.get("type", "unknown"))),
                )
                if graph.add_node(node):
                    ids[node_id] = node_id
                else:
                    report.warn(f"line {lineno}: duplicate node id {node_id!r} skipped")
            else:
                body = require_fields(record["edge"], ("source", "target", "label"), "edge record", line=lineno)
                source_id = str(body["source"])
                target_id = str(body["target"])
                source = ids.get(source_id)
                target = ids.get(target_id)
                for endpoint, known in ((source_id, source), (target_id, target)):
                    if known is None:
                        raise SchemaError(f"edge references unknown node id {endpoint!r}", line=lineno)
                label = sys.intern(_nonempty(body, "label", "edge record", lineno))
                if graph.add_edge(source, target, label):
                    report.edges_loaded += 1
                else:
                    report.duplicates_rejected += 1
                    key = (source, target, label)
                    report.warn(f"line {lineno}: duplicate edge {key!r} skipped")

    report.nodes_loaded = graph.node_count
    report.finish()
    return graph, report


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the block; the caller's GC
    state comes back afterwards, also on an error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def export_edge_list_jsonl(kg: KnowledgeGraph, path: str | Path) -> int:
    """Write a graph in the JSONL edge-list format; returns lines written.

    Nodes are written before edges so the file reloads in a single pass;
    reloading reproduces the graph exactly (node set, edge list, labels).
    """
    nodes = ({"node": {"id": n.id, "name": n.name, "type": n.node_type}} for n in kg.nodes.values())
    edges = ({"edge": {"source": e.source, "target": e.target, "label": e.label}} for e in kg.edges)
    return write_jsonl(path, itertools.chain(nodes, edges))

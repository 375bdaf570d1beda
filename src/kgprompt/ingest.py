"""Load knowledge graphs from local dump files.

Two formats are supported: the published Hetionet JSON dump (single JSON
document with ``nodes`` and ``edges`` arrays) and a line-delimited JSON
edge-list format used for fixtures and third-party graphs. Loading is
single-threaded; the resulting graph inherits the immutability contract of
:mod:`kgprompt.graph`.

**Snapshots.** Both loaders first hash the dump (sha256). A graph parsed from
a dump is saved as a snapshot under ``$XDG_CACHE_HOME/kgprompt/graphs/``
(``~/.cache`` when the variable is unset or not an absolute path), keyed by
that digest, the loader, the snapshot format version, the byte order and the
sha256 of this module's and :mod:`kgprompt.graph`'s source, so a code change
never reads an old snapshot. A later load of the same bytes restores the graph's arrays, string
tables (the normalized node names that linking matches against included)
and :class:`IngestReport` (warnings included) from the snapshot and skips
the parse. A snapshot is a fixed header (magic, version, payload
length, payload sha256) and a payload of the ``marshal``-encoded string
tables and report followed by the raw integer arrays; any mismatch,
truncation or decode error makes the loader parse the dump again and rewrite
the snapshot. A cache directory that cannot be written costs a log warning, not
the load.

**Parsing.** The parse runs with the cyclic garbage collector paused and
restores the caller's GC state afterwards, also when it raises: a load makes
hundreds of thousands of objects and no cycles, so every collection it would
trigger is wasted. The Hetionet loader drops each node and edge record of
the parsed document as soon as it is read, so the document shrinks while the
graph grows. A file that is not valid UTF-8 is a
:class:`~kgprompt.errors.ParseError` naming the file and the line.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import logging
import marshal
import os
import struct
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

from . import graph as graph_module
from .atomic import write_atomic, write_jsonl
from .errors import ParseError, SchemaError, jsonl_records, require_fields, utf8_error
from .graph import KnowledgeGraph, Node

log = logging.getLogger(__name__)

# Warnings kept verbatim in the report are capped; counts stay exact.
_MAX_WARNINGS = 50

_SNAPSHOT_VERSION = 3
_SNAPSHOT_MAGIC = b"KGPGRAPH"
# magic, format version, payload length, payload sha256
_SNAPSHOT_HEADER = struct.Struct("<8sIQ32s")
_SNAPSHOT_LENGTH = struct.Struct("<Q")  # of the marshalled tables that open the payload
_SNAPSHOT_ARRAY = struct.Struct("<cQ")  # typecode and item count before each array's bytes
_HASH_CHUNK = 1 << 20

# The only JSON values with one obvious spelling inside a node id (a bool is
# not an int here).
_ID_TYPES = (str, int)


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


def hetionet_node_id(kind: str | int, identifier: str | int) -> str:
    """Composite node id used for Hetionet records, e.g. ``Gene::5468``."""
    return f"{kind}::{identifier}"


def _id_field(record: dict, name: str, what: str, line: int | None = None) -> str:
    """A field that becomes (part of) a node id, as a string."""
    value = record[name]
    if type(value) not in _ID_TYPES:
        raise SchemaError(
            f"{what}: {name!r} must be a string or an integer, not {type(value).__name__}", line=line
        )
    return str(value)


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
    are skipped with a warning, never a failure. A snapshot of an earlier
    load of the same bytes is restored instead of parsing.
    """
    return _load(Path(path), "hetionet_json", _parse_hetionet_json)


def _parse_hetionet_json(path: Path) -> tuple[KnowledgeGraph, IngestReport]:
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
        records = data["nodes"]
        for i, record in enumerate(records):
            records[i] = None  # the document shrinks as the graph grows
            what = f"node record {i}"
            require_fields(record, ("kind", "identifier", "name"), what)
            kind = sys.intern(_id_field(record, "kind", what))
            node_id = hetionet_node_id(kind, _id_field(record, "identifier", what))
            name = _nonempty(record, "name", what)
            if not graph.add_node(Node(id=node_id, name=name, node_type=kind)):
                report.warn(f"node record {i}: duplicate node id {node_id!r} skipped")

        records = data["edges"]
        for i, record in enumerate(records):
            records[i] = None
            what = f"edge record {i}"
            require_fields(record, ("source_id", "target_id", "kind", "direction"), what)
            source = _endpoint(record, "source_id", what)
            target = _endpoint(record, "target_id", what)
            for endpoint in (source, target):
                if not graph.has_node(endpoint):
                    raise SchemaError(f"{what}: unknown node id {endpoint!r}")
            label = _nonempty(record, "kind", what)
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


def _endpoint(record: dict, name: str, what: str) -> str:
    """The node id an edge record's ``[kind, identifier]`` field names."""
    value = record[name]
    if (
        not isinstance(value, (list, tuple)) or len(value) != 2
        or type(value[0]) not in _ID_TYPES or type(value[1]) not in _ID_TYPES
    ):
        raise SchemaError(f"{what}: {name} must be a [kind, identifier] pair of strings or integers")
    return hetionet_node_id(*value)


def load_edge_list_jsonl(path: str | Path) -> tuple[KnowledgeGraph, IngestReport]:
    """Load the JSONL edge-list interchange format.

    Each line is either ``{"node": {"id", "name", "type"}}`` or
    ``{"edge": {"source", "target", "label"}}``; the graph is assembled in
    file order, so a node must appear before any edge referencing it. A
    snapshot of an earlier load of the same bytes is restored instead of
    parsing.
    """
    return _load(Path(path), "edge_list_jsonl", _parse_edge_list_jsonl)


def _parse_edge_list_jsonl(path: Path) -> tuple[KnowledgeGraph, IngestReport]:
    report = IngestReport()
    graph = KnowledgeGraph()

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
                node_id = _id_field(body, "id", "node record", lineno)
                if not node_id:
                    raise SchemaError("node record: empty 'id'", line=lineno)
                node = Node(
                    id=node_id,
                    name=_nonempty(body, "name", "node record", lineno),
                    node_type=sys.intern(str(body.get("type", "unknown"))),
                )
                if not graph.add_node(node):
                    report.warn(f"line {lineno}: duplicate node id {node_id!r} skipped")
            else:
                body = require_fields(record["edge"], ("source", "target", "label"), "edge record", line=lineno)
                source = _id_field(body, "source", "edge record", lineno)
                target = _id_field(body, "target", "edge record", lineno)
                for endpoint in (source, target):
                    if not graph.has_node(endpoint):
                        raise SchemaError(f"edge references unknown node id {endpoint!r}", line=lineno)
                label = _nonempty(body, "label", "edge record", lineno)
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


# --- snapshots ---


def _load(
    path: Path, kind: str, parse: Callable[[Path], tuple[KnowledgeGraph, IngestReport]]
) -> tuple[KnowledgeGraph, IngestReport]:
    """The snapshot of ``path``'s bytes if one is valid, else ``parse(path)``,
    saved as that snapshot."""
    snapshot = _snapshot_path(kind, _file_sha256(path))
    restored = _read_snapshot(snapshot)
    if restored is not None:
        return restored
    graph, report = parse(path)
    _write_snapshot(snapshot, graph, report)
    return graph, report


def _snapshot_path(kind: str, dump_sha256: str) -> Path:
    """Where the snapshot of a dump with this digest, read by the loader
    ``kind``, lives."""
    key = "\0".join((kind, str(_SNAPSHOT_VERSION), sys.byteorder, _code_sha256(), dump_sha256))
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the spec says ignore it
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "kgprompt" / "graphs" / f"{hashlib.sha256(key.encode()).hexdigest()}.graph"


@functools.cache
def _code_sha256() -> str:
    """sha256 of the source of the modules that decide what a snapshot holds."""
    digest = hashlib.sha256()
    for module_file in (graph_module.__file__, __file__):
        digest.update(Path(module_file).read_bytes())
    return digest.hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def _read_snapshot(path: Path) -> tuple[KnowledgeGraph, IngestReport] | None:
    """The graph and report a snapshot holds, or None when there is none or
    it does not check out."""
    try:
        fh = path.open("rb")
    except OSError:  # none yet, or an unusable cache directory
        return None
    with fh:
        try:
            return _decode_snapshot(fh)
        except (OSError, struct.error, ValueError, EOFError, TypeError, KeyError) as exc:
            log.warning("graph snapshot %s is not usable (%s); parsing the dump again", path, exc)
            return None


def _decode_snapshot(fh: BinaryIO) -> tuple[KnowledgeGraph, IngestReport]:
    """Read and check a whole snapshot, then decode it.

    Nothing read is decoded or trusted before the payload's length and
    checksum match the header.
    """
    magic, version, length, checksum = _SNAPSHOT_HEADER.unpack(fh.read(_SNAPSHOT_HEADER.size))
    if magic != _SNAPSHOT_MAGIC or version != _SNAPSHOT_VERSION:
        raise ValueError(f"not a version {_SNAPSHOT_VERSION} graph snapshot")
    if os.fstat(fh.fileno()).st_size != _SNAPSHOT_HEADER.size + length:
        raise EOFError("file size does not match the payload length")
    # every size read below is checked against what is left before reading
    digest = hashlib.sha256()
    remaining = length

    def read(size: int) -> bytes:
        nonlocal remaining
        if size > remaining:
            raise EOFError("payload shorter than its parts say")
        data = fh.read(size)
        digest.update(data)
        remaining -= size
        return data

    (tables_size,) = _SNAPSHOT_LENGTH.unpack(read(_SNAPSHOT_LENGTH.size))
    tables = read(tables_size)
    arrays = []
    while remaining:
        typecode, count = _SNAPSHOT_ARRAY.unpack(read(_SNAPSHOT_ARRAY.size))
        values = array(typecode.decode("ascii"))  # ValueError for a bad typecode
        if count * values.itemsize > remaining:
            raise EOFError("payload shorter than its parts say")
        values.fromfile(fh, count)
        digest.update(values)
        remaining -= count * values.itemsize
        arrays.append(values)
    if digest.digest() != checksum:
        raise ValueError("payload checksum mismatch")
    state = marshal.loads(tables)
    if len(state["arrays"]) != len(arrays):
        raise ValueError("payload holds other arrays than its tables name")
    graph = KnowledgeGraph.restore(state["graph"], dict(zip(state["arrays"], arrays)))
    return graph, IngestReport(*state["report"])


def _write_snapshot(path: Path, graph: KnowledgeGraph, report: IngestReport) -> None:
    """Save a snapshot: the header, then a payload of the marshalled string
    tables and report, and each integer array's typecode, count and bytes."""
    tables, arrays = graph.dump()
    head = marshal.dumps({
        "graph": tables,
        "arrays": list(arrays),
        "report": (report.nodes_loaded, report.edges_loaded, report.duplicates_rejected, report.warnings),
    })
    pieces: list = [_SNAPSHOT_LENGTH.pack(len(head)), head]
    for values in arrays.values():
        pieces += [_SNAPSHOT_ARRAY.pack(values.typecode.encode("ascii"), len(values)), values]
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    length = sum(memoryview(piece).nbytes for piece in pieces)
    try:
        with write_atomic(path, mode="wb") as fh:
            fh.write(_SNAPSHOT_HEADER.pack(_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, length, digest.digest()))
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        log.warning("graph snapshot not saved (%s); the next load parses the dump again", exc)


def export_edge_list_jsonl(kg: KnowledgeGraph, path: str | Path) -> int:
    """Write a graph in the JSONL edge-list format; returns lines written.

    Nodes are written before edges so the file reloads in a single pass;
    reloading reproduces the graph exactly (node set, edge list, labels).
    """
    nodes = ({"node": {"id": n.id, "name": n.name, "type": n.node_type}} for n in kg.nodes.values())
    edges = ({"edge": {"source": e.source, "target": e.target, "label": e.label}} for e in kg.edges)
    return write_jsonl(path, itertools.chain(nodes, edges))

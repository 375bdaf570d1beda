"""Load knowledge graphs from local dump files.

Two formats are supported: the published Hetionet JSON dump (single JSON
document with ``nodes`` and ``edges`` arrays) and a line-delimited JSON
edge-list format used for fixtures and third-party graphs. Loading is
single-threaded; the resulting graph inherits the immutability contract of
:mod:`kgprompt.graph`.

**Snapshots.** Both loaders first hash the dump (sha256). A graph parsed from
a dump is saved as a snapshot under ``$XDG_CACHE_HOME/kgprompt/graphs/``
(``~/.cache`` when the variable is unset or not an absolute path), one file
per loader and dump digest. A later load of the same bytes restores the
graph and its :class:`IngestReport` (warnings included) from the snapshot and
skips the parse. A snapshot is a fixed header (magic, format version, code
digest, payload length, payload sha256) and a payload of a fixed vector of
sizes, the ``marshal``-encoded tables and report, and the raw arrays in
:data:`kgprompt.graph.ARRAYS` order. The sizes are the marshalled bytes'
length and each array's item count; the arrays' names and typecodes are not
on disk, since ``ARRAYS`` states them. Only the small tables are marshalled:
the node types, the edge labels and the report. In format 9 the arrays are
the node ids and names (UTF-8 bytes, their 4-byte offsets and the node ints
in sorted order of each: ``node_ids``, ``node_id_offsets``, ``id_order``,
``node_names``, ``node_name_offsets``, ``name_order``), the node type codes
(``node_types``), the edge label codes (``edge_labels``), the adjacency CSR
(``offsets``, ``other`` and the signed edge codes ``edge``) with the
self-loops it leaves out (``loop_edges``, ``loop_nodes``), and the
normalized-name index (the names' UTF-8 bytes, their offsets and their first
nodes: ``normalized``, ``name_offsets``, ``name_nodes``). The edges' source
and target columns are not stored: the CSR holds each edge's ends once. Each
array is read in place into its final buffer. So a restore builds neither
the CSR nor the index again, and makes no per-node Python object: the graph
answers from the arrays as read.
A snapshot of another code digest (byte order, this module's and
:mod:`kgprompt.graph`'s source), like any mismatch, truncation or decode
error, makes the loader parse the dump again and write the snapshot over the
same file. An unwritable cache directory, or a graph whose node strings
overflow the 4-byte offsets, costs a log warning and no snapshot, not the
load.

**Parsing.** The parse runs with the cyclic garbage collector paused and
restores the caller's GC state afterwards, also when it raises: a load makes
hundreds of thousands of objects and no cycles, so every collection it would
trigger is wasted. The Hetionet loader drops each node and edge record of
the parsed document as soon as it is read, so the document shrinks while the
graph grows. Each loader reads its records in one loop that checks a record
with inline type and key tests, looks its endpoints up in the graph's node
index and adds its node or edges by their ints
(:meth:`~kgprompt.graph.KnowledgeGraph.add_node_fields`,
:meth:`~kgprompt.graph.KnowledgeGraph.add_edge_ints`), so a valid record
makes no per-field helper call; the graph still rejects duplicates. Only a
record that fails the inline test goes through the helpers, which raise the
:class:`~kgprompt.errors.SchemaError` that names its first fault, or read it
when it is valid after all (say, an integer kind). A file that is not valid
UTF-8 is a :class:`~kgprompt.errors.ParseError` naming the file and the line.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import logging
import marshal
import os
import struct
import sys
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

from . import graph as graph_module
from .atomic import write_atomic, write_jsonl
from .errors import (
    ID_TYPES, ParseError, SchemaError, jsonl_records, read_json, require_fields, require_id, require_str
)
from .graph import KnowledgeGraph

log = logging.getLogger(__name__)

# Warnings kept verbatim in the report are capped; counts stay exact.
_MAX_WARNINGS = 50

_SNAPSHOT_VERSION = 9
_SNAPSHOT_MAGIC = b"KGPGRAPH"
# magic, format version, code digest, payload length, payload sha256
_SNAPSHOT_HEADER = struct.Struct("<8sI32sQ32s")
# the payload's sizes: the marshalled bytes' length, then each array's item count
_SNAPSHOT_SIZES = struct.Struct(f"<{1 + len(graph_module.ARRAYS)}Q")


@dataclass
class IngestReport:
    nodes_loaded: int = 0
    edges_loaded: int = 0
    duplicates_rejected: int = 0
    warnings: list[str] = field(default_factory=list)
    _suppressed = 0  # not a field: finish() turns it into a warning

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
    return require_id(record[name], f"{what}: {name!r}", line)


def _nonempty(record: dict, name: str, what: str, line: int | None = None) -> str:
    """A name or label field: a non-empty string."""
    value = require_str(record[name], f"{what}: {name!r}", line)
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
        data = read_json(path)
        require_fields(data, ("nodes", "edges"), "top-level document")
        for key in ("nodes", "edges"):
            if not isinstance(data[key], list):
                raise SchemaError(f"top-level {key!r} must be an array")

        report = IngestReport()
        graph = KnowledgeGraph()
        add_node = graph.add_node_fields
        records = data["nodes"]
        for i, record in enumerate(records):
            records[i] = None  # the document shrinks as the graph grows
            try:
                kind, identifier, name = record["kind"], record["identifier"], record["name"]
            except (KeyError, TypeError):  # not an object, or a field missing
                kind = None
            if type(kind) is str and type(identifier) in ID_TYPES and type(name) is str and name:
                node_id = f"{kind}::{identifier}"  # hetionet_node_id inlined, as for the edges below
                kind = sys.intern(kind)
            else:
                node_id, name, kind = _node_record(record, i)
            if not add_node(node_id, name, kind):
                report.warn(f"node record {i}: duplicate node id {node_id!r} skipped")

        node_int = graph.node_index.get
        add_edge = graph.add_edge_ints
        records = data["edges"]
        for i, record in enumerate(records):
            records[i] = None
            try:
                source, target = record["source_id"], record["target_id"]
                label, direction = record["kind"], record["direction"]
            except (KeyError, TypeError):  # the helpers below name the fault
                source = None
            s = t = None
            if (
                type(source) is list and type(target) is list and len(source) == 2 == len(target)
                and type(label) is str and label
            ):
                (source_kind, source_key), (target_kind, target_key) = source, target
                if (
                    type(source_kind) is str and type(target_kind) is str
                    and type(source_key) in ID_TYPES and type(target_key) in ID_TYPES
                ):
                    source, target = f"{source_kind}::{source_key}", f"{target_kind}::{target_key}"
                    s, t = node_int(source), node_int(target)
            if s is None or t is None:
                source, target, label, direction = _edge_record(record, i, node_int)
                s, t = node_int(source), node_int(target)
            if direction == "forward":
                added = add_edge(s, t, label) or _duplicate_edge(report, i, source, target, label)
            elif direction == "backward":
                added = add_edge(t, s, label) or _duplicate_edge(report, i, target, source, label)
            elif direction == "both":
                forward = add_edge(s, t, label) or _duplicate_edge(report, i, source, target, label)
                backward = add_edge(t, s, label) or _duplicate_edge(report, i, target, source, label)
                added = forward or backward
            else:
                raise SchemaError(f"edge record {i}: unknown direction marker {direction!r}")
            report.edges_loaded += added
    return graph, report


def _duplicate_edge(report: IngestReport, i: int, source: str, target: str, label: str) -> bool:
    """Count and warn of a duplicate edge from edge record i; False: nothing was added."""
    report.duplicates_rejected += 1
    report.warn(f"edge record {i}: duplicate edge {(source, target, label)!r} skipped")
    return False


# The helpers below check one record in full and raise the error that names
# its first fault; the loaders call them only for a record that fails their
# inline test, so a valid record makes no call to them.


def _node_record(record: object, i: int) -> tuple[str, str, str]:
    """A Hetionet node record's node id, name and kind."""
    what = f"node record {i}"
    require_fields(record, ("kind", "identifier", "name"), what)
    kind = sys.intern(_id_field(record, "kind", what))
    node_id = hetionet_node_id(kind, _id_field(record, "identifier", what))
    return node_id, _nonempty(record, "name", what), kind


def _edge_record(
    record: object, i: int, node_int: Callable[[str], int | None]
) -> tuple[str, str, str, object]:
    """A Hetionet edge record's source and target node ids, label and
    (unchecked) direction marker; both nodes must exist."""
    what = f"edge record {i}"
    require_fields(record, ("source_id", "target_id", "kind", "direction"), what)
    source = _endpoint(record, "source_id", what)
    target = _endpoint(record, "target_id", what)
    for endpoint in (source, target):
        if node_int(endpoint) is None:
            raise SchemaError(f"{what}: unknown node id {endpoint!r}")
    return source, target, _nonempty(record, "kind", what), record["direction"]


def _endpoint(record: dict, name: str, what: str) -> str:
    """The node id an edge record's ``[kind, identifier]`` field names."""
    value = record[name]
    if (
        not isinstance(value, (list, tuple)) or len(value) != 2
        or type(value[0]) not in ID_TYPES or type(value[1]) not in ID_TYPES
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
    add_node = graph.add_node_fields
    add_edge = graph.add_edge_ints
    node_int = graph.node_index.get

    with _gc_paused():
        for lineno, record in jsonl_records(path):
            node = edge = None
            if type(record) is dict and len(record) == 1:
                node, edge = record.get("node"), record.get("edge")
            if type(node) is not dict and type(edge) is not dict:
                node, edge = _line_body(record, lineno)

            if edge is None:
                node_id, name, node_type = node.get("id"), node.get("name"), node.get("type", "unknown")
                if not (
                    type(node_id) in ID_TYPES and type(name) is str and name and type(node_type) is str
                    and (node_id := str(node_id))
                ):
                    node_id, name, node_type = _node_line(node, lineno)
                if not add_node(node_id, name, sys.intern(node_type)):
                    report.warn(f"line {lineno}: duplicate node id {node_id!r} skipped")
                continue

            source, target, label = edge.get("source"), edge.get("target"), edge.get("label")
            s = t = None
            if type(source) in ID_TYPES and type(target) in ID_TYPES and type(label) is str and label:
                source, target = str(source), str(target)
                s, t = node_int(source), node_int(target)
            if s is None or t is None:
                source, target, label = _edge_line(edge, lineno, node_int)
                s, t = node_int(source), node_int(target)
            if add_edge(s, t, label):
                report.edges_loaded += 1
            else:
                report.duplicates_rejected += 1
                report.warn(f"line {lineno}: duplicate edge {(source, target, label)!r} skipped")
    return graph, report


def _line_body(record: object, lineno: int) -> tuple[dict | None, dict | None]:
    """A JSONL line's node body, or its edge body, as (node, None) or (None, edge)."""
    require_fields(record, (), "record", line=lineno)
    has_node = "node" in record
    has_edge = "edge" in record
    if has_node and has_edge:
        raise SchemaError("record has both 'node' and 'edge' keys", line=lineno)
    if not has_node and not has_edge:
        raise SchemaError("record has neither 'node' nor 'edge' key", line=lineno)
    if has_node:
        return require_fields(record["node"], ("id", "name"), "node record", line=lineno), None
    return None, require_fields(record["edge"], ("source", "target", "label"), "edge record", line=lineno)


def _node_line(body: dict, lineno: int) -> tuple[str, str, str]:
    """A JSONL node body's id, name and type."""
    require_fields(body, ("id", "name"), "node record", line=lineno)
    node_id = _id_field(body, "id", "node record", lineno)
    if not node_id:
        raise SchemaError("node record: empty 'id'", line=lineno)
    node_type = require_str(body.get("type", "unknown"), "node record: 'type'", lineno)
    return node_id, _nonempty(body, "name", "node record", lineno), node_type


def _edge_line(body: dict, lineno: int, node_int: Callable[[str], int | None]) -> tuple[str, str, str]:
    """A JSONL edge body's source and target node ids and label; both nodes must exist."""
    require_fields(body, ("source", "target", "label"), "edge record", line=lineno)
    source = _id_field(body, "source", "edge record", lineno)
    target = _id_field(body, "target", "edge record", lineno)
    for endpoint in (source, target):
        if node_int(endpoint) is None:
            raise SchemaError(f"edge references unknown node id {endpoint!r}", line=lineno)
    return source, target, _nonempty(body, "label", "edge record", lineno)


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
    try:
        snapshot = _snapshot_path(kind, file_sha256(path))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    restored = _read_snapshot(snapshot)
    if restored is not None:
        return restored
    graph, report = parse(path)
    report.nodes_loaded = graph.node_count
    report.finish()
    _write_snapshot(snapshot, graph, report)
    return graph, report


def _snapshot_path(kind: str, dump_sha256: str) -> Path:
    """Where the snapshot of a dump with this digest, read by the loader
    ``kind``, lives."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):  # unset, empty or relative: the spec says ignore it
        root = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "kgprompt" / "graphs" / f"{kind}-{dump_sha256}.graph"


@functools.cache
def _code_sha256() -> bytes:
    """sha256 of the byte order and the modules that decide what a snapshot holds."""
    digest = hashlib.sha256(sys.byteorder.encode())
    for module_file in (graph_module.__file__, __file__):
        digest.update(Path(module_file).read_bytes())
    return digest.digest()


def file_sha256(path: Path) -> str:
    """The hex sha256 of a file's bytes, read 64 KiB at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
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

    Nothing is read past a header of another format version or code, and
    nothing is decoded or trusted before the payload's length and checksum
    match the header; the sizes only say how much to read.
    """
    magic, version, code, length, checksum = _SNAPSHOT_HEADER.unpack(fh.read(_SNAPSHOT_HEADER.size))
    if (magic, version, code) != (_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, _code_sha256()):
        raise ValueError(f"not a version {_SNAPSHOT_VERSION} graph snapshot of this code")
    if os.fstat(fh.fileno()).st_size != _SNAPSHOT_HEADER.size + length:
        raise EOFError("file size does not match the payload length")
    sizes = fh.read(_SNAPSHOT_SIZES.size)
    tables_size, *counts = _SNAPSHOT_SIZES.unpack(sizes)
    typecodes = graph_module.ARRAYS.values()
    if len(sizes) + tables_size + sum(n * array(t).itemsize for n, t in zip(counts, typecodes)) != length:
        raise EOFError("payload length does not match its parts")
    digest = hashlib.sha256(sizes)  # the tables are hashed apart, so they are never copied
    tables = fh.read(tables_size)
    digest.update(tables)
    arrays = [array(typecode, [0]) * count for typecode, count in zip(typecodes, counts)]
    for values in arrays:
        # read in place: fromfile() would hold each array's bytes twice for a moment
        if fh.readinto(values) != len(values) * values.itemsize:
            raise EOFError("snapshot ends early")
        digest.update(values)
    if digest.digest() != checksum:
        raise ValueError("payload checksum mismatch")
    state = marshal.loads(tables)
    graph = KnowledgeGraph.restore(state["graph"], dict(zip(graph_module.ARRAYS, arrays)))
    return graph, IngestReport(**state["report"])


def _write_snapshot(path: Path, graph: KnowledgeGraph, report: IngestReport) -> None:
    """Save a snapshot, over any file at ``path``: the header, stamped with
    this code's digest, then a payload of the sizes, the marshalled type and
    label tables and report, and each array's bytes in ``ARRAYS`` order. A
    graph too big for the snapshot's offsets is not saved, and stays as it
    was."""
    try:
        tables, arrays = graph.dump()
        head = marshal.dumps({"graph": tables, "report": asdict(report)})
        columns = [arrays[name] for name in graph_module.ARRAYS]
        pieces = [_SNAPSHOT_SIZES.pack(len(head), *map(len, columns)), head, *columns]
        digest = hashlib.sha256()
        for piece in pieces:
            digest.update(piece)
        length = sum(memoryview(piece).nbytes for piece in pieces)
        with write_atomic(path, mode="wb") as fh:
            stamp = (_SNAPSHOT_MAGIC, _SNAPSHOT_VERSION, _code_sha256())
            fh.write(_SNAPSHOT_HEADER.pack(*stamp, length, digest.digest()))
            for piece in pieces:
                fh.write(piece)
    except (OSError, OverflowError) as exc:  # an unwritable cache, or a graph too big for the offsets
        log.warning("graph snapshot not saved (%s); the next load parses the dump again", exc)


def export_edge_list_jsonl(kg: KnowledgeGraph, path: str | Path) -> int:
    """Write a graph in the JSONL edge-list format; returns lines written.

    Nodes are written before edges so the file reloads in a single pass;
    reloading reproduces the graph exactly (node set, edge list, labels).
    Records are made one at a time, by node and edge position.
    """
    nodes = map(kg.node_at, range(kg.node_count))
    edges = map(kg.edge_at, range(kg.edge_count))
    node_records = ({"node": {"id": n.id, "name": n.name, "type": n.node_type}} for n in nodes)
    edge_records = ({"edge": {"source": e.source, "target": e.target, "label": e.label}} for e in edges)
    return write_jsonl(path, itertools.chain(node_records, edge_records))

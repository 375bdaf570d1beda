"""Remote 1-hop structure and entity resolution over SPARQL/HTTP, cached.

Remote querying is deliberately limited to one hop; deeper structure comes
only from locally ingested graphs. Every response is cached on disk under a
content hash of the canonical request, as one line of an append-only
segment file owned by the cache that wrote it (see ``QueryCache``), so a
warmed cache replays an entire experiment byte-for-byte with no network
access (``read_only`` policy).

Requests are issued sequentially; public endpoints rate-limit, and
determinism matters more than throughput here. They are form-encoded POSTs
through ``kgprompt.http``, which keeps one connection per endpoint host
alive across them. Each request waits up to ``TIMEOUT`` seconds and is
retried ``MAX_RETRIES`` times after a connection failure or a 5xx answer,
waiting ``BACKOFF`` seconds before the first retry and twice as long before
each next one; nothing configures these. A 429 is not retried: it raises
``RateLimitedError`` carrying the ``Retry-After`` seconds. Proxies and
``.netrc`` are not read, and redirects are not followed.
"""

from __future__ import annotations

import functools
import json
import os
import re
import string
import sys
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib.resources import files as resource_files
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterator, TypeVar

from ._digest import sha256
from .atomic import TEXT_ERRORS
from .errors import (
    CacheError,
    MalformedResponseError,
    NetworkError,
    RateLimitedError,
    UnknownEntityError,
    require_http_url,
)
from .graph import Direction, Node

_ENTITY_ID = re.compile(r"[QP][0-9]+")
_KEY = re.compile(r"[0-9a-f]{64}")
_LINE_KEY = re.compile(rb'\{"key": "([0-9a-f]{64})"')
_TRANSIENT_STATUSES = frozenset({500, 502, 503, 504})
_USER_AGENT = "kgprompt/0.1 (graph-context extraction)"
TIMEOUT = 30.0
MAX_RETRIES = 3
BACKOFF = 1.0
COMPACT_AFTER = 8  # segments a read_write cache finds before it merges them
_READ_SIZE = 8192  # the first read of a cached line; longer lines take more
_BLOCK = 256  # (key prefix, offset) pairs in one block of an .idx file
_SEAL = b'{"sealed": true}\n'  # a segment's last line once its writer is done

T = TypeVar("T")


@dataclass(frozen=True)
class RemoteEndpoint:
    sparql_url: str = "https://query.wikidata.org/sparql"
    entity_api_url: str = "https://www.wikidata.org/w/api.php"

    def __post_init__(self) -> None:
        for name in ("sparql_url", "entity_api_url"):
            require_http_url(getattr(self, name), name)


class CachePolicy(Enum):
    READ_WRITE = "read_write"
    READ_ONLY = "read_only"


def _close_all(*fd_lists: list[int]) -> None:
    for fds in fd_lists:
        while fds:
            os.close(fds.pop())


def _seal_and_close(own: list[int], *fd_lists: list[int]) -> None:
    """Append the seal to a cache's own segment, unless a write to it
    failed, and close every descriptor the cache holds."""
    for fd in own:
        try:
            os.write(fd, _SEAL)
        except OSError:
            pass  # unsealed, the segment is read line by line and never merged
    own.clear()
    _close_all(*fd_lists)


def _keyed_lines(fd: int) -> Iterator[tuple[int, bytes, bytes]]:
    """(offset, key, line) of each complete line of an open segment that
    starts with a key; a final line without its newline is not yet written."""
    os.lseek(fd, 0, os.SEEK_SET)
    offset = 0
    with open(fd, "rb", closefd=False) as fh:
        for line in fh:
            if line.endswith(b"\n") and (match := _LINE_KEY.match(line)):
                yield offset, match[1], line
            offset += len(line)


def _sorted_by_prefix(prefixes: array, *columns: array) -> tuple[array, ...]:
    """``prefixes`` sorted, with each other column in the same order; equal
    prefixes keep their order. A counting sort on the top bits, about one
    bucket per entry, then a sort of each small bucket, so no Python object
    per entry outlives its bucket and peak memory is the arrays'."""
    count = len(prefixes)
    shift = 64 - max(1, count.bit_length())
    starts = array("Q", bytes(8 * ((1 << (64 - shift)) + 1)))
    for prefix in prefixes:
        starts[(prefix >> shift) + 1] += 1
    for bucket in range(1, len(starts)):
        starts[bucket] += starts[bucket - 1]
    columns = (prefixes, *columns)
    out = tuple(array(column.typecode, bytes(column.itemsize * count)) for column in columns)
    free = array("Q", starts)  # each bucket's next place
    for i, prefix in enumerate(prefixes):
        place = free[prefix >> shift]
        free[prefix >> shift] = place + 1
        for column, target in zip(columns, out):
            target[place] = column[i]
    for lo, hi in zip(starts, starts[1:]):
        if hi - lo > 1:
            rows = sorted(zip(*(target[lo:hi] for target in out)), key=itemgetter(0))
            for target, values in zip(out, zip(*rows)):
                target[lo:hi] = array(target.typecode, values)
    return out


def _open_index(path: Path, segment_size: int) -> tuple[int, array] | None:
    """An open descriptor of a compacted segment's ``.idx`` file and the
    file's fences; None when it cannot be read or was not made for a segment
    of ``segment_size`` bytes, so that the segment is read instead."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        words = array("Q", os.pread(fd, 16, 0))
        if sys.byteorder == "big":  # the file is little-endian
            words.byteswap()
        if len(words) == 2 and words[0] == segment_size:
            count = words[1]
            blocks = -(-count // _BLOCK)
            if os.fstat(fd).st_size == 16 + 8 * blocks + 16 * count:
                fences = array("Q", os.pread(fd, 8 * blocks, 16))
                if sys.byteorder == "big":
                    fences.byteswap()
                if len(fences) == blocks:
                    return fd, fences
    except OSError:
        pass
    os.close(fd)
    return None


def _indexed_offsets(fd: int, fences: array, prefix: int) -> list[int]:
    """The offsets of the lines whose key has ``prefix`` in a compacted
    segment, read from its ``.idx`` file one block of pairs at a time."""
    offsets = []
    block = max(0, bisect_left(fences, prefix) - 1)  # the block before may end with it
    while block < len(fences):
        data = os.pread(fd, 16 * _BLOCK, 16 + 8 * len(fences) + 16 * _BLOCK * block)
        pairs = array("Q", data[: len(data) // 16 * 16])
        if sys.byteorder == "big":
            pairs.byteswap()
        prefixes = pairs[0::2]
        i = bisect_left(prefixes, prefix)
        while i < len(prefixes) and prefixes[i] == prefix:
            offsets.append(pairs[2 * i + 1])
            i += 1
        if i < len(prefixes) or not prefixes:
            break
        block += 1
    return offsets


def _write_index(fh: IO[bytes], segment_size: int, prefixes: array, offsets: array) -> None:
    pairs = array("Q", bytes(16 * len(prefixes)))
    pairs[0::2], pairs[1::2] = prefixes, offsets
    columns = (array("Q", [segment_size, len(prefixes)]), prefixes[::_BLOCK], pairs)
    for column in columns:
        if sys.byteorder == "big":  # the file is little-endian
            column.byteswap()
        column.tofile(fh)


class QueryCache:
    """Response cache in append-only segment files: ``root/<random hex>.jsonl``.

    Each line is one whole entry, ``{"key", "query", "fetched_at",
    "response"}`` with the key first, where the key is ``key_for`` of the
    canonical request. Every cache that stores anything creates one segment
    of its own (``O_EXCL``) and appends each entry to it in a single write,
    so writers sharing a directory never write to the same file, and an
    entry exists once its newline is written: a final line without one is
    skipped. When the cache ends (it is collected, or the interpreter
    exits), it appends the seal ``{"sealed": true}``, unless a write to the
    segment failed; no line is written to a sealed segment again.

    On its first ``load`` or ``store`` a cache opens every segment and keeps
    the 64-bit key prefix and place of each complete line in sorted arrays,
    to which it adds each line it appends; entries other caches write after
    that are not seen. A segment with an ``.idx`` file of the same name that
    fits it is not read: the file holds the segment's size, the number of
    lines, every 256th key prefix, and then each line's (key prefix, offset)
    pair sorted by prefix, all as little-endian 64-bit words, and a lookup
    reads one block of 256 pairs. Before that, a ``read_write`` cache that
    finds more than ``COMPACT_AFTER`` segments merges every sealed one into a
    new sealed segment with an ``.idx`` file and removes them, so the
    segments a run reads stay few whatever the number of runs that added
    some, and no Python object is kept per line. Descriptors stay open, so a
    hit is one read, also of a segment that a merge has removed since.

    A hit is a line with the full key that decodes, its own latest one
    first; a valid line anywhere wins over a corrupt one. A key whose lines
    are all corrupt is a miss that the refetch appends again; under
    ``read_only`` it is a NetworkError instead. A segment or directory that
    cannot be read or written is a CacheError naming its path, and after a
    failed write nothing more is written to that segment. A merge that
    fails changes nothing. Caches in the older ``<2 hex>/<sha256>.json``
    layout are not read.
    """

    def __init__(self, root_dir: Path, policy: CachePolicy = CachePolicy.READ_WRITE) -> None:
        self.root_dir = root_dir
        self.policy = policy
        # Every segment read, then this cache's own; None until the first read.
        self._segments: list[Path] | None = None
        self._fds: list[int] = []  # an open descriptor of each segment
        self._index_fds: list[int] = []  # and of each .idx file read
        self._own: list[int] = []  # this cache's own segment's, while writes to it succeed
        weakref.finalize(self, _seal_and_close, self._own, self._fds, self._index_fds)
        # Sorted (key prefix, segment number, byte offset) arrays of the
        # complete lines of the segments read line by line and of this
        # cache's own stores, and (segment number, descriptor, fences) of
        # each segment read through its ``.idx`` file.
        self._lines: tuple[array, array, array] = (array("Q"), array("I"), array("Q"))
        self._indexes: list[tuple[int, int, array]] = []
        self._segment: Path | None = None  # this cache's own segment, made by its first store
        self._write_failed = False

    @staticmethod
    def key_for(canonical_query: str) -> str:
        return sha256(canonical_query.encode("utf-8", TEXT_ERRORS)).hexdigest()

    def _read_segments(self) -> None:
        compact, vanished = self.policy is CachePolicy.READ_WRITE, 0
        while True:
            try:
                segments, lines, indexes = self._open_segments()
            except FileNotFoundError as exc:  # merged and removed since it was listed
                vanished += 1
                if vanished == 3:
                    raise CacheError(f"cannot read cache segment {exc.filename}: {exc.strerror}") from exc
                continue
            if compact and len(segments) > COMPACT_AFTER:
                compact = False
                if self._compact(segments):
                    _close_all(self._fds, self._index_fds)
                    continue
            self._segments, self._lines, self._indexes = segments, lines, indexes
            return

    def _open_segments(self) -> tuple[list[Path], tuple[array, array, array], list[tuple[int, int, array]]]:
        root = Path(self.root_dir)
        try:
            names = set(os.listdir(root))
        except FileNotFoundError:
            names = set()
        except OSError as exc:
            raise CacheError(f"cannot read cache directory {root}: {exc.strerror}") from exc
        segments = [root / name for name in sorted(names) if name.endswith(".jsonl")]
        read, indexes = (array("Q"), array("I"), array("Q")), []
        _close_all(self._fds, self._index_fds)  # any left by a read that did not finish
        try:
            for number, path in enumerate(segments):
                try:
                    self._fds.append(fd := os.open(path, os.O_RDONLY))
                    if f"{path.stem}.idx" in names:
                        index = _open_index(path.with_suffix(".idx"), os.fstat(fd).st_size)
                        if index:
                            self._index_fds.append(index[0])
                            indexes.append((number, *index))
                            continue
                    for offset, key, _line in _keyed_lines(fd):
                        read[0].append(int(key[:16], 16))
                        read[1].append(number)
                        read[2].append(offset)
                except FileNotFoundError:
                    raise
                except OSError as exc:
                    raise CacheError(f"cannot read cache segment {path}: {exc.strerror}") from exc
        except BaseException:
            _close_all(self._fds, self._index_fds)
            raise
        return segments, _sorted_by_prefix(*read), indexes

    def _compact(self, segments: list[Path]) -> bool:
        """Merge every sealed segment into one new, sealed segment with an
        ``.idx`` file, then remove them; readers that opened them keep
        reading them. False, with nothing changed, when fewer than two are
        sealed or the merged segment cannot be written."""
        taken = []
        for path, fd in zip(segments, self._fds):
            try:
                status, named = os.fstat(fd), os.stat(path)
                sealed = os.pread(fd, len(_SEAL), status.st_size - len(_SEAL)) == _SEAL
            except (OSError, ValueError):  # gone, or too short to be sealed
                continue
            if sealed and (named.st_ino, named.st_dev) == (status.st_ino, status.st_dev):
                taken.append((path, fd))
        if len(taken) < 2 or not self._merge(taken):
            return False
        for path, _fd in taken:  # the segment first: an index without one is not read
            try:
                path.unlink()
                path.with_suffix(".idx").unlink(missing_ok=True)
            except OSError:
                pass  # a segment left behind only repeats merged lines
        return True

    def _merge(self, taken: list[tuple[Path, int]]) -> bool:
        """Write the complete lines of the taken segments into one new
        segment, index first; False, leaving no file behind, on an error."""
        root = Path(self.root_dir)
        name = os.urandom(8).hex()
        part, index = root / f".{name}.part", root / f"{name}.idx"
        prefixes, offsets = array("Q"), array("Q")
        made = []
        try:
            with open(part, "xb") as out:
                made.append(part)
                size = 0
                for _path, fd in taken:
                    for _offset, key, line in _keyed_lines(fd):
                        prefixes.append(int(key[:16], 16))
                        offsets.append(size)
                        out.write(line)
                        size += len(line)
                out.write(_SEAL)
            with open(index, "xb") as fh:
                made.append(index)
                _write_index(fh, size + len(_SEAL), *_sorted_by_prefix(prefixes, offsets))
            os.link(part, root / f"{name}.jsonl")  # unlike a rename, never replaces a segment
            made.remove(index)
            return True
        except OSError:
            return False
        finally:
            for path in made:
                path.unlink(missing_ok=True)

    def _prefix(self, key: str) -> int:
        """The 64-bit prefix of a ``key_for`` key; the segments are read at
        the first call, before this cache's own segment exists."""
        if not _KEY.fullmatch(key):
            raise ValueError(f"{key!r} is not a cache key")
        if self._segments is None:
            self._read_segments()
        return int(key[:16], 16)

    def _line(self, number: int, offset: int) -> bytes:
        """The line at ``offset`` of segment ``number``, through its open descriptor."""
        chunks, size = [], _READ_SIZE
        try:
            while chunk := os.pread(self._fds[number], size, offset):
                end = chunk.find(b"\n") + 1
                chunks.append(chunk[:end] if end else chunk)
                if end:
                    break
                offset, size = offset + len(chunk), 2 * size
        except OSError as exc:
            raise CacheError(f"cannot read cache segment {self._segments[number]}: {exc.strerror}") from exc
        return b"".join(chunks)

    def _places(self, prefix: int) -> Iterator[tuple[int, int]]:
        """(segment number, offset) of each line whose key has ``prefix``:
        this cache's own latest first, then those read, then the indexed."""
        prefixes, numbers, offsets = self._lines
        start = bisect_left(prefixes, prefix)
        for i in range(start, bisect_right(prefixes, prefix, start)):
            yield numbers[i], offsets[i]
        for number, fd, fences in self._indexes:
            try:
                indexed = _indexed_offsets(fd, fences, prefix)
            except OSError as exc:
                path = self._segments[number].with_suffix(".idx")
                raise CacheError(f"cannot read cache segment index {path}: {exc.strerror}") from exc
            for offset in indexed:
                yield number, offset

    def load(self, key: str) -> dict | None:
        corrupt = None
        for number, offset in self._places(self._prefix(key)):
            line = self._line(number, offset)
            match = _LINE_KEY.match(line)
            if not match or match[1] != key.encode("ascii"):
                continue  # another key with the same prefix
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError):  # truncated, not UTF-8, not JSON or nested too deeply
                entry = None
            if isinstance(entry, dict) and "response" in entry:
                return entry
            corrupt = corrupt or self._segments[number]
        if corrupt and self.policy is CachePolicy.READ_ONLY:
            raise NetworkError(f"corrupt cache entry {key} in {corrupt} under read_only policy")
        return None

    def store(self, key: str, canonical_query: str, response: object) -> None:
        prefix = self._prefix(key)
        entry = {
            "key": key,
            "query": canonical_query,
            "fetched_at": datetime.now(timezone.utc).isoformat(),
            "response": response,
        }
        line = (json.dumps(entry, ensure_ascii=False) + "\n").encode("utf-8", TEXT_ERRORS)
        if self._segment is None:
            self._segment = Path(self.root_dir) / f"{os.urandom(8).hex()}.jsonl"
            try:
                self._segment.parent.mkdir(parents=True, exist_ok=True)
                flags = os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL
                self._fds.append(os.open(self._segment, flags, 0o666))
                self._own.append(self._fds[-1])
                self._segments.append(self._segment)
            except OSError as exc:
                self._write_failed = True
                raise CacheError(f"cannot write cache segment {self._segment}: {exc.strerror}") from exc
        path = self._segment
        if self._write_failed:
            raise CacheError(f"cannot write cache segment {path}: an earlier write to it failed")
        try:
            written = os.write(self._fds[-1], line)
            end = os.lseek(self._fds[-1], 0, os.SEEK_CUR)
        except OSError as exc:
            self._write_failed = True
            self._own.clear()
            raise CacheError(f"cannot write cache segment {path}: {exc.strerror}") from exc
        if written != len(line):
            self._write_failed = True
            self._own.clear()
            raise CacheError(f"cannot write cache segment {path}: {written} of {len(line)} bytes written")
        # Before the lines read with its prefix and its own earlier ones, so
        # the latest store answers first. Each insert moves the arrays' tails,
        # which is small next to the request that every store follows.
        prefixes, numbers, offsets = self._lines
        i = bisect_left(prefixes, prefix)
        prefixes.insert(i, prefix)
        numbers.insert(i, len(self._segments) - 1)
        offsets.insert(i, end - len(line))


def _canonical_request(kind: str, params: dict[str, str]) -> str:
    # URL-independent on purpose: a warmed cache must replay even when the
    # endpoint is re-pointed (e.g. offline runs against a stub or no server).
    encoded = "&".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{kind}\n{encoded}"


def _delay_seconds(retry_after: str | None) -> float | None:
    """A ``Retry-After`` value in seconds; None when absent or an HTTP date."""
    try:
        return float(retry_after) if retry_after else None
    except ValueError:
        return None


def _fetch_json(
    cache: QueryCache,
    kind: str,
    url: str,
    params: dict[str, str],
    headers: dict[str, str],
    parse: Callable[[object], T],
) -> T:
    """``parse`` of the request's cached or fetched JSON payload. ``parse``
    raises MalformedResponseError for a payload of the wrong shape, and a
    fetched payload is cached only once it parsed."""
    canonical = _canonical_request(kind, params)
    key = QueryCache.key_for(canonical)
    cached = cache.load(key)
    if cached is not None:
        return parse(cached["response"])
    if cache.policy is CachePolicy.READ_ONLY:
        raise NetworkError(f"cache miss for {kind} request under read_only policy")

    from .http import post_retrying  # deferred: only a remote fetch pays for the import

    raw = post_retrying(
        url,
        what=f"{kind} request",
        transient=_TRANSIENT_STATUSES,
        retries=MAX_RETRIES,
        backoff=BACKOFF,
        timeout=TIMEOUT,
        form=params,
        headers=headers,
    )
    if raw.status == 429:
        raise RateLimitedError(
            f"rate limited by {url}", retry_after=_delay_seconds(raw.headers.get("retry-after"))
        )
    if raw.status != 200:
        raise NetworkError(f"HTTP {raw.status} from {url}")
    try:
        payload = json.loads(raw.body)
    except (ValueError, RecursionError) as exc:
        raise MalformedResponseError(f"response from {url} is not JSON: {exc}") from exc
    result = parse(payload)
    cache.store(key, canonical, payload)
    return result


@functools.cache
def load_query_template(name: str) -> str:
    return (resource_files("kgprompt") / "queries" / name).read_text(encoding="utf-8")


def _render_query(name: str, entity_id: str) -> str:
    """Query template ``name`` for an entity id: Q or P, then ASCII digits."""
    if not _ENTITY_ID.fullmatch(entity_id):
        raise UnknownEntityError(f"{entity_id!r} is not a valid entity id")
    return string.Template(load_query_template(name)).substitute(ENTITY=entity_id)


def _run_sparql(
    endpoint: RemoteEndpoint, cache: QueryCache, template: str, entity_id: str, row: Callable[[dict], T]
) -> list[T]:
    """``row`` of each result binding of a query; ``row`` raises
    MalformedResponseError for a binding it cannot read."""

    def parse(payload: object) -> list[T]:
        try:
            bindings = payload["results"]["bindings"]
        except (KeyError, TypeError):
            raise MalformedResponseError("SPARQL response misses results.bindings") from None
        if not isinstance(bindings, list):
            raise MalformedResponseError("results.bindings is not a list")
        return [row(binding) for binding in bindings]

    return _fetch_json(
        cache,
        kind="sparql",
        url=endpoint.sparql_url,
        params={"query": _render_query(template, entity_id), "format": "json"},
        headers={"User-Agent": _USER_AGENT, "Accept": "application/sparql-results+json"},
        parse=parse,
    )


def _last_segment(iri: str) -> str:
    return iri.rsplit("/", 1)[-1]


def _binding_value(binding: object, name: str, default: str | None) -> str | None:
    """The string value of the term ``name`` in a SPARQL result binding, or
    ``default`` when the binding has no such term or the term no value."""
    if not isinstance(binding, dict):
        raise MalformedResponseError("SPARQL binding is not an object")
    term = binding.get(name, {})
    if not isinstance(term, dict):
        raise MalformedResponseError(f"SPARQL binding's {name!r} is not an object")
    value = term.get("value", default)
    if value is not default and not isinstance(value, str):
        raise MalformedResponseError(f"SPARQL binding's {name!r} value is not a string")
    return value


def _search_results(payload: object) -> list[tuple[str, str, str]]:
    if not isinstance(payload, dict) or "search" not in payload:
        raise MalformedResponseError("entity search response misses 'search'")
    if not isinstance(payload["search"], list):
        raise MalformedResponseError("entity search 'search' is not a list")
    results = []
    for item in payload["search"]:
        if not isinstance(item, dict) or "id" not in item:
            raise MalformedResponseError("entity search result misses 'id'")
        result = (item["id"], item.get("label", ""), item.get("description", ""))
        if not all(isinstance(field, str) for field in result):
            raise MalformedResponseError("entity search result has a non-string id, label or description")
        results.append(result)
    return results


def resolve_entity(
    endpoint: RemoteEndpoint, cache: QueryCache, name: str
) -> list[tuple[str, str, str]]:
    """Entity-search candidates for a name: (entity id, label, description).

    Candidates keep the endpoint's rank order; an unresolvable name yields
    an empty list.
    """
    if not name:
        raise ValueError("name must be non-empty")
    return _fetch_json(
        cache,
        kind="wbsearchentities",
        url=endpoint.entity_api_url,
        params={
            "action": "wbsearchentities",
            "search": name,
            "language": "en",
            "type": "item",
            "format": "json",
        },
        headers={"User-Agent": _USER_AGENT},
        parse=_search_results,
    )


def fetch_entity_label(endpoint: RemoteEndpoint, cache: QueryCache, entity_id: str) -> str:
    """English label of an entity; falls back to the id when unlabeled."""
    labels = _run_sparql(
        endpoint, cache, "label_lookup.rq", entity_id, lambda row: _binding_value(row, "label", None)
    )
    return next((label for label in labels if label), entity_id)


def _neighbor_row(direction: Direction, binding: object) -> tuple[str, str, str, str, Direction]:
    """(property id, neighbor id, property label, neighbor label, direction);
    a missing or empty label falls back to the id."""
    property_iri = _binding_value(binding, "property", None)
    neighbor_iri = _binding_value(binding, "neighbor", None)
    if property_iri is None or neighbor_iri is None:
        raise MalformedResponseError("SPARQL binding misses property/neighbor")
    property_id = _last_segment(property_iri)
    neighbor_id = _last_segment(neighbor_iri)
    if not property_id or not neighbor_id:
        raise MalformedResponseError("SPARQL binding has an empty property or neighbor id")
    property_label = _binding_value(binding, "propertyLabel", property_id) or property_id
    neighbor_label = _binding_value(binding, "neighborLabel", neighbor_id) or neighbor_id
    return property_id, neighbor_id, property_label, neighbor_label, direction


def fetch_neighbors_remote(
    endpoint: RemoteEndpoint, cache: QueryCache, x: str
) -> list[tuple[Node, str, Direction]]:
    """All statement-based 1-hop neighbors of x with readable relation labels.

    Rows are sorted by (property id, neighbor id, direction) so results are
    deterministic regardless of endpoint ordering. Only entity-valued
    statements appear; literals have no node identity to verbalize.
    """
    rows: list[tuple[str, str, str, str, Direction]] = []
    for template, direction in (("one_hop_out.rq", "out"), ("one_hop_in.rq", "in")):
        rows += _run_sparql(endpoint, cache, template, x, functools.partial(_neighbor_row, direction))
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    return [
        (Node(id=neighbor_id, name=neighbor_label, node_type="unknown"), property_label, direction)
        for _pid, neighbor_id, property_label, neighbor_label, direction in rows
    ]

"""Remote 1-hop structure and entity resolution over SPARQL/HTTP, cached.

Remote querying is deliberately limited to one hop; deeper structure comes
only from locally ingested graphs. Every response is cached on disk under a
content hash of the canonical request, so a warmed cache replays an entire
experiment byte-for-byte with no network access (``read_only`` policy).

Requests are issued sequentially; public endpoints rate-limit, and
determinism matters more than throughput here. They are form-encoded POSTs
through ``kgprompt.http``, which keeps one connection per endpoint host
alive across them and retries connection failures and 5xx answers with
backoff. A 429 is not retried: it raises ``RateLimitedError`` carrying the
``Retry-After`` seconds. Proxies and ``.netrc`` are not read, and redirects
are not followed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import string
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib.resources import files as resource_files
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .atomic import write_atomic
from .errors import (
    MalformedResponseError,
    NetworkError,
    RateLimitedError,
    UnknownEntityError,
)
from .graph import Direction, KnowledgeGraph, Node

_ENTITY_ID = re.compile(r"^[QP]\d+$")
_TRANSIENT_STATUSES = frozenset({500, 502, 503, 504})
_USER_AGENT = "kgprompt/0.1 (graph-context extraction)"

T = TypeVar("T")


@dataclass(frozen=True)
class RemoteEndpoint:
    sparql_url: str = "https://query.wikidata.org/sparql"
    entity_api_url: str = "https://www.wikidata.org/w/api.php"
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        for name in ("sparql_url", "entity_api_url"):
            if not getattr(self, name).startswith(("http://", "https://")):
                raise ValueError(f"{name} must be an http(s) URL")


class CachePolicy(Enum):
    READ_WRITE = "read_write"
    READ_ONLY = "read_only"


@dataclass(frozen=True)
class QueryCache:
    """Content-addressed response cache: root/<2 hash chars>/<hash>.json.

    Writers use write-then-rename so concurrent clients can share a cache
    directory safely. An unreadable entry is a miss that the refetch
    replaces; under ``read_only`` it is a NetworkError instead.
    """

    root_dir: Path
    policy: CachePolicy = CachePolicy.READ_WRITE

    @staticmethod
    def key_for(canonical_query: str) -> str:
        return hashlib.sha256(canonical_query.encode("utf-8")).hexdigest()

    def _entry_path(self, key: str) -> Path:
        return Path(self.root_dir) / key[:2] / f"{key}.json"

    def load(self, key: str) -> dict | None:
        path = self._entry_path(key)
        if not path.exists():
            return None
        try:
            with path.open("r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except ValueError:  # truncated or not UTF-8
            entry = None
        if isinstance(entry, dict) and "response" in entry:
            return entry
        if self.policy is CachePolicy.READ_ONLY:
            raise NetworkError(f"corrupt cache entry {path} under read_only policy")
        return None

    def store(self, key: str, canonical_query: str, response: object) -> None:
        entry = {
            "query": canonical_query,
            "fetched_at": datetime.now(timezone.utc).isoformat(),
            "response": response,
        }
        with write_atomic(self._entry_path(key)) as fh:
            fh.write(json.dumps(entry, ensure_ascii=False))


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
    endpoint: RemoteEndpoint,
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
        retries=endpoint.max_retries,
        backoff=endpoint.backoff,
        timeout=endpoint.timeout,
        form=params,
        headers=headers,
    )
    if raw.status == 429:
        raise RateLimitedError(
            f"rate limited by {url}", retry_after=_delay_seconds(raw.headers.get("Retry-After"))
        )
    if raw.status != 200:
        raise NetworkError(f"HTTP {raw.status} from {url}")
    try:
        payload = json.loads(raw.body)
    except ValueError as exc:
        raise MalformedResponseError(f"response from {url} is not JSON: {exc}") from exc
    result = parse(payload)
    cache.store(key, canonical, payload)
    return result


@functools.cache
def load_query_template(name: str) -> str:
    return (resource_files("kgprompt") / "queries" / name).read_text(encoding="utf-8")


def _render_query(name: str, entity_id: str) -> str:
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
        endpoint,
        cache,
        kind="sparql",
        url=endpoint.sparql_url,
        params={"query": _render_query(template, entity_id), "format": "json"},
        headers={"User-Agent": _USER_AGENT, "Accept": "application/sparql-results+json"},
        parse=parse,
    )


def _last_segment(iri: str) -> str:
    return iri.rsplit("/", 1)[-1]


def _search_results(payload: object) -> list[tuple[str, str, str]]:
    if not isinstance(payload, dict) or "search" not in payload:
        raise MalformedResponseError("entity search response misses 'search'")
    results = []
    for item in payload["search"]:
        if "id" not in item:
            raise MalformedResponseError("entity search result misses 'id'")
        results.append((item["id"], item.get("label", ""), item.get("description", "")))
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
        endpoint,
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
    if not _ENTITY_ID.match(entity_id):
        raise UnknownEntityError(f"{entity_id!r} is not a valid entity id")
    labels = _run_sparql(
        endpoint, cache, "label_lookup.rq", entity_id, lambda row: row.get("label", {}).get("value")
    )
    return next((label for label in labels if label), entity_id)


def _neighbor_row(direction: Direction, binding: dict) -> tuple[str, str, str, str, Direction]:
    """(property id, neighbor id, property label, neighbor label, direction)."""
    try:
        property_iri = binding["property"]["value"]
        neighbor_iri = binding["neighbor"]["value"]
    except (KeyError, TypeError):
        raise MalformedResponseError("SPARQL binding misses property/neighbor") from None
    property_id = _last_segment(property_iri)
    neighbor_id = _last_segment(neighbor_iri)
    property_label = binding.get("propertyLabel", {}).get("value", property_id)
    neighbor_label = binding.get("neighborLabel", {}).get("value", neighbor_id)
    return property_id, neighbor_id, property_label, neighbor_label, direction


def fetch_neighbors_remote(
    endpoint: RemoteEndpoint, cache: QueryCache, x: str
) -> list[tuple[Node, str, Direction]]:
    """All statement-based 1-hop neighbors of x with readable relation labels.

    Rows are sorted by (property id, neighbor id, direction) so results are
    deterministic regardless of endpoint ordering. Only entity-valued
    statements appear; literals have no node identity to verbalize.
    """
    if not _ENTITY_ID.match(x):
        raise UnknownEntityError(f"{x!r} is not a valid entity id")
    rows: list[tuple[str, str, str, str, Direction]] = []
    for template, direction in (("one_hop_out.rq", "out"), ("one_hop_in.rq", "in")):
        rows += _run_sparql(endpoint, cache, template, x, functools.partial(_neighbor_row, direction))
    rows.sort(key=lambda r: (r[0], r[1], r[4]))
    return [
        (Node(id=neighbor_id, name=neighbor_label, node_type="unknown"), property_label, direction)
        for _pid, neighbor_id, property_label, neighbor_label, direction in rows
    ]


def graph_from_remote_neighbors(
    x: Node, links: Iterable[tuple[Node, str, Direction]]
) -> KnowledgeGraph:
    """Assemble a one-hop star graph around x from fetched neighbor links.

    A neighbor or link seen twice is kept once, at its first appearance.
    """
    graph = KnowledgeGraph([x])
    for neighbor, label, direction in links:
        graph.add_node(neighbor)
        source, target = (x.id, neighbor.id) if direction == "out" else (neighbor.id, x.id)
        graph.add_edge(source, target, label)
    return graph

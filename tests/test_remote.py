from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from kgprompt.errors import (
    CacheError,
    MalformedResponseError,
    NetworkError,
    RateLimitedError,
    UnknownEntityError,
)
from kgprompt.remote import (
    CachePolicy,
    QueryCache,
    RemoteEndpoint,
    fetch_entity_label,
    fetch_neighbors_remote,
    graph_from_remote_neighbors,
    load_query_template,
    resolve_entity,
)
from kgprompt.graph import Node


@pytest.fixture(autouse=True)
def fast_requests(remote_timing):
    remote_timing(timeout=5.0, max_retries=1, backoff=0.01)


def endpoint_for(server) -> RemoteEndpoint:
    return RemoteEndpoint(sparql_url=server.sparql_url, entity_api_url=server.api_url)


def cache_in(tmp_path: Path, policy=CachePolicy.READ_WRITE) -> QueryCache:
    return QueryCache(root_dir=tmp_path / "cache", policy=policy)


PC_SEARCH = [("Q181257", "prostate cancer", "cancer that affects the prostate gland")]
PC_NEIGHBORS_OUT = [
    ("P2176", "drug or therapy used for treatment", "Q412415", "nilutamide"),
    ("P1995", "health specialty", "Q105650", "urology"),
]
PC_NEIGHBORS_IN = [
    ("P2293", "genetic association", "Q14865813", "FSHR"),
]


def seed_prostate(server):
    server.search["prostate cancer"] = PC_SEARCH
    server.labels["Q181257"] = "prostate cancer"
    server.neighbors[("Q181257", "out")] = PC_NEIGHBORS_OUT
    server.neighbors[("Q181257", "in")] = PC_NEIGHBORS_IN


def test_resolve_entity_recorded_fixture(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    results = resolve_entity(endpoint_for(wiki_server), cache_in(tmp_path), "prostate cancer")
    assert results[0][0] == "Q181257"
    assert results[0][1] == "prostate cancer"


def test_resolve_entity_empty_name_rejected(wiki_server, tmp_path):
    with pytest.raises(ValueError):
        resolve_entity(endpoint_for(wiki_server), cache_in(tmp_path), "")


def test_resolve_entity_no_match(wiki_server, tmp_path):
    assert resolve_entity(endpoint_for(wiki_server), cache_in(tmp_path), "zxqv gibberish") == []


def test_fetch_neighbors_sorted_and_labeled(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    links = fetch_neighbors_remote(endpoint_for(wiki_server), cache_in(tmp_path), "Q181257")
    assert [(n.id, label, direction) for n, label, direction in links] == [
        ("Q105650", "health specialty", "out"),
        ("Q412415", "drug or therapy used for treatment", "out"),
        ("Q14865813", "genetic association", "in"),
    ]
    labels = {label for _n, label, _d in links}
    assert "drug or therapy used for treatment" in labels


def test_fetch_neighbors_zero_statements(wiki_server, tmp_path):
    wiki_server.labels["Q999"] = "lonely"
    assert fetch_neighbors_remote(endpoint_for(wiki_server), cache_in(tmp_path), "Q999") == []


def test_fetch_neighbors_invalid_id(wiki_server, tmp_path):
    with pytest.raises(UnknownEntityError):
        fetch_neighbors_remote(endpoint_for(wiki_server), cache_in(tmp_path), "not-an-id")


def test_cache_replays_without_network(wiki_server, tmp_path, remote_timing):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    endpoint = endpoint_for(wiki_server)
    warm = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_WRITE)
    first = fetch_neighbors_remote(endpoint, warm, "Q181257")
    first_label = fetch_entity_label(endpoint, warm, "Q181257")
    requests_used = wiki_server.request_count
    wiki_server.stop()

    remote_timing(timeout=0.5, max_retries=0, backoff=0.01)
    dead = RemoteEndpoint(sparql_url="http://127.0.0.1:9/sparql", entity_api_url="http://127.0.0.1:9/api")
    replay = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_ONLY)
    assert fetch_neighbors_remote(dead, replay, "Q181257") == first
    assert fetch_entity_label(dead, replay, "Q181257") == first_label == "prostate cancer"
    assert wiki_server.request_count == requests_used


def test_read_only_cache_miss_is_network_error(tmp_path, remote_timing):
    remote_timing(timeout=0.5, max_retries=0)
    dead = RemoteEndpoint(sparql_url="http://127.0.0.1:9/sparql")
    cache = cache_in(tmp_path, policy=CachePolicy.READ_ONLY)
    with pytest.raises(NetworkError, match="read_only"):
        fetch_neighbors_remote(dead, cache, "Q1")


def test_cache_entries_are_immutable(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    cache = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_WRITE)
    endpoint = endpoint_for(wiki_server)
    fetch_neighbors_remote(endpoint, cache, "Q181257")
    entries = sorted(cache_dir.rglob("*.json"))
    before = [p.read_bytes() for p in entries]
    fetch_neighbors_remote(endpoint, cache, "Q181257")  # served from cache
    assert [p.read_bytes() for p in sorted(cache_dir.rglob("*.json"))] == before
    entry = json.loads(entries[0].read_text(encoding="utf-8"))
    assert set(entry) == {"query", "fetched_at", "response"}
    # layout: root/<first two hash chars>/<hash>.json
    assert entries[0].parent.name == entries[0].stem[:2]


def _truncate_cache_entries(cache_dir: Path) -> list[Path]:
    entries = sorted(cache_dir.rglob("*.json"))
    for path in entries:
        path.write_bytes(path.read_bytes()[:20])
    return entries


def test_corrupt_cache_entry_is_refetched_and_replaced(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    cache = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_WRITE)
    endpoint = endpoint_for(wiki_server)
    first = resolve_entity(endpoint, cache, "prostate cancer")
    (entry,) = _truncate_cache_entries(cache_dir)
    requests_used = wiki_server.request_count

    assert resolve_entity(endpoint, cache, "prostate cancer") == first
    assert wiki_server.request_count == requests_used + 1
    assert json.loads(entry.read_text(encoding="utf-8"))["response"]["search"][0]["id"] == "Q181257"
    assert resolve_entity(endpoint, cache, "prostate cancer") == first  # replaced entry hits
    assert wiki_server.request_count == requests_used + 1


def test_corrupt_cache_entry_under_read_only_is_network_error(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    endpoint = endpoint_for(wiki_server)
    resolve_entity(endpoint, QueryCache(root_dir=cache_dir), "prostate cancer")
    _truncate_cache_entries(cache_dir)
    replay = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_ONLY)
    with pytest.raises(NetworkError, match="corrupt cache entry"):
        resolve_entity(endpoint, replay, "prostate cancer")


@pytest.mark.parametrize("policy", list(CachePolicy))
def test_unusable_cache_entry_path_is_a_cache_error_naming_it(tmp_path, policy):
    cache = cache_in(tmp_path, policy=policy)
    key = QueryCache.key_for("search\nsearch=prostate cancer")
    shard = tmp_path / "cache" / key[:2]
    shard.parent.mkdir()
    shard.write_text("", encoding="utf-8")  # a file where the shard directory belongs
    entry = shard / f"{key}.json"
    with pytest.raises(CacheError, match=f"^cannot read cache entry {re.escape(str(entry))}: "):
        cache.load(key)
    with pytest.raises(CacheError, match=f"^cannot write cache entry {re.escape(str(entry))}: "):
        cache.store(key, "search\nsearch=prostate cancer", {"search": []})
    assert shard.read_text(encoding="utf-8") == ""


def test_rate_limited_surfaces_retry_after(wiki_server, tmp_path):
    wiki_server.script = [{"status": 429, "body": {}, "headers": {"Retry-After": "17"}}]
    cache = cache_in(tmp_path)
    with pytest.raises(RateLimitedError) as err:
        fetch_neighbors_remote(endpoint_for(wiki_server), cache, "Q181257")
    assert err.value.retry_after == 17.0


def test_rate_limited_with_http_date_retry_after(wiki_server, tmp_path):
    date = "Wed, 21 Oct 2026 07:28:00 GMT"
    wiki_server.script = [{"status": 429, "body": {}, "headers": {"Retry-After": date}}]
    cache = cache_in(tmp_path)
    with pytest.raises(RateLimitedError) as err:
        fetch_neighbors_remote(endpoint_for(wiki_server), cache, "Q181257")
    assert err.value.retry_after is None


def test_other_client_error_status_is_network_error_and_not_cached(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    wiki_server.script = [{"status": 404, "body": {}}]
    cache = cache_in(tmp_path)
    with pytest.raises(NetworkError, match=f"^HTTP 404 from {re.escape(wiki_server.sparql_url)}$"):
        _label_lookup(endpoint_for(wiki_server), cache)
    assert wiki_server.request_count == 1  # a 404 is not retried
    assert not list((tmp_path / "cache").rglob("*.json"))  # nothing cached
    assert _label_lookup(endpoint_for(wiki_server), cache) == "prostate cancer"


def test_env_var_does_not_override_sparql_url(wiki_server, tmp_path, monkeypatch):
    seed_prostate(wiki_server)
    monkeypatch.setenv("KGPROMPT_SPARQL_URL", "http://127.0.0.1:9/sparql")
    links = fetch_neighbors_remote(endpoint_for(wiki_server), cache_in(tmp_path), "Q181257")
    assert links  # served by the configured stub, not the URL in the environment


def test_query_templates_ship_with_entity_parameter():
    for name in ("one_hop_out.rq", "one_hop_in.rq", "label_lookup.rq"):
        template = load_query_template(name)
        assert "$ENTITY" in template
        assert template.lstrip().startswith("#")  # documented header


def test_graph_from_remote_neighbors_star():
    x = Node(id="Q181257", name="prostate cancer")
    links = [
        (Node(id="Q412415", name="nilutamide"), "drug or therapy used for treatment", "out"),
        (Node(id="Q14865813", name="FSHR"), "genetic association", "in"),
        (Node(id="Q412415", name="nilutamide"), "drug or therapy used for treatment", "out"),
    ]
    star = graph_from_remote_neighbors(x, links)
    assert star.node_count == 3
    assert star.edge_count == 2  # duplicate link collapsed
    assert {n.name for n in star.neighbors("Q181257")} == {"nilutamide", "FSHR"}


def test_malformed_sparql_response(wiki_server, tmp_path):
    wiki_server.script = [{"status": 200, "body": {"unexpected": True}}]
    cache = cache_in(tmp_path)
    with pytest.raises(MalformedResponseError):
        fetch_neighbors_remote(endpoint_for(wiki_server), cache, "Q1")


def _label_lookup(e, c):
    return fetch_entity_label(e, c, "Q181257")


def _neighbors(e, c):
    return fetch_neighbors_remote(e, c, "Q181257")


def _search(e, c):
    return resolve_entity(e, c, "prostate cancer")


def _bindings(*bindings):
    return {"results": {"bindings": list(bindings)}}


PROPERTY = {"value": "http://www.wikidata.org/prop/direct/P2176"}
NEIGHBOR = {"value": "http://www.wikidata.org/entity/Q412415"}

MALFORMED_ANSWERS = {
    "sparql": (lambda e, c: fetch_entity_label(e, c, "Q181257"), {"unexpected": True}),
    "sparql-binding": (lambda e, c: fetch_neighbors_remote(e, c, "Q181257"), {"results": {"bindings": [{"x": 1}]}}),
    "entity-search": (lambda e, c: resolve_entity(e, c, "prostate cancer"), {"searchinfo": {}}),
    "label-binding-not-object": (_label_lookup, _bindings(["label"])),
    "label-not-object": (_label_lookup, _bindings({"label": "prostate cancer"})),
    "label-value-number": (_label_lookup, _bindings({"label": {"value": 5}})),
    "neighbor-binding-not-object": (_neighbors, _bindings("P2176")),
    "property-label-not-object": (
        _neighbors, _bindings({"property": PROPERTY, "neighbor": NEIGHBOR, "propertyLabel": "treats"})
    ),
    "neighbor-label-not-object": (
        _neighbors, _bindings({"property": PROPERTY, "neighbor": NEIGHBOR, "neighborLabel": ["nilutamide"]})
    ),
    "neighbor-label-value-null": (
        _neighbors, _bindings({"property": PROPERTY, "neighbor": NEIGHBOR, "neighborLabel": {"value": None}})
    ),
    "property-value-number": (_neighbors, _bindings({"property": {"value": 2176}, "neighbor": NEIGHBOR})),
    "neighbor-value-list": (_neighbors, _bindings({"property": PROPERTY, "neighbor": {"value": ["Q412415"]}})),
    "property-id-empty": (
        _neighbors, _bindings({"property": {"value": "http://www.wikidata.org/prop/direct/"}, "neighbor": NEIGHBOR})
    ),
    "neighbor-id-empty": (
        _neighbors, _bindings({"property": PROPERTY, "neighbor": {"value": "http://www.wikidata.org/entity/"}})
    ),
    "bindings-not-list": (_label_lookup, {"results": {"bindings": {"label": {"value": "prostate cancer"}}}}),
    "search-not-list": (_search, {"search": {"id": "Q181257"}}),
    "search-result-not-object": (_search, {"search": [181257]}),
    "search-label-number": (_search, {"search": [{"id": "Q181257", "label": 5}]}),
    "search-id-number": (_search, {"search": [{"id": 181257, "label": "prostate cancer"}]}),
    "search-description-object": (_search, {"search": [{"id": "Q181257", "description": {"en": "cancer"}}]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ANSWERS))
def test_malformed_answer_is_not_cached(wiki_server, tmp_path, case):
    fetch, body = MALFORMED_ANSWERS[case]
    seed_prostate(wiki_server)
    wiki_server.script = [{"status": 200, "body": body}]
    endpoint = endpoint_for(wiki_server)
    cache_dir = tmp_path / "cache"
    with pytest.raises(MalformedResponseError):
        fetch(endpoint, QueryCache(root_dir=cache_dir))
    good = fetch(endpoint, QueryCache(root_dir=cache_dir))  # the server answers well now
    assert good
    requests_used = wiki_server.request_count
    replay = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_ONLY)
    assert fetch(endpoint, replay) == good
    assert wiki_server.request_count == requests_used


def test_empty_neighbor_and_property_labels_read_as_the_ids(wiki_server, tmp_path):
    wiki_server.neighbors[("Q181257", "out")] = [("P2176", "", "Q412415", "")]
    links = fetch_neighbors_remote(endpoint_for(wiki_server), cache_in(tmp_path), "Q181257")
    assert [(n.id, n.name, label, d) for n, label, d in links] == [("Q412415", "Q412415", "P2176", "out")]
    star = graph_from_remote_neighbors(Node(id="Q181257", name="prostate cancer"), links)
    assert star.relation_labels_between("Q181257", "Q412415") == [("P2176", "out")]


# Deeper than the JSON decoder can follow.
NESTED = b"[" * 100_000


@pytest.mark.parametrize("policy", list(CachePolicy))
def test_nested_cache_entry_is_corrupt(wiki_server, tmp_path, policy):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    endpoint = endpoint_for(wiki_server)
    first = resolve_entity(endpoint, QueryCache(root_dir=cache_dir), "prostate cancer")
    (entry,) = sorted(cache_dir.rglob("*.json"))
    entry.write_bytes(NESTED)
    cache = QueryCache(root_dir=cache_dir, policy=policy)
    if policy is CachePolicy.READ_ONLY:
        with pytest.raises(NetworkError, match="corrupt cache entry"):
            resolve_entity(endpoint, cache, "prostate cancer")
    else:  # refetched and replaced
        assert resolve_entity(endpoint, cache, "prostate cancer") == first
        assert json.loads(entry.read_text(encoding="utf-8"))["response"]["search"][0]["id"] == "Q181257"


def test_nested_sparql_answer_is_malformed_and_not_cached(wiki_server, tmp_path):
    wiki_server.script = [{"status": 200, "raw": NESTED}]
    with pytest.raises(MalformedResponseError, match="is not JSON"):
        fetch_entity_label(endpoint_for(wiki_server), cache_in(tmp_path), "Q181257")
    assert not list((tmp_path / "cache").rglob("*.json"))


@pytest.mark.parametrize("entity_id", ["Q5\n", "Q٣", "q5", "Q", "wd:Q5"])
@pytest.mark.parametrize("fetch", [fetch_entity_label, fetch_neighbors_remote])
def test_invalid_entity_id_fails_before_cache_or_request(wiki_server, tmp_path, fetch, entity_id):
    for policy in CachePolicy:
        with pytest.raises(UnknownEntityError, match="is not a valid entity id"):
            fetch(endpoint_for(wiki_server), cache_in(tmp_path, policy), entity_id)
    assert wiki_server.request_count == 0
    assert not (tmp_path / "cache").exists()

from __future__ import annotations

import errno
import gc
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgprompt.pipeline as pipeline
import kgprompt.remote as remote
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
    load_query_template,
    resolve_entity,
)
from kgprompt.graph import Node
from kgprompt.linking import PairLinkage
from kgprompt.pipeline import ExperimentConfig, _RemoteSource
from kgprompt.structures import ExtractionLimits, star_neighbors

from oracles import frozen_star_neighbors


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


def cached_lines(cache_dir: Path) -> list[bytes]:
    """Every line of every cache segment, in segment order."""
    return [line for path in sorted(cache_dir.glob("*.jsonl")) for line in path.read_bytes().splitlines()]


def test_cache_entries_are_immutable(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    cache = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_WRITE)
    endpoint = endpoint_for(wiki_server)
    fetch_neighbors_remote(endpoint, cache, "Q181257")
    (segment,) = cache_dir.iterdir()
    before = segment.read_bytes()
    fetch_neighbors_remote(endpoint, cache, "Q181257")  # served from cache
    assert list(cache_dir.iterdir()) == [segment] and segment.read_bytes() == before
    entries = [json.loads(line) for line in cached_lines(cache_dir)]
    assert [list(entry) for entry in entries] == [["key", "query", "fetched_at", "response"]] * 2
    assert [entry["key"] for entry in entries] == [QueryCache.key_for(entry["query"]) for entry in entries]
    # layout: root/<random hex>.jsonl, one line per entry
    assert re.fullmatch(r"[0-9a-f]{16}\.jsonl", segment.name) and before.count(b"\n") == 2


def _truncate_cache_entries(cache_dir: Path) -> list[Path]:
    """Cut each line of each segment just past its key, keeping the newline."""
    segments = sorted(cache_dir.glob("*.jsonl"))
    for path in segments:
        path.write_bytes(b"".join(line[:80] + b"\n" for line in path.read_bytes().splitlines()))
    return segments


def test_corrupt_cache_entry_is_refetched_and_replaced(wiki_server, tmp_path):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    cache = QueryCache(root_dir=cache_dir, policy=CachePolicy.READ_WRITE)
    endpoint = endpoint_for(wiki_server)
    first = resolve_entity(endpoint, cache, "prostate cancer")
    (segment,) = _truncate_cache_entries(cache_dir)
    requests_used = wiki_server.request_count

    assert resolve_entity(endpoint, cache, "prostate cancer") == first
    assert wiki_server.request_count == requests_used + 1
    _truncated, refetched = segment.read_bytes().splitlines()  # the refetch is appended
    assert json.loads(refetched)["response"]["search"][0]["id"] == "Q181257"
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
    segment = tmp_path / "cache" / "x.jsonl"
    segment.mkdir(parents=True)  # a directory where a segment file belongs
    # a store reads the segments first, so it fails on the same path
    with pytest.raises(CacheError, match=f"^cannot read cache segment {re.escape(str(segment))}: "):
        cache.load(key)
    with pytest.raises(CacheError, match=f"^cannot read cache segment {re.escape(str(segment))}: "):
        cache.store(key, "search\nsearch=prostate cancer", {"search": []})
    assert list((tmp_path / "cache").iterdir()) == [segment] and not any(segment.iterdir())


# Two keys that share their first 16 hex digits, the 64-bit prefix a cache indexes.
TWINS = ["0123456789abcdef" + "0" * 48, "0123456789abcdef" + "f" * 48]
MODEL_KEYS = [QueryCache.key_for(query) for query in ("a", "b")] + TWINS


@pytest.mark.parametrize("policy", list(CachePolicy))
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("store"), st.integers(0, 1), st.sampled_from(MODEL_KEYS), st.integers(0, 2)),
            st.tuples(st.just("load"), st.integers(0, 1), st.sampled_from(MODEL_KEYS)),
            st.tuples(st.just("fresh"), st.integers(0, 1)),
        ),
        max_size=30,
    ),
    compact_after=st.sampled_from([remote.COMPACT_AFTER, 1]),
)
def test_cache_answers_like_a_dict_of_what_it_has_seen(policy, ops, compact_after):
    # A cache sees every entry stored before its first load or store, and its
    # own stores after that; a key stored by several caches may answer with
    # any of their responses, its own latest one first. Merging the sealed
    # segments of caches that ended changes none of that.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(remote, "COMPACT_AFTER", compact_after):
        root = Path(tmp) / "cache"
        caches = [QueryCache(root, policy), QueryCache(root, policy)]
        stored: dict[str, set[int]] = {}
        views: list[tuple[dict, dict] | None] = [None, None]  # (seen at first use, own stores)
        for op, i, *args in ops:
            if op == "fresh":
                caches[i], views[i] = QueryCache(root, policy), None
                continue
            if views[i] is None:
                views[i] = ({key: set(values) for key, values in stored.items()}, {})
            seen, own = views[i]
            key = args[0]
            if op == "store":
                caches[i].store(key, f"query {key}", {"n": args[1]})
                own[key] = args[1]
                stored.setdefault(key, set()).add(args[1])
                continue
            entry = caches[i].load(key)
            if key in own:
                assert entry["response"] == {"n": own[key]}
            elif key in seen:
                assert entry["response"]["n"] in seen[key]
            else:
                assert entry is None
            if entry is not None:
                assert (entry["key"], entry["query"]) == (key, f"query {key}")


def test_keys_sharing_a_prefix_stay_apart(tmp_path):
    writer = cache_in(tmp_path)
    writer.store(TWINS[0], "first", {"n": 0})
    assert writer.load(TWINS[1]) is None
    writer.store(TWINS[1], "second", {"n": 1})
    for cache in (writer, cache_in(tmp_path, CachePolicy.READ_ONLY)):  # own writes, then a fresh read
        assert [cache.load(key)["response"] for key in TWINS] == [{"n": 0}, {"n": 1}]


def _entry_line(key: str, n: int) -> bytes:
    return json.dumps({"key": key, "query": "q", "fetched_at": "t", "response": {"n": n}}).encode() + b"\n"


@pytest.mark.parametrize(
    "layout",
    [
        {"a.jsonl": ["corrupt", "valid"], "b.jsonl": ["other"]},
        {"a.jsonl": ["corrupt"], "b.jsonl": ["valid"]},
        {"a.jsonl": ["valid"], "b.jsonl": ["corrupt"]},
    ],
    ids=["corrupt-then-valid", "corrupt-segment-first", "valid-segment-first"],
)
@pytest.mark.parametrize("policy", list(CachePolicy))
def test_a_valid_line_anywhere_is_a_hit(tmp_path, layout, policy):
    key = QueryCache.key_for("q")
    lines = {"valid": _entry_line(key, 1), "corrupt": _entry_line(key, 2)[:90] + b"\n",
             "other": _entry_line(TWINS[0], 3)}
    (tmp_path / "cache").mkdir()
    for name, kinds in layout.items():
        (tmp_path / "cache" / name).write_bytes(b"".join(lines[kind] for kind in kinds))
    assert cache_in(tmp_path, policy).load(key)["response"] == {"n": 1}


def test_a_final_line_without_its_newline_is_skipped(tmp_path):
    whole, partial = QueryCache.key_for("whole"), QueryCache.key_for("partial")
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "a.jsonl").write_bytes(_entry_line(whole, 1) + _entry_line(partial, 2)[:-1])
    replay = cache_in(tmp_path, CachePolicy.READ_ONLY)
    assert replay.load(whole)["response"] == {"n": 1}
    assert replay.load(partial) is None  # not written yet, so a miss and not corrupt


@pytest.mark.parametrize("fault", ["raises", "short"])
def test_a_failed_write_ends_writing_to_that_segment(tmp_path, monkeypatch, fault):
    cache = cache_in(tmp_path)
    cache.store(QueryCache.key_for("before"), "before", {"n": 0})
    (segment,) = (tmp_path / "cache").iterdir()
    before = segment.read_bytes()
    real_write = os.write

    def failing_write(fd, data):
        if fault == "short":
            return real_write(fd, data[:10])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patched:
        patched.setattr(os, "write", failing_write)
        with pytest.raises(CacheError, match=f"^cannot write cache segment {re.escape(str(segment))}: "):
            cache.store(QueryCache.key_for("during"), "during", {"n": 1})
    written = segment.read_bytes()
    assert len(written) == len(before) + (10 if fault == "short" else 0)
    with pytest.raises(CacheError, match=f"^cannot write cache segment {re.escape(str(segment))}: "):
        cache.store(QueryCache.key_for("after"), "after", {"n": 2})
    assert segment.read_bytes() == written
    replay = cache_in(tmp_path, CachePolicy.READ_ONLY)
    assert replay.load(QueryCache.key_for("before"))["response"] == {"n": 0}
    assert replay.load(QueryCache.key_for("during")) is None


def test_a_cache_seals_its_segment_when_it_ends_unless_a_write_failed(tmp_path, monkeypatch):
    cache = cache_in(tmp_path)
    cache.store(QueryCache.key_for("q"), "q", {"n": 0})
    (segment,) = (tmp_path / "cache").iterdir()
    del cache
    gc.collect()
    assert segment.read_bytes().splitlines()[-1] == b'{"sealed": true}'
    failing = cache_in(tmp_path)
    failing.store(QueryCache.key_for("r"), "r", {"n": 1})
    (own,) = set((tmp_path / "cache").iterdir()) - {segment}
    monkeypatch.setattr(os, "write", lambda fd, data: 0)  # a short write
    with pytest.raises(CacheError):
        failing.store(QueryCache.key_for("s"), "s", {"n": 2})
    before = own.read_bytes()
    del failing
    gc.collect()
    assert own.read_bytes() == before  # nothing more is written, not even the seal


SEAL = b'{"sealed": true}\n'


def _sealed_segments(root: Path, keys: list[str], count: int) -> dict[str, bytes]:
    """Write ``count`` sealed segments ``sNN.jsonl``; key ``i`` goes to
    segment ``i % 9`` with response ``{"n": i}``, so with fewer than nine
    segments some keys are not written. Returns their contents."""
    root.mkdir(exist_ok=True)
    contents = {}
    for n in range(count):
        lines = [_entry_line(key, i) for i, key in enumerate(keys) if i % 9 == n]
        contents[f"s{n:02}.jsonl"] = b"".join(lines) + SEAL
        (root / f"s{n:02}.jsonl").write_bytes(contents[f"s{n:02}.jsonl"])
    return contents


def test_a_read_write_cache_merges_sealed_segments_into_one_indexed_segment(tmp_path):
    assert remote.COMPACT_AFTER == 8  # eight sealed segments and a live one are one too many
    root = tmp_path / "cache"
    keys = [QueryCache.key_for(str(n)) for n in range(27)]
    sealed = _sealed_segments(root, keys, 8)
    live = QueryCache.key_for("live")
    (root / "z-live.jsonl").write_bytes(_entry_line(live, -1))  # its writer has not sealed it
    listing = sorted(root.iterdir())
    offline = cache_in(tmp_path, CachePolicy.READ_ONLY)
    assert offline.load(keys[0])["response"] == {"n": 0}
    assert sorted(root.iterdir()) == listing  # a read_only cache merges nothing
    online = cache_in(tmp_path)
    hits = {key: online.load(key) for key in [*keys, live]}
    names = sorted(path.name for path in root.iterdir())
    assert "z-live.jsonl" in names and not any(name.startswith("s") for name in names)
    (merged,) = [name for name in names if name.endswith(".idx")]
    assert names == sorted([merged, merged.replace(".idx", ".jsonl"), "z-live.jsonl"])
    merged_bytes = (root / merged.replace(".idx", ".jsonl")).read_bytes()
    assert merged_bytes == b"".join(data[: -len(SEAL)] for data in sealed.values()) + SEAL
    for i, key in enumerate(keys):
        assert (hits[key] or {}).get("response") == ({"n": i} if i % 9 < 8 else None)
    assert hits[live]["response"] == {"n": -1}
    # the reader that opened the removed segments still reads them
    assert offline.load(keys[0])["response"] == {"n": 0}


def test_a_merged_index_finds_prefixes_that_span_its_blocks(tmp_path):
    # 300 keys that share one 64-bit prefix cross a block boundary of the .idx file
    root = tmp_path / "cache"
    shared = [TWINS[0][:16] + f"{n:048x}" for n in range(300)]
    others = [QueryCache.key_for(str(n)) for n in range(600)]
    everything = shared + others
    _sealed_segments(root, everything, 9)
    cache = cache_in(tmp_path)
    assert [cache.load(key)["response"] for key in everything] == [{"n": i} for i in range(len(everything))]
    assert len(list(root.glob("*.jsonl"))) == 1
    assert cache.load(TWINS[0][:16] + "f" * 48) is None
    fresh = cache_in(tmp_path, CachePolicy.READ_ONLY)  # read through the .idx file
    assert [fresh.load(key)["response"] for key in everything] == [{"n": i} for i in range(len(everything))]


@pytest.mark.parametrize("damage", ["truncated", "other-segment", "missing"])
def test_an_index_that_does_not_fit_its_segment_is_not_used(tmp_path, damage):
    root = tmp_path / "cache"
    keys = [QueryCache.key_for(str(n)) for n in range(40)]
    _sealed_segments(root, keys, 9)
    cache_in(tmp_path).load(keys[0])
    (index,) = root.glob("*.idx")
    if damage == "truncated":
        index.write_bytes(index.read_bytes()[:-8])
    elif damage == "other-segment":  # the segment's size in the header does not match
        index.write_bytes((1).to_bytes(8, "little") + index.read_bytes()[8:])
    else:
        index.unlink()
    replay = cache_in(tmp_path, CachePolicy.READ_ONLY)
    assert [replay.load(key)["response"] for key in keys] == [{"n": i} for i in range(40)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**64 - 1]), max_size=300))
def test_sorted_by_prefix_sorts_stably(prefixes):
    from array import array

    order = list(range(len(prefixes)))
    got = remote._sorted_by_prefix(array("Q", prefixes), array("Q", order))
    expected = sorted(zip(prefixes, order), key=lambda row: row[0])
    assert list(zip(*got)) == expected


def test_store_never_appends_to_a_segment_it_did_not_create(tmp_path, monkeypatch):
    taken = tmp_path / "cache" / f"{'00' * 8}.jsonl"
    taken.parent.mkdir()
    taken.write_bytes(b"")
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))  # the next segment name is the taken one
    with pytest.raises(CacheError, match=f"^cannot write cache segment {re.escape(str(taken))}: "):
        cache_in(tmp_path).store(QueryCache.key_for("q"), "q", {"n": 0})
    assert taken.read_bytes() == b""


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
    assert not cached_lines(tmp_path / "cache")  # nothing cached
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


def test_star_neighbors_collapse_a_repeated_link():
    links = [
        (Node(id="Q412415", name="nilutamide"), "drug or therapy used for treatment", "out"),
        (Node(id="Q14865813", name="FSHR"), "genetic association", "in"),
        (Node(id="Q412415", name="nilutamide"), "drug or therapy used for treatment", "out"),
    ]
    bundle = star_neighbors("Q181257", links, ExtractionLimits(), seed=0)
    assert bundle.candidate_count == 2
    # the duplicate link collapsed
    assert bundle.payload[0].labels == (("drug or therapy used for treatment", "out"),)
    assert {link.node.name for link in bundle.payload} == {"nilutamide", "FSHR"}


# Small alphabets, so that ids, names and labels repeat: a neighbor under two
# names, a row back to the center (neighbors and centers share their ids), one
# label in both directions and exact duplicate rows all come up.
_IDS = ("Q1", "Q2", "Q3", "Q4")
_nodes = st.builds(
    Node, st.sampled_from(_IDS), st.sampled_from(("a", "b", "A  b")), st.sampled_from(("unknown", "gene"))
)
_rows = st.tuples(
    _nodes,
    st.sampled_from(("P1", "P2", "treats")),
    st.sampled_from(("out", "in")),
)
_EXAMPLE_ROWS = [
    (Node("Q2", "a"), "P1", "out"),
    (Node("Q2", "b"), "P2", "out"),  # the same neighbor under another name
    (Node("Q1", "other"), "P1", "in"),  # back to the center, under another name
    (Node("Q3", "a"), "P1", "out"),
    (Node("Q3", "a"), "P1", "in"),  # one label in both directions
    (Node("Q3", "a"), "P1", "out"),  # an exact duplicate
]


@settings(deadline=None)
@given(
    x=st.sampled_from(_IDS),
    name=st.sampled_from(("center", "a")),
    links=st.lists(_rows, max_size=12),
    max_neighbors=st.integers(0, 6),
    seed=st.integers(0, 2**32),
)
@example(x="Q1", name="center", links=[], max_neighbors=0, seed=1)
@example(x="Q1", name="center", links=_EXAMPLE_ROWS, max_neighbors=0, seed=1)
@example(x="Q1", name="center", links=_EXAMPLE_ROWS, max_neighbors=1, seed=1)
@example(x="Q1", name="center", links=_EXAMPLE_ROWS, max_neighbors=5, seed=1)
def test_remote_nn_matches_the_star_graph_it_replaced(x, name, links, max_neighbors, seed):
    # Reading the fetched rows gives the bundle, candidate count included, and
    # the center node that the star graph frozen from them gave.
    limits = ExtractionLimits(max_neighbors=max_neighbors)
    center, expected = frozen_star_neighbors(Node(x, name), links, limits, seed)
    assert star_neighbors(x, links, limits, seed) == expected
    config = ExperimentConfig.from_dict({
        "dataset": "data.jsonl",
        "kg": {"kind": "remote", "cache_dir": "cache"},
        "out_dir": "out",
        "limits": {"max_neighbors": max_neighbors},
        "selection_seed": seed,
    })
    source = _RemoteSource(RemoteEndpoint(), QueryCache(root_dir=Path("cache"), policy=CachePolicy.READ_ONLY))
    fetched = {"fetch_entity_label": lambda *_: name, "fetch_neighbors_remote": lambda *_: links}
    with pytest.MonkeyPatch.context() as patch:
        for fn_name, fetch in fetched.items():
            patch.setattr(pipeline, fn_name, fetch)
        assert source.extract(PairLinkage("i", x, x), config) == [("e1", expected), ("e2", expected)]
    assert source.node(x) == center


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
    (neighbor,) = star_neighbors("Q181257", links, ExtractionLimits(), seed=0).payload
    assert neighbor.labels == (("P2176", "out"),)


# Deeper than the JSON decoder can follow.
NESTED = b"[" * 100_000


@pytest.mark.parametrize("policy", list(CachePolicy))
def test_nested_cache_entry_is_corrupt(wiki_server, tmp_path, policy):
    seed_prostate(wiki_server)
    cache_dir = tmp_path / "cache"
    endpoint = endpoint_for(wiki_server)
    first = resolve_entity(endpoint, QueryCache(root_dir=cache_dir), "prostate cancer")
    (segment,) = cache_dir.iterdir()
    key = json.loads(segment.read_bytes().splitlines()[0])["key"]  # the entry, then the seal
    segment.write_bytes(b'{"key": "%s", "response": ' % key.encode() + NESTED + b"\n")
    cache = QueryCache(root_dir=cache_dir, policy=policy)
    if policy is CachePolicy.READ_ONLY:
        with pytest.raises(NetworkError, match="corrupt cache entry"):
            resolve_entity(endpoint, cache, "prostate cancer")
    else:  # refetched into the new cache's own segment
        assert resolve_entity(endpoint, cache, "prostate cancer") == first
        (refetched,) = set(cache_dir.iterdir()) - {segment}
        assert json.loads(refetched.read_bytes())["response"]["search"][0]["id"] == "Q181257"


def test_nested_sparql_answer_is_malformed_and_not_cached(wiki_server, tmp_path):
    wiki_server.script = [{"status": 200, "raw": NESTED}]
    with pytest.raises(MalformedResponseError, match="is not JSON"):
        fetch_entity_label(endpoint_for(wiki_server), cache_in(tmp_path), "Q181257")
    assert not cached_lines(tmp_path / "cache")


@pytest.mark.parametrize("entity_id", ["Q5\n", "Q٣", "q5", "Q", "wd:Q5"])
@pytest.mark.parametrize("fetch", [fetch_entity_label, fetch_neighbors_remote])
def test_invalid_entity_id_fails_before_cache_or_request(wiki_server, tmp_path, fetch, entity_id):
    for policy in CachePolicy:
        with pytest.raises(UnknownEntityError, match="is not a valid entity id"):
            fetch(endpoint_for(wiki_server), cache_in(tmp_path, policy), entity_id)
    assert wiki_server.request_count == 0
    assert not (tmp_path / "cache").exists()

"""The keep-alive transport and its retry loop, against local stub servers
that count the connections they accept."""

from __future__ import annotations

import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from kgprompt import http
from kgprompt.backend import HttpEndpoint, InferenceRequest, predict_http, predict_http_batch
from kgprompt.errors import NetworkError, RateLimitedError
from kgprompt.prompts import Architecture, LabelMapping
from kgprompt.remote import QueryCache, RemoteEndpoint, resolve_entity

from stubs import StubPredictServer, StubWikiServer, score_response

IDENTITY = LabelMapping.identity()
SCORES = {"status": 200, "body": score_response({"causal": 0.9, "non-causal": 0.1})}


def request(i: int = 0) -> InferenceRequest:
    return InferenceRequest(
        prompt=f"prompt {i} [MASK].",
        mask_token="[MASK]",
        candidates=IDENTITY.candidates(),
        architecture=Architecture.MLM,
        request_id=f"r{i}",
    )


def endpoint_for(server, **kw) -> HttpEndpoint:
    return HttpEndpoint(base_url=server.base_url, backoff=0.01, timeout=5.0, **kw)


@pytest.fixture
def keep_alive_server():
    server = StubPredictServer(keep_alive=True).start()
    server.default = SCORES
    yield server
    http.close_idle()
    server.stop()


def test_sequential_requests_share_one_connection(keep_alive_server):
    endpoint = endpoint_for(keep_alive_server)
    records = [predict_http(endpoint, request(i), IDENTITY) for i in range(6)]
    assert [r.instance_id for r in records] == [f"r{i}" for i in range(6)]
    assert len(keep_alive_server.requests) == 6
    assert keep_alive_server.connections == 1


def test_remote_fetches_share_one_connection(tmp_path, remote_timing):
    remote_timing(timeout=5.0, max_retries=0)
    server = StubWikiServer(keep_alive=True).start()
    try:
        endpoint = RemoteEndpoint(sparql_url=server.sparql_url, entity_api_url=server.api_url)
        cache = QueryCache(root_dir=tmp_path / "cache")
        for name in ("a", "b", "c", "d"):
            assert resolve_entity(endpoint, cache, name) == []
        assert server.request_count == 4
        assert server.connections == 1
    finally:
        http.close_idle()
        server.stop()


def test_batches_share_at_most_max_in_flight_connections(keep_alive_server):
    endpoint = endpoint_for(keep_alive_server, max_in_flight=4)
    for call in range(3):  # each call runs its own thread pool
        reqs = [request(10 * call + i) for i in range(8)]
        records = predict_http_batch(endpoint, reqs, IDENTITY)
        assert [r.instance_id for r in records] == [r.request_id for r in reqs]
    assert len(keep_alive_server.requests) == 24
    assert 1 <= keep_alive_server.connections <= 4


def test_idle_socket_closed_by_server_is_reopened_and_sent_once(keep_alive_server):
    keep_alive_server.script = [{**SCORES, "fault": "close_after"}]
    endpoint = endpoint_for(keep_alive_server, max_retries=0)
    predict_http(endpoint, request(1), IDENTITY)
    record = predict_http(endpoint, request(2), IDENTITY)  # the pooled socket is dead
    assert record.instance_id == "r2"
    assert [r["request_id"] for r in keep_alive_server.requests] == ["r1", "r2"]
    assert keep_alive_server.connections == 2


def test_stale_socket_is_reopened_only_once(keep_alive_server):
    # The reopened connection is dropped too: that failure is the attempt's.
    keep_alive_server.script = [{**SCORES, "fault": "close_after"}, {"fault": "drop"}]
    endpoint = endpoint_for(keep_alive_server, max_retries=0)
    predict_http(endpoint, request(1), IDENTITY)
    with pytest.raises(NetworkError, match="failed after 1 attempts"):
        predict_http(endpoint, request(2), IDENTITY)
    assert [r["request_id"] for r in keep_alive_server.requests] == ["r1", "r2"]
    assert keep_alive_server.connections == 2


@pytest.mark.parametrize("retries", [0, 2])
def test_dropped_request_costs_one_attempt_and_is_not_resent(keep_alive_server, retries):
    keep_alive_server.script = [{"fault": "drop"}] * 3
    endpoint = endpoint_for(keep_alive_server, max_retries=retries)
    with pytest.raises(NetworkError, match=f"failed after {retries + 1} attempts: RemoteDisconnected"):
        predict_http(endpoint, request(), IDENTITY)
    assert len(keep_alive_server.requests) == retries + 1


def test_dropped_request_is_retried_by_the_loop(keep_alive_server):
    keep_alive_server.script = [{"fault": "drop"}]
    record = predict_http(endpoint_for(keep_alive_server, max_retries=1), request(), IDENTITY)
    assert record.instance_id == "r0"
    assert len(keep_alive_server.requests) == 2


def test_http10_server_gets_a_connection_per_request(predict_server):
    predict_server.default = SCORES
    endpoint = endpoint_for(predict_server)
    for i in range(3):
        assert predict_http(endpoint, request(i), IDENTITY).instance_id == f"r{i}"
    assert predict_server.connections == 3


def test_connection_close_header_is_honoured(keep_alive_server):
    keep_alive_server.default = {**SCORES, "headers": {"Connection": "close"}}
    endpoint = endpoint_for(keep_alive_server, max_retries=0)
    for i in range(3):
        assert predict_http(endpoint, request(i), IDENTITY).instance_id == f"r{i}"
    assert keep_alive_server.connections == 3


@pytest.mark.parametrize(
    "fault, error", [("truncate", "IncompleteRead"), ("bad_status", "BadStatusLine")]
)
def test_truncated_body_or_bad_status_line_is_network_error(keep_alive_server, fault, error):
    keep_alive_server.default = {"fault": fault}
    with pytest.raises(NetworkError, match=f"failed after 2 attempts: {error}"):
        predict_http(endpoint_for(keep_alive_server, max_retries=1), request(), IDENTITY)
    assert len(keep_alive_server.requests) == 2


def test_https_to_a_plain_http_server_is_network_error(predict_server):
    endpoint = HttpEndpoint(base_url=predict_server.base_url.replace("http:", "https:"),
                            max_retries=0, timeout=5.0)
    with pytest.raises(NetworkError, match="SSL"):
        predict_http(endpoint, request(), IDENTITY)


def test_concurrent_senders_never_share_a_connection(keep_alive_server):
    # Each response must reach the thread that sent its request: predict_http
    # checks the echoed request id.
    endpoint = endpoint_for(keep_alive_server)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(predict_http, endpoint, request(i), IDENTITY) for i in range(160)]
            records = [f.result(timeout=30) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert [r.instance_id for r in records] == [f"r{i}" for i in range(160)]
    assert len(keep_alive_server.requests) == 160
    assert keep_alive_server.connections <= 8


def test_transport_module_reads_no_proxy_settings(monkeypatch, keep_alive_server):
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
    record = predict_http(endpoint_for(keep_alive_server, max_retries=0), request(), IDENTITY)
    assert record.instance_id == "r0"



# --- framing that the transport reads itself ---

def _post(server, **kw) -> http.Response:
    return http.post(f"{server.base_url}/predict", json={"request_id": "r0"}, timeout=5.0, **kw)


def _post_once(server) -> http.Response:
    return http.post_retrying(f"{server.base_url}/predict", what="request", transient=frozenset(),
                              retries=0, backoff=0.01, timeout=5.0, json={"request_id": "r0"})


def test_chunked_body_with_extension_and_trailer_keeps_the_connection(keep_alive_server):
    keep_alive_server.script = [{"wire": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                                         b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n"}]
    response = _post(keep_alive_server)
    assert (response.status, response.body) == (200, b"hello world")
    assert response.headers == {"transfer-encoding": "chunked"}
    assert _post(keep_alive_server).status == 200
    assert keep_alive_server.connections == 1


def test_http10_answer_without_length_is_read_to_close_and_not_reused(keep_alive_server):
    keep_alive_server.script = [{"wire": b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nall of it",
                                 "close": True}]
    response = _post(keep_alive_server)
    assert (response.status, response.body) == (200, b"all of it")
    assert _post(keep_alive_server).status == 200
    assert keep_alive_server.connections == 2


def test_100_continue_is_skipped(keep_alive_server):
    keep_alive_server.script = [{"wire": b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\n"
                                         b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok"}]
    response = _post(keep_alive_server)
    assert (response.status, response.headers, response.body) == (201, {"content-length": "2"}, b"ok")
    assert _post(keep_alive_server).status == 200
    assert keep_alive_server.connections == 1


@pytest.mark.parametrize(
    "head, error",
    [
        (b"X-Long: " + b"a" * 65_536 + b"\r\nContent-Length: 2\r\n",
         "HTTPException('header line longer than 65536 bytes')"),
        (b"".join(b"X-%d: v\r\n" % i for i in range(100)) + b"Content-Length: 2\r\n",
         "HTTPException('more than 100 header lines')"),
        (b"Content-Length: -2\r\n", "HTTPException(\"bad Content-Length '-2'\")"),
        (b"Content-Length: 2, 2\r\n", "HTTPException(\"bad Content-Length '2, 2'\")"),
    ],
    ids=["line-over-64k", "101-header-lines", "negative-length", "listed-length"],
)
def test_oversized_or_bad_header_costs_one_attempt_and_closes(keep_alive_server, head, error):
    keep_alive_server.script = [{"wire": b"HTTP/1.1 200 OK\r\n" + head + b"\r\n{}"}]
    with pytest.raises(NetworkError, match=f"failed after 1 attempts: {re.escape(error)}"):
        _post_once(keep_alive_server)
    assert _post_once(keep_alive_server).status == 200
    assert len(keep_alive_server.requests) == 2
    assert keep_alive_server.connections == 2


def test_100_header_lines_are_read(keep_alive_server):
    head = b"".join(b"X-%d: v\r\n" % i for i in range(99)) + b"Content-Length: 2\r\n"
    keep_alive_server.script = [{"wire": b"HTTP/1.1 200 OK\r\n" + head + b"\r\n{}"}]
    response = _post(keep_alive_server)
    assert (len(response.headers), response.body) == (100, b"{}")


def test_429_retry_after_is_read_case_blind_and_the_first_one_wins(tmp_path):
    server = StubWikiServer(keep_alive=True).start()
    server.script = [{"wire": b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 7\r\nRetry-After: 30\r\n"
                              b"Content-Length: 2\r\n\r\n{}"}]
    try:
        endpoint = RemoteEndpoint(sparql_url=server.sparql_url, entity_api_url=server.api_url)
        with pytest.raises(RateLimitedError) as err:
            resolve_entity(endpoint, QueryCache(root_dir=tmp_path / "cache"), "a")
        assert err.value.retry_after == 7.0
    finally:
        http.close_idle()
        server.stop()


def test_https_to_a_plain_keep_alive_server_costs_each_attempt(keep_alive_server):
    endpoint = HttpEndpoint(base_url=keep_alive_server.base_url.replace("http:", "https:"),
                            max_retries=1, backoff=0.01, timeout=5.0)
    with pytest.raises(NetworkError, match="failed after 2 attempts: SSL"):
        predict_http(endpoint, request(), IDENTITY)
    assert keep_alive_server.connections == 2


@pytest.mark.parametrize(
    "path, headers",
    [
        ("/pre dict", {}),
        ("/pre\tdict", {}),
        ("/predict\r\n", {}),
        ("/prédict", {}),
        ("/predict", {"X-A": "a\r\nX-B: b"}),
        ("/predict", {"X-A\n": "a"}),
    ],
    ids=["space", "tab", "crlf", "non-ascii", "crlf-in-value", "lf-in-name"],
)
def test_bad_url_or_header_is_refused_unsent_and_not_retried(keep_alive_server, path, headers):
    with pytest.raises(NetworkError) as err:
        http.post_retrying(keep_alive_server.base_url + path, what="request", transient=frozenset(),
                           retries=2, backoff=0.01, timeout=5.0, json={}, headers=headers)
    assert "attempts" not in str(err.value)
    assert keep_alive_server.connections == 0

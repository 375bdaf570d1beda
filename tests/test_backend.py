from __future__ import annotations

import pytest

from kgprompt.backend import (
    HttpEndpoint,
    InferenceRequest,
    InferenceResponse,
    PredictionRecord,
    predict_http,
    predict_http_batch,
    predict_mock,
    resolve_response,
)
from kgprompt.dataset import CAUSAL, NON_CAUSAL
from kgprompt.errors import NetworkError, ProtocolError, UnmappableOutputError
from kgprompt.prompts import Architecture, LabelMapping

from stubs import score_response, text_response

IDENTITY = LabelMapping.identity()
TRUE_FALSE = LabelMapping.custom("true", "false")


def make_request(prompt="The pair a and b shows a [MASK] relation.", mapping=IDENTITY, rid="r1"):
    return InferenceRequest(
        prompt=prompt,
        mask_token="[MASK]",
        candidates=mapping.candidates(),
        architecture=Architecture.MLM,
        request_id=rid,
    )


# --- response resolution ---

def test_scores_argmax_and_unmap():
    req = make_request(mapping=TRUE_FALSE)
    response = InferenceResponse(request_id="r1", scores={"true": 0.9, "false": 0.1})
    predicted, score = resolve_response(response, req, TRUE_FALSE)
    assert predicted == CAUSAL
    assert score == 0.9


def test_scores_tie_breaks_on_candidate_order():
    req = make_request(mapping=TRUE_FALSE)
    response = InferenceResponse(request_id="r1", scores={"true": 0.5, "false": 0.5})
    predicted, _ = resolve_response(response, req, TRUE_FALSE)
    assert predicted == CAUSAL  # causal word listed first


def test_scores_scaling_leaves_argmax_unchanged():
    req = make_request(mapping=TRUE_FALSE)
    base = {"true": 0.2, "false": 0.7}
    expected, _ = resolve_response(InferenceResponse("r1", scores=base), req, TRUE_FALSE)
    for factor in (0.001, 3.0, 1e6):
        scaled = {w: v * factor for w, v in base.items()}
        got, _ = resolve_response(InferenceResponse("r1", scores=scaled), req, TRUE_FALSE)
        assert got == expected


def test_scores_must_cover_candidates():
    req = make_request(mapping=TRUE_FALSE)
    response = InferenceResponse(request_id="r1", scores={"true": 0.9})
    with pytest.raises(ProtocolError):
        resolve_response(response, req, TRUE_FALSE)


def test_generated_text_substring():
    req = make_request(mapping=TRUE_FALSE)
    response = InferenceResponse(request_id="r1", generated_text="false.")
    predicted, score = resolve_response(response, req, TRUE_FALSE)
    assert predicted == NON_CAUSAL
    assert score is None


def test_generated_text_earliest_occurrence_wins():
    # identity words: "causal" is a substring of "non-causal"; the earlier
    # occurrence must win or every "non-causal" answer would read as causal
    req = make_request(mapping=IDENTITY)
    response = InferenceResponse(request_id="r1", generated_text="non-causal")
    predicted, _ = resolve_response(response, req, IDENTITY)
    assert predicted == NON_CAUSAL
    response = InferenceResponse(request_id="r1", generated_text="clearly causal!")
    predicted, _ = resolve_response(response, req, IDENTITY)
    assert predicted == CAUSAL


def test_generated_text_case_insensitive():
    req = make_request(mapping=TRUE_FALSE)
    response = InferenceResponse(request_id="r1", generated_text="TRUE, definitely")
    predicted, _ = resolve_response(response, req, TRUE_FALSE)
    assert predicted == CAUSAL


def test_generated_text_unmappable():
    req = make_request(mapping=TRUE_FALSE)
    response = InferenceResponse(request_id="r1", generated_text="maybe")
    with pytest.raises(UnmappableOutputError):
        resolve_response(response, req, TRUE_FALSE)


def test_response_shape_validation():
    with pytest.raises(ValueError):
        InferenceResponse(request_id="r1")
    with pytest.raises(ValueError):
        InferenceResponse(request_id="r1", scores={"a": 1.0}, generated_text="x")
    with pytest.raises(ValueError):
        InferenceResponse(request_id="r1", scores={"a": float("nan")})


def test_http_retry_schedule_is_checked_without_overflow():
    # the last wait, backoff * 2**(max_retries - 1), must fit the platform's limit
    assert HttpEndpoint(base_url="http://127.0.0.1:9", max_retries=10**6, backoff=0).max_retries == 10**6
    assert HttpEndpoint(base_url="http://127.0.0.1:9", max_retries=0, backoff=1e300).backoff == 1e300
    with pytest.raises(ValueError, match=r"backoff \* 2\*\*\(max_retries - 1\) must be at most"):
        HttpEndpoint(base_url="http://127.0.0.1:9", max_retries=10**6, backoff=0.005)


def test_request_validation():
    with pytest.raises(ValueError):
        InferenceRequest("p", "[MASK]", (), Architecture.MLM, "r1")
    with pytest.raises(ValueError):
        InferenceRequest("p", "[MASK]", ("a", "a"), Architecture.MLM, "r1")


# --- mock backend ---

def test_mock_deterministic():
    req = make_request()
    a = predict_mock(req, IDENTITY, seed=7)
    b = predict_mock(req, IDENTITY, seed=7)
    assert a == b
    assert a.backend == "mock:7"


def test_mock_seed_flip_fixture():
    # frozen after scanning seeds: this prompt flips between seeds 0 and 1
    req = make_request(prompt="The pair FGF6 and prostate cancer shows a [MASK] relation.")
    assert predict_mock(req, IDENTITY, seed=0).predicted == NON_CAUSAL
    assert predict_mock(req, IDENTITY, seed=1).predicted == CAUSAL


def test_mock_empty_candidates_rejected():
    with pytest.raises(ValueError):
        InferenceRequest("p", "[MASK]", tuple(), Architecture.MLM, "r1")


# --- HTTP backend against the stub server ---

def endpoint_for(server, **kw):
    return HttpEndpoint(base_url=server.base_url, backoff=0.01, **kw)


def test_http_score_mode(predict_server):
    predict_server.default = {"status": 200, "body": score_response({"causal": 0.8, "non-causal": 0.2})}
    record = predict_http(endpoint_for(predict_server), make_request(), IDENTITY)
    assert record == PredictionRecord("r1", CAUSAL, score=0.8, backend=predict_server.base_url)


def test_http_generated_text_mode(predict_server):
    predict_server.default = {"status": 200, "body": text_response("I think false")}
    record = predict_http(endpoint_for(predict_server), make_request(mapping=TRUE_FALSE), TRUE_FALSE)
    assert record.predicted == NON_CAUSAL
    assert record.score is None


def test_http_unmappable_output(predict_server):
    predict_server.default = {"status": 200, "body": text_response("shrug")}
    with pytest.raises(UnmappableOutputError):
        predict_http(endpoint_for(predict_server), make_request(mapping=TRUE_FALSE), TRUE_FALSE)


def test_http_retries_transient_then_succeeds(predict_server):
    predict_server.script = [
        {"status": 503, "body": {"code": 503, "message": "busy"}},
        {"status": 500, "body": {"code": 500, "message": "boom"}},
    ]
    predict_server.default = {"status": 200, "body": score_response({"causal": 0.1, "non-causal": 0.6})}
    record = predict_http(endpoint_for(predict_server, max_retries=3), make_request(), IDENTITY)
    assert record.predicted == NON_CAUSAL
    assert len(predict_server.requests) == 3


def test_http_retries_exhausted(predict_server):
    predict_server.default = {"status": 503, "body": {"code": 503, "message": "busy"}}
    with pytest.raises(NetworkError):
        predict_http(endpoint_for(predict_server, max_retries=1), make_request(), IDENTITY)
    assert len(predict_server.requests) == 2


def test_http_connection_refused_is_network_error():
    endpoint = HttpEndpoint(base_url="http://127.0.0.1:9", max_retries=0, backoff=0.01, timeout=0.5)
    with pytest.raises(NetworkError):
        predict_http(endpoint, make_request(), IDENTITY)


def test_http_error_body_is_protocol_error(predict_server):
    predict_server.default = {"status": 400, "body": {"code": 400, "message": "bad request"}}
    with pytest.raises(ProtocolError, match="bad request"):
        predict_http(endpoint_for(predict_server), make_request(), IDENTITY)


@pytest.mark.parametrize(
    "status, body, message",
    [
        (200, ["causal"], "response body must be a JSON object"),
        (200, {"code": 7, "message": "model not loaded"}, "backend error 7: model not loaded"),
        (404, {"code": 404}, "unexpected HTTP 404 from "),
    ],
    ids=["body-not-object", "error-object-with-200", "error-without-message"],
)
def test_http_answer_that_is_no_response_is_protocol_error(predict_server, status, body, message):
    predict_server.default = {"status": status, "body": body}
    with pytest.raises(ProtocolError, match=f"^{message}"):
        predict_http(endpoint_for(predict_server), make_request(), IDENTITY)
    assert len(predict_server.requests) == 1  # not retried


def test_http_request_id_mismatch(predict_server):
    predict_server.default = {"status": 200, "body": lambda req: {"request_id": "other", "scores": {"causal": 1.0, "non-causal": 0.0}}}
    with pytest.raises(ProtocolError, match="request_id"):
        predict_http(endpoint_for(predict_server), make_request(), IDENTITY)


def test_http_batch_matches_sequential(predict_server):
    predict_server.default = {
        "status": 200,
        "body": lambda req: {
            "request_id": req["request_id"],
            "scores": {"causal": float(len(req["prompt"]) % 3), "non-causal": 1.0},
        },
    }
    requests_list = [make_request(prompt=f"prompt {i} [MASK].", rid=f"r{i}") for i in range(6)]
    sequential = [predict_http(endpoint_for(predict_server), r, IDENTITY) for r in requests_list]
    parallel = predict_http_batch(endpoint_for(predict_server, max_in_flight=4), requests_list, IDENTITY)
    assert parallel == sequential


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
@pytest.mark.parametrize("status, error", [(400, ProtocolError), (503, NetworkError)])
def test_http_batch_sends_nothing_after_a_failure(predict_server, max_in_flight, status, error):
    k = 5  # the request that fails, for good
    ok = {"status": 200, "body": score_response({"causal": 1.0, "non-causal": 0.0})}
    bad = {"status": status, "body": {"code": status, "message": "no"}}
    predict_server.default = lambda req: bad if req["request_id"] == f"r{k}" else ok
    reqs = [make_request(rid=f"r{i}") for i in range(20)]
    endpoint = endpoint_for(predict_server, max_in_flight=max_in_flight, max_retries=2)
    with pytest.raises(error):
        predict_http_batch(endpoint, reqs, IDENTITY)
    sent = [r["request_id"] for r in predict_server.requests]
    assert sent.count(f"r{k}") == (3 if status == 503 else 1)
    assert len(set(sent)) <= k + max_in_flight
    if max_in_flight == 1:
        assert sent == [f"r{i}" for i in range(k)] + [f"r{k}"] * sent.count(f"r{k}")


def test_wire_request_shape(predict_server):
    predict_server.default = {"status": 200, "body": score_response({"causal": 1.0, "non-causal": 0.0})}
    predict_http(endpoint_for(predict_server), make_request(), IDENTITY)
    (sent,) = predict_server.requests
    assert list(sent) == ["prompt", "mask_token", "candidates", "architecture", "request_id"]
    assert sent["architecture"] == "MLM"
    assert sent["candidates"] == ["causal", "non-causal"]


def test_http_nested_answer_is_protocol_error(predict_server):
    predict_server.default = {"status": 200, "raw": b"[" * 100_000}
    with pytest.raises(ProtocolError, match="response is not valid JSON"):
        predict_http(endpoint_for(predict_server, max_retries=0), make_request(), IDENTITY)


def test_http_error_page_that_is_not_json_names_its_status(predict_server):
    predict_server.default = {"status": 404, "raw": b"<html>Not Found</html>"}
    endpoint = endpoint_for(predict_server, max_retries=2)
    with pytest.raises(ProtocolError) as raised:
        predict_http(endpoint, make_request(), IDENTITY)
    assert str(raised.value) == f"unexpected HTTP 404 from {endpoint.base_url}/predict"
    assert len(predict_server.requests) == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("scores", [["causal", 1.0]], "scores is not an object"),
        ("scores", "causal", "scores is not an object"),
        ("generated_text", 5, "generated_text is not a string"),
        ("generated_text", ["causal"], "generated_text is not a string"),
        ("scores", {"causal": True, "non-causal": 0.5}, "score for 'causal' is not a finite number"),
        ("scores", {"causal": 10**400, "non-causal": 0.5}, "int too large to convert to float"),
    ],
)
def test_http_answer_of_the_wrong_shape_is_protocol_error(predict_server, field, value, message):
    predict_server.default = {"status": 200, "body": lambda req: {"request_id": req["request_id"], field: value}}
    reqs = [make_request(rid=f"r{i}") for i in range(3)]
    with pytest.raises(ProtocolError, match=message):
        predict_http_batch(endpoint_for(predict_server, max_retries=0), reqs, IDENTITY)

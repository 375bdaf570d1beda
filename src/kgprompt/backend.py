"""Inference backends: a small JSON-over-HTTP protocol and a local mock.

The HTTP protocol is one POST to ``/predict`` per request; the response
carries either a score per candidate label word or a generated text,
never both. The mock backend hashes (seed, prompt) into a label so the
whole pipeline and its metrics can be exercised offline and
deterministically.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import TEXT_ERRORS, write_jsonl
from .dataset import LABELS
from .errors import ProtocolError, UnmappableOutputError, check_field_types, require_http_url
from .prompts import Architecture, LabelMapping, PromptInstance, unmap_label

_TRANSIENT_STATUSES = frozenset({429, 500, 502, 503, 504})
# The longest timeout or retry wait: time.sleep fails once the monotonic clock
# plus the wait passes threading.TIMEOUT_MAX, so half of it leaves the clock room.
_WAIT_LIMIT = threading.TIMEOUT_MAX / 2


@dataclass(frozen=True)
class HttpEndpoint:
    base_url: str
    timeout: float = 10.0
    max_retries: int = 3
    backoff: float = 0.5
    max_in_flight: int = 1
    kind: str = field(default="http", init=False)

    def __post_init__(self) -> None:
        check_field_types(self)
        require_http_url(self.base_url, "base_url")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        if self.timeout > _WAIT_LIMIT:
            raise ValueError(f"timeout must be at most {_WAIT_LIMIT:.0f} seconds")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.backoff >= 0:
            raise ValueError("backoff must be >= 0")
        # The last retry waits backoff * 2**(max_retries - 1); compared as
        # backoff against a scaled-down limit, so no float overflows.
        if self.max_retries and self.backoff > math.ldexp(_WAIT_LIMIT, 1 - self.max_retries):
            raise ValueError(f"backoff * 2**(max_retries - 1) must be at most {_WAIT_LIMIT:.0f} seconds")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class InferenceRequest:
    prompt: str
    mask_token: str
    candidates: tuple[str, ...]
    architecture: Architecture
    request_id: str

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("candidates must be non-empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be distinct")
        if not self.request_id:
            raise ValueError("request_id must be non-empty")


@dataclass(frozen=True)
class InferenceResponse:
    request_id: str
    scores: dict[str, float] | None = None
    generated_text: str | None = None

    def __post_init__(self) -> None:
        if (self.scores is None) == (self.generated_text is None):
            raise ValueError("exactly one of scores/generated_text must be present")
        if self.generated_text is not None and not isinstance(self.generated_text, str):
            raise ValueError("generated_text is not a string")
        if self.scores is not None:
            if not isinstance(self.scores, dict):
                raise ValueError("scores is not an object")
            for word, value in self.scores.items():
                if type(value) not in (int, float) or not math.isfinite(value):  # a bool is not a number
                    raise ValueError(f"score for {word!r} is not a finite number")


@dataclass(frozen=True)
class PredictionRecord:
    instance_id: str
    predicted: str
    score: float | None = None
    backend: str = ""

    def __post_init__(self) -> None:
        if self.predicted not in LABELS:
            raise ValueError(f"predicted label {self.predicted!r} not in {LABELS}")

    def to_dict(self) -> dict:
        """The predictions JSONL record; ``score`` is left out when there is none."""
        score = {} if self.score is None else {"score": self.score}
        return {"instance_id": self.instance_id, "predicted": self.predicted, **score, "backend": self.backend}


def request_for_prompt(p: PromptInstance, mapping: LabelMapping) -> InferenceRequest:
    return InferenceRequest(
        prompt=p.prompt,
        mask_token=p.mask_token,
        candidates=mapping.candidates(),
        architecture=p.architecture,
        request_id=p.instance_id,
    )


def resolve_response(
    response: InferenceResponse, req: InferenceRequest, mapping: LabelMapping
) -> tuple[str, float | None]:
    """Turn a backend response into (class label, optional score).

    Score mode: argmax over the request's candidates, ties broken by
    candidate order. Text mode: the candidate whose word occurs earliest in
    the generated text (case-insensitive) wins; equal positions fall back
    to candidate order. Earliest-occurrence matters because one label word
    may contain another (e.g. "causal" inside "non-causal").
    """
    if response.scores is not None:
        best_word = None
        best_score = 0.0
        for word in req.candidates:
            if word not in response.scores:
                raise ProtocolError(f"response misses a score for candidate {word!r}")
            value = float(response.scores[word])
            if best_word is None or value > best_score:
                best_word, best_score = word, value
        assert best_word is not None
        return unmap_label(mapping, best_word), best_score

    haystack = (response.generated_text or "").lower()
    matches = []
    for order, word in enumerate(req.candidates):
        position = haystack.find(word.lower())
        if position >= 0:
            matches.append((position, order, word))
    if not matches:
        raise UnmappableOutputError(
            f"generated text {response.generated_text!r} contains no candidate label word"
        )
    _, _, word = min(matches)
    return unmap_label(mapping, word), None


def _parse_response_payload(payload: object, req: InferenceRequest) -> InferenceResponse:
    if not isinstance(payload, dict):
        raise ProtocolError("response body must be a JSON object")
    if "code" in payload and "message" in payload and "scores" not in payload and "generated_text" not in payload:
        raise ProtocolError(f"backend error {payload['code']}: {payload['message']}")
    if payload.get("request_id") != req.request_id:
        raise ProtocolError(
            f"response request_id {payload.get('request_id')!r} does not match {req.request_id!r}"
        )
    try:
        return InferenceResponse(
            request_id=payload["request_id"],
            scores=payload.get("scores"),
            generated_text=payload.get("generated_text"),
        )
    except (ValueError, KeyError, OverflowError) as exc:  # OverflowError: an int score past float's range
        raise ProtocolError(f"malformed response: {exc}") from exc


def predict_http(
    endpoint: HttpEndpoint, req: InferenceRequest, mapping: LabelMapping
) -> PredictionRecord:
    """POST the request to ``<base_url>/predict`` and resolve the label.

    Transient failures (connection errors, incomplete or malformed HTTP
    responses, 5xx, 429) are retried with exponential backoff up to
    ``max_retries`` additional attempts; anything else surfaces immediately
    as a protocol error.
    """
    url = endpoint.base_url.rstrip("/") + "/predict"
    body = {
        "prompt": req.prompt,
        "mask_token": req.mask_token,
        "candidates": list(req.candidates),
        "architecture": req.architecture.value,
        "request_id": req.request_id,
    }
    from .http import post_retrying  # deferred: only the HTTP backend pays for the import

    raw = post_retrying(
        url,
        what="request",
        transient=_TRANSIENT_STATUSES,
        retries=endpoint.max_retries,
        backoff=endpoint.backoff,
        timeout=endpoint.timeout,
        json=body,
    )
    try:
        payload = json.loads(raw.body)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from exc
    if raw.status != 200:
        if isinstance(payload, dict) and "message" in payload:
            raise ProtocolError(
                f"backend error {payload.get('code', raw.status)}: {payload['message']}"
            )
        raise ProtocolError(f"unexpected HTTP {raw.status} from {url}")
    response = _parse_response_payload(payload, req)
    predicted, score = resolve_response(response, req, mapping)
    return PredictionRecord(
        instance_id=req.request_id, predicted=predicted, score=score, backend=endpoint.base_url
    )


def predict_http_batch(
    endpoint: HttpEndpoint, reqs: list[InferenceRequest], mapping: LabelMapping
) -> list[PredictionRecord]:
    """Predict a batch in input order, at most ``max_in_flight`` requests at a time.

    Request i is sent once request i - max_in_flight has succeeded and while
    no request has failed; the first failure in input order is raised once
    the requests already sent have finished.
    """
    # imported here: loading it costs every process that imports the CLI
    from concurrent.futures import Future, ThreadPoolExecutor

    records: list[PredictionRecord] = []
    window: deque[Future] = deque()
    with ThreadPoolExecutor(max_workers=endpoint.max_in_flight) as pool:
        for req in reqs:
            if len(window) == endpoint.max_in_flight:
                records.append(window.popleft().result())
            if any(f.done() and f.exception() for f in window):
                break
            window.append(pool.submit(predict_http, endpoint, req, mapping))
        records += [f.result() for f in window]
    return records


def predict_mock(req: InferenceRequest, mapping: LabelMapping, seed: int) -> PredictionRecord:
    """Deterministic offline prediction from a seeded hash of the prompt."""
    digest = hashlib.sha256(f"{seed}:{req.prompt}".encode("utf-8", TEXT_ERRORS)).digest()
    index = int.from_bytes(digest[:8], "big") % len(req.candidates)
    predicted = unmap_label(mapping, req.candidates[index])
    return PredictionRecord(
        instance_id=req.request_id, predicted=predicted, score=None, backend=f"mock:{seed}"
    )


def write_predictions_jsonl(records: list[PredictionRecord], path: str | Path) -> int:
    return write_jsonl(path, (r.to_dict() for r in records))

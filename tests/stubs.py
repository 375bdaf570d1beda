"""Threaded local HTTP stubs: a SPARQL/entity-API endpoint and a /predict
inference server. Both bind port 0 and expose their URL; tests drive
behavior by seeding canned data or scripted responses.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

_ENTITY = re.compile(r"wd:([QP]\d+)")
# serve_forever checks for shutdown this often; the 0.5 s default made every
# stop() wait up to half a second.
POLL_INTERVAL = 0.01


class _QuietHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output clean
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_form(self) -> dict[str, str]:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length).decode("utf-8")
        return {k: v[0] for k, v in parse_qs(raw).items()}


class _WikiHandler(_QuietHandler):
    def do_POST(self):
        server: StubWikiServer = self.server  # type: ignore[assignment]
        params = self._read_form()
        server.request_count += 1
        if self.path.startswith("/api"):
            self._handle_api(server, params)
        else:
            self._handle_sparql(server, params)

    def _handle_api(self, server: "StubWikiServer", params: dict[str, str]) -> None:
        name = params.get("search", "")
        candidates = server.search.get(name, [])
        self._send_json(
            200,
            {"search": [{"id": c[0], "label": c[1], "description": c[2]} for c in candidates]},
        )

    def _handle_sparql(self, server: "StubWikiServer", params: dict[str, str]) -> None:
        query = params.get("query", "")
        match = _ENTITY.search(query)
        if not match:
            self._send_json(400, {"error": "no entity in query"})
            return
        entity = match.group(1)
        if "rdfs:label" in query:
            label = server.labels.get(entity)
            bindings = [{"label": {"value": label}}] if label else []
        else:
            direction = "out" if f"wd:{entity} ?claim" in query else "in"
            rows = server.neighbors.get((entity, direction), [])
            bindings = [
                {
                    "property": {"value": f"http://www.wikidata.org/entity/{pid}"},
                    "propertyLabel": {"value": plabel},
                    "neighbor": {"value": f"http://www.wikidata.org/entity/{nid}"},
                    "neighborLabel": {"value": nlabel},
                }
                for pid, plabel, nid, nlabel in rows
            ]
        self._send_json(200, {"results": {"bindings": bindings}})


class StubWikiServer(ThreadingHTTPServer):
    """Canned SPARQL + wbsearchentities endpoint.

    neighbors: (entity id, "out"/"in") -> [(property id, property label,
    neighbor id, neighbor label)]; labels: entity id -> label;
    search: name -> [(id, label, description)].
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _WikiHandler)
        self.neighbors: dict[tuple[str, str], list[tuple[str, str, str, str]]] = {}
        self.labels: dict[str, str] = {}
        self.search: dict[str, list[tuple[str, str, str]]] = {}
        self.request_count = 0
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": POLL_INTERVAL}, daemon=True
        )

    def start(self) -> "StubWikiServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()

    @property
    def sparql_url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/sparql"

    @property
    def api_url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/api"


class _PredictHandler(_QuietHandler):
    def do_POST(self):
        server: StubPredictServer = self.server  # type: ignore[assignment]
        if self.path != "/predict":
            self._send_json(404, {"code": 404, "message": "not found"})
            return
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length).decode("utf-8"))
        with server.lock:
            server.requests.append(request)
            plan = server.script.pop(0) if server.script else server.default
        if callable(plan):
            plan = plan(request)
        status = plan.get("status", 200)
        body = plan["body"]
        if callable(body):
            body = body(request)
        self._send_json(status, body)


def score_response(scores: dict[str, float]):
    """Response factory: echo the request id with fixed candidate scores."""

    def build(request: dict) -> dict:
        return {"request_id": request["request_id"], "scores": scores}

    return build


def text_response(text: str):
    def build(request: dict) -> dict:
        return {"request_id": request["request_id"], "generated_text": text}

    return build


class StubPredictServer(ThreadingHTTPServer):
    """Scripted /predict endpoint.

    ``script`` entries are consumed one per request; when empty, ``default``
    answers. Each entry is {"status": int, "body": dict-or-callable} or a
    callable(request) returning such a dict.
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _PredictHandler)
        self.lock = threading.Lock()
        self.script: list = []
        self.default: dict = {"status": 200, "body": score_response({})}
        self.requests: list[dict] = []
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": POLL_INTERVAL}, daemon=True
        )

    def start(self) -> "StubPredictServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

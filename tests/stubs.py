"""Threaded local HTTP stubs: a SPARQL/entity-API endpoint and a /predict
inference server. Both bind port 0 and expose their URL; tests drive
behavior by seeding canned data or scripted responses.

Both count the connections they accept. They answer HTTP/1.0, closing every
connection after one response, unless built with ``keep_alive=True``.
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
    @property
    def protocol_version(self) -> str:  # type: ignore[override]
        return "HTTP/1.1" if self.server.keep_alive else "HTTP/1.0"

    def log_message(self, *args):  # keep test output clean
        pass

    def _send_json(self, status: int, payload: object, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_plan(self, plan: dict) -> None:
        """Answer a scripted plan: {"status", "body", "headers", "fault"}, or
        {"status", "raw"} to send the bytes ``raw`` as the body.

        Faults: "drop" closes the connection without an answer; "truncate"
        sends a shorter body than its Content-Length and closes; "bad_status"
        sends a line that is no HTTP status line and closes; "close_after"
        answers normally, then closes without a ``Connection: close``
        header, as a server dropping an idle kept-alive connection does.

        {"wire": bytes, "close": bool} sends ``wire`` as the whole answer,
        status line and headers included, then closes the connection if
        ``close``.
        """
        fault = plan.get("fault")
        if fault == "drop":
            self.close_connection = True
        elif fault == "truncate":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"cut": ')
            self.close_connection = True
        elif fault == "bad_status":
            self.wfile.write(b"NOT HTTP AT ALL\r\n\r\n")
            self.close_connection = True
        elif "wire" in plan:
            self.wfile.write(plan["wire"])
            if plan.get("close"):
                self.close_connection = True
        elif "raw" in plan:
            self.send_response(plan.get("status", 200))
            self.send_header("Content-Length", str(len(plan["raw"])))
            self.end_headers()
            self.wfile.write(plan["raw"])
        else:
            self._send_json(plan.get("status", 200), plan["body"], plan.get("headers"))
            if fault == "close_after":
                self.close_connection = True

    def _read_body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", 0)))


class _StubServer(ThreadingHTTPServer):
    """Shared plumbing: a serving thread, an accepted-connection counter and
    a ``script`` of plans consumed one per request (see ``_send_plan``)."""

    daemon_threads = True
    block_on_close = False  # kept-alive handlers wait for their client

    def __init__(self, handler, keep_alive: bool):
        super().__init__(("127.0.0.1", 0), handler)
        self.keep_alive = keep_alive
        self.lock = threading.Lock()
        self.script: list = []
        self.connections = 0
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": POLL_INTERVAL}, daemon=True
        )

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def next_plan(self):
        with self.lock:
            return self.script.pop(0) if self.script else None

    def start(self):
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


class _WikiHandler(_QuietHandler):
    def do_POST(self):
        server: StubWikiServer = self.server  # type: ignore[assignment]
        params = {k: v[0] for k, v in parse_qs(self._read_body().decode("utf-8")).items()}
        server.request_count += 1
        server.params.append(params)
        plan = server.next_plan()
        if plan is not None:
            self._send_plan(plan)
        elif self.path.startswith("/api"):
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


class StubWikiServer(_StubServer):
    """Canned SPARQL + wbsearchentities endpoint.

    neighbors: (entity id, "out"/"in") -> [(property id, property label,
    neighbor id, neighbor label)]; labels: entity id -> label;
    search: name -> [(id, label, description)]. A ``script`` entry answers
    the next request instead of the canned data.
    """

    def __init__(self, keep_alive: bool = False):
        super().__init__(_WikiHandler, keep_alive)
        self.neighbors: dict[tuple[str, str], list[tuple[str, str, str, str]]] = {}
        self.labels: dict[str, str] = {}
        self.search: dict[str, list[tuple[str, str, str]]] = {}
        self.request_count = 0
        self.params: list[dict[str, str]] = []  # the form fields of each request

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
        request = json.loads(self._read_body().decode("utf-8"))
        with server.lock:
            server.requests.append(request)
        plan = server.next_plan() or server.default
        if callable(plan):
            plan = plan(request)
        body = plan.get("body")
        if callable(body):
            plan = {**plan, "body": body(request)}
        self._send_plan(plan)


def score_response(scores: dict[str, float]):
    """Response factory: echo the request id with fixed candidate scores."""

    def build(request: dict) -> dict:
        return {"request_id": request["request_id"], "scores": scores}

    return build


def text_response(text: str):
    def build(request: dict) -> dict:
        return {"request_id": request["request_id"], "generated_text": text}

    return build


class StubPredictServer(_StubServer):
    """Scripted /predict endpoint.

    ``script`` entries are consumed one per request; when empty, ``default``
    answers. Each entry is a plan {"status": int, "body": dict-or-callable,
    "headers": dict, "fault": str} (see ``_send_plan``; only "body" is
    needed) or a callable(request) returning such a dict.
    """

    def __init__(self, keep_alive: bool = False):
        super().__init__(_PredictHandler, keep_alive)
        self.default: dict = {"status": 200, "body": score_response({})}
        self.requests: list[dict] = []

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

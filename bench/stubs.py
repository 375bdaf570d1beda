"""Stub SPARQL/entity-search and /predict servers, run as their own process.

    python3 bench/stubs.py REMOTE_GRAPH_JSON

prints one JSON line ``{"wiki": PORT, "predict": PORT}`` and serves on
127.0.0.1 until its standard input closes.  Both servers count what the
benchmark reports as layer metrics: requests, accepted connections,
retried ``request_id``s and the largest number of requests in flight.
``GET /_stats`` returns the counters (not counting itself) and
``POST /_reset`` zeroes them, including the fault schedule's memory.

The /predict server answers generated text whose label follows
:func:`stub_label`, and fails the first attempt of every request id that
:func:`scheduled_fault` selects with a 503, so retries are deterministic
whatever the arrival order.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from gen import normalize

_ENTITY = re.compile(r"wd:([QP]\d+)")


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def stub_label(request_id: str, candidates: list) -> str:
    """The label word the stub answers for a request id."""
    return candidates[_digest(f"stub:{request_id}") % len(candidates)]


def scheduled_fault(request_id: str) -> bool:
    """True for the request ids whose first attempt gets a 503 (about 1 in 16)."""
    return _digest(f"fault:{request_id}") % 16 == 0


class _CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, handler):
        super().__init__(("127.0.0.1", 0), handler)
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.requests = 0
            self.connections = 0
            self.in_flight = 0
            self.max_in_flight = 0
            self.attempts: dict = {}
            self.retried_ids: set = set()
            self.retries = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections - 1,  # the /_stats connection itself
                "max_in_flight": self.max_in_flight,
                "retries": self.retries,
                "retried_ids": len(self.retried_ids),
            }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without this, Nagle's
    # algorithm against the client's delayed ACK stalls some responses ~40 ms.
    disable_nagle_algorithm = True

    def log_message(self, *args):
        pass

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", 0)))

    def do_GET(self):
        if self.path == "/_stats":
            self._send_json(200, self.server.stats())
        else:
            self._send_json(404, {"code": 404, "message": "not found"})

    def do_POST(self):
        server = self.server
        if self.path == "/_reset":
            self._body()
            server.reset()
            self._send_json(200, {})
            return
        with server.lock:
            server.requests += 1
            server.in_flight += 1
            server.max_in_flight = max(server.max_in_flight, server.in_flight)
        try:
            self._send_json(*self.answer(self._body()))
        finally:
            with server.lock:
                server.in_flight -= 1


class _WikiHandler(_Handler):
    def answer(self, body: bytes) -> tuple:
        graph = self.server.graph
        params = {k: v[0] for k, v in parse_qs(body.decode("utf-8")).items()}
        if self.path.startswith("/api"):
            hits = graph["search"].get(normalize(params.get("search", "")), [])
            return 200, {"search": [{"id": q, "label": graph["labels"][q],
                                     "description": "synthetic entity"} for q in hits]}
        query = params.get("query", "")
        match = _ENTITY.search(query)
        if not match:
            return 400, {"code": 400, "message": "no entity in query"}
        entity = match.group(1)
        if "rdfs:label" in query:
            label = graph["labels"].get(entity)
            return 200, {"results": {"bindings": [{"label": {"value": label}}] if label else []}}
        direction = "out" if f"wd:{entity} ?claim" in query else "in"
        rows = graph[direction].get(entity, [])
        return 200, {"results": {"bindings": [
            {
                "property": {"value": f"http://www.wikidata.org/entity/{pid}"},
                "propertyLabel": {"value": graph["properties"][pid]},
                "neighbor": {"value": f"http://www.wikidata.org/entity/{other}"},
                "neighborLabel": {"value": graph["labels"][other]},
            }
            for pid, other in rows
        ]}}


class _PredictHandler(_Handler):
    def answer(self, body: bytes) -> tuple:
        if self.path != "/predict":
            return 404, {"code": 404, "message": "not found"}
        request = json.loads(body.decode("utf-8"))
        request_id = request["request_id"]
        server = self.server
        with server.lock:
            attempt = server.attempts.get(request_id, 0)
            server.attempts[request_id] = attempt + 1
            if attempt:
                server.retries += 1
                server.retried_ids.add(request_id)
        if attempt == 0 and scheduled_fault(request_id):
            return 503, {"code": 503, "message": "scheduled unavailability"}
        word = stub_label(request_id, request["candidates"])
        return 200, {"request_id": request_id, "generated_text": f"The relation is {word}."}


def load_graph(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    incoming: dict = {}
    for src, links in data["out"].items():
        for pid, dst in links:
            incoming.setdefault(dst, []).append([pid, src])
    search: dict = {}
    for q, label in data["labels"].items():
        search.setdefault(normalize(label), []).append(q)
    return {"labels": data["labels"], "properties": data["properties"], "out": data["out"],
            "in": incoming, "search": search}


def main(argv: list) -> int:
    wiki = _CountingServer(_WikiHandler)
    wiki.graph = load_graph(argv[1])
    predict = _CountingServer(_PredictHandler)
    threads = [threading.Thread(target=s.serve_forever, kwargs={"poll_interval": 0.05})
               for s in (wiki, predict)]
    for t in threads:
        t.start()
    print(json.dumps({"wiki": wiki.server_address[1], "predict": predict.server_address[1]}),
          flush=True)
    try:
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        for s in (wiki, predict):
            s.shutdown()
            s.server_close()
        for t in threads:
            t.join()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

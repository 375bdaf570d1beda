"""HTTP/1.1 POST over kept-alive sockets, and the retry loop both remote
fetches and the HTTP backend use.

Each request goes out in one ``sendall``: the request line, ``Host``,
``Accept-Encoding: identity``, ``Content-Length``, ``Content-Type``, the
caller's headers and the body. The answer is read from the connection's
buffered reader: a status line, at most ``MAX_HEADERS`` header lines of at
most ``MAX_LINE`` bytes each (1xx answers are skipped), then a body framed
by ``Content-Length``, by ``chunked`` encoding or by the connection's close
(RFC 9112). ``ssl`` is imported only for the first ``https`` connection.

One process-wide pool holds idle connections per (scheme, host:port), so a
run's many small POSTs share a few sockets whatever thread sends them. A
connection returns to the pool only after its whole body was read from a
response that does not close it; any failure closes it. Only a reused idle
socket that fails before a status line arrives (the server closed it while
idle) is reopened, once; every other failure reaches the caller, so a
request the server may have seen is never sent again behind the retry
loop's back.

Not read: ``HTTP(S)_PROXY`` and ``.netrc``. Redirects are not followed: a
3xx is a status like any other. HTTPS verifies certificates with
``ssl.create_default_context()``.
"""

from __future__ import annotations

import functools
import json as jsonlib
import socket
import threading
import time
from typing import NamedTuple
from urllib.parse import urlencode, urlsplit

from .atomic import TEXT_ERRORS
from .errors import NetworkError, require_http_url

MAX_LINE = 65536  # bytes in a status, header or chunk-size line
MAX_HEADERS = 100  # header lines in one answer (or one trailer)
_PORTS = {"http": 80, "https": 443}
_HEX = b"0123456789abcdefABCDEF"


class HTTPException(Exception):
    """An answer that breaks HTTP/1.1 framing."""


class BadStatusLine(HTTPException):
    pass


class IncompleteRead(HTTPException):
    pass


class RemoteDisconnected(ConnectionResetError, BadStatusLine):
    """The server closed the connection before a status line."""


class Response(NamedTuple):
    status: int
    headers: dict[str, str]  # lower-case name -> its first value
    body: bytes


class _Route(NamedTuple):
    key: tuple[str, str]  # the pool's (scheme, host:port)
    host: str
    port: int
    head: str  # the request line, Host and Accept-Encoding


class _Connection:
    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


_idle: dict[tuple[str, str], list[_Connection]] = {}
_lock = threading.Lock()


@functools.cache
def _route(url: str) -> _Route:
    try:
        require_http_url(url, f"URL {url!r}")
    except ValueError as exc:
        raise NetworkError(str(exc)) from None
    parts = urlsplit(url)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    host, port = parts.hostname, parts.port or _PORTS[parts.scheme]
    authority = f"[{host}]" if ":" in host else host
    if port != _PORTS[parts.scheme]:
        authority += f":{port}"
    head = f"POST {target} HTTP/1.1\r\nHost: {authority}\r\nAccept-Encoding: identity\r\n"
    return _Route((parts.scheme, f"{host}:{port}"), host, port, head)


@functools.cache
def _tls_context():
    import ssl  # deferred: only an https connection pays for the import

    return ssl.create_default_context()


def _open(route: _Route, timeout: float) -> _Connection:
    sock = socket.create_connection((route.host, route.port), timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if route.key[0] == "https":
            sock = _tls_context().wrap_socket(sock, server_hostname=route.host)
    except BaseException:
        sock.close()
        raise
    return _Connection(sock)


def _exchange(conn: _Connection, request: bytes, timeout: float) -> bytes:
    """Send ``request`` and read the status line; closes ``conn`` on failure."""
    try:
        conn.sock.settimeout(timeout)
        conn.sock.sendall(request)
        line = conn.reader.readline(MAX_LINE + 1)
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        return line
    except BaseException:
        conn.close()
        raise


def _line(reader, what: str) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HTTPException(f"{what} line longer than {MAX_LINE} bytes")
    return line


def _headers(reader) -> dict[str, str]:
    """The header (or trailer) lines up to the blank one; the first value of
    a name wins."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _line(reader, "header")
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers.setdefault(name.strip().lower(), value.strip())
    raise HTTPException(f"more than {MAX_HEADERS} header lines")


def _status(line: bytes) -> tuple[int, bool]:
    """The status code of a status line, and whether it names HTTP/1.0."""
    if len(line) > MAX_LINE:
        raise HTTPException(f"status line longer than {MAX_LINE} bytes")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") or not (
        len(parts[1]) == 3 and parts[1].isdigit()
    ):
        raise BadStatusLine(repr(line))
    return int(parts[1]), parts[0] == b"HTTP/1.0"


def _exactly(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) < n:
        raise IncompleteRead(f"{len(data)} bytes read, {n - len(data)} more expected")
    return data


def _chunked(reader) -> bytes:
    chunks = []
    while True:
        size = _line(reader, "chunk size").partition(b";")[0].strip()  # drop any extension
        if not size or size.strip(_HEX):
            raise IncompleteRead(f"bad chunk size {size!r} after {sum(map(len, chunks))} bytes")
        n = int(size, 16)
        if not n:
            _headers(reader)  # the trailer, discarded
            return b"".join(chunks)
        chunks.append(_exactly(reader, n))
        if _exactly(reader, 2) != b"\r\n":
            raise IncompleteRead("chunk not ended by CRLF")


def _read_response(reader, line: bytes) -> tuple[Response, bool]:
    """The response whose status line is ``line``, read from ``reader``, and
    whether the connection must close after it."""
    status, http10 = _status(line)
    headers = _headers(reader)
    while 100 <= status < 200:  # an interim answer: the real one follows
        status, http10 = _status(reader.readline(MAX_LINE + 1))
        headers = _headers(reader)
    connection = headers.get("connection", "").lower()
    if http10:
        close = "keep-alive" not in connection and "keep-alive" not in headers
    else:
        close = "close" in connection
    encoding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    if status in (204, 304):
        body = b""
    elif encoding is not None:
        if encoding.lower().rpartition(",")[2].strip() != "chunked":
            body, close = reader.read(), True
        else:
            body = _chunked(reader)
    elif length is not None:
        if not (length.isascii() and length.isdigit()):
            raise HTTPException(f"bad Content-Length {length!r}")
        body = _exactly(reader, int(length))
    else:
        body, close = reader.read(), True
    return Response(status, headers, body), close


def post(
    url: str,
    *,
    json: object = None,
    form: dict[str, str] | None = None,
    headers: dict[str, str] | None = None,
    timeout: float,
) -> Response:
    """POST ``json`` (as a JSON body) or ``form`` (url-encoded) to ``url``.

    Raises ``NetworkError``, sending nothing, for a URL that is no http(s)
    URL or holds a space, a control or a non-ASCII character, or for CR or
    LF in a header. Raises ``HTTPException`` or ``OSError`` when no
    complete response arrives.
    """
    route = _route(url)
    if json is not None:
        body, kind = jsonlib.dumps(json, allow_nan=False).encode("utf-8"), "application/json"
    else:
        body = urlencode(form or {}, errors=TEXT_ERRORS).encode("ascii")
        kind = "application/x-www-form-urlencoded"
    head = [route.head, f"Content-Length: {len(body)}\r\n"]
    for name, value in {"Content-Type": kind, **(headers or {})}.items():
        if "\r" in name or "\n" in name or "\r" in value or "\n" in value:
            raise NetworkError(f"header {name!r} holds CR or LF")
        head.append(f"{name}: {value}\r\n")
    head.append("\r\n")
    request = "".join(head).encode("latin-1") + body

    with _lock:
        conn = _idle[route.key].pop() if _idle.get(route.key) else None
    if conn is not None:
        try:
            line = _exchange(conn, request, timeout)
        except ConnectionError:  # closed while idle: reopen, once
            conn = None
    if conn is None:
        conn = _open(route, timeout)
        line = _exchange(conn, request, timeout)
    try:
        response, close = _read_response(conn.reader, line)
    except BaseException:
        conn.close()
        raise
    if close:
        conn.close()
    else:
        with _lock:
            _idle.setdefault(route.key, []).append(conn)
    return response


def post_retrying(
    url: str,
    *,
    what: str,
    transient: frozenset[int],
    retries: int,
    backoff: float,
    timeout: float,
    json: object = None,
    form: dict[str, str] | None = None,
    headers: dict[str, str] | None = None,
) -> Response:
    """``post`` until a status outside ``transient`` arrives.

    A connection failure, an incomplete or malformed response, or a
    transient status costs one attempt; attempt k > 0 waits
    ``backoff * 2**(k-1)`` seconds first. After ``retries + 1`` failed
    attempts raises ``NetworkError`` naming ``what`` and the last failure.
    """
    last_error = ""
    for attempt in range(retries + 1):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            response = post(url, json=json, form=form, headers=headers, timeout=timeout)
        except (HTTPException, OSError) as exc:
            last_error = repr(exc)
            continue
        if response.status not in transient:
            return response
        last_error = f"transient HTTP {response.status} from {url}"
    raise NetworkError(f"{what} to {url} failed after {retries + 1} attempts: {last_error}")


def close_idle() -> None:
    """Close every pooled connection; the next request opens a new one."""
    with _lock:
        conns = [conn for idle in _idle.values() for conn in idle]
        _idle.clear()
    for conn in conns:
        conn.close()

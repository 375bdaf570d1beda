"""HTTP POST over kept-alive stdlib connections, and the retry loop both
remote fetches and the HTTP backend use.

One process-wide pool holds idle ``http.client`` connections per
(scheme, host:port), so a run's many small POSTs share a few sockets
(HTTP/1.1 persistence) whatever thread sends them. A connection returns to
the pool only after its whole body was read from a response that does not
close it; any failure closes it. Only a reused idle socket that fails before
a status line arrives (the server closed it while idle) is reopened, once;
every other failure reaches the caller, so a request the server may have
seen is never sent again behind the retry loop's back.

Not read: ``HTTP(S)_PROXY`` and ``.netrc``. Redirects are not followed: a
3xx is a status like any other. HTTPS verifies certificates with
``ssl.create_default_context()``.
"""

from __future__ import annotations

import functools
import http.client
import json as jsonlib
import ssl
import threading
import time
from typing import NamedTuple
from urllib.parse import urlencode, urlsplit

from .atomic import TEXT_ERRORS
from .errors import NetworkError

_idle: dict[tuple[str, str], list[http.client.HTTPConnection]] = {}
_lock = threading.Lock()


class Response(NamedTuple):
    status: int
    headers: http.client.HTTPMessage
    body: bytes


@functools.cache
def _tls_context() -> ssl.SSLContext:
    return ssl.create_default_context()


def _open(scheme: str, netloc: str, timeout: float) -> http.client.HTTPConnection:
    if scheme == "https":
        return http.client.HTTPSConnection(netloc, timeout=timeout, context=_tls_context())
    return http.client.HTTPConnection(netloc, timeout=timeout)


def _send(conn: http.client.HTTPConnection, target: str, body: bytes, headers: dict[str, str]):
    """Send the request and read the status line; closes ``conn`` on failure."""
    try:
        conn.request("POST", target, body=body, headers=headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


def post(
    url: str,
    *,
    json: object = None,
    form: dict[str, str] | None = None,
    headers: dict[str, str] | None = None,
    timeout: float,
) -> Response:
    """POST ``json`` (as a JSON body) or ``form`` (url-encoded) to ``url``.

    Raises ``http.client.HTTPException`` or ``OSError`` when no complete
    response arrives.
    """
    parts = urlsplit(url)
    key = (parts.scheme, parts.netloc)
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if json is not None:
        body, kind = jsonlib.dumps(json, allow_nan=False).encode("utf-8"), "application/json"
    else:
        body = urlencode(form or {}, errors=TEXT_ERRORS).encode("ascii")
        kind = "application/x-www-form-urlencoded"
    headers = {"Content-Type": kind, **(headers or {})}

    with _lock:
        conn = _idle[key].pop() if _idle.get(key) else None
    if conn is not None:
        conn.sock.settimeout(timeout)
        try:
            response = _send(conn, target, body, headers)
        except ConnectionError:  # closed while idle: reopen, once
            conn = None
    if conn is None:
        conn = _open(*key, timeout)
        response = _send(conn, target, body, headers)
    try:
        data = response.read()
    except BaseException:
        conn.close()
        raise
    if response.will_close:
        conn.close()
    else:
        with _lock:
            _idle.setdefault(key, []).append(conn)
    return Response(response.status, response.headers, data)


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
        except (http.client.HTTPException, OSError) as exc:
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

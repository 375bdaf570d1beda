"""The HTTP/1.1 answer reader of ``kgprompt.http`` against the standard
library's ``http.client.HTTPResponse``, over the same bytes: random valid
answers framed by Content-Length, by chunked encoding (with chunk
extensions and trailers) or by the connection's close, after any number of
``100 Continue`` interim answers. (``http.client`` skips only 100 as an
interim answer, so no other 1xx code is drawn.) Both must also read the
same bytes, so that the next answer on a kept connection starts where it
should."""

from __future__ import annotations

import io
from http import client

from hypothesis import given, settings
from hypothesis import strategies as st

from kgprompt import http

_TOKEN = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
_VALUE = "".join(map(chr, range(0x21, 0x7F)))  # visible ASCII; values hold inner spaces too

# Names drawn from a small pool, so an answer repeats names, in other cases
# too; "X-" keeps them clear of the framing headers.
_names = st.sampled_from(["X-A", "x-a", "X-Trace", "X-Request-Id", "X-B", "x-B"]) | st.text(
    _TOKEN, min_size=1, max_size=8
).map("X-{}".format)
_values = st.builds(
    " ".join, st.lists(st.text(_VALUE, min_size=1, max_size=12), max_size=3)
)
_headers = st.lists(st.tuples(_names, _values), max_size=5)


def _header_lines(headers: list[tuple[str, str]]) -> bytes:
    return b"".join(f"{name}: {value}\r\n".encode("latin-1") for name, value in headers)


@st.composite
def _chunked(draw, body: bytes) -> bytes:
    """``body`` in chunked encoding: random chunk sizes, written in hex of
    either case with leading zeros at times, with or without extensions,
    then the last chunk and a trailer."""
    extensions = st.sampled_from(["", ";ext", ";name=value", ';q="a b"', " ; x=1;y"])
    out, at = [], 0
    while at < len(body):
        n = draw(st.integers(1, len(body) - at))
        size = draw(st.sampled_from(["{:x}", "{:X}", "0{:x}", "00{:X}"])).format(n)
        out.append(f"{size}{draw(extensions)}\r\n".encode() + body[at:at + n] + b"\r\n")
        at += n
    out.append(f"{draw(st.sampled_from(['0', '000']))}{draw(extensions)}\r\n".encode())
    out.append(_header_lines(draw(_headers)) + b"\r\n")
    return b"".join(out)


@st.composite
def answers(draw) -> bytes:
    """The bytes of one valid answer, interim answers first."""
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    out = []
    for _ in range(draw(st.integers(0, 2))):
        out.append(f"{version} 100 Continue\r\n".encode() + _header_lines(draw(_headers)) + b"\r\n")
    status = draw(st.sampled_from([200, 201, 204, 304, 404, 429, 503]) | st.integers(200, 599))
    reason = draw(st.text(_TOKEN + " ", max_size=12))
    headers = draw(_headers)
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Keep-Alive", "upgrade, close"]))
    if connection is not None:
        headers.append(("Connection", connection))
    if version == "HTTP/1.0" and draw(st.booleans()):
        headers.append(("Keep-Alive", "timeout=5"))
    body = draw(st.binary(max_size=300))
    framings = ["length", "close"] + (["chunked"] if version == "HTTP/1.1" else [])
    framing = "none" if status in (204, 304) else draw(st.sampled_from(framings))
    if framing == "length":
        headers.append(("Content-Length", str(len(body))))
        payload = body
    elif framing == "chunked":
        headers.append(("Transfer-Encoding", draw(st.sampled_from(["chunked", "Chunked"]))))
        payload = draw(_chunked(body))
    elif framing == "close":
        payload = body
    else:
        payload = b""
    headers = draw(st.permutations(headers))
    out.append(f"{version} {status} {reason}\r\n".encode() + _header_lines(headers) + b"\r\n" + payload)
    if framing != "close":
        out.append(_NEXT)
    return b"".join(out)


_NEXT = b"HTTP/1.1 204 No Content\r\n\r\n"  # the next answer on the connection


class _Reader(io.BytesIO):
    """The answer's bytes, noting how many were read when it is closed."""

    read_upto = None

    def close(self) -> None:
        self.read_upto = self.tell()
        super().close()


class _Socket:
    """What ``http.client.HTTPResponse`` reads from."""

    def __init__(self, data: bytes):
        self.reader = _Reader(data)

    def makefile(self, mode: str) -> _Reader:
        return self.reader


def _ours(data: bytes) -> tuple:
    reader = io.BytesIO(data)
    response, close = http._read_response(reader, reader.readline())
    return response.status, response.headers, response.body, close, reader.tell()


def _stdlib(data: bytes) -> tuple:
    sock = _Socket(data)
    response = client.HTTPResponse(sock)
    response.begin()
    close = response.will_close
    body = response.read()  # closes the reader once the body is read
    headers = {name.lower(): response.msg.get(name) for name in response.msg.keys()}
    return response.status, headers, body, close, sock.reader.read_upto


@settings(max_examples=400, deadline=None)
@given(answers())
def test_reader_parses_valid_answers_as_http_client_does(data):
    assert _ours(data) == _stdlib(data)

"""HTTP/1.1 framing, decided once.

What a request *means* is :mod:`repro.service.routes`; what its bytes are is
here.  :func:`parse_head` is the only place a request line, a version, a
header line or the keep-alive rule is decided, :func:`body_length` the only
place a body is sized or refused, :func:`render_head` the only place a
response head is formatted: pure functions, pinned without a socket in
``tests/test_service_framing.py``.  :func:`read_request` strings them into the
one read path over a connection's ``readline`` / ``read``.  ``http.server``,
``http.client.parse_headers`` and the ``email`` parser are not on the path:
for three header lines they cost more than the answer did.
"""

from __future__ import annotations

import functools
import re
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import NamedTuple, Optional, Sequence, Union

from . import routes

#: Upper bound on accepted request bodies (64 MiB); guards the worker threads.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Upper bound on the request line and on each header line, line end included.
MAX_LINE_BYTES = 65536
#: Upper bound on header lines per request; with the line cap, all a client
#: can make the server hold before it has sent a request worth reading.
MAX_HEADER_LINES = 100
#: From its first byte a request (head and body) has this many seconds to
#: arrive, and its answer as many to leave, or the connection is dropped; one
#: parked *between* requests is not timed.
READ_TIMEOUT_S = 30.0

_BLANK = (b"\r\n", b"\n")
#: ``method SP request-target SP HTTP/DIGIT.DIGIT`` (RFC 7230, 3.1.1), lenient
#: about runs of blanks and a bare-LF line end.
_REQUEST_LINE = re.compile(
    rb"([!#$%&'*+\-.^_`|~0-9A-Za-z]+)[ \t]+([^ \t\r\n]+)[ \t]+HTTP/(\d)\.(\d)[ \t]*\r?\n"
)


class Head(NamedTuple):
    """A parsed request head.  A type of its own: the alternative, a refusal
    (:class:`routes.Response`), is a tuple too."""

    method: str
    path: str
    #: Whether the client wants the connection to outlive this exchange.
    keep_alive: bool
    #: Field names in lower case; a repeated field's values joined by ``", "``.
    headers: dict[str, str]


def parse_head(lines: Sequence[bytes]) -> Union[Head, routes.Response]:
    """The head whose lines were read -- request line first, through the blank
    line or the line at which a cap stopped the read -- or the refusal to
    answer with (and then close: what follows a refused head has no frame)."""
    if len(lines[0]) > MAX_LINE_BYTES:
        return routes.refuse(414, "request line too long")
    match = _REQUEST_LINE.fullmatch(lines[0])
    if match is None:
        return routes.refuse(400, "malformed request line")
    method, path = match[1].decode("ascii"), match[2].decode("latin-1")
    if match[3] != b"1":
        return routes.refuse(505, "HTTP version not supported", method, path)
    if lines[-1] not in _BLANK:
        what = "header line too long" if len(lines[-1]) > MAX_LINE_BYTES else "too many headers"
        return routes.refuse(431, what, method, path)
    headers: dict[str, str] = {}
    for line in lines[1:-1]:
        name, colon, value = line.decode("latin-1").partition(":")
        # No colon, no name, blanks around the name (an obsolete line fold
        # among them): RFC 7230, 3.2.4 has a server reject these.
        if not colon or not name or name != name.strip():
            return routes.refuse(400, "malformed header line", method, path)
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    connection = headers.get("connection", "").lower()
    keep_alive = "keep-alive" in connection if match[4] == b"0" else "close" not in connection
    return Head(method, path, keep_alive, headers)


def body_length(head: Head) -> Union[int, routes.Response]:
    """How many body bytes follow the head -- or the refusal to answer with
    (and then close: the next request line would be parsed out of the unread
    body's bytes)."""
    if "transfer-encoding" in head.headers:
        return routes.refuse(501, "chunked bodies are not supported", head.method, head.path)
    given = head.headers.get("content-length", "0")
    # Digits only, and few: ``int()`` takes "+5" and "1_0" and raises past 4300 digits.
    length = int(given) if given.isascii() and given.isdigit() and len(given) < 20 else -1
    if length < 0 or length > MAX_BODY_BYTES:
        return routes.refuse(400, "missing or oversized Content-Length", head.method, head.path)
    return length


def read_request(readline, read, write):
    """One request off a connection: ``(head, body)``, the refusal to answer
    with, or ``None`` when the client left in the middle of it.

    ``readline(limit)`` is a line with its end, at most ``limit`` bytes (so an
    over-long line comes back longer than ``MAX_LINE_BYTES``), ``b""`` at EOF;
    ``read(n)`` is ``n`` bytes, fewer at EOF -- a buffered socket file's own.
    """
    lines = [readline(MAX_LINE_BYTES + 1)]
    while (
        lines[-1] not in _BLANK
        and 0 < len(lines[-1]) <= MAX_LINE_BYTES
        and len(lines) < MAX_HEADER_LINES + 2  # the request line, the headers, the blank
    ):
        lines.append(readline(MAX_LINE_BYTES + 1))
    if not lines[-1]:
        return None
    head = parse_head(lines)
    length = body_length(head) if isinstance(head, Head) else head
    if not isinstance(length, int):
        return length
    if not length:
        return head, b""
    if head.headers.get("expect", "").lower() == "100-continue":
        write(b"HTTP/1.1 100 Continue\r\n\r\n")  # or the client waits before sending the body
    body = read(length)
    return (head, body) if len(body) == length else None


@functools.lru_cache(maxsize=64)
def _head_before_length(status: int, content_type: str, close: bool, second: int) -> bytes:
    """All of a response head that holds for a whole second: the ``Date`` (the
    costly line) is formatted once per second, not once per response."""
    return (
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nServer: cq-trees\r\n"
        f"Date: {formatdate(second, usegmt=True)}\r\nContent-Type: {content_type}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\nContent-Length: "
    ).encode("latin-1")


def render_head(response: routes.Response, close: bool) -> bytes:
    """The response head, through the blank line, for ``response.body``."""
    start = _head_before_length(response.status, response.content_type, close, int(time.time()))
    return b"%b%d\r\n\r\n" % (start, len(response.body))


def frame(response: routes.Response, head: Optional[Head]) -> tuple[bytes, bool]:
    """What the loop writes -- head and body, one write -- and whether it then
    closes the connection.  ``head`` is ``None`` when ``response`` refuses one.
    A 501 answers a method this server does not know, so it cannot know how
    its client frames the answer either (a HEAD response has no body): the
    connection does not outlive it."""
    close = head is None or not head.keep_alive or response.status == 501
    return render_head(response, close) + response.body, close

"""The threaded socket loop: HTTP/1.1 framing around the route table.

``cq-trees serve`` exposes the serving subsystem to non-Python clients.  What
a request *means* -- paths, validation, status codes, bodies -- is
:mod:`repro.service.routes`; this module only frames: the request line and
headers (``http.server``), ``Content-Length`` / ``Transfer-Encoding`` and the
body cap (:func:`body_length`, shared with the asyncio loop), keep-alive, and
the write.  The table is called inline on the connection's thread.

Built on :class:`http.server.ThreadingHTTPServer` -- no dependencies, one
thread per connection, all of them sharing the executor's resident artifacts.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Union

from . import routes
from .executor import BatchExecutor

#: Upper bound on accepted request bodies (64 MiB); guards the worker threads.
MAX_BODY_BYTES = 64 * 1024 * 1024


def body_length(method: str, path: str, headers: Mapping[str, str]) -> Union[int, routes.Response]:
    """How many body bytes follow the head -- or the refusal to answer with.

    The framing decision both loops share (``headers`` looks names up in
    lower case).  A refused request leaves its body unread, which would desync
    the persistent HTTP/1.1 stream (the next request line would be parsed out
    of body bytes), so the loop drops the connection after answering.
    """
    if "transfer-encoding" in headers:
        return routes.refuse(501, "chunked bodies are not supported", method, path)
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0 or length > MAX_BODY_BYTES:
        return routes.refuse(400, "missing or oversized Content-Length", method, path)
    return length


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the executor for its handler threads."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], executor: BatchExecutor, quiet: bool = True):
        super().__init__(address, _ServiceRequestHandler)
        self.executor = executor
        self.quiet = quiet


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    server_version = "cq-trees"
    protocol_version = "HTTP/1.1"
    # Persistent HTTP/1.1 connections send headers and body as separate
    # writes; with Nagle on, the body write stalls on the client's delayed
    # ACK (~40ms per response).  asyncio transports already disable Nagle by
    # default, so this keeps the two front ends' latency profiles comparable.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if not self.server.quiet:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        # http.server would now dispatch on ``do_<METHOD>`` and refuse a missing
        # one itself; every method, supported or not, is the table's to answer.
        if super().parse_request():
            self._exchange()
        return False  # "already answered": nothing is left for the caller to do

    def _exchange(self) -> None:
        length = body_length(self.command, self.path, self.headers)
        if isinstance(length, int):
            response = routes.respond(
                self.server.executor, self.command, self.path, self.rfile.read(length)
            )
            # A 501 answers a method this server does not know, so it cannot
            # know how its client frames the answer either (a HEAD response
            # has no body): the connection does not outlive it.
            self._write(response, close=response.status == 501)
        else:
            self._write(length, close=True)

    def send_error(self, code: int, message=None, explain=None) -> None:  # noqa: ARG002
        """``http.server``'s own refusals (a malformed request line, a header
        flood, ...) in the table's error form instead of stdlib HTML."""
        self._write(routes.refuse(code, message or self.responses[code][0]), close=True)

    def _write(self, response: routes.Response, close: bool) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if close:
            self.send_header("Connection", "close")  # also ends the keep-alive loop
        self.end_headers()
        self.wfile.write(response.body)


def make_server(
    executor: BatchExecutor,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a service HTTP server (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), executor, quiet=quiet)

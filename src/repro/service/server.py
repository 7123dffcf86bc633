"""The threaded socket loop around the route table.

``cq-trees serve`` exposes the serving subsystem to non-Python clients.  What
a request *means* is :mod:`repro.service.routes`, what its bytes are is
:mod:`repro.service.framing`; this module moves the bytes: one thread per
connection (:mod:`socketserver`, no dependencies), all sharing the executor's
resident artifacts, each reading a request through the shared read path,
calling the table inline and answering with one ``sendall``.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import time

from ..observability.logging import get_logger
from . import framing, routes
from .executor import BatchExecutor

_LOG = get_logger("repro.service.server")


class ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """The listening socket, carrying the executor for its connection threads."""

    daemon_threads = True
    allow_reuse_address = True
    #: The accept backlog (``socketserver``'s 5 resets connections of a burst of 40).
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], executor: BatchExecutor, quiet: bool = True):
        super().__init__(address, _Connection)
        self.executor = executor
        self.quiet = quiet
        #: Connections in the middle of reading a request -> when it must be in.
        self.reading: dict[socket.socket, float] = {}

    def service_actions(self) -> None:
        """Between accepts (every ``poll_interval`` at the latest): shut down
        the socket of a client stalled past its deadline, which ends the
        blocked read of its thread with EOF.  One sweep for all threads keeps
        the sockets blocking and timer calls off the request path."""
        now = time.monotonic()
        for connection, deadline in self.reading.copy().items():  # threads add and remove
            if deadline < now:
                with contextlib.suppress(OSError):  # already gone
                    connection.shutdown(socket.SHUT_RDWR)


class _Connection(socketserver.StreamRequestHandler):
    server: ServiceHTTPServer
    # ``100 Continue`` and the answer are two writes; with Nagle on, the second
    # waits for the client's delayed ACK (~40 ms).  asyncio transports disable
    # Nagle too, so the two loops' latency profiles stay comparable.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        with contextlib.suppress(ConnectionError):  # a client that left is owed nothing
            while self._exchange():
                pass

    async def _readline(self) -> bytes:
        return self.rfile.readline(framing.MAX_LINE_BYTES + 1)

    async def _read(self, length: int) -> bytes:
        return self.rfile.read(length)

    def _exchange(self) -> bool:
        """Read one request and answer it; whether the connection goes on.
        (Returning frees ``response.payload``: after the write, not before.)"""
        if not self.rfile.peek(1):  # parked here between requests, untimed
            return False
        server, connection = self.server, self.connection
        server.reading[connection] = time.monotonic() + framing.READ_TIMEOUT_S
        try:
            request = routes.run_inline(
                framing.read_request(b"", self._readline, self._read, connection.sendall)
            )
        finally:
            del server.reading[connection]
        if request is None:
            return False
        if isinstance(request, routes.Response):
            head, response = None, request
        else:
            head, body = request
            response = routes.respond(server.executor, head.method, head.path, body)
            if not server.quiet:  # pragma: no cover - log formatting
                _LOG.info("request", method=head.method, path=head.path, status=response.status)
        wire, close = framing.frame(response, head)
        connection.sendall(wire)
        return not close


def make_server(
    executor: BatchExecutor, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> ServiceHTTPServer:
    """Bind a service HTTP server (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), executor, quiet=quiet)

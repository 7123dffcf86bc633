"""The socket loop around the route table.

``cq-trees serve`` exposes the serving subsystem to non-Python clients.  What
a request *means* is :mod:`repro.service.routes`, what its bytes are is
:mod:`repro.service.framing`; this module moves the bytes: one thread per
connection (:mod:`socketserver`, no dependencies), all sharing one executor
-- a :class:`~repro.service.executor.BatchExecutor` or, under ``--shards N``,
a :class:`~repro.service.shards.ShardedExecutor` -- each reading a request
through the shared read path, calling the table inline and answering with one
``sendall``.
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
        #: Connections in the middle of reading a request or writing its
        #: answer -> when that must be done.
        self.deadlines: dict[socket.socket, float] = {}

    def service_actions(self) -> None:
        """Between accepts (every ``poll_interval`` at the latest): shut down
        the socket of a client stalled past its deadline, which ends the
        blocked read or write of its thread.  One sweep for all threads keeps
        the sockets blocking and timer calls off the request path."""
        now = time.monotonic()
        for connection, deadline in self.deadlines.copy().items():  # threads add and remove
            if deadline < now:
                with contextlib.suppress(OSError):  # already gone
                    connection.shutdown(socket.SHUT_RDWR)


class _Connection(socketserver.StreamRequestHandler):
    server: ServiceHTTPServer
    # ``100 Continue`` and the answer are two writes; with Nagle on, the second
    # waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def handle(self) -> None:
        with contextlib.suppress(ConnectionError):  # a client that left is owed nothing
            while self._exchange():
                pass

    @contextlib.contextmanager
    def _deadline(self):
        """Under the server's sweep for ``READ_TIMEOUT_S``."""
        deadlines, connection = self.server.deadlines, self.connection
        deadlines[connection] = time.monotonic() + framing.READ_TIMEOUT_S
        try:
            yield
        finally:
            del deadlines[connection]

    def _exchange(self) -> bool:
        """Read one request and answer it; whether the connection goes on.
        (Returning frees ``response.payload``: after the write, not before.)"""
        if not self.rfile.peek(1):  # parked here between requests, untimed
            return False
        server, connection = self.server, self.connection
        with self._deadline():
            request = framing.read_request(self.rfile.readline, self.rfile.read, connection.sendall)
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
        with self._deadline():  # a client that does not read its answers is stalled too
            connection.sendall(wire)
        return not close


def make_server(
    executor: BatchExecutor, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> ServiceHTTPServer:
    """Bind a service HTTP server (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), executor, quiet=quiet)

"""The asyncio socket loop around the route table.

The threaded loop (:mod:`repro.service.server`) spends one OS thread per
connection, which caps how many mostly idle clients it can hold open.  This
one serves the same contract -- the table of :mod:`repro.service.routes`
behind the framing of :mod:`repro.service.framing`, so every byte of every
answer is the same by construction -- on :func:`asyncio.start_server`:
connections are cheap coroutines, and a **bounded in-flight semaphore** keeps
the number of requests executing at once under control no matter how many
connections are parked.

Beyond moving bytes, the loop decides one thing: *how to wait* for the
executor call the table asks for.  A call the backend (``BatchExecutor`` or
``ShardedExecutor``) can answer with a future (``/query`` through
``submit()``) is awaited directly; every other call runs on a private thread
pool sized to the in-flight bound.  CLI entry: ``cq-trees serve --async
[--shards N]``.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..observability.logging import get_logger
from . import framing, routes

_LOG = get_logger("repro.service.async")

#: Default bound on requests executing concurrently (not on open connections).
DEFAULT_MAX_IN_FLIGHT = 64
_NO_SLOT = contextlib.nullcontext()


class AsyncServiceServer:
    """One asyncio server bound to one backend; persistent HTTP/1.1."""

    def __init__(
        self,
        executor,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        quiet: bool = True,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.executor = executor
        self.quiet = quiet
        self.address: Optional[tuple[str, int]] = None
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._semaphore = asyncio.Semaphore(max_in_flight)
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="cq-trees-async")
        #: Open connections: handler task -> its writer (see :meth:`close`).
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> tuple[str, int]:
        """Bind the listening socket and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=framing.MAX_LINE_BYTES
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        if hasattr(self.executor, "attach"):  # shard channels ride this loop: no hand-off
            self.executor.attach(asyncio.get_running_loop())
        return self.address

    async def close(self) -> None:
        """Stop accepting, close open connections, release the worker pool."""
        if self._server is not None:
            self._server.close()
            # A parked connection would sit in its read until the loop's
            # teardown cancels its handler, which the stream protocol logs as
            # an error (and since Python 3.12 ``wait_closed`` waits for it).
            # Closing the transport makes that read return EOF: the handler
            # ends on its own, one in mid-request after its request.
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections))
            await self._server.wait_closed()
            self._server = None
        if hasattr(self.executor, "detach"):
            self.executor.detach()
        self._pool.shutdown(wait=False)

    async def _handle_connection(self, reader, writer: asyncio.StreamWriter) -> None:
        """One persistent connection: read a request, answer it, repeat."""
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while await self._exchange(reader, writer):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # a client that left is owed nothing
        finally:
            del self._connections[task]
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _exchange(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> bool:
        """Read one request and answer it; whether the connection goes on."""
        first = await reader.read(1)  # parked here between requests, untimed
        if not first:
            return False
        # The abort ends a read still pending at the deadline with EOF; a timer
        # handle per request, not a task.
        abort = writer.transport.abort
        deadline = asyncio.get_running_loop().call_later(framing.READ_TIMEOUT_S, abort)
        try:
            request = await framing.read_request(
                first, reader.readline, reader.readexactly, writer.write
            )
        finally:
            deadline.cancel()
        if request is None:
            return False
        if isinstance(request, routes.Response):
            head, response = None, request
        else:
            head, body = request
            # Only evaluation work holds an in-flight slot; GET control-plane
            # probes (/healthz above all) must answer even when the server is
            # saturated, as the threaded loop does.
            async with self._semaphore if head.method == "POST" else _NO_SLOT:
                response = await routes.exchange(head.method, head.path, body, self._call)
            if not self.quiet:  # pragma: no cover - log formatting
                _LOG.info("request", method=head.method, path=head.path, status=response.status)
        wire, close = framing.frame(response, head)
        writer.write(wire)
        await writer.drain()
        return not close

    async def _call(self, route: routes.Route, arguments: tuple):
        """How this loop waits for an executor call: never on its own thread."""
        if route.future is not None:
            # The backend hands out a future (``/query``): no pool thread is
            # parked on the call, and a sharded backend pays no extra hop.
            return await asyncio.wrap_future(getattr(self.executor, route.future)(*arguments))
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, getattr(self.executor, route.call), *arguments
        )


class AsyncServerThread:
    """An :class:`AsyncServiceServer` on a private event-loop thread, for
    tests: ``start()`` returns once the socket is bound (``.address`` holds the
    ephemeral port); ``stop()`` closes the server on its loop -- open
    connections included -- and only then stops the loop."""

    def __init__(self, executor, host: str = "127.0.0.1", port: int = 0, **server_kwargs):
        self._server = AsyncServiceServer(executor, host, port, **server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="cq-trees-async-server", daemon=True
        )
        self.address: Optional[tuple[str, int]] = None

    def _on_loop(self, coroutine):
        """Run a coroutine on the server's loop; its result, or its exception, here."""
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=30)

    def start(self) -> "AsyncServerThread":
        self._thread.start()
        try:
            self.address = self._on_loop(self._server.start())
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        if self._loop.is_closed():
            return
        self._on_loop(self._server.close())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()

    def __enter__(self) -> "AsyncServerThread":
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.stop()

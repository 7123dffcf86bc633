"""The asyncio socket loop: HTTP/1.1 framing around the route table.

The threaded loop (:mod:`repro.service.server`) spends one OS thread per
connection, which caps how many concurrent (and mostly idle) clients it can
hold open.  This module frames the same contract -- the one table of
:mod:`repro.service.routes`, so routes, payloads and response bodies are
identical by construction -- on :func:`asyncio.start_server`: connections are
cheap coroutines, HTTP/1.1 keep-alive is the default so clients reuse them
across requests, and a **bounded in-flight semaphore** keeps the number of
requests actually executing at once under control no matter how many
connections are parked.

Beyond framing, the loop decides one thing: *how to wait* for the executor
call the table asks for.  A route whose backend --
:class:`~repro.service.executor.BatchExecutor` (threads, shared artifacts) or
:class:`~repro.service.shards.ShardedExecutor` (processes, hash-routed
documents) -- can answer with a future (``/query`` through ``submit()``) is
awaited directly; every other call runs on a private thread pool sized to the
in-flight bound.

``cq-trees serve --async [--shards N]`` is the CLI entry;
:class:`AsyncServerThread` runs the same server on a background event-loop
thread for tests and the smoke script.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Optional

from ..observability.logging import get_logger
from . import routes
from .server import body_length

_LOG = get_logger("repro.service.async")

#: Default bound on requests executing concurrently (not on open connections).
DEFAULT_MAX_IN_FLIGHT = 64

#: Upper bound on header lines per request (mirrors http.server's cap); a
#: client streaming endless headers must not grow memory without bound.
MAX_HEADER_LINES = 100


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
        self.max_in_flight = max_in_flight
        self.address: Optional[tuple[str, int]] = None
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._semaphore = asyncio.Semaphore(max_in_flight)
        self._pool = ThreadPoolExecutor(max_in_flight, thread_name_prefix="cq-trees-async")
        #: Open connections: handler task -> its writer (see :meth:`close`).
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listening socket; returns ``(host, port)``."""
        self._server = await asyncio.start_server(self._handle_connection, self._host, self._port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (binds first if :meth:`start` wasn't called)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, close open connections, release the worker pool."""
        if self._server is not None:
            self._server.close()
            # A parked keep-alive connection would sit in its read until the
            # loop's teardown cancels its handler, which the stream protocol
            # logs as an error (and since Python 3.12 ``wait_closed`` waits
            # for it).  Closing the transport makes that read return EOF: the
            # handler ends on its own, one in mid-request after its request.
            for writer in self._connections.values():
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections))
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One persistent connection: read a request, answer it, repeat."""
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except ValueError:  # line over the stream limit
                    break
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    refusal = routes.refuse(400, "malformed request line")
                    await self._write(writer, refusal, close=True)
                    break
                method, path, version = parts
                headers = await self._read_headers(reader)
                if headers is None:
                    break
                length = body_length(method, path, headers)
                if not isinstance(length, int):
                    await self._write(writer, length, close=True)
                    break
                body = await reader.readexactly(length) if length else b""
                if method == "POST":
                    # Only evaluation work holds an in-flight slot; GET
                    # control-plane probes (/healthz above all) must answer
                    # even when the server is saturated, as the threaded
                    # front end does.
                    async with self._semaphore:
                        response = await routes.exchange(method, path, body, self._call)
                else:
                    response = await routes.exchange(method, path, body, self._call)
                if not self.quiet:  # pragma: no cover - log formatting
                    _LOG.info("request", method=method, path=path, status=response.status)
                close = (
                    version.upper() != "HTTP/1.1"
                    or headers.get("connection", "").lower() == "close"
                    or response.status == 501  # for the reason given in the threaded loop
                )
                await self._write(writer, response, close)
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_headers(self, reader: asyncio.StreamReader) -> Optional[dict]:
        """Header lines up to the blank separator, lower-cased names.

        ``None`` (drop the connection) on EOF, an over-long line, or more
        than :data:`MAX_HEADER_LINES` lines -- per-request memory stays
        bounded no matter what a client streams.
        """
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            try:
                line = await reader.readline()
            except ValueError:  # header line over the stream limit
                return None
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                return None
            name, separator, value = line.decode("latin-1").partition(":")
            if separator:
                headers[name.strip().lower()] = value.strip()
        return None

    async def _write(
        self, writer: asyncio.StreamWriter, response: routes.Response, close: bool
    ) -> None:
        head = (
            f"HTTP/1.1 {response.status} {HTTPStatus(response.status).phrase}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + response.body)
        await writer.drain()

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
    """Run an :class:`AsyncServiceServer` on a private event-loop thread.

    The synchronous face of the async front end, for tests and the smoke
    script: ``start()`` returns once the socket is bound (``.address`` holds
    the ephemeral port); ``stop()`` closes the server on its loop -- open
    connections included -- and only then stops the loop.
    """

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

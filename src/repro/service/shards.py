"""Process-sharded serving backend: per-shard stores and caches, multi-core scaling.

The thread-pool backend (:class:`~repro.service.executor.BatchExecutor`)
shares one set of resident artifacts across worker threads -- simple and
memory-lean, but CPython's GIL serializes the actual evaluation work, so one
process can never use more than one core.  :class:`ShardedExecutor` scales
*out* instead: it owns ``N`` worker **processes**, each a private
``BatchExecutor`` (its own :class:`~repro.service.store.DocumentStore` +
:class:`~repro.service.cache.QueryCache`) behind a socket.  A message names one
of that executor's methods (:data:`WORKER_METHODS`); the worker implements
nothing of its own, so the serving contract -- sorted answers, post-sort
limit, per-request errors, byte-identity with sequential ``evaluate()`` -- is
the thread backend's by construction.

Routing is by **stable hash of the document id** (:func:`shard_for`,
CRC-32 -- deliberately not Python's salted ``hash()``): a document is
registered on exactly one shard, and every request, eviction and
re-registration for that id lands on the same worker, so its interval index,
label sets and compiled plans stay resident in that process.  Control
operations (``stats``, ``describe_documents``, ``document_count``) are
*broadcast* to all shards and aggregated, so ``/stats`` reports totals across
the whole fleet plus a per-shard breakdown.

The parent talks to each worker over one ``socket.socketpair()`` carrying
length-prefixed pickled frames (:func:`encode_frame`, :func:`pop_frames`).  A
worker is single-threaded: one wait on its socket *and* its parent's death,
one ``sendall`` per reply.  The parent's end is a :class:`_Channel`: whoever
dispatches writes the frame itself (non-blocking; a remainder waits in a
buffer), and replies are read by the readiness callbacks of one private I/O
loop thread.  Nothing polls: a worker's death is the EOF on its channel, a
parent's death the worker's wake-up.  Blocking calls wait on the future
``submit`` returns, so they refuse to run on the loop thread that would
resolve it (where a done-callback of that future runs).  A shard takes
its frames in FIFO order: per-shard execution is serial and deterministic;
cross-shard parallelism is the scaling axis.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import multiprocessing
import pickle
import selectors
import socket
import struct
import threading
import zlib
from concurrent.futures import Future
from functools import partial
from typing import Callable, Optional, Sequence

from ..observability.accounting import ACCOUNTING, PlanAccounting
from ..observability.metrics import REGISTRY, SLOW_LOG, MetricsRegistry
from ..observability.profiler import PROFILER, merge_snapshots
from .cache import QueryCache
from .core import REQUEST_ERRORS, Request, RequestResult
from .executor import BatchExecutor
from .store import DocumentStore

#: Default number of worker processes.
DEFAULT_SHARDS = 2

#: Seconds to wait for a worker to exit at close before terminating it.
_JOIN_TIMEOUT = 10.0

#: Bytes asked of one ``recv``: a burst of ``/query`` frames is one system call.
_RECV_BYTES = 1 << 16
_LENGTH = struct.Struct("!I")


def encode_frame(message) -> bytes:
    """One message as it crosses a shard socket: four bytes of length, then its pickle."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(payload)) + payload


def pop_frames(buffer: bytearray) -> list:
    """Cut every complete frame off the head of ``buffer``; their messages, in order."""
    messages, start = [], 0
    while len(buffer) - start >= _LENGTH.size:
        end = start + _LENGTH.size + _LENGTH.unpack_from(buffer, start)[0]
        if end > len(buffer):
            break
        messages.append(pickle.loads(buffer[start + _LENGTH.size : end]))
        start = end
    del buffer[:start]
    return messages


def shard_for(doc_id: str, shards: int) -> int:
    """The shard owning ``doc_id``: a stable content hash, not ``hash()``.

    CRC-32 of the UTF-8 bytes is deterministic across processes and runs
    (Python's ``hash()`` is salted per process, which would scatter a
    document's requests across restarts).
    """
    return zlib.crc32(doc_id.encode("utf-8")) % shards


def _default_start_method() -> str:
    """``fork`` where available (cheap, instant workers), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


#: What a message may name: the worker calls the same-named ``BatchExecutor``
#: method with the message's arguments.  (``stats`` and ``metrics`` get the
#: snapshot forms in :func:`_shard_worker_main`: the parent merges them.)
WORKER_METHODS = (
    "execute",
    "register_payload",
    "evict_document",
    "describe_documents",
    "document_count",
    "profile_control",
    "profile_snapshot",
)


def _shard_worker_main(
    shard_id: int,
    channel: socket.socket,
    store_capacity: Optional[int],
    cache_capacity: Optional[int],
    accel_db: Optional[str] = None,
) -> None:
    """One worker process: a private ``BatchExecutor``, serving its socket FIFO.

    Every message is ``(seq, method, arguments)`` with ``method`` one of
    :data:`WORKER_METHODS`; every reply is ``(seq, status, value)`` with
    ``status`` in ``{"ok", "error"}``.  EOF (``close()``) is the shutdown.
    The worker does not implement the serving contract, it owns the executor
    that does, so a sharded request runs the very code a threaded one runs.
    The loop never dies on a bad message: errors are reported back as values,
    mirroring the per-request error contract.

    ``accel_db`` names a SQLite accel database file each worker opens with
    its *own* connection (SQLite connections must not cross process forks).
    Workers sharing one file all see the same accel-only documents -- the
    store's lazy residency attach means a document registered by any process
    is queryable from every shard without a registration broadcast.
    """
    accel_backend = None
    if accel_db is not None:
        from ..backends.sqlite import SQLiteBackend

        accel_backend = SQLiteBackend(accel_db)
    executor = BatchExecutor(
        DocumentStore(capacity=store_capacity, accel_backend=accel_backend),
        QueryCache(capacity=cache_capacity),
    )
    # A forked worker inherits the parent's process-global metrics registry
    # *values*; zero them (in place, keeping the families valid) so the
    # parent's shard-merge never double-counts pre-fork observations.  The
    # slow-query ring buffer, the plan-vs-actual ledger and the sampling
    # profiler are process-global too (the profiler's sampler thread does not
    # survive the fork, so the child must forget it, not join it).
    REGISTRY.reset()
    SLOW_LOG.clear()
    ACCOUNTING.clear()
    PROFILER.reset()

    def stats() -> dict:
        snapshot = executor.stats()
        counters = snapshot.pop("executor")
        # Shipped as a snapshot (not a rendering): the parent merges
        # calibrations and re-ranks the union of top-drift tables.
        snapshot["plan_accounting"] = ACCOUNTING.snapshot()
        return {
            "shard": shard_id,
            "requests": counters["requests"],
            "errors": counters["errors"],
            **snapshot,
        }

    def metrics() -> dict:
        # This worker's bucket arrays and counters, which the parent sums
        # into the fleet-wide /metrics exposition.
        executor.store.refresh_metrics()
        return REGISTRY.snapshot()

    handlers = {method: getattr(executor, method) for method in WORKER_METHODS}
    handlers.update(stats=stats, metrics=metrics)

    def reply(seq: int, method: str, arguments: tuple) -> bytes:
        try:
            if method not in handlers:
                raise ValueError(f"unknown shard method {method!r}")
            return encode_frame((seq, "ok", handlers[method](*arguments)))
        except REQUEST_ERRORS as error:
            # Client faults cross the boundary verbatim: the parent's re-raise
            # answers the threaded backend's very 400 (e.g. for malformed XML).
            return encode_frame((seq, "error", str(error)))
        except Exception as error:  # noqa: BLE001 - errors travel as values
            return encode_frame((seq, "error", f"{type(error).__name__}: {error}"))

    # One thread, one wait: the socket, and the parent's sentinel -- a parent
    # that died without closing (SIGKILL) is not an EOF while a forked sibling
    # holds a copy of its end, and must not leave orphans.
    watch = selectors.DefaultSelector()
    watch.register(channel, selectors.EVENT_READ)
    watch.register(multiprocessing.parent_process().sentinel, selectors.EVENT_READ)
    incoming = bytearray()
    with contextlib.suppress(OSError):  # the parent hung up mid-exchange
        while [key.fileobj for key, _events in watch.select()] == [channel]:
            if not (chunk := channel.recv(_RECV_BYTES)):
                break  # ``close()``
            incoming += chunk
            for message in pop_frames(incoming):
                channel.sendall(reply(*message))


class _Channel:
    """The parent's end of one shard's socket: two byte buffers and a lock, no thread.

    Any thread sends (a worker that does not read costs memory, never a
    thread's time); the readiness callbacks of ``loop`` read the replies and
    flush what a send left behind.  The lock is the outgoing buffer's: any
    thread sends while the loop flushes.
    """

    def __init__(
        self,
        sock: socket.socket,
        loop: asyncio.AbstractEventLoop,
        on_message: Callable,
        on_eof: Callable[[], None],
    ):
        sock.setblocking(False)
        self.sock, self.loop = sock, loop
        self.lock = threading.Lock()
        self.incoming, self.outgoing = bytearray(), bytearray()
        self._on_message, self._on_eof = on_message, on_eof
        loop.call_soon_threadsafe(loop.add_reader, sock, self.readable)

    def readable(self) -> None:
        try:
            chunk = self.sock.recv(_RECV_BYTES)
        except OSError:
            chunk = b""
        self.incoming += chunk
        for message in pop_frames(self.incoming):
            self._on_message(message)
        if not chunk:  # EOF: the worker is gone
            self.loop.remove_reader(self.sock)
            self._on_eof()

    def send(self, frame: bytes) -> None:
        """Never blocks: what the socket does not take now waits for :meth:`writable`."""
        with self.lock:
            idle = not self.outgoing
            self.outgoing += frame
            if idle and not self._flush():
                self.loop.call_soon_threadsafe(self.loop.add_writer, self.sock, self.writable)

    def writable(self) -> None:
        with self.lock:
            if self._flush():
                self.loop.remove_writer(self.sock)

    def _flush(self) -> bool:
        """Write what the socket takes of ``outgoing``; whether that was all of it."""
        try:
            sent = self.sock.send(self.outgoing)
        except BlockingIOError:
            sent = 0
        except OSError:  # a dead worker: the EOF on the read side reports it
            sent = len(self.outgoing)
        del self.outgoing[:sent]
        return not self.outgoing


class ShardedExecutor:
    """N worker processes, documents routed by stable hash of their id.

    Implements the same serving-backend surface as
    :class:`~repro.service.executor.BatchExecutor` (``execute``,
    ``execute_batch``, ``register_payload``, ``evict_document``,
    ``describe_documents``, ``document_count``, ``stats``), so the HTTP front
    end works with either interchangeably.
    """

    def __init__(
        self,
        shards: int = DEFAULT_SHARDS,
        store_capacity: Optional[int] = None,
        cache_capacity: Optional[int] = 1024,
        start_method: Optional[str] = None,
        accel_db: Optional[str] = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.accel_db = accel_db
        context = multiprocessing.get_context(start_method or _default_start_method())
        self._seq = itertools.count()
        self._lock = threading.Lock()
        #: seq -> (future, shard): the shard lets a worker death fail exactly
        #: the requests that were riding on it.
        self._pending: dict[int, tuple[Future, int]] = {}
        self._broken: set[int] = set()
        self._batches = 0
        self._closed = False
        self._processes, sockets = [], []
        for shard in range(shards):
            ours, theirs = socket.socketpair()
            process = context.Process(
                target=_shard_worker_main,
                args=(shard, theirs, store_capacity, cache_capacity, accel_db),
                name=f"cq-trees-shard-{shard}",
                daemon=True,
            )
            process.start()
            # The worker holds the only copy of its end (a sibling forked later
            # must not inherit one), so its death is an EOF on ours.
            theirs.close()
            self._processes.append(process)
            sockets.append(ours)
        # The I/O loop goes up only after the forks: workers must not inherit
        # a half-started parent thread.
        self._io_loop = asyncio.new_event_loop()
        self._channels = [
            _Channel(ours, self._io_loop, self._resolve, partial(self._fail_shard, shard))
            for shard, ours in enumerate(sockets)
        ]
        self._io_thread = threading.Thread(
            target=self._io_loop.run_forever, name="cq-trees-shard-io", daemon=True
        )
        self._io_thread.start()

    # -- plumbing --------------------------------------------------------------

    def _off_loop(self) -> None:
        """The guard of every call that blocks on a reply: not on the thread that reads it."""
        if asyncio._get_running_loop() is self._io_loop:  # ``None`` off every loop
            raise RuntimeError("blocking ShardedExecutor call on the loop that reads its replies")

    def _resolve(self, message: tuple) -> None:
        """One reply off a channel: settle the future that waits for it."""
        seq, status, value = message
        with self._lock:
            future, _ = self._pending.pop(seq, (None, None))
        if future is not None and status == "ok":
            future.set_result(value)
        elif future is not None:  # ``None``: a reply that crossed ``close()``
            future.set_exception(ValueError(value))

    def _fail_shard(self, shard: int) -> None:
        """A worker died: fail its in-flight requests, refuse new ones."""
        with self._lock:
            if self._closed:  # the EOF ``close()`` asked for
                return
            self._broken.add(shard)
            doomed = [seq for seq, (_future, owner) in self._pending.items() if owner == shard]
            futures = [self._pending.pop(seq)[0] for seq in doomed]
        for future in futures:
            future.set_exception(
                ValueError(f"shard {shard} worker died; its in-flight requests were dropped")
            )

    def _dispatch(self, shard: int, method: str, *arguments) -> Future:
        """Send one method call to one shard; returns its reply future."""
        seq = next(self._seq)
        frame = encode_frame((seq, method, arguments))  # pickled on the caller's thread
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedExecutor is closed")
            future: Future = Future()
            future.set_running_or_notify_cancel()  # sent at once: nothing left to cancel
            if shard in self._broken:
                # Like every other failure of the call, a value in its future.
                future.set_exception(
                    ValueError(f"shard {shard} worker is not running (restart the server)")
                )
                return future
            self._pending[seq] = (future, shard)
        self._channels[shard].send(frame)
        return future

    def _broadcast(self, method: str, *arguments) -> list:
        """Call one method on every shard; replies in shard order."""
        self._off_loop()
        futures = [self._dispatch(shard, method, *arguments) for shard in range(self.shards)]
        return [future.result() for future in futures]

    def shard_of(self, doc_id: str) -> int:
        """The shard index owning ``doc_id``."""
        return shard_for(doc_id, self.shards)

    def close(self) -> None:
        """Stop the workers and the I/O loop; pending requests get an error."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for channel in self._channels:
            # EOF at the worker, whoever else holds a copy of this end: it
            # exits after the request it is in.
            channel.sock.shutdown(socket.SHUT_RDWR)
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        self._io_loop.call_soon_threadsafe(self._io_loop.stop)
        self._io_thread.join(timeout=_JOIN_TIMEOUT)
        self._io_loop.close()
        for channel in self._channels:
            channel.sock.close()
        for future, _shard in pending:  # pragma: no cover - close with work in flight
            future.set_exception(RuntimeError("ShardedExecutor closed"))

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # -- requests --------------------------------------------------------------

    def submit(self, request: Request) -> "Future[RequestResult]":
        """Route one request to its document's shard; returns its future."""
        return self._dispatch(self.shard_of(request.doc), "execute", request)

    def execute(self, request: Request) -> RequestResult:
        """Evaluate one request on its owning shard (blocking)."""
        self._off_loop()
        return self.submit(request).result()

    def execute_batch(
        self,
        requests: Sequence[Request],
        max_workers: Optional[int] = None,  # noqa: ARG002 - interface parity
    ) -> list[RequestResult]:
        """Evaluate a batch across the shards; results in request order.

        ``max_workers`` is accepted for interface parity with the thread
        backend and ignored: parallelism here *is* the shard layout (each
        shard serves its slice of the batch serially, in order).

        A broken shard (dead worker) never aborts the batch: its requests
        come back as per-request ``internal:`` errors, like every other
        failure.
        """
        self._off_loop()
        with self._lock:
            self._batches += 1
        futures = [self.submit(request) for request in requests]
        results = []
        for request, future in zip(requests, futures):
            try:
                results.append(future.result())
            except Exception as error:  # noqa: BLE001 - per-request contract
                results.append(
                    RequestResult(doc=request.doc, error=f"internal: {error}")
                )
        return results

    # -- document operations ---------------------------------------------------

    def register_payload(self, payload: dict, allow_files: bool = False) -> dict:
        """Register a document on its owning shard; returns its summary."""
        if not isinstance(payload, dict):
            raise ValueError("registration payload must be a JSON object")
        doc_id = payload.get("doc")
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError("registration needs a non-empty 'doc' document id")
        self._off_loop()
        return self._dispatch(
            self.shard_of(doc_id), "register_payload", dict(payload), allow_files
        ).result()

    def evict_document(self, doc_id: str) -> bool:
        """Evict from the owning shard; ``True`` iff it was resident."""
        self._off_loop()
        return self._dispatch(self.shard_of(doc_id), "evict_document", doc_id).result()

    def describe_documents(self) -> list[dict]:
        """Every shard's resident-document summaries, in shard order."""
        return [
            summary
            for shard_documents in self._broadcast("describe_documents")
            for summary in shard_documents
        ]

    def document_count(self) -> int:
        """Total resident documents across all shards."""
        return sum(self._broadcast("document_count"))

    # -- statistics ------------------------------------------------------------

    def shard_load(self) -> list[dict]:
        """Per-shard live-load snapshot: queue depth, in-flight ops, liveness.

        Fleet sums hide a hot shard (one worker pegged while the others idle
        averages out to "fine"); this surfaces the skew per shard.  In-flight
        counts are the parent's pending futures per owning shard; a shard is
        FIFO-serial, so all but one of them are queued (``queue_depth``).
        Taken *before* any stats broadcast so the probe does not count itself.
        """
        with self._lock:
            in_flight = [0] * self.shards
            for _future, owner in self._pending.values():
                in_flight[owner] += 1
            broken = set(self._broken)
        return [
            {
                "shard": shard,
                "queue_depth": max(in_flight[shard] - 1, 0),
                "in_flight": in_flight[shard],
                "alive": shard not in broken,
            }
            for shard in range(self.shards)
        ]

    def stats(self) -> dict:
        """Aggregated executor/store/cache statistics plus per-shard detail."""
        shard_load = self.shard_load()
        shard_stats = self._broadcast("stats")
        store_keys = (
            "documents",
            "accel_only_documents",
            "resident_nodes",
            "registered",
            "evicted",
            "hits",
            "misses",
        )
        cache_keys = ("entries", "parse_entries", "hits", "misses", "parse_hits")
        store = {key: sum(s["store"][key] for s in shard_stats) for key in store_keys}
        cache = {key: sum(s["cache"][key] for s in shard_stats) for key in cache_keys}
        # Capacities are per shard; the fleet-level bound is their sum, so
        # aggregated documents/entries can never exceed the reported capacity.
        store_capacity = shard_stats[0]["store"]["capacity"]
        cache_capacity = shard_stats[0]["cache"]["capacity"]
        store["capacity"] = None if store_capacity is None else store_capacity * self.shards
        cache["capacity"] = None if cache_capacity is None else cache_capacity * self.shards
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = (cache["hits"] / lookups) if lookups else 0.0
        with self._lock:
            batches = self._batches
        # Slow queries merge across shards: flatten, tag with the owning
        # shard, keep the globally slowest entries up to one ring's capacity.
        slow_entries = [
            {**entry, "shard": s["shard"]}
            for s in shard_stats
            for entry in s["slow_queries"]["entries"]
        ]
        slow_entries.sort(key=lambda entry: entry["elapsed_ms"], reverse=True)
        slow_queries = {
            "capacity": SLOW_LOG.capacity,
            "threshold_ms": SLOW_LOG.threshold_ms,
            "recorded": sum(s["slow_queries"]["recorded"] for s in shard_stats),
            "entries": slow_entries[: SLOW_LOG.capacity],
        }
        # Plan-vs-actual accounting merges like the histograms do: each shard
        # ships its snapshot inside the stats reply, the parent sums the
        # calibrations and re-ranks the union of top-drift tables.  The raw
        # snapshots are popped from the per-shard detail (the merged rendering
        # supersedes them).
        accounting = PlanAccounting(capacity=ACCOUNTING.capacity)
        for s in shard_stats:
            accounting.merge_snapshot(s.pop("plan_accounting"))
        return {
            "executor": {
                "backend": "sharded",
                "shards": self.shards,
                "requests": sum(s["requests"] for s in shard_stats),
                "errors": sum(s["errors"] for s in shard_stats),
                "batches": batches,
                "shard_load": shard_load,
            },
            "store": store,
            "cache": cache,
            "slow_queries": slow_queries,
            "plan_accounting": accounting.stats(),
            "shards": shard_stats,
        }

    def render_metrics(self) -> str:
        """Fleet-wide Prometheus text: every worker's snapshot summed.

        Each worker ships its counter values and histogram bucket arrays over
        the control channel (the ``metrics`` message); the parent sums them --
        element-wise for buckets -- together with its own registry (front-end
        route metrics live in the parent), so one scrape sees fleet totals
        and true merged latency distributions.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(REGISTRY.snapshot())
        for snapshot in self._broadcast("metrics"):
            merged.merge_snapshot(snapshot)
        return merged.render()

    # -- profiling -------------------------------------------------------------

    def profile_control(self, action: str, hz: Optional[int] = None) -> dict:
        """Apply a profiler action fleet-wide: the parent *and* every worker.

        Evaluation happens in the workers but the front end and the channel
        I/O live in the parent, so both sides sample.  Returns the parent's
        status annotated with the worker count (a worker whose action disagreed
        -- e.g. already running -- is fine: the actions are idempotent).
        """
        status = PROFILER.control(action, hz)
        workers = self._broadcast("profile_control", action, hz)
        status["workers"] = len(workers)
        return status

    def profile_snapshot(self) -> dict:
        """Fleet-wide folded stacks: the parent's plus every worker's, summed."""
        return merge_snapshots([PROFILER.snapshot(), *self._broadcast("profile_snapshot")])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedExecutor(shards={self.shards}, closed={self._closed})"

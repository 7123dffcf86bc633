"""Process-sharded serving backend: per-shard stores and caches, multi-core scaling.

The thread-pool backend (:class:`~repro.service.executor.BatchExecutor`)
shares one set of resident artifacts across worker threads -- simple and
memory-lean, but CPython's GIL serializes the actual evaluation work, so one
process can never use more than one core.  :class:`ShardedExecutor` scales
*out* instead: it owns ``N`` worker **processes**, each a private
``BatchExecutor`` (its own :class:`~repro.service.store.DocumentStore` +
:class:`~repro.service.cache.QueryCache`) behind a queue.  A message names one
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

The parent talks to each worker over a pair of ``multiprocessing`` queues;
:meth:`ShardedExecutor.submit` returns a :class:`concurrent.futures.Future`
resolved by a per-shard listener thread, which is what the async front end
awaits.  Each shard consumes its inbox in FIFO order, so per-shard execution
is serial and deterministic; cross-shard parallelism is the scaling axis.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import zlib
from concurrent.futures import Future
from typing import Optional, Sequence

from ..observability.accounting import ACCOUNTING, PlanAccounting
from ..observability.metrics import REGISTRY, SLOW_LOG, MetricsRegistry
from ..observability.profiler import PROFILER, merge_snapshots
from .cache import QueryCache
from .core import REQUEST_ERRORS, Request, RequestResult
from .executor import BatchExecutor
from .store import DocumentStore

#: Default number of worker processes.
DEFAULT_SHARDS = 2

#: Seconds to wait for a worker to drain and exit at close before terminating.
_JOIN_TIMEOUT = 10.0

#: How often an idle worker checks whether its parent process still exists.
_PARENT_POLL_SECONDS = 5.0

#: How often an idle listener checks whether its worker process still exists.
_WORKER_POLL_SECONDS = 1.0


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
    inbox,
    outbox,
    store_capacity: Optional[int],
    cache_capacity: Optional[int],
    accel_db: Optional[str] = None,
) -> None:
    """One worker process: a private ``BatchExecutor``, serving its inbox FIFO.

    Every message is ``(seq, method, arguments)`` with ``method`` one of
    :data:`WORKER_METHODS`; every reply is ``(seq, status, value)`` with
    ``status`` in ``{"ok", "error"}``.  ``None`` is the shutdown sentinel.
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
    parent = multiprocessing.parent_process()
    while True:
        try:
            message = inbox.get(timeout=_PARENT_POLL_SECONDS)
        except queue.Empty:
            # If the parent died without sending the sentinel (SIGKILL, hard
            # crash), exit instead of lingering as an orphan forever.
            if parent is not None and not parent.is_alive():
                break
            continue
        if message is None:
            break
        seq, method, arguments = message
        try:
            if method not in handlers:
                raise ValueError(f"unknown shard method {method!r}")
            outbox.put((seq, "ok", handlers[method](*arguments)))
        except REQUEST_ERRORS as error:
            # Client-fault errors cross the boundary verbatim so the parent's
            # re-raise carries the same message as the threaded backend would
            # (e.g. a malformed-XML registration answers the identical 400).
            outbox.put((seq, "error", str(error)))
        except Exception as error:  # noqa: BLE001 - errors travel as values
            outbox.put((seq, "error", f"{type(error).__name__}: {error}"))


class ShardedExecutor:
    """N worker processes, documents routed by stable hash of their id.

    Implements the same serving-backend surface as
    :class:`~repro.service.executor.BatchExecutor` (``execute``, ``submit``,
    ``execute_batch``, ``register_payload``, ``evict_document``,
    ``describe_documents``, ``document_count``, ``stats``), so the HTTP front
    ends work with either interchangeably.
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
        self._inboxes = [context.Queue() for _ in range(shards)]
        self._outboxes = [context.Queue() for _ in range(shards)]
        self._processes = [
            context.Process(
                target=_shard_worker_main,
                args=(shard, self._inboxes[shard], self._outboxes[shard],
                      store_capacity, cache_capacity, accel_db),
                name=f"cq-trees-shard-{shard}",
                daemon=True,
            )
            for shard in range(shards)
        ]
        for process in self._processes:
            process.start()
        # Listener threads go up only after the forks: workers must not
        # inherit half-started parent threads.
        self._listeners = [
            threading.Thread(
                target=self._listen,
                args=(shard,),
                name=f"cq-trees-shard-listener-{shard}",
                daemon=True,
            )
            for shard in range(shards)
        ]
        for listener in self._listeners:
            listener.start()

    # -- plumbing --------------------------------------------------------------

    def _listen(self, shard: int) -> None:
        """Resolve futures from one shard's reply queue until the sentinel.

        The blocking get is bounded so a worker that died without replying
        (OOM kill, segfault) is noticed within :data:`_WORKER_POLL_SECONDS`:
        its in-flight requests fail instead of hanging their clients forever,
        and the shard is marked broken so later dispatches fail fast.
        """
        outbox = self._outboxes[shard]
        process = self._processes[shard]
        while True:
            try:
                message = outbox.get(timeout=_WORKER_POLL_SECONDS)
            except queue.Empty:
                if not process.is_alive() and not self._closed:
                    self._fail_shard(shard)
                    return
                continue
            if message is None:
                return
            seq, status, value = message
            with self._lock:
                future, _ = self._pending.pop(seq, (None, None))
            if future is None:  # pragma: no cover - reply after cancellation
                continue
            if status == "ok":
                future.set_result(value)
            else:
                future.set_exception(ValueError(value))

    def _fail_shard(self, shard: int) -> None:
        """A worker died: fail its in-flight requests, refuse new ones."""
        with self._lock:
            self._broken.add(shard)
            doomed = [
                (seq, future)
                for seq, (future, owner) in self._pending.items()
                if owner == shard
            ]
            for seq, _future in doomed:
                del self._pending[seq]
        for _seq, future in doomed:
            future.set_exception(
                ValueError(f"shard {shard} worker died; its in-flight requests were dropped")
            )

    def _dispatch(self, shard: int, method: str, *arguments) -> Future:
        """Enqueue one method call on one shard; returns its reply future."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ShardedExecutor is closed")
            future: Future = Future()
            if shard in self._broken:
                # Like every other failure of the call, a value in its future.
                future.set_exception(
                    ValueError(f"shard {shard} worker is not running (restart the server)")
                )
                return future
            seq = next(self._seq)
            self._pending[seq] = (future, shard)
        self._inboxes[shard].put((seq, method, arguments))
        return future

    def _broadcast(self, method: str, *arguments) -> list:
        """Call one method on every shard; replies in shard order."""
        futures = [self._dispatch(shard, method, *arguments) for shard in range(self.shards)]
        return [future.result() for future in futures]

    def shard_of(self, doc_id: str) -> int:
        """The shard index owning ``doc_id``."""
        return shard_for(doc_id, self.shards)

    def close(self) -> None:
        """Stop the workers and listeners; pending requests get an error."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for inbox in self._inboxes:
            inbox.put(None)
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
        for outbox in self._outboxes:
            outbox.put(None)
        for listener in self._listeners:
            listener.join(timeout=_JOIN_TIMEOUT)
        for future, _shard in pending:  # pragma: no cover - close with work in flight
            if not future.done():
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
        with self._lock:
            self._batches += 1
        futures = [self.submit(request) for request in requests]
        results = []
        for request, future in zip(requests, futures):
            try:
                results.append(future.result())
            except Exception as error:  # noqa: BLE001 - per-request contract
                results.append(
                    RequestResult(
                        doc=request.doc,
                        propagator=str(request.propagator),
                        error=f"internal: {error}",
                    )
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
        return self._dispatch(
            self.shard_of(doc_id), "register_payload", dict(payload), allow_files
        ).result()

    def evict_document(self, doc_id: str) -> bool:
        """Evict from the owning shard; ``True`` iff it was resident."""
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
        averages out to "fine"); this surfaces the skew per shard.  Queue
        depths come from the parent's end of each inbox (``None`` on
        platforms whose queues cannot report a size); in-flight counts are
        the parent's pending futures per owning shard.  Taken *before* any
        stats broadcast so the probe does not count itself.
        """
        with self._lock:
            in_flight = {shard: 0 for shard in range(self.shards)}
            for _future, owner in self._pending.values():
                in_flight[owner] = in_flight.get(owner, 0) + 1
            broken = set(self._broken)
        load = []
        for shard in range(self.shards):
            try:
                depth = self._inboxes[shard].qsize()
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depth = None
            load.append(
                {
                    "shard": shard,
                    "queue_depth": depth,
                    "in_flight": in_flight[shard],
                    "alive": shard not in broken,
                }
            )
        return load

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

        Evaluation happens in the workers but the front end, the listener
        threads and the queue plumbing live in the parent, so both sides
        sample.  Returns the parent's status annotated with the worker count
        (a worker whose action disagreed -- e.g. already running -- is fine:
        the actions are idempotent).
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

"""The batch executor: concurrent request evaluation over resident artifacts.

A request names a resident document, a query (datalog text, XPath text, or a
query object), a propagator, and an optional answer limit.
:class:`BatchExecutor` is the in-process serving backend: it owns a
:class:`~repro.service.store.DocumentStore` and a
:class:`~repro.service.cache.QueryCache`, evaluates single requests, and fans
request batches out over a thread pool -- every worker sharing the same
resident indexes, label sets and compiled plans.  The HTTP front end calls it
inline, on each connection's thread.  The process-sharded backend
(:class:`~repro.service.shards.ShardedExecutor`) does not re-implement any of
this: each of its worker processes owns a ``BatchExecutor`` and calls the
methods below by name, so both uphold the same contract.

Determinism: results come back in request order; each answer list is sorted
ascending (node-id tuples), with ``limit`` applied *after* sorting; and the
answer sets are byte-for-byte those of a sequential
:func:`repro.evaluation.planner.evaluate` call, for every propagator --
evaluation over the shared artifacts is pure, and CPython's GIL plus the
read-only index structures make the concurrent path safe.  Failures are
per-request values (``error`` field), never batch aborts -- including
unexpected (``internal:``) exceptions, which are caught into the result.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from ..observability.accounting import ACCOUNTING
from ..observability.metrics import REGISTRY, SLOW_LOG
from ..observability.profiler import PROFILER
from .cache import QueryCache
from .core import Request, RequestResult, run_request
from .store import DocumentStore

__all__ = ["BatchExecutor", "DEFAULT_MAX_WORKERS", "Request", "RequestResult"]

#: Default worker-thread bound for batch execution.
DEFAULT_MAX_WORKERS = 8


class BatchExecutor:
    """Evaluate requests (and request batches) over resident artifacts."""

    def __init__(
        self,
        store: Optional[DocumentStore] = None,
        cache: Optional[QueryCache] = None,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.store = store if store is not None else DocumentStore()
        self.cache = cache if cache is not None else QueryCache()
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._requests = 0
        self._errors = 0
        self._batches = 0

    def _shared_pool(self) -> ThreadPoolExecutor:
        """The persistent worker pool (created lazily, reused across batches)."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="cq-trees-batch",
                )
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; the executor stays usable
        for sequential calls and will lazily rebuild the pool if batched
        again)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- single requests -------------------------------------------------------

    def execute(self, request: Request) -> RequestResult:
        """Evaluate one request; all failures land in ``result.error``."""
        with self._lock:
            self._requests += 1
        result = run_request(self.store, self.cache, request)
        if not result.ok:
            with self._lock:
                self._errors += 1
        return result

    # -- batches ---------------------------------------------------------------

    def execute_batch(
        self,
        requests: Sequence[Request],
        max_workers: Optional[int] = None,
    ) -> list[RequestResult]:
        """Evaluate a batch concurrently; results come back in request order."""
        with self._lock:
            self._batches += 1
        workers = max_workers if max_workers is not None else self.max_workers
        workers = max(1, min(workers, len(requests) or 1))
        if workers == 1 or len(requests) <= 1:
            return [self.execute(request) for request in requests]
        if max_workers is not None and max_workers < self.max_workers:
            # A caller-imposed tighter bound needs its own pool; the common
            # serving path reuses the persistent one below.
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(self.execute, requests))
        return list(self._shared_pool().map(self.execute, requests))

    # -- document operations (the serving-backend contract) --------------------

    def register_payload(self, payload: dict, allow_files: bool = False) -> dict:
        """Register a document from its wire payload; returns its summary."""
        return self.store.register_payload(payload, allow_files=allow_files).describe()

    def evict_document(self, doc_id: str) -> bool:
        """Drop one resident document; ``True`` iff it was resident."""
        return self.store.evict(doc_id)

    def describe_documents(self) -> list[dict]:
        """Summaries of every resident document."""
        return self.store.describe()

    def document_count(self) -> int:
        """How many documents are resident."""
        return len(self.store)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            executor = {
                "backend": "threaded",
                "requests": self._requests,
                "errors": self._errors,
                "batches": self._batches,
                "max_workers": self.max_workers,
            }
        return {
            "executor": executor,
            "store": self.store.stats(),
            "cache": self.cache.stats(),
            "slow_queries": SLOW_LOG.stats(),
            "plan_accounting": ACCOUNTING.stats(),
        }

    def render_metrics(self) -> str:
        """The Prometheus text exposition of this process's registry."""
        self.store.refresh_metrics()
        return REGISTRY.render()

    # -- profiling (the serving-backend contract) ------------------------------

    def profile_control(self, action: str, hz: Optional[int] = None) -> dict:
        """Apply a profiler start/stop/clear action to this process."""
        return PROFILER.control(action, hz)

    def profile_snapshot(self) -> dict:
        """The profiler's folded-stack snapshot for this process."""
        return PROFILER.snapshot()

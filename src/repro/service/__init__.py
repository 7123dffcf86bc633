"""The serving layer: resident documents, cached query plans, batch execution.

Single-query evaluation (PR 1/2) made one ``evaluate()`` call fast; this
package amortizes every per-tree and per-query artifact across a *stream* of
requests, the way an embedded or networked query service runs:

* :mod:`~repro.service.store` -- :class:`DocumentStore`: trees registered
  under stable ids with their interval index, label inverted index and
  initial-domain sets resident; explicit + LRU eviction;
* :mod:`~repro.service.cache` -- :class:`QueryCache`: parse -> canonicalize ->
  compile -> plan memoized behind a renaming-invariant canonical key, so
  alpha-equivalent resubmissions share one compiled plan;
* :mod:`~repro.service.core` -- the shared request-execution core
  (:class:`Request`, :class:`RequestResult`, :func:`run_request`): one code
  path, one contract, for every backend;
* :mod:`~repro.service.executor` -- :class:`BatchExecutor`: concurrent,
  deterministic evaluation of request batches over the shared artifacts
  (thread backend);
* :mod:`~repro.service.shards` -- :class:`ShardedExecutor`: N worker
  *processes*, each a private ``BatchExecutor`` behind a socket, documents
  routed by stable hash of their id (multi-core backend);
* :mod:`~repro.service.routes` -- the HTTP contract, written once: the table
  from ``(method, path)`` to *validate -> call the executor -> render*;
* :mod:`~repro.service.framing` -- HTTP/1.1 framing, written once: the head
  parser, the body-length rule, the read path and the head renderer;
* :mod:`~repro.service.server` -- the socket loop around the two
  (``cq-trees serve [--shards N]``): one thread per connection, the table
  called inline, whichever executor is behind it.
"""

from .cache import CachedQuery, QueryCache
from .core import Request, RequestResult, run_request
from .executor import BatchExecutor
from .server import ServiceHTTPServer, make_server
from .shards import ShardedExecutor, shard_for
from .store import DocumentNotFound, DocumentStore, StoredDocument, preload

__all__ = [
    "BatchExecutor",
    "CachedQuery",
    "DocumentNotFound",
    "DocumentStore",
    "QueryCache",
    "Request",
    "RequestResult",
    "ServiceHTTPServer",
    "ShardedExecutor",
    "StoredDocument",
    "make_server",
    "preload",
    "run_request",
    "shard_for",
]

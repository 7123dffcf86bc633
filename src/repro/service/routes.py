"""The serving contract, written once: a table from ``(method, path)`` to an answer.

This is the only module that knows a path (:data:`ROUTES`).  The socket loop
(:mod:`~repro.service.server`) is *framing* around it -- it reads a request
and writes a response -- and every row is *validate the input -> call the
executor -> render*.

A request object is the wire form of :class:`~repro.service.core.Request`;
responses mirror :meth:`~repro.service.core.RequestResult.to_json_dict`.
Malformed bodies answer 400, unknown paths 404 and unsupported methods 501.
Unknown document *ids* are request-level failures, not path lookups:
``/query`` answers 400 with the error, and inside a batch they stay
per-request (HTTP 200 with ``error`` fields), so one bad request never voids
its batchmates.  Only ``DELETE /documents/ID`` treats the id as a resource and
answers 404.

:func:`respond` is the whole contract, the executor called inline on the
connection's thread: JSON encode, client error -> 400 and the route metric
each happen once.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, NamedTuple

from .core import REQUEST_ERRORS, Request
from .http_metrics import METRICS_CONTENT_TYPE, observe_http, route_latency_summary


class Response(NamedTuple):
    """All the socket loop needs to write."""

    status: int
    content_type: str
    body: bytes
    #: What ``body`` was encoded from.  It rides along to be dropped with the
    #: response, *after* the write: freeing a large answer between the encode
    #: and the socket is latency the client sees (0.24 ms on a 79 kB body).
    payload: Any = None


class Route(NamedTuple):
    """One row of the table."""

    #: The serving-backend method the row calls.
    call: str
    #: The row's input -- a POST body's JSON object, the ``ID`` of
    #: ``/documents/ID``, ``None`` for a GET -- to the call's positional
    #: arguments; raises a :data:`REQUEST_ERRORS` member on a malformed one.
    arguments: Callable[[Any], tuple] = lambda _given: ()
    #: ``(the call's value, *its arguments) -> (status, payload)``; a ``str``
    #: payload is a pre-rendered text exposition, anything else is JSON.
    render: Callable[..., tuple[int, Any]] = lambda value, *_arguments: (200, value)


def _batch_arguments(payload: dict) -> tuple:
    raw_requests = payload.get("requests")
    if not isinstance(raw_requests, list):
        raise ValueError("batch body needs a 'requests' list")
    max_workers = payload.get("max_workers")
    # ``bool`` is rejected explicitly (as for ``limit``): ``True`` passes
    # ``isinstance(x, int)``, so ``{"max_workers": true}`` would mean ``1``.
    if max_workers is not None and (
        isinstance(max_workers, bool) or not isinstance(max_workers, int) or max_workers < 1
    ):
        raise ValueError("'max_workers' must be a positive integer")
    return [Request.from_json_dict(item) for item in raw_requests], max_workers


def _profile_arguments(payload: dict) -> tuple:
    unknown = set(payload) - {"action", "hz"}
    if unknown:
        raise ValueError(f"unknown profile field(s): {', '.join(sorted(unknown))}")
    action = payload.get("action")
    if not isinstance(action, str) or not action:
        raise ValueError("profile body needs an 'action' string (start|stop|clear)")
    hz = payload.get("hz")
    if hz is not None and (isinstance(hz, bool) or not isinstance(hz, int)):
        raise ValueError("'hz' must be an integer")
    return action, hz


def _render_stats(stats: dict) -> tuple[int, dict]:
    # The HTTP-layer latency summary is front-end state (it lives in the
    # serving process under both backends), so it is merged here rather than
    # inside the executor.
    stats["http"] = route_latency_summary()
    return 200, stats


def _render_batch(results, *_arguments) -> tuple[int, dict]:
    return 200, {
        "results": [result.to_json_dict() for result in results],
        "errors": sum(1 for result in results if not result.ok),
    }


def _render_eviction(evicted: bool, doc_id: str) -> tuple[int, dict]:
    if evicted:
        return 200, {"evicted": doc_id}
    return 404, {"error": f"unknown document id {doc_id!r}"}


#: Paths under this prefix name one document: the row is keyed ``{id}``.
_DOCUMENT_PREFIX = "/documents/"

ROUTES: dict[tuple[str, str], Route] = {
    # Liveness; answers even when evaluation is saturated.
    ("GET", "/healthz"): Route(
        "document_count", render=lambda count: (200, {"status": "ok", "documents": count})
    ),
    # Executor + store + cache statistics, slow queries, the drift ledger.
    ("GET", "/stats"): Route("stats", render=_render_stats),
    # The Prometheus text exposition (shard-merged histograms).
    ("GET", "/metrics"): Route("render_metrics"),
    ("GET", "/documents"): Route(
        "describe_documents", render=lambda documents: (200, {"documents": documents})
    ),
    # The sampling profiler: folded stacks out, ``{"action", "hz"?}`` in.
    ("GET", "/profile"): Route("profile_snapshot"),
    ("POST", "/profile"): Route("profile_control", _profile_arguments),
    # Register ``{"doc": id, "xml": ...}`` or ``{"doc": id, "sexpr": ...}``.
    # ``allow_files`` keeps its default (False) over HTTP: clients must not
    # be able to make the server read its own filesystem.
    ("POST", "/documents"): Route("register_payload", lambda payload: (payload,)),
    ("DELETE", _DOCUMENT_PREFIX + "{id}"): Route(
        "evict_document", lambda doc_id: (doc_id,), _render_eviction
    ),
    # One request object.
    ("POST", "/query"): Route(
        "execute",
        lambda payload: (Request.from_json_dict(payload),),
        lambda result, _request: (200 if result.ok else 400, result.to_json_dict()),
    ),
    # ``{"requests": [request object, ...], "max_workers"?: N}``.
    ("POST", "/batch"): Route("execute_batch", _batch_arguments, _render_batch),
}

_METHODS = frozenset(method for method, _path in ROUTES)


def _answer(started: float, method: str, path: str, status: int, payload: Any) -> Response:
    """Encode one answer and count it: the only place a response body is built.

    Counted before the loop writes it (not after): a client that reads this
    response and immediately scrapes ``/metrics`` must find it there.
    """
    if isinstance(payload, str):
        content_type, body = METRICS_CONTENT_TYPE, payload.encode("utf-8")
    else:
        # Payloads are trees built by ``to_json_dict`` / the render functions:
        # the encoder's cycle check (an ``id()`` insert and delete per
        # container, 40 % of a 79 kB body's encode) has nothing to find.
        content_type = "application/json"
        body = json.dumps(payload, check_circular=False).encode("utf-8")
    observe_http(path, method, status, time.perf_counter() - started)
    return Response(status, content_type, body, payload)


def refuse(status: int, message: str, method: str = "", path: str = "") -> Response:
    """The socket loop's own refusal (a malformed head, a body it will not read)
    in the table's error form; ``method`` and ``path`` as far as it parsed them."""
    return _answer(time.perf_counter(), method, path, status, {"error": message})


def _json_object(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValueError(f"invalid JSON body: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def respond(executor, method: str, path: str, body: bytes) -> Response:
    """One request through the table: find the row, validate, call, render.

    501 for a method no row has, 404 for an unknown path, 400 for a malformed
    input or a client error out of the executor call.
    """
    started = time.perf_counter()
    try:
        if method not in _METHODS:
            status, payload = 501, {"error": f"Unsupported method ({method!r})"}
        else:
            given = _json_object(body) if method == "POST" else None
            if path.startswith(_DOCUMENT_PREFIX) and len(path) > len(_DOCUMENT_PREFIX):
                route = ROUTES.get((method, _DOCUMENT_PREFIX + "{id}"))
                given = path[len(_DOCUMENT_PREFIX) :]
            else:
                route = ROUTES.get((method, path))
            if route is None:
                status, payload = 404, {"error": f"unknown path {path!r}"}
            else:
                arguments = route.arguments(given)
                value = getattr(executor, route.call)(*arguments)
                status, payload = route.render(value, *arguments)
    except REQUEST_ERRORS as error:  # e.g. malformed XML, a shard whose worker died
        status, payload = 400, {"error": str(error)}
    except Exception:
        # The connection is about to die unanswered; the scrape should still
        # see the failure.
        observe_http(path, method, 500, time.perf_counter() - started)
        raise
    return _answer(started, method, path, status, payload)

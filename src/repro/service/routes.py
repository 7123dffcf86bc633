"""The serving contract, written once: a table from ``(method, path)`` to an answer.

This is the only module that knows a path (:data:`ROUTES`).  The socket loop
(:mod:`~repro.service.server`) is *framing* around it -- it reads a request
and writes a response -- and every row is *validate the input -> call the
executor -> render*.

A request object is the wire form of :class:`~repro.service.core.Request`;
responses are the bytes of ``json.dumps`` of
:meth:`~repro.service.core.RequestResult.to_json_dict`, but built from the
page's columns (:func:`_answer`): the scalar fields go through
``json.dumps``, the ``answers`` array is joined from :data:`_DECIMALS`, a
process-wide table of node-id decimal strings, so no row becomes a tuple and
no node id is formatted twice.
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
import math
import threading
import time
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..trees.columnar import AnswerPage
from .core import REQUEST_ERRORS, Request, RequestResult
from .http_metrics import METRICS_CONTENT_TYPE, observe_http, route_latency_summary

#: Node ids below this are formatted once per process, into :data:`_DECIMALS`
#: (about 60 bytes each); a column holding one at or past it is formatted
#: with ``str``.
DECIMAL_TABLE_CAP = 1 << 18
#: ``_DECIMALS[i] == str(i)``, grown on demand (under :data:`_DECIMALS_LOCK`)
#: to the largest id a response has asked for, up to :data:`DECIMAL_TABLE_CAP`.
_DECIMALS: list[str] = []
_DECIMALS_LOCK = threading.Lock()


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


def _render_batch(results, *_arguments) -> tuple[int, list]:
    # The list of results is the payload: :func:`_answer` encodes it as a batch.
    return 200, results


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
        lambda result, _request: (200 if result.ok else 400, result),
    ),
    # ``{"requests": [request object, ...], "max_workers"?: N}``.
    ("POST", "/batch"): Route("execute_batch", _batch_arguments, _render_batch),
}

_METHODS = frozenset(method for method, _path in ROUTES)


def _decimals(column: Sequence[int], ascending: bool) -> Iterable[str]:
    """The decimal strings of ``column``: looked up in :data:`_DECIMALS`, or
    formatted for a column of fewer than two ids or one holding an id past the cap."""
    if len(column) < 2:
        return map(str, column)
    low, high = (column[0], column[-1]) if ascending else (min(column), max(column))
    if low < 0 or high >= DECIMAL_TABLE_CAP:
        return map(str, column)
    if high >= len(_DECIMALS):
        with _DECIMALS_LOCK:
            # Only appended to, so a reader never sees an entry change.
            _DECIMALS.extend(map(str, range(len(_DECIMALS), high + 1)))
    # One C call fetches them all (an ``itemgetter`` of two or more is a tuple).
    return itemgetter(*column)(_DECIMALS)


def _answers_json(page: Sequence[tuple[int, ...]]) -> str:
    """``json.dumps(list(page))``, joined from the page's columns."""
    if not isinstance(page, AnswerPage):
        page = AnswerPage.from_rows(page, len(page[0]))
    if not page.columns:  # a Boolean head: rows of nothing
        return "[" + ", ".join(["[]"] * len(page)) + "]"
    # The rows ascend, so the first column does.
    texts = [_decimals(column, i == 0) for i, column in enumerate(page.columns)]
    rows = texts[0] if len(texts) == 1 else map(", ".join, zip(*texts))
    return "[[" + "], [".join(rows) + "]]"


def _result_json(result: RequestResult) -> str:
    """``json.dumps(result.to_json_dict())``, its ``answers`` joined from columns."""
    fields = result.wire_fields()
    page = fields.get("answers")
    # ``json.dumps`` with no options reuses one encoder; its cycle check only
    # meets the scalar fields (and a trace) now that the answers are joined aside.
    if not page:
        return json.dumps(fields)
    # A stand-in, written ``NaN``.  Only strings come before it, and a string
    # cannot hold the bare quotes around ``answers``: the first match is it.
    fields["answers"] = math.nan
    head, _, tail = json.dumps(fields).partition('"answers": NaN')
    return f'{head}"answers": {_answers_json(page)}{tail}'


def _answer(started: float, method: str, path: str, status: int, payload: Any) -> Response:
    """Encode one answer and count it: the only place a response body is built.

    A :class:`RequestResult` (``/query``) or a list of them (``/batch``) is
    written by :func:`_result_json`; every other payload is ``json.dumps``'d.
    Counted before the loop writes it (not after): a client that reads this
    response and immediately scrapes ``/metrics`` must find it there.
    """
    if isinstance(payload, str):
        content_type, body = METRICS_CONTENT_TYPE, payload.encode("utf-8")
    else:
        content_type = "application/json"
        if isinstance(payload, RequestResult):
            text = _result_json(payload)
        elif isinstance(payload, list):
            errors = sum(1 for result in payload if not result.ok)
            results = ", ".join(map(_result_json, payload))
            text = f'{{"results": [{results}], "errors": {errors}}}'
        else:
            # Payloads are trees built by the render functions: the encoder's
            # cycle check (an ``id()`` insert and delete per container) has
            # nothing to find.
            text = json.dumps(payload, check_circular=False)
        body = text.encode("utf-8")
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

"""The route table, driven with a fake executor and no socket.

``repro.service.routes`` is the serving contract written once; the socket
loop only frames around it (``tests/test_service_server.py`` covers the
framing).  So the contract is pinned here, for every row of the table and
every way a request can go wrong: exact status, content type and body bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.queries.parser import QueryParseError
from repro.queries.xpath import XPathTranslationError
from repro.service import Request, RequestResult, routes
from repro.service.core import REQUEST_ERRORS
from repro.service.http_metrics import (
    HTTP_REQUESTS,
    METRICS_CONTENT_TYPE,
    normalize_route,
    route_latency_summary,
)
from repro.service.store import DocumentNotFound
from repro.trees.xmlio import XMLParseError

OK_RESULT = RequestResult(
    doc="d",
    query_key="k",
    answers=[(1,), (2,)],
    count=2,
    elapsed_ms=1.23456,
    propagator="semijoin",
    engine="fixpoint",
)
ERROR_RESULT = RequestResult(doc="ghost", error="unknown document id 'ghost'", propagator="auto")
METRICS_TEXT = "# TYPE fake counter\nfake 1\n"


class FakeExecutor:
    """Every serving-backend method the table calls: a canned value, or ``error``."""

    def __init__(self, error: Exception | None = None, result: RequestResult = OK_RESULT):
        self.error = error
        self.result = result
        self.calls: list[tuple] = []

    def _called(self, name: str, value, *arguments):
        self.calls.append((name, *arguments))
        if self.error is not None:
            raise self.error
        return value

    def document_count(self):
        return self._called("document_count", 3)

    def stats(self):
        return self._called("stats", {"executor": {"backend": "fake"}})

    def render_metrics(self):
        return self._called("render_metrics", METRICS_TEXT)

    def describe_documents(self):
        return self._called("describe_documents", [{"doc": "d", "nodes": 2}])

    def profile_snapshot(self):
        return self._called("profile_snapshot", {"running": False, "stacks": {}})

    def profile_control(self, action, hz=None):
        return self._called("profile_control", {"action": action, "hz": hz}, action, hz)

    def register_payload(self, payload, allow_files=False):
        return self._called("register_payload", {"doc": payload["doc"], "nodes": 1}, payload)

    def evict_document(self, doc_id):
        return self._called("evict_document", doc_id == "d", doc_id)

    def execute(self, request):
        return self._called("execute", self.result, request)

    def execute_batch(self, requests, max_workers=None):
        return self._called("execute_batch", [OK_RESULT, ERROR_RESULT], requests, max_workers)


QUERY = {"doc": "d", "query": "Q(x) <- B(x)"}

#: Every row of the table: ``(method, path, JSON body, status, JSON payload)``,
#: plus, where it is not that payload, what the body is encoded from (it rides
#: along in the response): the result of ``/query``, the results of ``/batch``.
ROWS = [
    ("GET", "/healthz", None, 200, {"status": "ok", "documents": 3}),
    ("GET", "/documents", None, 200, {"documents": [{"doc": "d", "nodes": 2}]}),
    ("GET", "/profile", None, 200, {"running": False, "stacks": {}}),
    ("POST", "/profile", {"action": "start", "hz": 97}, 200, {"action": "start", "hz": 97}),
    ("POST", "/documents", {"doc": "new", "sexpr": "(A)"}, 200, {"doc": "new", "nodes": 1}),
    ("DELETE", "/documents/d", None, 200, {"evicted": "d"}),
    ("DELETE", "/documents/ghost", None, 404, {"error": "unknown document id 'ghost'"}),
    ("POST", "/query", QUERY, 200, OK_RESULT.to_json_dict(), OK_RESULT),
    (
        "POST",
        "/batch",
        {"requests": [QUERY, {"doc": "ghost", "query": "Q <- A(x)"}], "max_workers": 2},
        200,
        {"results": [OK_RESULT.to_json_dict(), ERROR_RESULT.to_json_dict()], "errors": 1},
        [OK_RESULT, ERROR_RESULT],
    ),
]
ROW_IDS = [f"{method} {path}" for method, path, *_ in ROWS]

#: One call per executor method the table uses (``/stats`` and ``/metrics``
#: have their own ok tests below): ``(method, path, JSON body)``.
CALLS = [(method, path, body) for method, path, body, *_ in ROWS if "ghost" not in path] + [
    ("GET", "/stats", None),
    ("GET", "/metrics", None),
]
CALL_IDS = [f"{method} {path}" for method, path, _ in CALLS]

CLIENT_ERRORS = [
    DocumentNotFound("ghost"),
    QueryParseError("no body in 'Q'"),
    XPathTranslationError("unsupported axis"),
    XMLParseError("not well-formed (invalid token): line 1, column 7"),
    ValueError("shard 0 worker is not running (restart the server)"),
]


def _encode(body) -> bytes:
    return b"" if body is None else json.dumps(body).encode("utf-8")


def _json(status: int, payload, rides=None) -> routes.Response:
    """What the table makes of a JSON ``payload``, encoded from ``rides`` (default:
    the payload itself), which rides along (see ``Response``)."""
    return routes.Response(
        status,
        "application/json",
        json.dumps(payload).encode("utf-8"),
        payload if rides is None else rides,
    )


class TestEveryRow:
    @pytest.mark.parametrize(
        ("method", "path", "body", "status", "payload", "rides"),
        [row if len(row) == 6 else (*row, None) for row in ROWS],
        ids=ROW_IDS,
    )
    def test_ok(self, method, path, body, status, payload, rides):
        response = routes.respond(FakeExecutor(), method, path, _encode(body))
        assert response == _json(status, payload, rides)

    def test_stats_merges_the_front_ends_latency_summary(self):
        expected = {"executor": {"backend": "fake"}, "http": route_latency_summary()}
        assert routes.respond(FakeExecutor(), "GET", "/stats", b"") == _json(200, expected)

    def test_metrics_is_text_not_json(self):
        response = routes.respond(FakeExecutor(), "GET", "/metrics", b"")
        assert response[:3] == (200, METRICS_CONTENT_TYPE, METRICS_TEXT.encode("utf-8"))

    def test_query_failure_is_a_400_with_the_result_as_body(self):
        executor = FakeExecutor(result=ERROR_RESULT)
        response = routes.respond(executor, "POST", "/query", _encode(QUERY))
        assert response == _json(400, ERROR_RESULT.to_json_dict(), ERROR_RESULT)

    def test_rows_pass_validated_arguments_to_the_executor(self):
        executor = FakeExecutor()
        for method, path, body, *_ in ROWS:
            routes.respond(executor, method, path, _encode(body))
        request = Request.from_json_dict(QUERY)
        ghost = Request.from_json_dict({"doc": "ghost", "query": "Q <- A(x)"})
        assert executor.calls == [
            ("document_count",),
            ("describe_documents",),
            ("profile_snapshot",),
            ("profile_control", "start", 97),
            ("register_payload", {"doc": "new", "sexpr": "(A)"}),
            ("evict_document", "d"),
            ("evict_document", "ghost"),
            ("execute", request),
            ("execute_batch", [request, ghost], 2),
        ]

    def test_the_client_error_tuple_is_the_cores(self):
        assert {type(error) for error in CLIENT_ERRORS} == set(REQUEST_ERRORS)

    @pytest.mark.parametrize("error", CLIENT_ERRORS, ids=lambda error: type(error).__name__)
    @pytest.mark.parametrize(("method", "path", "body"), CALLS, ids=CALL_IDS)
    def test_client_error_out_of_the_executor_is_a_400(self, method, path, body, error):
        response = routes.respond(FakeExecutor(error=error), method, path, _encode(body))
        assert response == _json(400, {"error": str(error)})

    @pytest.mark.parametrize(("method", "path", "body"), CALLS, ids=CALL_IDS)
    def test_other_exceptions_propagate_and_are_counted_as_500(self, method, path, body):
        labels = {"route": normalize_route(path), "method": method, "code": "500"}
        before = HTTP_REQUESTS.value(**labels)
        with pytest.raises(RuntimeError, match="ShardedExecutor is closed"):
            routes.respond(
                FakeExecutor(error=RuntimeError("ShardedExecutor is closed")),
                method,
                path,
                _encode(body),
            )
        assert HTTP_REQUESTS.value(**labels) == before + 1


POSTS = [path for method, path in routes.ROUTES if method == "POST"]
MAX_WORKERS_MESSAGE = "'max_workers' must be a positive integer"


class TestMalformedRequests:
    @pytest.mark.parametrize("path", POSTS + ["/nope"])
    def test_invalid_json(self, path):
        executor = FakeExecutor()
        response = routes.respond(executor, "POST", path, b"{not json")
        assert (response.status, response.content_type) == (400, "application/json")
        assert response.payload["error"].startswith("invalid JSON body: Expecting property name")
        assert json.loads(response.body) == response.payload
        assert routes.respond(executor, "POST", path, b"\xff\xfe")[0] == 400
        assert executor.calls == []

    @pytest.mark.parametrize("path", POSTS + ["/nope"])
    @pytest.mark.parametrize("body", [b"[1, 2]", b'"text"', b"null", b"7"])
    def test_non_object_body(self, path, body):
        executor = FakeExecutor()
        response = routes.respond(executor, "POST", path, body)
        assert response == _json(400, {"error": "request body must be a JSON object"})
        assert executor.calls == []

    @pytest.mark.parametrize(
        ("path", "body", "message"),
        [
            ("/query", {"doc": "d"}, None),  # passes the table; run_request refuses it
            ("/query", {"query": "Q <- A(x)"}, "request needs a non-empty 'doc' document id"),
            ("/query", {**QUERY, "limit": True}, "'limit' must be a non-negative integer"),
            ("/query", {**QUERY, "bogus": 1}, "unknown request field(s): bogus"),
            ("/batch", {"nope": []}, "batch body needs a 'requests' list"),
            ("/batch", {"requests": [QUERY], "max_workers": True}, MAX_WORKERS_MESSAGE),
            ("/batch", {"requests": [QUERY], "max_workers": 0}, MAX_WORKERS_MESSAGE),
            ("/batch", {"requests": [7]}, "request must be a JSON object, got int"),
            ("/profile", {"action": "start", "bogus": 1}, "unknown profile field(s): bogus"),
            ("/profile", {}, "profile body needs an 'action' string (start|stop|clear)"),
            ("/profile", {"action": "start", "hz": True}, "'hz' must be an integer"),
        ],
    )
    def test_invalid_fields_never_reach_the_executor(self, path, body, message):
        executor = FakeExecutor()
        response = routes.respond(executor, "POST", path, _encode(body))
        if message is None:
            assert response[0] == 200 and len(executor.calls) == 1
        else:
            assert response == _json(400, {"error": message})
            assert executor.calls == []

    @pytest.mark.parametrize(
        ("method", "path"),
        [
            ("GET", "/nope"),
            ("GET", "/query"),
            ("GET", "/documents/d"),
            ("POST", "/healthz"),
            ("POST", "/documents/d"),
            ("DELETE", "/documents"),
            ("DELETE", "/documents/"),
            ("DELETE", "/healthz"),
        ],
    )
    def test_unknown_path(self, method, path):
        executor = FakeExecutor()
        response = routes.respond(executor, method, path, b"{}")
        assert response == _json(404, {"error": f"unknown path {path!r}"})
        assert executor.calls == []

    @pytest.mark.parametrize("method", ["PUT", "HEAD", "PATCH", "OPTIONS", "get", "BREW"])
    @pytest.mark.parametrize("path", ["/healthz", "/query", "/nope"])
    def test_unknown_method(self, method, path):
        labels = {"route": normalize_route(path), "method": method, "code": "501"}
        before = HTTP_REQUESTS.value(**labels)
        response = routes.respond(FakeExecutor(), method, path, b"{not json")
        assert response == _json(501, {"error": f"Unsupported method ({method!r})"})
        assert HTTP_REQUESTS.value(**labels) == before + 1


def test_refusals_use_the_tables_error_form_and_are_counted():
    labels = {"route": "/query", "method": "POST", "code": "501"}
    before = HTTP_REQUESTS.value(**labels)
    response = routes.refuse(501, "chunked bodies are not supported", "POST", "/query")
    assert response == _json(501, {"error": "chunked bodies are not supported"})
    assert HTTP_REQUESTS.value(**labels) == before + 1

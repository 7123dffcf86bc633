"""Tests for the process-sharded backend and the asyncio HTTP front end.

The serving contract must be indistinguishable across backends and front
ends: same routes, same payloads, same sorted answers, same per-request error
envelopes.  These tests drive the same workload through every combination and
assert byte-identity on the stable parts of the wire format.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.evaluation import evaluate
from repro.queries import parse_query
from repro.service import (
    AsyncServerThread,
    BatchExecutor,
    Request,
    ShardedExecutor,
    make_server,
    shard_for,
)
from repro.trees import TreeStructure, to_xml
from repro.workloads import auction_document

SENTENCE_SEXPR = "(S (NP (DT) (NN)) (VP (VB) (NP (NN))) (PP))"


@pytest.fixture(scope="module")
def sharded():
    executor = ShardedExecutor(shards=2)
    try:
        yield executor
    finally:
        executor.close()


@pytest.fixture(scope="module")
def auction():
    return auction_document(num_items=10, seed=9)


def _register_workload(executor, auction) -> None:
    executor.register_payload({"doc": "auction", "xml": to_xml(auction)})
    executor.register_payload({"doc": "sentence", "sexpr": SENTENCE_SEXPR})


def _workload_requests() -> list[Request]:
    return [
        Request(doc="auction", query="Q(i) <- item(i), Child(i, p), payment(p)"),
        Request(doc="auction", xpath="//description//listitem", propagator="hybrid"),
        Request(doc="sentence", xpath="//NP[NN]"),
        Request(doc="sentence", query="Q(x) <- NP(x), Child(x, y), NN(y)", propagator="ac3"),
        Request(doc="ghost", query="Q(x) <- A(x)"),  # stays a per-request error
        # ``limit`` on every resident route: a fixpoint projection, a one-bag
        # and a multi-bag join tree, a cyclic body, a Boolean head, limit 0.
        Request(doc="auction", xpath="//description//listitem", limit=3),
        Request(doc="auction", query="Q(i, p) <- item(i), Child(i, p), payment(p)", limit=2),
        Request(
            doc="auction",
            query="Q(i, l) <- item(i), Child(i, d), description(d), Child+(d, l), listitem(l)",
            limit=4,
        ),
        Request(
            doc="sentence",
            query="Q(s, x, y) <- S(s), Child+(s, x), NP(x), Child+(s, y), NN(y), Following(x, y)",
            limit=1,
        ),
        Request(doc="sentence", query="Q(x, y) <- NP(x), Following(x, y), NN(y)", limit=0),
        Request(doc="sentence", query="Q <- NP(x), Following(x, y), PP(y)", limit=0),
    ]


def _stable(payload: dict) -> dict:
    """A result payload minus the fields that legitimately vary per run."""
    return {k: v for k, v in payload.items() if k not in ("elapsed_ms", "cache_hit")}


# ---------------------------------------------------------------------------
# ShardedExecutor.
# ---------------------------------------------------------------------------


class TestShardedExecutor:
    def test_shard_for_is_stable_and_in_range(self):
        for shards in (1, 2, 3, 8):
            for doc_id in ("a", "auction", "sentence", "doc-42"):
                first = shard_for(doc_id, shards)
                assert first == shard_for(doc_id, shards)
                assert 0 <= first < shards
        # The routing is a content hash, not Python's salted hash():
        # pin one value so a silent change of the function breaks loudly.
        assert shard_for("auction", 2) == 1

    def test_round_trip_register_query_batch_evict_stats(self, sharded, auction):
        _register_workload(sharded, auction)
        assert sharded.document_count() == 2
        docs = {entry["doc"] for entry in sharded.describe_documents()}
        assert docs == {"auction", "sentence"}

        requests = _workload_requests()
        results = sharded.execute_batch(requests)
        assert [r.doc for r in results] == [r.doc for r in requests]
        assert all(r.ok for r in results[:4])
        assert "unknown document" in results[4].error

        # Answers are byte-identical to sequential evaluate() on a fresh tree.
        direct = sorted(
            evaluate(
                parse_query("Q(i) <- item(i), Child(i, p), payment(p)"),
                TreeStructure(auction),
            )
        )
        assert json.dumps(results[0].to_json_dict()["answers"]) == json.dumps(
            [list(a) for a in direct]
        )

        stats = sharded.stats()
        assert stats["executor"]["backend"] == "sharded"
        assert stats["executor"]["shards"] == 2
        assert stats["executor"]["requests"] >= len(requests)
        assert stats["executor"]["errors"] >= 1
        assert stats["store"]["documents"] == 2
        assert len(stats["shards"]) == 2
        # Documents really are spread by the routing hash.
        per_shard = [s["store"]["documents"] for s in stats["shards"]]
        assert sum(per_shard) == 2

        assert sharded.evict_document("sentence")
        assert not sharded.evict_document("sentence")
        assert sharded.document_count() == 1
        sharded.register_payload({"doc": "sentence", "sexpr": SENTENCE_SEXPR})

    def test_matches_threaded_backend_result_for_result(self, sharded, auction):
        _register_workload(sharded, auction)
        threaded = BatchExecutor()
        _register_workload(threaded, auction)
        requests = _workload_requests()
        sharded_results = sharded.execute_batch(requests)
        threaded_results = threaded.execute_batch(requests)
        for ours, theirs in zip(sharded_results, threaded_results):
            assert json.dumps(_stable(ours.to_json_dict())) == json.dumps(
                _stable(theirs.to_json_dict())
            )
        limited = [r for r, request in zip(sharded_results, requests) if request.limit is not None]
        assert [(len(r.answers), r.count) for r in limited] == [
            (3, 9),
            (2, 5),
            (4, 9),
            (1, 1),
            (0, 1),
            (0, 1),
        ]
        assert [r.truncated for r in limited] == [True, True, True, False, True, True]
        threaded.close()

    def test_registration_errors_travel_back_as_values(self, sharded):
        with pytest.raises(ValueError, match="not well-formed"):
            sharded.register_payload({"doc": "bad", "xml": "<a><b></a>"})
        with pytest.raises(ValueError, match="non-empty 'doc'"):
            sharded.register_payload({"xml": "<a/>"})
        # The worker survives the failed registration.
        assert sharded.document_count() >= 0

    def test_registration_error_message_matches_threaded_backend(self, sharded):
        """Client-fault errors must cross the process boundary verbatim, so
        both backends answer the identical message (and HTTP body)."""
        threaded = BatchExecutor()
        bad = {"doc": "bad", "xml": "<a><b></a>"}
        with pytest.raises(ValueError) as threaded_error:
            threaded.register_payload(bad)
        with pytest.raises(ValueError) as sharded_error:
            sharded.register_payload(bad)
        assert str(sharded_error.value) == str(threaded_error.value)
        threaded.close()

    def test_dead_worker_fails_requests_without_hanging_or_batch_abort(self):
        """A worker killed mid-flight (OOM, segfault) must fail its requests
        promptly -- per request, never a hang or a batch abort -- while the
        surviving shard keeps serving."""
        executor = ShardedExecutor(shards=2)
        try:
            executor.register_payload({"doc": "d", "sexpr": "(A (B))"})  # shard 0
            executor.register_payload({"doc": "a", "sexpr": "(A (B))"})  # shard 1
            executor._processes[0].terminate()
            executor._processes[0].join(timeout=10)
            results = executor.execute_batch(
                [
                    Request(doc="d", query="Q(x) <- B(x)"),
                    Request(doc="a", query="Q(x) <- B(x)"),
                ]
            )
            assert not results[0].ok
            assert results[0].error.startswith("internal:") and "shard 0" in results[0].error
            assert results[1].ok and results[1].answers == [(1,)]
            # Later dispatches to the broken shard fail fast, not silently.
            with pytest.raises(ValueError, match="shard 0 worker is not running"):
                executor.register_payload({"doc": "d", "sexpr": "(A)"})
        finally:
            executor.close()

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardedExecutor(shards=0)

    def test_close_is_idempotent_and_rejects_new_work(self):
        executor = ShardedExecutor(shards=1)
        executor.register_payload({"doc": "d", "sexpr": "(A (B))"})
        assert executor.execute(Request(doc="d", query="Q(x) <- B(x)")).answers == [(1,)]
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(Request(doc="d", query="Q(x) <- B(x)"))


# ---------------------------------------------------------------------------
# Async front end: threaded and sharded backends, vs the threaded server.
# ---------------------------------------------------------------------------


def _http(base: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture
def threaded_server():
    httpd = make_server(BatchExecutor(), host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


class TestAsyncFrontEnd:
    @pytest.mark.parametrize("backend_kind", ["threaded", "sharded"])
    def test_round_trip_byte_identical_with_threaded_server(
        self, backend_kind, threaded_server, auction
    ):
        backend = BatchExecutor() if backend_kind == "threaded" else ShardedExecutor(shards=2)
        try:
            with AsyncServerThread(backend) as handle:
                host, port = handle.address
                base = f"http://{host}:{port}"
                exchanges = [
                    ("GET", "/healthz", None),
                    ("POST", "/documents", {"doc": "auction", "xml": to_xml(auction)}),
                    ("POST", "/documents", {"doc": "sentence", "sexpr": SENTENCE_SEXPR}),
                    ("GET", "/healthz", None),
                    ("GET", "/documents", None),
                    ("POST", "/query",
                     {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"}),
                    ("POST", "/query", {"doc": "ghost", "query": "Q <- A(x)"}),
                    ("POST", "/batch", {"requests": [
                        {"doc": "auction", "xpath": "//description//listitem",
                         "propagator": "hybrid"},
                        {"doc": "sentence", "xpath": "//NP[NN]"},
                        {"doc": "ghost", "query": "Q <- A(x)"},
                    ]}),
                    ("DELETE", "/documents/sentence", None),
                    ("DELETE", "/documents/sentence", None),
                    ("GET", "/nope", None),
                ]
                for method, path, payload in exchanges:
                    async_status, async_body = _http(base, method, path, payload)
                    threaded_status, threaded_body = _http(threaded_server, method, path, payload)
                    assert async_status == threaded_status, (method, path)
                    stable_async = _strip_volatile(json.loads(async_body))
                    stable_threaded = _strip_volatile(json.loads(threaded_body))
                    assert json.dumps(stable_async) == json.dumps(stable_threaded), (method, path)
        finally:
            if backend_kind == "sharded":
                backend.close()

    def test_persistent_connection_serves_many_requests(self):
        backend = BatchExecutor()
        with AsyncServerThread(backend) as handle:
            host, port = handle.address
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                body = json.dumps({"doc": "d", "sexpr": "(A (B) (B))"})
                connection.request("POST", "/documents", body=body)
                assert connection.getresponse().read()  # drain, keep alive
                for _ in range(3):
                    connection.request(
                        "POST", "/query",
                        body=json.dumps({"doc": "d", "query": "Q(x) <- B(x)"}),
                    )
                    response = connection.getresponse()
                    assert response.status == 200
                    payload = json.loads(response.read())
                    assert payload["answers"] == [[1], [2]]
            finally:
                connection.close()

    def test_header_flood_is_bounded_and_dropped(self):
        """A client streaming endless header lines must get disconnected,
        not grow server memory without bound."""
        backend = BatchExecutor()
        with AsyncServerThread(backend) as handle:
            host, port = handle.address
            import socket

            with socket.create_connection((host, port), timeout=30) as raw:
                raw.sendall(b"GET /healthz HTTP/1.1\r\n")
                with pytest.raises((BrokenPipeError, ConnectionResetError, TimeoutError)):
                    for index in range(5000):
                        raw.sendall(f"x-h{index}: y\r\n".encode())
                    # The server closed on us; drain to surface it.
                    raw.settimeout(5)
                    if raw.recv(1024) == b"":
                        raise ConnectionResetError
            # The server is still healthy for well-formed clients.
            status, body = _http(f"http://{host}:{port}", "GET", "/healthz")
            assert status == 200 and b'"ok"' in body

    def test_async_rejects_bool_limit_and_max_workers(self):
        backend = BatchExecutor()
        with AsyncServerThread(backend) as handle:
            host, port = handle.address
            base = f"http://{host}:{port}"
            _http(base, "POST", "/documents", {"doc": "d", "sexpr": "(A (B))"})
            status, body = _http(
                base, "POST", "/query", {"doc": "d", "query": "Q(x) <- B(x)", "limit": True}
            )
            assert status == 400 and b"non-negative integer" in body
            status, body = _http(
                base, "POST", "/batch",
                {"requests": [{"doc": "d", "query": "Q(x) <- B(x)"}], "max_workers": True},
            )
            assert status == 400 and b"positive integer" in body

    def test_stats_aggregate_across_shards(self, auction):
        backend = ShardedExecutor(shards=2)
        try:
            with AsyncServerThread(backend) as handle:
                host, port = handle.address
                base = f"http://{host}:{port}"
                _http(base, "POST", "/documents", {"doc": "auction", "xml": to_xml(auction)})
                _http(base, "POST", "/documents", {"doc": "sentence", "sexpr": SENTENCE_SEXPR})
                for _ in range(2):
                    _http(base, "POST", "/query",
                          {"doc": "sentence", "query": "Q(x) <- NN(x)"})
                status, body = _http(base, "GET", "/stats")
                assert status == 200
                stats = json.loads(body)
                assert stats["executor"]["backend"] == "sharded"
                assert stats["store"]["documents"] == 2
                assert stats["executor"]["requests"] >= 2
                assert len(stats["shards"]) == 2
                assert stats["cache"]["hit_rate"] >= 0.0
        finally:
            backend.close()


def _strip_volatile(payload):
    """Drop timing/cache fields (and stats bodies) before byte comparison."""
    if isinstance(payload, dict):
        return {
            key: _strip_volatile(value)
            for key, value in payload.items()
            if key not in ("elapsed_ms", "cache_hit")
        }
    if isinstance(payload, list):
        return [_strip_volatile(item) for item in payload]
    return payload

"""Tests for the process-sharded backend.

The serving contract must be indistinguishable across backends: same sorted
answers, same per-request error envelopes.  These tests drive the same
workload through both and assert byte-identity on the stable parts of the
wire format, then check that a shard worker is nothing but a ``BatchExecutor``
behind a socket.  (The socket loop is in ``test_service_server.py``.)
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.evaluation import evaluate
from repro.observability.metrics import MetricsRegistry
from repro.queries import parse_query
from repro.service import BatchExecutor, Request, ShardedExecutor, shard_for
from repro.service.shards import WORKER_METHODS
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
        Request(doc="auction", xpath="//description//listitem"),
        Request(doc="sentence", xpath="//NP[NN]"),
        Request(doc="sentence", query="Q(x) <- NP(x), Child(x, y), NN(y)"),
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
# The shard worker: a BatchExecutor behind a queue.
# ---------------------------------------------------------------------------


class TestShardWorker:
    """A message names a ``BatchExecutor`` method; the worker has no contract of its own."""

    def test_every_allow_listed_method_answers_as_an_in_process_executor(self):
        request = Request(doc="d", query="Q(x) <- B(x)", limit=1)
        calls = [
            ("document_count", ()),
            ("register_payload", ({"doc": "d", "sexpr": "(A (B) (B))"}, False)),
            ("register_payload", ({"doc": "e", "sexpr": "(A)"}, False)),
            ("document_count", ()),
            ("describe_documents", ()),
            ("execute", (request,)),
            ("execute", (Request(doc="ghost", query="Q(x) <- B(x)"),)),
            ("evict_document", ("e",)),
            ("evict_document", ("e",)),
            ("profile_control", ("clear", None)),
            ("profile_snapshot", ()),
        ]
        assert {method for method, _ in calls} == set(WORKER_METHODS)
        sharded, local = ShardedExecutor(shards=1), BatchExecutor()
        try:
            for method, arguments in calls:
                remote = sharded._dispatch(0, method, *arguments).result(timeout=30)
                here = getattr(local, method)(*arguments)
                if method == "execute":
                    remote, here = _stable(remote.to_json_dict()), _stable(here.to_json_dict())
                elif method.startswith("profile"):
                    # The profiler is process-global: this process's may have
                    # been started (at another rate) by an earlier test.
                    volatile = ("hz", "running", "active_seconds")
                    remote = {k: v for k, v in remote.items() if k not in volatile}
                    here = {k: v for k, v in here.items() if k not in volatile}
                assert remote == here, method
        finally:
            sharded.close()
            local.close()

    def test_snapshot_forms_are_what_the_parent_merges(self):
        sharded = ShardedExecutor(shards=1)
        try:
            sharded.register_payload({"doc": "d", "sexpr": "(A (B))"})
            assert sharded.execute(Request(doc="d", query="Q(x) <- B(x)")).ok
            assert not sharded.execute(Request(doc="ghost", query="Q(x) <- B(x)")).ok
            stats = sharded._dispatch(0, "stats").result(timeout=30)
            assert list(stats) == [
                "shard", "requests", "errors", "store", "cache", "slow_queries", "plan_accounting",
            ]
            assert (stats["shard"], stats["requests"], stats["errors"]) == (0, 2, 1)
            metrics = sharded._dispatch(0, "metrics").result(timeout=30)
            merged = MetricsRegistry()
            merged.merge_snapshot(metrics)
            assert 'cqtrees_requests_total{status="ok"} 1' in merged.render()
        finally:
            sharded.close()

    @pytest.mark.parametrize("method", ["close", "store", "_shared_pool", "execute_batch", "nope"])
    def test_unknown_method_is_an_error_value_not_a_dead_worker(self, sharded, method):
        with pytest.raises(ValueError, match=f"unknown shard method '{method}'"):
            sharded._dispatch(0, method).result(timeout=30)
        assert sharded.document_count() >= 0
        assert all(load["alive"] for load in sharded.shard_load())


# ---------------------------------------------------------------------------
# The sharded backend behind the socket loop (framing and the per-backend
# smoke live in test_service_server.py).
# ---------------------------------------------------------------------------


def _http(base: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def test_stats_aggregate_across_shards(auction, serve):
    backend = ShardedExecutor(shards=2)
    try:
        host, port = serve(backend).server_address
        base = f"http://{host}:{port}"
        _http(base, "POST", "/documents", {"doc": "auction", "xml": to_xml(auction)})
        _http(base, "POST", "/documents", {"doc": "sentence", "sexpr": SENTENCE_SEXPR})
        for _ in range(2):
            _http(base, "POST", "/query", {"doc": "sentence", "query": "Q(x) <- NN(x)"})
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

"""Tests for the observability layer: metrics, tracing, explain, ``/metrics``.

Covers the mergeable-histogram contract (merging shard snapshots must equal
observing the union of their samples), thread safety of concurrent observes,
Prometheus text well-formedness, the request span tree, plan explanation on
both resident and accel-only documents, error-path engine attribution across
backends, per-shard load surfacing, and the ``/metrics`` route over both
backends.
"""

from __future__ import annotations

import bisect
import json
import math
import re
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SQLiteBackend, explain_sql
from repro.observability import tracing
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    SlowQueryLog,
    percentile_from_buckets,
)
from repro.queries import parse_query
from repro.service import BatchExecutor, DocumentStore, QueryCache, Request, ShardedExecutor
from repro.service.core import run_request
from repro.service.http_metrics import METRICS_CONTENT_TYPE
from repro.trees.builders import parse_sexpr
from repro.workloads import random_corpus

SEXPR = "(a (b) (c (b (d))))"
CYCLIC = "Q(x) <- b(x), Child+(x, y), Child+(y, z), Child+(x, z)"


# ---------------------------------------------------------------------------
# Histogram merge = union observe (the cross-process contract).
# ---------------------------------------------------------------------------


class TestHistogramMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False), max_size=120
        ),
        shard_count=st.integers(min_value=1, max_value=5),
    )
    def test_merging_shard_snapshots_equals_observing_union(self, values, shard_count):
        shards = [MetricsRegistry() for _ in range(shard_count)]
        for index, value in enumerate(values):
            shards[index % shard_count].histogram("h_seconds", "h").observe(value)

        merged = MetricsRegistry()
        for shard in shards:
            merged.merge_snapshot(shard.snapshot())
        union = MetricsRegistry()
        union_histogram = union.histogram("h_seconds", "h")
        for value in values:
            union_histogram.observe(value)

        merged_histogram = merged.histogram("h_seconds", "h")
        assert merged_histogram.bucket_counts() == union_histogram.bucket_counts()
        merged_count, merged_sum = merged_histogram.totals()
        union_count, union_sum = union_histogram.totals()
        assert merged_count == union_count == len(values)
        assert merged_sum == pytest.approx(union_sum)
        # The exposition itself must agree too (cumulation happens at render);
        # only the `_sum` sample may differ in its last ulp, since float
        # addition order differs between the sharded and the union runs.
        def _without_sums(registry: MetricsRegistry) -> list:
            return [
                line
                for line in registry.render().splitlines()
                if not line.startswith("h_seconds_sum")
            ]

        assert _without_sums(merged) == _without_sums(union)

    def test_labelled_series_merge_independently(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", "h", ("engine",)).observe(0.002, engine="sql")
        left.histogram("h", "h", ("engine",)).observe(0.2, engine="sql")
        right.histogram("h", "h", ("engine",)).observe(0.002, engine="acyclic")
        merged = MetricsRegistry()
        merged.merge_snapshot(left.snapshot())
        merged.merge_snapshot(right.snapshot())
        histogram = merged.histogram("h", "h", ("engine",))
        assert histogram.totals(engine="sql") == (2, pytest.approx(0.202))
        assert histogram.totals(engine="acyclic") == (1, pytest.approx(0.002))

    def test_counters_and_gauges_sum_on_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c_total", "c").inc(3)
        right.counter("c_total", "c").inc(4)
        left.gauge("g", "g").set(5)
        right.gauge("g", "g").set(7)
        merged = MetricsRegistry()
        merged.merge_snapshot(left.snapshot())
        merged.merge_snapshot(right.snapshot())
        assert merged.counter("c_total", "c").value() == 7
        # Gauges sum: per-shard levels aggregate to the fleet level.
        assert merged.gauge("g", "g").value() == 12

    def test_mismatched_bucket_shapes_are_an_error(self):
        left = MetricsRegistry()
        left.histogram("h", "h", buckets=(1.0, 2.0)).observe(1.5)
        merged = MetricsRegistry()
        merged.histogram("h", "h", buckets=(1.0, 2.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError):
            merged.merge_snapshot(left.snapshot())


class TestConcurrentObserve:
    def test_concurrent_observes_lose_nothing(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h", ("worker",))
        counter = registry.counter("c_total", "c")
        threads, per_thread = 8, 2000

        def hammer(worker: int) -> None:
            for index in range(per_thread):
                histogram.observe(
                    DEFAULT_LATENCY_BUCKETS[index % len(DEFAULT_LATENCY_BUCKETS)],
                    worker=str(worker % 2),
                )
                counter.inc()

        pool = [threading.Thread(target=hammer, args=(n,)) for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = sum(
            histogram.totals(worker=worker)[0] for worker in ("0", "1")
        )
        assert total == threads * per_thread
        assert counter.value() == threads * per_thread


# ---------------------------------------------------------------------------
# Interpolated percentiles from fixed-bucket counts.
# ---------------------------------------------------------------------------


class TestPercentileFromBuckets:
    def test_interpolates_within_the_holding_bucket(self):
        # Four observations, all in the (1, 2] bucket: the median interpolates
        # to the bucket's midpoint, Prometheus histogram_quantile style.
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 4, 0, 0]
        assert percentile_from_buckets(bounds, counts, 0.5) == pytest.approx(1.5)
        assert percentile_from_buckets(bounds, counts, 1.0) == pytest.approx(2.0)

    def test_overflow_mass_clamps_to_the_last_finite_bound(self):
        assert percentile_from_buckets((1.0, 2.0), [0, 1, 3], 0.9) == pytest.approx(2.0)

    def test_empty_histogram_has_no_percentile(self):
        assert percentile_from_buckets((1.0, 2.0), [0, 0, 0], 0.5) is None
        registry = MetricsRegistry()
        assert registry.histogram("h", "h").percentile(0.5) is None

    @settings(max_examples=120, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            min_size=1,
            max_size=80,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_estimate_lands_in_the_bucket_of_the_true_quantile(self, values, q):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h")
        for value in values:
            histogram.observe(value)
        estimate = histogram.percentile(q)
        assert estimate is not None

        bounds = histogram.buckets
        # The true (nearest-rank) empirical quantile and the bucket it fell in
        # at observe() time; "exact to within one bucket" means the estimate
        # may not leave that bucket.
        rank = max(1, math.ceil(q * len(values)))
        true_value = sorted(values)[rank - 1]
        slot = bisect.bisect_left(bounds, true_value)
        if slot >= len(bounds):
            assert estimate == pytest.approx(bounds[-1])
        else:
            lower = bounds[slot - 1] if slot > 0 else 0.0
            assert lower - 1e-12 <= estimate <= bounds[slot] + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        qs=st.tuples(
            st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)
        ),
    )
    def test_estimates_are_monotone_in_q(self, values, qs):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "h")
        for value in values:
            histogram.observe(value)
        low, high = sorted(qs)
        assert histogram.percentile(low) <= histogram.percentile(high) + 1e-12


# ---------------------------------------------------------------------------
# Prometheus text exposition well-formedness.
# ---------------------------------------------------------------------------

# Label values may contain any character except an unescaped quote (curly
# braces included -- route templates like "/documents/{id}" are legal), so the
# label block is matched up to the closing "}" that precedes the value.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9]+(\.[0-9]+([eE][+-]?[0-9]+)?)?$|"
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \+Inf$"
)


def _assert_well_formed_exposition(text: str) -> None:
    assert text.endswith("\n")
    seen_types: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram")
            assert name not in seen_types, f"duplicate TYPE for {name}"
            seen_types[name] = kind
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"
        family = line.split("{", 1)[0].split(" ", 1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", family)
        assert family in seen_types or base in seen_types, f"sample before TYPE: {line!r}"


class TestPrometheusExposition:
    def test_render_is_well_formed_and_cumulative(self):
        registry = MetricsRegistry()
        registry.counter("r_total", "requests", ("status",)).inc(status='we"ird\n')
        registry.gauge("g", "level").set(2.5)
        histogram = registry.histogram("h_seconds", "latency", ("route",))
        for value in (0.0002, 0.003, 0.003, 7.0, 99.0):
            histogram.observe(value, route="/query")
        text = registry.render()
        _assert_well_formed_exposition(text)
        # Label values escape quotes and newlines.
        assert 'status="we\\"ird\\n"' in text
        # Bucket samples are cumulative and end at the +Inf slot == _count.
        bucket_values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_seconds_bucket")
        ]
        assert bucket_values == sorted(bucket_values)
        assert 'le="+Inf"} 5' in text
        assert 'h_seconds_count{route="/query"} 5' in text


# ---------------------------------------------------------------------------
# Slow-query ring buffer.
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_threshold_capacity_and_stats(self):
        log = SlowQueryLog(capacity=3, threshold_ms=10.0)
        assert not log.maybe_record(9.9, doc="fast")
        for index in range(5):
            assert log.maybe_record(10.0 + index, doc=f"d{index}")
        entries = log.entries()
        assert [entry["doc"] for entry in entries] == ["d2", "d3", "d4"]
        stats = log.stats()
        assert stats["capacity"] == 3
        assert stats["recorded"] == 5
        assert stats["threshold_ms"] == 10.0
        log.clear()
        assert log.stats()["recorded"] == 0


# ---------------------------------------------------------------------------
# Tracing spans.
# ---------------------------------------------------------------------------


def _span_names(node: dict) -> set:
    names = {node["name"]}
    for child in node.get("children", ()):
        names |= _span_names(child)
    return names


class TestTracing:
    def test_span_without_active_trace_is_a_noop(self):
        assert not tracing.is_active()
        with tracing.span("orphan") as span:
            assert span is None

    def test_trace_records_nested_spans_and_attributes(self):
        with tracing.trace("root", doc="d") as root:
            with tracing.span("child", k=1):
                tracing.annotate(extra="x")
                with tracing.span("grandchild"):
                    pass
        payload = root.to_json_dict()
        assert payload["name"] == "root"
        assert payload["attributes"] == {"doc": "d"}
        assert payload["elapsed_ms"] >= 0
        (child,) = payload["children"]
        assert child["attributes"] == {"k": 1, "extra": "x"}
        assert [grandchild["name"] for grandchild in child["children"]] == ["grandchild"]
        assert not tracing.is_active()

    def test_suppress_hides_inner_spans(self):
        with tracing.trace("root") as root:
            with tracing.suppress():
                with tracing.span("hidden"):
                    pass
            with tracing.span("visible"):
                pass
        assert _span_names(root.to_json_dict()) == {"root", "visible"}


# ---------------------------------------------------------------------------
# Request-level observability: debug traces, explain, error attribution.
# ---------------------------------------------------------------------------


@pytest.fixture
def executor():
    store = DocumentStore()
    store.register_sexpr("doc", SEXPR)
    backend = BatchExecutor(store, QueryCache())
    yield backend
    backend.close()


class TestRequestTracing:
    def test_debug_attaches_span_tree_covering_the_pipeline(self, executor):
        request = Request(doc="doc", query="Q(x) <- b(x), Child(y, x)", debug=True)
        result = executor.execute(request)
        assert result.ok
        names = _span_names(result.trace)
        # Cold query: parse -> canonicalize -> compile -> evaluate ->
        # propagate -> enumerate, all under the request root.
        assert {
            "request",
            "parse",
            "canonicalize",
            "compile",
            "evaluate",
            "propagate",
            "enumerate",
        } <= names
        propagate = _find_span(result.trace, "propagate")
        assert "domains_before" in propagate["attributes"]
        assert "domains_after" in propagate["attributes"]

    def test_debug_trace_crosses_the_shard_boundary(self):
        sharded = ShardedExecutor(shards=2)
        try:
            sharded.register_payload({"doc": "doc", "sexpr": SEXPR})
            result = sharded.execute(Request(doc="doc", query="Q(x) <- b(x)", debug=True))
            assert result.ok and result.trace is not None
            assert "evaluate" in _span_names(result.trace)
            payload = result.to_json_dict()
            assert payload["trace"]["name"] == "request"
        finally:
            sharded.close()

    def test_materialize_bags_span_reports_bag_sizes_beside_rows_built(self):
        """Under a ``limit`` a bag counts rows it never builds: the span says both."""
        store = DocumentStore()
        store.register_tree("corpus", random_corpus(seed=42, num_sentences=45))  # `kary_1k`
        query = "Q(x, y) <- NP(x), Following(x, y), VB(y)"
        truncated = run_request(
            store, QueryCache(), Request(doc="corpus", query=query, limit=10, debug=True)
        )
        assert truncated.ok and truncated.truncated and len(truncated.answers) == 10
        attributes = _find_span(truncated.trace, "materialize_bags")["attributes"]
        assert attributes["bag_rows"] == [truncated.count] == [1656]
        assert attributes["rows_built"] == [10]
        full = run_request(store, QueryCache(), Request(doc="corpus", query=query, debug=True))
        attributes = _find_span(full.trace, "materialize_bags")["attributes"]
        assert attributes["bag_rows"] == attributes["rows_built"] == [1656]

    def test_no_debug_no_trace(self, executor):
        result = executor.execute(Request(doc="doc", query="Q(x) <- b(x)"))
        assert result.ok and result.trace is None
        assert "trace" not in result.to_json_dict()


def _find_span(node: dict, name: str) -> dict:
    if node["name"] == name:
        return node
    for child in node.get("children", ()):
        found = _find_span(child, name)
        if found is not None:
            return found
    return None


class TestExplain:
    def test_explain_resident_reports_plan_without_executing(self, executor):
        result = executor.execute(Request(doc="doc", query=CYCLIC, explain=True))
        assert result.ok
        plan = result.explain
        assert plan["residency"] == "resident"
        assert plan["width"] >= 1 and isinstance(plan["width_exact"], bool)
        assert plan["bags"] and len(plan["bag_parents"]) == len(plan["bags"])
        assert plan["engine"] == result.engine
        payload = result.to_json_dict()
        # Explain responses describe the plan; they carry no answers.
        assert "answers" not in payload and "count" not in payload
        assert payload["explain"] == plan

    def test_explain_sql_includes_generated_text(self, executor):
        result = executor.execute(
            Request(doc="doc", query="Q(x) <- b(x)", engine="sql", explain=True)
        )
        assert result.ok
        assert result.explain["engine"] == "sql"
        sql = result.explain["sql"]
        assert sql.lstrip().upper().startswith(("WITH", "SELECT"))
        assert "bag_0" in sql

    def test_explain_accel_only_routes_to_sql(self):
        store = DocumentStore(accel_backend=SQLiteBackend())
        store.register_tree_accel_only("big", parse_sexpr(SEXPR))
        result = run_request(store, QueryCache(), Request(doc="big", query=CYCLIC, explain=True))
        assert result.ok
        assert result.explain["residency"] == "accel"
        assert result.explain["engine"] == "sql"
        assert "SELECT" in result.explain["sql"].upper()

    def test_explain_never_touches_backend_data(self):
        # The module-level helper lowers against an empty scratch database, so
        # SQL text generation cannot depend on (or mutate) document contents.
        query = parse_query("Q(x) <- b(x), Child+(x, y), c(y)")
        sql = explain_sql(query)
        assert "WITH" in sql.upper() and "?" in sql

    def test_explain_errors_keep_the_error_contract(self, executor):
        result = executor.execute(Request(doc="ghost", query=CYCLIC, explain=True))
        assert not result.ok
        assert "unknown document" in result.error


def _strip_volatile(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "elapsed_ms"}


class TestErrorAttribution:
    def test_error_payloads_are_identical_across_backends(self):
        requests = [
            Request(doc="ghost", query="Q(x) <- b(x)"),  # unknown document
            Request(doc="doc", query="Q(x <- nope"),  # parse error
            Request(doc="doc", query="Q(x) <- b(x)", engine="bogus"),  # bad engine
        ]
        threaded = BatchExecutor()
        sharded = ShardedExecutor(shards=2)
        try:
            for backend in (threaded, sharded):
                backend.register_payload({"doc": "doc", "sexpr": SEXPR})
            for request in requests:
                left = threaded.execute(request).to_json_dict()
                right = sharded.execute(request).to_json_dict()
                assert _strip_volatile(left) == _strip_volatile(right)
                assert "engine" in left  # attribution survives the error path
        finally:
            threaded.close()
            sharded.close()

    def test_forced_engine_attribution_survives_routing_errors(self):
        # An accel-only document with a forced non-SQL engine is a routing
        # error; the failure must still be attributed to the engine the
        # request forced.
        store = DocumentStore(accel_backend=SQLiteBackend())
        store.register_tree_accel_only("big", parse_sexpr(SEXPR))
        result = run_request(
            store, QueryCache(), Request(doc="big", query="Q(x) <- b(x)", engine="xproperty")
        )
        assert not result.ok
        assert "accel-only" in result.error
        assert result.engine == "xproperty"
        assert result.to_json_dict()["engine"] == "xproperty"


# ---------------------------------------------------------------------------
# Executor statistics: shard load and slow queries.
# ---------------------------------------------------------------------------


class TestShardLoad:
    def test_stats_surface_per_shard_queue_depth_and_in_flight(self):
        sharded = ShardedExecutor(shards=2)
        try:
            sharded.register_payload({"doc": "doc", "sexpr": SEXPR})
            sharded.execute(Request(doc="doc", query="Q(x) <- b(x)"))
            stats = sharded.stats()
            load = stats["executor"]["shard_load"]
            assert [entry["shard"] for entry in load] == [0, 1]
            for entry in load:
                assert entry["alive"] is True
                assert entry["in_flight"] == 0
                assert entry["queue_depth"] == 0  # never ``None``: it is in_flight - 1, floored
            assert "slow_queries" in stats
            assert set(stats["slow_queries"]) >= {"capacity", "threshold_ms", "entries"}
        finally:
            sharded.close()

    def test_threaded_stats_surface_slow_queries_too(self, executor):
        stats = executor.stats()
        assert set(stats["slow_queries"]) >= {"capacity", "threshold_ms", "entries"}


# ---------------------------------------------------------------------------
# /metrics over both backends.
# ---------------------------------------------------------------------------


def _scrape(base: str, path: str = "/metrics"):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, response.getheader("Content-Type"), response.read().decode()


def _post(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _counter_value(text: str, series: str) -> float:
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def _base(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}"


class TestMetricsEndpoint:
    def test_threaded_front_end_serves_prometheus_text(self, serve):
        base = _base(serve(BatchExecutor()))
        before = _counter_value(_scrape(base)[2], 'cqtrees_requests_total{status="ok"}')
        _post(base, "/documents", {"doc": "doc", "sexpr": SEXPR})
        status, payload = _post(base, "/query", {"doc": "doc", "query": "Q(x) <- b(x)"})
        assert status == 200 and payload["count"] == 2
        status, content_type, text = _scrape(base)
        assert status == 200
        assert content_type == METRICS_CONTENT_TYPE
        _assert_well_formed_exposition(text)
        after = _counter_value(text, 'cqtrees_requests_total{status="ok"}')
        assert after == before + 1
        assert 'cqtrees_http_requests_total{route="/query",method="POST",code="200"}' in text
        assert "cqtrees_request_seconds_bucket" in text

    def test_sharded_backend_merges_worker_histograms(self, serve):
        backend = ShardedExecutor(shards=2)
        try:
            base = _base(serve(backend))
            before = _counter_value(_scrape(base)[2], 'cqtrees_requests_total{status="ok"}')
            _post(base, "/documents", {"doc": "d1", "sexpr": SEXPR})
            _post(base, "/documents", {"doc": "d2", "sexpr": SEXPR})
            for doc in ("d1", "d2"):
                status, payload = _post(base, "/query", {"doc": doc, "query": "Q(x) <- b(x)"})
                assert status == 200 and payload["count"] == 2
            status, content_type, text = _scrape(base)
            assert status == 200 and content_type == METRICS_CONTENT_TYPE
            _assert_well_formed_exposition(text)
            # Worker-side evaluation counters reach the parent's scrape: the
            # workers were reset at fork, so the delta is exactly the two
            # queries above.
            after = _counter_value(text, 'cqtrees_requests_total{status="ok"}')
            assert after == before + 2
            # Front-end HTTP metrics (parent process) are in the same scrape.
            http_series = 'cqtrees_http_requests_total{route="/query",method="POST",code="200"}'
            assert http_series in text
        finally:
            backend.close()


class TestStatsLatencySummary:
    def test_stats_expose_per_route_percentiles_on_both_front_ends(self, serve):
        def check(base: str) -> None:
            _post(base, "/documents", {"doc": "doc", "sexpr": SEXPR})
            status, payload = _post(base, "/query", {"doc": "doc", "query": "Q(x) <- b(x)"})
            assert status == 200
            with urllib.request.urlopen(base + "/stats", timeout=30) as response:
                stats = json.loads(response.read().decode("utf-8"))
            assert "plan_accounting" in stats
            summary = stats["http"]
            assert "/query" in summary
            entry = summary["/query"]
            assert entry["count"] >= 1
            assert 0.0 <= entry["p50_ms"] <= entry["p99_ms"]

        check(_base(serve(BatchExecutor())))
        backend = ShardedExecutor(shards=2)
        try:
            check(_base(serve(backend)))
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# CLI explain verb.
# ---------------------------------------------------------------------------


class TestCliExplain:
    def test_explain_prints_the_plan_as_json(self, capsys):
        from repro.cli import main

        rc = main(["explain", "--sexpr", SEXPR, "--query", CYCLIC])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["explain"]["width"] >= 1
        assert payload["explain"]["bags"]
        assert "answers" not in payload

    def test_explain_forced_sql_prints_generated_sql(self, capsys):
        from repro.cli import main

        rc = main(["explain", "--sexpr", SEXPR, "--query", "Q(x) <- b(x)", "--engine", "sql"])
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["explain"]["engine"] == "sql"
        assert "SELECT" in payload["explain"]["sql"].upper()

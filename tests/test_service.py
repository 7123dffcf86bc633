"""Tests for the serving layer: document store, query cache, batch executor."""

from __future__ import annotations

import json

import pytest

from repro.evaluation import compile_query, evaluate
from repro.queries import parse_query, xpath_to_cq
from repro.service import (
    BatchExecutor,
    DocumentNotFound,
    DocumentStore,
    QueryCache,
    Request,
)
from repro.trees import TreeStructure, XMLParseError, random_tree
from repro.workloads import auction_document, items_with_payment_query


# ---------------------------------------------------------------------------
# DocumentStore.
# ---------------------------------------------------------------------------


class TestDocumentStore:
    def test_register_and_get_keeps_artifacts_resident(self, sentence_tree):
        store = DocumentStore()
        document = store.register_tree("doc", sentence_tree)
        assert store.get("doc") is document
        # The interval index was forced at registration and is shared.
        assert document.structure.index is sentence_tree.index
        # Label sets are warm: repeated lookups hand back the same frozenset.
        first = document.structure.unary_member_set("NP")
        assert first == frozenset({1, 6})
        assert document.structure.unary_member_set("NP") is first

    def test_register_xml_sexpr_and_file(self, tmp_path):
        store = DocumentStore()
        xml = "<site><item><payment/></item></site>"
        assert store.register_xml("x", xml).nodes == 3
        assert store.register_sexpr("s", "(A (B) (C))").nodes == 3
        path = tmp_path / "doc.xml"
        path.write_text(xml, encoding="utf-8")
        assert store.register_xml_file("f", str(path)).nodes == 3
        assert sorted(store.doc_ids()) == ["f", "s", "x"]

    def test_bad_xml_raises_clean_error(self):
        store = DocumentStore()
        with pytest.raises(XMLParseError, match="not well-formed"):
            store.register_xml("bad", "<open><unclosed></open>")
        assert "bad" not in store

    def test_unknown_doc_raises(self):
        store = DocumentStore()
        with pytest.raises(DocumentNotFound, match="unknown document id 'missing'"):
            store.get("missing")

    def test_explicit_eviction_and_clear(self, sentence_tree):
        store = DocumentStore()
        store.register_tree("a", sentence_tree)
        store.register_tree("b", sentence_tree)
        assert store.evict("a")
        assert not store.evict("a")
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.stats()["evicted"] == 2

    def test_lru_capacity_eviction(self, sentence_tree):
        store = DocumentStore(capacity=2)
        store.register_tree("a", sentence_tree)
        store.register_tree("b", sentence_tree)
        store.get("a")  # touch: now b is least recently used
        store.register_tree("c", sentence_tree)
        assert sorted(store.doc_ids()) == ["a", "c"]
        assert store.stats()["evicted"] == 1

    def test_reregistration_replaces(self, sentence_tree):
        store = DocumentStore()
        store.register_tree("doc", sentence_tree)
        bigger = random_tree(50, seed=1)
        store.register_tree("doc", bigger)
        assert store.get("doc").tree is bigger
        assert len(store) == 1


# ---------------------------------------------------------------------------
# QueryCache.
# ---------------------------------------------------------------------------


class TestQueryCache:
    def test_textual_resubmission_hits_parse_cache(self):
        cache = QueryCache()
        first, hit_first = cache.resolve_text("Q(x) <- A(x), Child(x, y), B(y)")
        second, hit_second = cache.resolve_text("Q(x) <- A(x), Child(x, y), B(y)")
        assert first is second
        assert not hit_first and hit_second
        assert cache.stats()["parse_hits"] == 1

    def test_alpha_equivalent_texts_share_one_entry(self):
        cache = QueryCache()
        first, _ = cache.resolve_text("Q(x) <- A(x), Child(x, y), B(y)")
        second, hit = cache.resolve_text("Other(n) <- B(m), A(n), Child(n, m)")
        assert hit
        assert first is second
        assert cache.stats() == cache.stats()  # stable snapshot
        assert len(cache) == 1

    def test_compile_lru_hit_across_equivalent_queries(self):
        cache = QueryCache()
        entry, _ = cache.resolve_query(parse_query("Q(x) <- A(x), Child+(x, y)"))
        # A fresh, renamed query still lands on the identical compiled object.
        renamed = parse_query("R(u) <- Child+(u, w), A(u)")
        assert compile_query(cache.entry_for_query(renamed).query) is entry.compiled

    def test_mixed_xpath_and_datalog_share_entries(self):
        cache = QueryCache()
        from_xpath, _ = cache.resolve_text("//A[B]", kind="xpath")
        twin = "Q(sel) <- Child*(start, sel), A(sel), Child(sel, b), B(b)"
        from_datalog, hit = cache.resolve_text(twin)
        assert hit
        assert from_xpath is from_datalog

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            QueryCache().resolve_text("Q <- A(x)", kind="sql")

    def test_parse_errors_propagate_and_are_not_cached(self):
        cache = QueryCache()
        for _ in range(2):
            with pytest.raises(Exception):
                cache.resolve_text("((broken")
        assert len(cache) == 0
        assert cache.stats()["parse_entries"] == 0

    def test_capacity_bounds_entries(self):
        cache = QueryCache(capacity=2)
        cache.resolve_text("Q <- A(x)")
        cache.resolve_text("Q <- B(x)")
        cache.resolve_text("Q <- C(x)")
        assert len(cache) == 2

    def test_parse_cache_hits_keep_the_entry_hot_in_the_lru(self):
        cache = QueryCache(capacity=2)
        hot, _ = cache.resolve_text("Q <- A(x)")
        cache.resolve_text("Q <- B(x)")
        # Textual resubmissions of the hot query go through the parse cache;
        # they must still refresh the entry's LRU position.
        cache.resolve_text("Q <- A(x)")
        cache.resolve_text("Q <- C(x)")  # evicts B, not the hot A
        entry, hit = cache.resolve_query(parse_query("Q <- A(y)"))
        assert hit and entry is hot

    def test_parse_cache_hit_readmits_evicted_entry(self):
        """Regression: a parse-cache hit on an LRU-evicted entry must re-admit
        it, or the capacity bound is silently violated and ``describe()`` /
        ``stats()`` disagree with what is actually served."""
        cache = QueryCache(capacity=2)
        entry_a, _ = cache.resolve_text("Q <- A(x)")
        # Object-form resolves push A out of the entry LRU while its
        # parse-cache pointer stays alive.
        cache.resolve_query(parse_query("Q <- B(x)"))
        cache.resolve_query(parse_query("Q <- C(x)"))
        assert entry_a.key not in [entry["key"] for entry in cache.describe()]
        served, hit = cache.resolve_text("Q <- A(x)")
        assert hit and served is entry_a
        keys = [entry["key"] for entry in cache.describe()]
        assert entry_a.key in keys  # re-admitted: describe() agrees with serving
        assert len(cache) <= 2  # the capacity bound still holds
        assert cache.stats()["entries"] <= 2

    def test_stats_track_hits_and_misses(self):
        cache = QueryCache()
        cache.resolve_text("Q <- A(x)")
        cache.resolve_text("Q <- A(x)")
        cache.resolve_text("Q <- B(x)")
        stats = cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 1
        assert 0.0 < stats["hit_rate"] < 1.0


# ---------------------------------------------------------------------------
# BatchExecutor.
# ---------------------------------------------------------------------------


@pytest.fixture
def executor(sentence_tree):
    ex = BatchExecutor()
    ex.store.register_tree("sentence", sentence_tree)
    ex.store.register_tree("auction", auction_document(num_items=8, seed=3))
    return ex


class TestBatchExecutor:
    def test_single_request_matches_direct_evaluate(self, executor, sentence_tree):
        result = executor.execute(
            Request(doc="sentence", query="Q(x) <- NP(x), Child(x, y), NN(y)")
        )
        assert result.ok
        direct = sorted(
            evaluate(
                parse_query("Q(x) <- NP(x), Child(x, y), NN(y)"),
                TreeStructure(sentence_tree),
            )
        )
        assert result.answers == direct
        assert result.count == len(direct)

    def test_batch_results_identical_to_sequential_across_engines(self, executor):
        auction_tree = executor.store.get("auction").tree
        fresh = TreeStructure(auction_tree)
        engines = (None, "decomposition", "fixpoint")
        requests = [
            Request(doc="auction", query="Q(i) <- item(i), Child(i, p), payment(p)", engine=engine)
            for engine in engines
        ] + [
            Request(doc="auction", xpath="//description//listitem", engine=engine)
            for engine in engines
        ]
        results = executor.execute_batch(requests, max_workers=4)
        for request, result in zip(requests, results):
            assert result.ok
            query = (
                parse_query(request.query)
                if request.query is not None
                else xpath_to_cq(request.xpath)
            )
            direct = sorted(evaluate(query, fresh))
            # Byte-identical through the JSON rendering.
            assert json.dumps(result.to_json_dict()["answers"]) == json.dumps(
                [list(answer) for answer in direct]
            )

    def test_batch_preserves_request_order_and_is_deterministic(self, executor):
        requests = [
            Request(doc="sentence", query=f"Q(x) <- {label}(x)")
            for label in ("NP", "VP", "NN", "DT", "PP", "S", "VB")
        ]
        concurrent = executor.execute_batch(requests, max_workers=4)
        sequential = executor.execute_batch(requests, max_workers=1)
        assert [r.answers for r in concurrent] == [r.answers for r in sequential]
        assert [r.doc for r in concurrent] == [r.doc for r in requests]

    def test_errors_are_per_request_not_batch_aborts(self, executor):
        results = executor.execute_batch(
            [
                Request(doc="sentence", query="Q(x) <- NP(x)"),
                Request(doc="missing", query="Q(x) <- NP(x)"),
                Request(doc="sentence", query="(((nope"),
                Request(doc="sentence", query="Q <- NP(x)", engine="warp-drive"),
                Request(doc="sentence"),  # neither query nor xpath
            ]
        )
        assert results[0].ok
        assert "unknown document" in results[1].error
        assert not results[2].ok
        assert "unknown engine" in results[3].error
        assert "exactly one of" in results[4].error
        assert executor.stats()["executor"]["errors"] == 4

    def test_limit_truncates_after_sorting(self, executor):
        full = executor.execute(Request(doc="sentence", query="Q(x) <- Child+(x, y)"))
        assert full.count > 2
        limited = executor.execute(
            Request(doc="sentence", query="Q(x) <- Child+(x, y)", limit=2)
        )
        assert limited.truncated
        assert limited.count == full.count
        assert limited.answers == full.answers[:2]

    def test_boolean_queries_report_satisfied(self, executor):
        yes = executor.execute(Request(doc="sentence", query="Q <- NP(x), Child(x, y), NN(y)"))
        no = executor.execute(Request(doc="sentence", query="Q <- PP(x), Child(x, y)"))
        assert yes.satisfied is True and yes.answers == [()]
        assert no.satisfied is False and no.answers == []

    def test_query_objects_are_accepted(self, executor):
        query = items_with_payment_query()
        result = executor.execute(Request(doc="auction", query=query))
        assert result.ok
        direct = sorted(
            evaluate(query, TreeStructure(executor.store.get("auction").tree))
        )
        assert result.answers == direct

    def test_non_string_payloads_stay_per_request_errors(self, executor):
        """Type-confused fields must not escape the per-request error envelope."""
        results = executor.execute_batch(
            [
                Request(doc="sentence", xpath=123),  # type: ignore[arg-type]
                Request(doc="sentence", query="Q(x) <- NP(x)"),
            ]
        )
        assert "'xpath' must be a string" in results[0].error
        assert results[1].ok  # the batch survived
        with pytest.raises(ValueError, match="'xpath' must be a string"):
            Request.from_json_dict({"doc": "d", "xpath": 123})
        with pytest.raises(ValueError, match="'query' must be a string"):
            Request.from_json_dict({"doc": "d", "query": ["Q"]})
        with pytest.raises(ValueError, match=r"unknown request field\(s\): propagator"):
            Request.from_json_dict({"doc": "d", "query": "Q <- A(x)", "propagator": 4})

    def test_register_payload_validation(self, sentence_tree):
        store = DocumentStore()
        with pytest.raises(ValueError, match="non-empty 'doc'"):
            store.register_payload({"xml": "<a/>"})
        with pytest.raises(ValueError, match="exactly one of 'xml', 'sexpr'"):
            store.register_payload({"doc": "d"})
        with pytest.raises(ValueError, match="'xml' must be a string"):
            store.register_payload({"doc": "d", "xml": 123})
        # File registration only with allow_files (the CLI trust domain).
        with pytest.raises(ValueError, match="exactly one of 'xml', 'sexpr'"):
            store.register_payload({"doc": "d", "xml_file": "x.xml"})
        assert store.register_payload({"doc": "d", "sexpr": "(A (B))"}).nodes == 2

    def test_unknown_labels_are_not_memoized_on_resident_structures(self, executor):
        structure = executor.store.get("sentence").structure
        before = len(structure._unary_sets)
        for index in range(20):
            executor.execute(
                Request(doc="sentence", query=f"Q(x) <- made_up_label_{index}(x)")
            )
        assert len(structure._unary_sets) == before

    def test_persistent_pool_survives_batches_and_close(self, executor):
        requests = [Request(doc="sentence", query="Q(x) <- NP(x)")] * 4
        first = executor.execute_batch(requests)
        pool = executor._pool
        second = executor.execute_batch(requests)
        assert executor._pool is pool  # reused, not rebuilt per batch
        assert [r.answers for r in first] == [r.answers for r in second]
        executor.close()
        assert executor._pool is None
        # Still usable afterwards (pool lazily rebuilt).
        assert all(r.ok for r in executor.execute_batch(requests))
        executor.close()

    def test_request_from_json_dict_validation(self):
        with pytest.raises(ValueError, match="non-empty 'doc'"):
            Request.from_json_dict({"query": "Q <- A(x)"})
        with pytest.raises(ValueError, match="unknown request field"):
            Request.from_json_dict({"doc": "d", "query": "Q <- A(x)", "bogus": 1})
        with pytest.raises(ValueError, match="'limit'"):
            Request.from_json_dict({"doc": "d", "query": "Q <- A(x)", "limit": -1})
        request = Request.from_json_dict({"doc": "d", "xpath": "//A", "limit": 5})
        assert request.xpath == "//A" and request.limit == 5

    def test_warm_requests_hit_the_caches(self, executor):
        request = Request(doc="sentence", query="Q(x) <- NP(x)")
        executor.execute(request)
        warm = executor.execute(request)
        assert warm.cache_hit
        assert executor.stats()["cache"]["parse_hits"] >= 1
        assert executor.stats()["store"]["hits"] >= 2


# ---------------------------------------------------------------------------
# Serving-contract fixes (regression tests).
# ---------------------------------------------------------------------------


class TestContractFixes:
    def test_internal_crash_stays_per_request_not_batch_abort(self, executor, monkeypatch):
        """Regression: a non-client exception inside ``execute`` used to
        escape ``pool.map`` and void the whole batch; it must come back as an
        ``internal:`` error value while the batchmates stay alive."""
        import repro.service.core as core

        real_evaluate = core.answer_page
        poisoned = executor.store.get("auction").structure

        def crashing_evaluate(query, structure, **kwargs):
            if structure is poisoned:
                raise RuntimeError("kaboom")
            return real_evaluate(query, structure, **kwargs)

        monkeypatch.setattr(core, "answer_page", crashing_evaluate)
        errors_before = executor.stats()["executor"]["errors"]
        # max_workers=2 forces the dedicated-pool map path the bug lived in.
        results = executor.execute_batch(
            [
                Request(doc="sentence", query="Q(x) <- NP(x)"),
                Request(doc="auction", query="Q(i) <- item(i)"),
                Request(doc="sentence", query="Q(x) <- NN(x)"),
            ],
            max_workers=2,
        )
        assert results[0].ok and results[2].ok  # batchmates survived
        assert results[1].error == "internal: RuntimeError: kaboom"
        assert executor.stats()["executor"]["errors"] == errors_before + 1
        # The shared-pool path must behave identically.
        shared = executor.execute_batch(
            [
                Request(doc="auction", query="Q(i) <- item(i)"),
                Request(doc="sentence", query="Q(x) <- NP(x)"),
            ]
        )
        assert shared[0].error.startswith("internal:") and shared[1].ok

    def test_error_results_keep_attribution_fields(self, executor):
        """Regression: the error path of ``to_json_dict`` dropped
        ``elapsed_ms`` and ``propagator``, making failures unattributable in
        latency accounting.  Routing never reached a plan: ``"auto"``."""
        result = executor.execute(Request(doc="ghost", query="Q(x) <- A(x)"))
        payload = result.to_json_dict()
        assert not result.ok
        assert payload["propagator"] == "auto"
        assert isinstance(payload["elapsed_ms"], float) and payload["elapsed_ms"] >= 0.0

    @pytest.mark.parametrize("name", ["semijoin", "walk", "auto", "ac4"])
    def test_propagator_is_an_unknown_wire_field(self, name):
        """The query fixes the propagator: naming one, even the plan's, is a client error."""
        payload = {"doc": "sentence", "query": "Q(x) <- NP(x)", "propagator": name}
        with pytest.raises(ValueError) as raised:
            Request.from_json_dict(payload)
        assert str(raised.value) == "unknown request field(s): propagator"
        with pytest.raises(TypeError):
            Request(doc="sentence", query="Q(x) <- NP(x)", propagator=name)

    def test_bool_limit_is_rejected(self):
        """Regression: ``True`` passes ``isinstance(x, int)``, so
        ``{"limit": true}`` used to be accepted as ``limit=1``."""
        for value in (True, False):
            with pytest.raises(ValueError, match="non-negative integer"):
                Request.from_json_dict({"doc": "d", "query": "Q <- A(x)", "limit": value})
        # Plain integers still pass.
        assert Request.from_json_dict({"doc": "d", "query": "Q <- A(x)", "limit": 1}).limit == 1
        assert Request.from_json_dict({"doc": "d", "query": "Q <- A(x)", "limit": 0}).limit == 0

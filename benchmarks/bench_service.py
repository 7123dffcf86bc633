"""Benchmark: serving-layer amortization -- warm resident path vs cold path.

The serving subsystem (:mod:`repro.service`) exists to amortize per-tree and
per-query artifacts across requests: the XML parse, tree finalisation and
interval-index build happen once per *document*, and parse -> canonicalize ->
compile -> plan happens once per *query equivalence class*.  This benchmark
measures exactly that amortization on a mixed workload drawn from
``repro.workloads`` (the XMark-style auction documents and the linguistics
corpus), at nominal document sizes of 1k and 10k nodes:

* **cold path** -- every request pays everything: a fresh
  :class:`~repro.service.executor.BatchExecutor` (fresh store, empty query
  cache, cleared global compile/canonicalization caches), document
  registration from XML text, then the evaluation;
* **warm path** -- one executor with both documents resident and the cache
  warmed by a single prior pass; requests are then batch-executed over the
  thread pool.

Acceptance (ISSUE 3): warm-path batch throughput >= 10x cold-path at the 10k
nominal size.  Every measured request is also cross-checked for byte-identical
answers (through the JSON rendering) against a direct sequential
:func:`repro.evaluation.planner.evaluate` call; every request runs the plan's
propagator.

A second mode (ISSUE 4) compares the two serving *backends* head to head:
the thread-pool :class:`~repro.service.executor.BatchExecutor` (GIL-bound:
one process, shared artifacts) vs the process-sharded
:class:`~repro.service.shards.ShardedExecutor` (N worker processes, documents
routed by stable hash of their id).  Both execute the identical warm batch;
results are cross-checked byte-identical to each other and to sequential
``evaluate()``.  The >= 1.5x sharded-over-threaded throughput claim is only
meaningful on a multi-core runner -- on a single core the shards serialize on
the one CPU and pay IPC on top -- so the headline records ``cores`` and
evaluates the claim only when at least two cores are visible.

Run standalone (``python benchmarks/bench_service.py``) to regenerate
``BENCH_service.json``; per-request ``(query, tree_size)`` speedup entries
feed ``check_regression.py`` like the other benchmarks (smoke runs share the
1k nominal size with the committed full run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import time

import pytest
from bench_config import SMOKE, scaled

from repro.evaluation import evaluate
from repro.evaluation.compile import compile_query
from repro.observability.accounting import ACCOUNTING
from repro.observability.metrics import SLOW_LOG
from repro.observability.profiler import PROFILER
from repro.queries import parse_query, xpath_to_cq
from repro.queries.canonical import canonicalize
from repro.queries.simplify import simplify_query
from repro.service import BatchExecutor, Request, ShardedExecutor, shard_for
from repro.service import core as service_core
from repro.trees import TreeStructure, to_xml
from repro.workloads import auction_document, random_corpus

#: Nominal document sizes; smoke shares the 1k grid point with the full run.
SIZES = scaled((1_000, 10_000), (1_000,))

#: Generator parameters calibrated to the nominal sizes (actuals within ~6%).
AUCTION_PARAMS = {1_000: dict(num_items=55, num_people=30, num_bids=85),
                  10_000: dict(num_items=560, num_people=300, num_bids=850)}
CORPUS_PARAMS = {1_000: dict(num_sentences=45), 10_000: dict(num_sentences=440)}


def build_documents(nominal: int) -> dict[str, object]:
    """The two workload documents for one nominal size."""
    return {
        "auction": auction_document(seed=42, **AUCTION_PARAMS[nominal]),
        "corpus": random_corpus(seed=42, **CORPUS_PARAMS[nominal]),
    }


def build_workload(nominal: int) -> list[Request]:
    """The mixed request batch: datalog + XPath, monadic + Boolean."""
    requests = [
        # Auction: XPath-style monadic queries and a cyclic Boolean join.
        Request(doc="auction", query="Q(i) <- item(i), Child(i, p), payment(p)"),
        # Alpha-renamed twin of the previous query: must hit the same entry.
        Request(doc="auction", query="R(it) <- payment(pay), item(it), Child(it, pay)"),
        Request(doc="auction", xpath="//description//listitem"),
        Request(doc="auction", xpath="//person[profile/interest]"),
        Request(doc="auction", query=(
            "Q <- open_auction(a), Child(a, b1), bidder(b1), "
            "Child(a, b2), bidder(b2), Following(b1, b2)")),
        Request(doc="auction", query=(
            "Q(i) <- item(i), Child(i, d), description(d), Child+(d, l), listitem(l)")),
        # Corpus: linguistics-flavoured navigation.
        Request(doc="corpus", query="Q(x) <- NP(x), Child(x, y), NN(y)"),
        Request(doc="corpus", xpath="//NP[NN]"),  # same class as the previous one?
        Request(doc="corpus", query="Q(v) <- VP(v), Child(v, w), VB(w)"),
        Request(doc="corpus", query="Q <- NP(x), Following(x, y), PP(y)"),
        Request(doc="corpus", xpath="//VP[VB]/NP"),
        # Byte-identical resubmission: exercises the parse cache.
        Request(doc="auction", query="Q(i) <- item(i), Child(i, p), payment(p)"),
    ]
    return requests


def _request_query(request: Request):
    if request.xpath is not None:
        return xpath_to_cq(request.xpath)
    return parse_query(request.query)


def _median_time(function, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _clear_global_query_caches() -> None:
    """Reset the process-wide memoizations the cold path must not inherit."""
    compile_query.cache_clear()
    canonicalize.cache_clear()
    simplify_query.cache_clear()


def _cold_once(request: Request, doc_id: str, xml_text: str) -> None:
    """One fully cold request: fresh executor, registration, evaluation."""
    _clear_global_query_caches()
    executor = BatchExecutor()
    executor.store.register_xml(doc_id, xml_text)
    result = executor.execute(request)
    if not result.ok:
        raise AssertionError(f"cold request failed: {result.error}")


def check_byte_identical(executor: BatchExecutor, requests, documents) -> None:
    """Batch answers must render byte-identically to sequential evaluate()."""
    results = executor.execute_batch(requests)
    for request, result in zip(requests, results):
        if not result.ok:
            raise AssertionError(f"request failed: {result.error}")
        direct = sorted(evaluate(_request_query(request), TreeStructure(documents[request.doc])))
        batch_bytes = json.dumps(result.to_json_dict()["answers"]).encode()
        direct_bytes = json.dumps([list(answer) for answer in direct]).encode()
        if batch_bytes != direct_bytes:
            raise AssertionError(
                f"answers diverge from sequential evaluate() for {request} "
                f"({result.propagator})"
            )


#: How many times the mixed workload is replicated per backend-comparison
#: batch: a bigger batch amortizes dispatch overhead on both backends and
#: gives the shards enough work to overlap.
BATCH_REPLICAS = 4


def balanced_doc_ids(doc_ids, shards: int) -> dict[str, str]:
    """Stable ids that spread the benchmark documents round-robin over shards.

    Routing is by content hash of the id, and with only *two* documents the
    hash may well put both on one shard -- at which point the benchmark would
    measure coin-flip luck, not the architecture.  Real fleets hold many
    documents, so the law of large numbers balances them; here we pin a
    balanced layout by suffixing ids until each lands on its round-robin
    shard.
    """
    mapping = {}
    for position, doc_id in enumerate(sorted(doc_ids)):
        suffix = 0
        while True:
            candidate = doc_id if suffix == 0 else f"{doc_id}~{suffix}"
            if shard_for(candidate, shards) == position % shards:
                mapping[doc_id] = candidate
                break
            suffix += 1
    return mapping


def run_sharded(sizes=SIZES, repeats: int = 3, shards: int = 2) -> dict:
    """Thread backend vs process-sharded backend on the identical warm batch."""
    cores = os.cpu_count() or 1
    entries = []
    headline = None
    for nominal in sizes:
        documents = build_documents(nominal)
        xml_texts = {doc_id: to_xml(tree) for doc_id, tree in documents.items()}
        mapping = balanced_doc_ids(xml_texts, shards)
        base_requests = build_workload(nominal) * BATCH_REPLICAS
        requests = [
            dataclasses.replace(request, doc=mapping[request.doc])
            for request in base_requests
        ]

        threaded = BatchExecutor()
        for doc_id, text in xml_texts.items():
            threaded.store.register_xml(mapping[doc_id], text)
        sharded = ShardedExecutor(shards=shards)
        for doc_id, text in xml_texts.items():
            sharded.register_payload({"doc": mapping[doc_id], "xml": text})
        try:
            # Warm both, then cross-check: sharded results must be
            # byte-identical to the threaded backend's and to sequential
            # evaluate() (via the same JSON rendering).
            threaded_results = threaded.execute_batch(requests)
            sharded_results = sharded.execute_batch(requests)
            for request, ours, theirs in zip(requests, threaded_results, sharded_results):
                if not (ours.ok and theirs.ok):
                    raise AssertionError(f"backend request failed: {ours.error or theirs.error}")
                served = json.dumps(theirs.to_json_dict()["answers"]).encode()
                if served != json.dumps(ours.to_json_dict()["answers"]).encode():
                    raise AssertionError(f"backends diverge for {request}")
                original = next(o for o, mapped in mapping.items() if mapped == request.doc)
                structure = TreeStructure(documents[original])
                direct = sorted(evaluate(_request_query(request), structure))
                if served != json.dumps([list(answer) for answer in direct]).encode():
                    raise AssertionError(f"sharded answers diverge from evaluate() for {request}")

            threaded_seconds = _median_time(lambda: threaded.execute_batch(requests), repeats)
            sharded_seconds = _median_time(lambda: sharded.execute_batch(requests), repeats)
        finally:
            sharded.close()
            threaded.close()
        entry = {
            "tree_size": nominal,
            "query": "sharded_vs_threaded_batch",
            "text": f"mixed workload x{BATCH_REPLICAS} ({len(requests)} requests), "
                    f"{shards} shards",
            "shards": shards,
            "requests": len(requests),
            "threaded_seconds": threaded_seconds,
            "sharded_seconds": sharded_seconds,
            "threaded_qps": len(requests) / threaded_seconds,
            "sharded_qps": len(requests) / sharded_seconds,
            "speedup": threaded_seconds / sharded_seconds,
        }
        entries.append(entry)
        print(
            f"n={nominal:>6} sharded({shards}) {entry['sharded_qps']:.1f} q/s vs "
            f"threaded {entry['threaded_qps']:.1f} q/s -> {entry['speedup']:.2f}x "
            f"({cores} core(s))"
        )
        if headline is None or nominal > headline["tree_size"]:
            headline = {
                "tree_size": nominal,
                "shards": shards,
                "cores": cores,
                "threaded_qps": entry["threaded_qps"],
                "sharded_qps": entry["sharded_qps"],
                "speedup": entry["speedup"],
                "claim": (
                    "sharded batch throughput >= 1.5x the threaded executor on "
                    "the 10k-node mixed workload on a multi-core runner"
                ),
                # On one core the shards serialize on the CPU and pay IPC on
                # top; the claim is only evaluated where it is meaningful.
                "holds": (entry["speedup"] >= 1.5) if cores >= 2 else None,
            }
            if cores < 2:
                headline["note"] = (
                    f"measured on a single-core machine ({cores} core visible): "
                    "the >=1.5x multi-core claim is recorded but not evaluated"
                )
    return {"results": entries, "headline": headline}


def _strip_observability() -> list:
    """Shadow the per-request observability hooks with instance-level no-ops.

    Setting an attribute on the metric *instances* shadows the bound class
    methods without touching the classes, so ``delattr`` restores the real
    hooks exactly.  This is the "stripped" arm of the overhead measurement:
    the serving path runs identically except that counters, histograms, the
    plan-accounting ledger and the slow log all cost one no-op call.
    """
    stubs = [
        (service_core.REQUESTS_TOTAL, "inc", lambda **labels: None),
        (service_core.REQUEST_SECONDS, "observe", lambda value, **labels: None),
        (service_core.PLAN_CHOICES, "inc", lambda **labels: None),
        (service_core.PLAN_ESTIMATED_COST, "observe", lambda value, **labels: None),
        (ACCOUNTING, "record", lambda **kwargs: None),
        (SLOW_LOG, "maybe_record", lambda *args, **kwargs: None),
    ]
    for target, name, stub in stubs:
        setattr(target, name, stub)
    return stubs


def _restore_observability(stubs: list) -> None:
    for target, name, _ in stubs:
        delattr(target, name)


def _hook_cost_seconds(iterations: int = 5_000) -> float:
    """Directly measured cost of one warm resident request's observability hooks.

    Calls exactly what the serving path calls per successful request on a
    resident document -- the planner counter, the request counter/histogram
    and the slow-log check -- in a tight loop.  (The estimated-cost histogram
    and the plan-accounting ledger run for SQL plans only, and the mixed
    workload this is divided by has none.)  Averaging over thousands of calls
    makes this stable at the microsecond scale, where end-to-end A/B medians
    on a busy single-core runner jitter by more than the quantity being
    measured.
    """
    started = time.perf_counter()
    for _ in range(iterations):
        service_core.PLAN_CHOICES.inc(engine="fixpoint", lowering="tree")
        service_core.REQUESTS_TOTAL.inc(status="ok")
        service_core.REQUEST_SECONDS.observe(0.001, engine="fixpoint")
        SLOW_LOG.maybe_record(
            1.0,
            doc="bench",
            query_key="bench:hook",
            engine="fixpoint",
            propagator="semijoin",
            ok=True,
            lowering="tree",
        )
    elapsed = time.perf_counter() - started
    # Scrub the synthetic traffic out of the process-global telemetry.
    SLOW_LOG.clear()
    return elapsed / iterations


def run_observability(repeats: int = 3) -> dict:
    """Observability tax: what the closed-loop telemetry costs per request.

    Two measurements, one gate:

    * **direct hook cost** (gated) -- one warm resident request's worth of
      metrics + slow-log calls, timed in a tight loop and divided by
      the warm per-request latency of the mixed workload.  The claim is that
      this always-on layer costs under 5% of a warm request.
    * **end-to-end A/B** (recorded) -- interleaved best-of-``rounds`` warm
      batch times instrumented vs hook-stripped vs actively profiled.  On a
      busy single-core runner these medians jitter by several percent --
      more than the overhead itself -- so they corroborate rather than gate.

    The gate is evaluated on full runs only; smoke records the numbers.
    """
    nominal = min(SIZES)
    documents = build_documents(nominal)
    requests = build_workload(nominal)
    executor = BatchExecutor()
    for doc_id, tree in documents.items():
        executor.store.register_xml(doc_id, to_xml(tree))
    executor.execute_batch(requests)  # warm caches before any timing
    rounds = max(repeats * 5, 15)
    arms: dict = {"instrumented": [], "stripped": [], "profiled": []}
    try:
        hook_seconds = _hook_cost_seconds()
        # Interleave the arms round-robin so slow environmental drift (CPU
        # frequency, co-tenants) hits all three arms equally.
        for _ in range(rounds):
            arms["instrumented"].append(
                _median_time(lambda: executor.execute_batch(requests), 1)
            )
            stubs = _strip_observability()
            try:
                arms["stripped"].append(
                    _median_time(lambda: executor.execute_batch(requests), 1)
                )
            finally:
                _restore_observability(stubs)
            if not PROFILER.start():
                raise AssertionError("profiler refused to start during the overhead run")
            try:
                arms["profiled"].append(
                    _median_time(lambda: executor.execute_batch(requests), 1)
                )
            finally:
                PROFILER.stop()
                PROFILER.reset()
    finally:
        executor.close()

    instrumented, stripped, profiled = (
        min(arms[arm]) for arm in ("instrumented", "stripped", "profiled")
    )
    warm_request_seconds = instrumented / len(requests)
    metrics_overhead = hook_seconds / warm_request_seconds
    report = {
        "tree_size": nominal,
        "requests": len(requests),
        "rounds": rounds,
        "hook_cost_us": hook_seconds * 1e6,
        "warm_request_us": warm_request_seconds * 1e6,
        "metrics_overhead": metrics_overhead,
        "instrumented_seconds": instrumented,
        "stripped_seconds": stripped,
        "profiled_seconds": profiled,
        "ab_overhead": instrumented / stripped - 1.0,
        "profiler_overhead": profiled / instrumented - 1.0,
        "claim": "metrics + slow-log hook cost < 5% of a warm resident request",
        "holds": None if SMOKE else metrics_overhead < 0.05,
    }
    print(
        f"observability: hooks {hook_seconds * 1e6:.1f}us/request over warm "
        f"{warm_request_seconds * 1e6:.0f}us -> {metrics_overhead:.2%} overhead; "
        f"A/B batch: instrumented={instrumented * 1000:.2f}ms "
        f"stripped={stripped * 1000:.2f}ms ({report['ab_overhead']:+.1%}) "
        f"profiled={profiled * 1000:.2f}ms ({report['profiler_overhead']:+.1%})"
    )
    return report


def run(sizes=SIZES, repeats: int = 3) -> dict:
    results = []
    headline = None
    for nominal in sizes:
        documents = build_documents(nominal)
        xml_texts = {doc_id: to_xml(tree) for doc_id, tree in documents.items()}
        actual_sizes = {doc_id: len(tree) for doc_id, tree in documents.items()}
        requests = build_workload(nominal)

        # Warm executor: documents resident, caches warmed by one full pass,
        # answers cross-checked against direct evaluation along the way.
        warm_executor = BatchExecutor()
        for doc_id, text in xml_texts.items():
            warm_executor.store.register_xml(doc_id, text)
        check_byte_identical(warm_executor, requests, documents)

        per_request = []
        cold_total = 0.0
        warm_total = 0.0
        for position, request in enumerate(requests):
            cold = _median_time(
                lambda: _cold_once(request, request.doc, xml_texts[request.doc]),
                repeats,
            )
            # Warm calls are microseconds; a larger repeat pool keeps the
            # median stable enough for the CI regression diff on busy runners.
            warm = _median_time(lambda: warm_executor.execute(request), max(repeats, 9))
            cold_total += cold
            warm_total += warm
            entry = {
                "tree_size": nominal,
                "query": f"req{position:02d}_{request.doc}",
                "text": request.xpath or str(request.query),
                "cold_seconds": cold,
                "warm_seconds": warm,
                "speedup": cold / warm if warm > 0 else float("inf"),
            }
            per_request.append(entry)
            print(
                f"n={nominal:>6} {entry['query']:<28} cold={cold:.4f}s "
                f"warm={warm:.5f}s speedup={entry['speedup']:.1f}x"
            )

        # Throughput: cold path is inherently sequential (every request
        # rebuilds the world); the warm path batches over the thread pool.
        batch_seconds = _median_time(
            lambda: warm_executor.execute_batch(requests), repeats
        )
        cold_qps = len(requests) / cold_total
        warm_qps = len(requests) / batch_seconds
        size_report = {
            "nominal_size": nominal,
            "actual_sizes": actual_sizes,
            "requests": len(requests),
            "cold_seconds_total": cold_total,
            "warm_seconds_sequential_total": warm_total,
            "warm_seconds_batch": batch_seconds,
            "cold_qps": cold_qps,
            "warm_qps": warm_qps,
            "throughput_speedup": warm_qps / cold_qps,
            "cache_stats": warm_executor.cache.stats(),
        }
        results.append({"per_request": per_request, **size_report})
        print(
            f"n={nominal:>6} cold={cold_qps:.1f} q/s warm={warm_qps:.1f} q/s "
            f"-> {size_report['throughput_speedup']:.1f}x"
        )
        if headline is None or nominal > headline["tree_size"]:
            headline = {
                "tree_size": nominal,
                "cold_qps": cold_qps,
                "warm_qps": warm_qps,
                "speedup": size_report["throughput_speedup"],
                "claim": (
                    "warm-path batch throughput >= 10x cold-path "
                    "(fresh store + empty cache) on the mixed workload"
                ),
                "holds": size_report["throughput_speedup"] >= 10.0,
            }

    flat_entries = [entry for size_report in results for entry in size_report["per_request"]]
    return {
        "benchmark": "serving layer: warm resident path vs cold per-request rebuild",
        "sizes": list(sizes),
        "repeats": repeats,
        "results": flat_entries,
        "by_size": results,
        "headline": headline,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_service.json", help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--shards", type=int, default=2, help="worker processes for the sharded mode"
    )
    parser.add_argument(
        "--mode",
        choices=("all", "amortization", "sharded", "observability"),
        default="all",
        help="which benchmark modes to run",
    )
    args = parser.parse_args(argv)
    report: dict = {"benchmark": "serving layer", "sizes": list(SIZES), "repeats": args.repeats}
    if args.mode in ("all", "amortization"):
        report.update(run(repeats=args.repeats))
    if args.mode in ("all", "sharded"):
        sharded_report = run_sharded(repeats=args.repeats, shards=args.shards)
        report["sharded"] = sharded_report
        report.setdefault("results", [])
        report["results"] = list(report["results"]) + sharded_report["results"]
    if args.mode in ("all", "observability"):
        report["observability"] = run_observability(repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    failed = False
    headline = report.get("headline")
    if headline is not None:
        print(
            f"wrote {args.out}; amortization headline at n={headline['tree_size']}: "
            f"cold {headline['cold_qps']:.1f} q/s vs warm {headline['warm_qps']:.1f} q/s "
            f"({headline['speedup']:.1f}x)"
        )
        if headline["tree_size"] < 10_000:
            # The acceptance bars are set at the 10k nominal size; smoke runs
            # only measure the shared 1k grid point, where cold registration
            # is too cheap for the bar to be meaningful.
            print("note: >=10x claim is only enforced at the 10k nominal size")
        elif not headline["holds"]:
            print("FAIL: the >=10x warm-over-cold claim does not hold at these sizes")
            failed = True
    sharded_headline = report.get("sharded", {}).get("headline")
    if sharded_headline is not None:
        print(
            f"sharded headline at n={sharded_headline['tree_size']}: "
            f"{sharded_headline['sharded_qps']:.1f} q/s over {sharded_headline['shards']} "
            f"shard(s) vs threaded {sharded_headline['threaded_qps']:.1f} q/s "
            f"({sharded_headline['speedup']:.2f}x, {sharded_headline['cores']} core(s))"
        )
        if sharded_headline["holds"] is None:
            print(f"note: {sharded_headline.get('note', 'sharded claim not evaluated')}")
        elif sharded_headline["tree_size"] >= 10_000 and not sharded_headline["holds"]:
            print("FAIL: the >=1.5x sharded-over-threaded claim does not hold")
            failed = True
    observability = report.get("observability")
    if observability is not None:
        if observability["holds"] is None:
            print("note: the <5% observability-overhead gate is only enforced on full runs")
        elif not observability["holds"]:
            print(
                f"FAIL: metrics + slow-log hook overhead "
                f"{observability['metrics_overhead']:.1%} exceeds the 5% gate"
            )
            failed = True
    return 1 if failed else 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST = min(SIZES)
_DOCS = build_documents(SMALLEST)
_XML = {doc_id: to_xml(tree) for doc_id, tree in _DOCS.items()}
_REQUESTS = build_workload(SMALLEST)


@pytest.fixture(scope="module")
def warm_executor():
    executor = BatchExecutor()
    for doc_id, text in _XML.items():
        executor.store.register_xml(doc_id, text)
    executor.execute_batch(_REQUESTS)  # warm the caches
    return executor


def test_service_warm_batch(benchmark, warm_executor):
    results = benchmark(lambda: warm_executor.execute_batch(_REQUESTS))
    assert all(result.ok for result in results)


def test_service_warm_single_query(benchmark, warm_executor):
    request = _REQUESTS[0]
    result = benchmark(lambda: warm_executor.execute(request))
    assert result.ok


@pytest.mark.parametrize("doc_id", sorted(_XML) if not SMOKE else sorted(_XML)[:1])
def test_service_cold_registration(benchmark, doc_id):
    def register():
        executor = BatchExecutor()
        executor.store.register_xml(doc_id, _XML[doc_id])
        return executor

    executor = benchmark(register)
    assert len(executor.store) == 1


@pytest.fixture(scope="module")
def sharded_executor():
    executor = ShardedExecutor(shards=2)
    mapping = balanced_doc_ids(_XML, 2)
    requests = [dataclasses.replace(r, doc=mapping[r.doc]) for r in _REQUESTS]
    for doc_id, text in _XML.items():
        executor.register_payload({"doc": mapping[doc_id], "xml": text})
    executor.execute_batch(requests)  # warm the per-shard caches
    yield executor, requests
    executor.close()


def test_service_sharded_batch(benchmark, sharded_executor):
    executor, requests = sharded_executor
    results = benchmark(lambda: executor.execute_batch(requests))
    assert all(result.ok for result in results)


def test_batch_answers_byte_identical_to_sequential_evaluate(warm_executor):
    """The acceptance cross-check, runnable as a plain test at smoke size."""
    check_byte_identical(warm_executor, _REQUESTS, _DOCS)


def test_sharded_answers_byte_identical_to_threaded(warm_executor, sharded_executor):
    """The backends must serve byte-identical answers for the same workload."""
    executor, requests = sharded_executor
    threaded_results = warm_executor.execute_batch(_REQUESTS)
    sharded_results = executor.execute_batch(requests)
    for ours, theirs in zip(threaded_results, sharded_results):
        assert ours.ok and theirs.ok
        assert json.dumps(ours.to_json_dict()["answers"]) == json.dumps(
            theirs.to_json_dict()["answers"]
        )


if __name__ == "__main__":
    raise SystemExit(main())

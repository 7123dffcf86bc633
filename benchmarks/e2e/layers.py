"""The traced pass: where a request's time goes, layer by layer, from outside.

Two measurements per workload, both after (and apart from) the untraced
rounds:

* an **HTTP pass** on one connection against the same server: client latency
  next to the ``elapsed_ms`` the server reports for ``run_request``, so what
  the front end, validation, dispatch, encode and the socket add is their
  difference;
* an **in-process staged replay** in this process, with its own
  ``DocumentStore`` and ``QueryCache``: every request runs once whole through
  ``run_request`` and once stage by stage, with a span around each call into
  a layer's public function.

The two alternate, a slice of one and a unit of the other, so that a change
in the box's speed falls on both.  Nothing under ``src/`` is instrumented.
Where a stage cannot be cut out of the call that contains it (``propagate``
inside ``evaluate``, lowering inside ``stream_answers``) it is measured by a
separate *probe* call, recorded as a ``detached`` child span: its duration
counts as covered by the parent, but it ran outside the parent's interval.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro.backends.sqlite import SQLiteBackend, explain_sql
from repro.decomposition import yannakakis
from repro.evaluation import Engine, compile_query, evaluate, propagate
from repro.planning import DocumentStats
from repro.queries import canonical_key, canonicalize, parse_query, simplify_query, xpath_to_cq
from repro.service import (
    BatchExecutor,
    DocumentStore,
    QueryCache,
    Request,
    RequestResult,
    ShardedExecutor,
    run_request,
)
from repro.trees import TreeStructure, from_xml

from .check import Checker
from .load import Gauge, percentile, run_rounds
from .serving import Connection, ServerProcess
from .workloads import Instance, Req, body_of

#: Every per-layer metric, in report order, with its unit.  ``BENCHMARK.json``
#: declares exactly these names.
PER_LAYER = (
    ("service.server.overhead_ms", "ms"),
    ("service.async_server.overhead_ms", "ms"),
    ("service.server.response_bytes", "count"),
    ("service.shards.ipc_ms", "ms"),
    ("service.executor.dispatch_ms", "ms"),
    ("service.core.validate_ms", "ms"),
    ("service.core.run_request_ms", "ms"),
    ("service.core.unattributed_ms", "ms"),
    ("service.cache.resolve_ms", "ms"),
    ("service.cache.hit_rate", "ratio"),
    ("service.cache.novel_p50_ms", "ms"),
    ("service.cache.renamed_p50_ms", "ms"),
    ("queries.parse_ms", "ms"),
    ("queries.simplify_ms", "ms"),
    ("queries.canonicalize_ms", "ms"),
    ("evaluation.compile_ms", "ms"),
    ("decomposition.decompose_ms", "ms"),
    ("planning.plan_ms", "ms"),
    ("planning.route.xproperty", "ratio"),
    ("planning.route.acyclic", "ratio"),
    ("planning.route.decomposition", "ratio"),
    ("planning.route.backtracking", "ratio"),
    ("planning.route.sql", "ratio"),
    ("evaluation.propagate_ms", "ms"),
    ("evaluation.enumerate_ms", "ms"),
    ("decomposition.evaluate_ms", "ms"),
    ("evaluation.answers_per_req", "count"),
    ("service.core.sort_limit_ms", "ms"),
    ("service.core.encode_ms", "ms"),
    ("service.core.limit_p50_ms", "ms"),
    ("service.core.full_p50_ms", "ms"),
    ("backends.sqlite.lower_ms", "ms"),
    ("backends.sqlite.stream_ms", "ms"),
    ("backends.sqlite.count_ms", "ms"),
    ("backends.sqlite.ensure_ms", "ms"),
    ("trees.xml_parse_ms", "ms"),
    ("trees.structure_ms", "ms"),
    ("planning.stats_ms", "ms"),
    ("server.cpu_ms_per_req", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.latency_max_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("budget.coverage", "ratio"),
)

#: Stages that make up ``run_request``; their sum against the whole call is
#: the unattributed remainder (metrics hooks, accounting ledger, glue).
RUN_REQUEST_STAGES = (
    "service.cache.resolve",
    "decomposition.decompose",
    "planning.plan",
    "evaluation.evaluate",
    "decomposition.evaluate",
    "backends.sqlite.stream",
    "backends.sqlite.count",
    "service.core.sort_limit",
)


#: Spans reported as ``<name>_ms``: mean milliseconds per replayed request.
SPAN_METRICS = (
    "service.core.validate",
    "service.cache.resolve",
    "queries.parse",
    "queries.simplify",
    "queries.canonicalize",
    "evaluation.compile",
    "decomposition.decompose",
    "planning.plan",
    "evaluation.propagate",
    "decomposition.evaluate",
    "service.core.sort_limit",
    "service.core.encode",
    "backends.sqlite.lower",
    "backends.sqlite.stream",
    "backends.sqlite.count",
)

#: Spans that measure a part of their parent by a separate call (detached).
PROBES = ("evaluation.propagate", "backends.sqlite.lower")


class Spans:
    """In-memory span log: name, start, end, parent, request id."""

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self.totals: dict[str, float] = {}
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, request: int, probe_of: Optional[int] = None):
        """Record a span; yields its id.

        ``probe_of`` names the parent of a *detached* span: a probe that ran
        outside its parent's interval but measures a part of it.
        """
        span_id = self._next
        self._next += 1
        parent = probe_of if probe_of is not None else (self._stack[-1] if self._stack else None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)
            row = {"id": span_id, "parent": parent, "request": request, "name": name}
            row.update(start_ms=start * 1000.0, end_ms=end * 1000.0)
            if probe_of is not None:
                row["detached"] = True
            self.rows.append(row)

    def reset(self) -> None:
        self.rows.clear()
        self.totals.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


def _clear_global_query_caches() -> None:
    """Forget the process-wide memoizations a novel query must not inherit."""
    compile_query.cache_clear()
    canonicalize.cache_clear()
    simplify_query.cache_clear()


class Replay:
    """The in-process staged replay of one workload's requests."""

    def __init__(self, instance: Instance, workdir: Path, spans: Spans):
        self.instance = instance
        self.spans = spans
        #: Per document: ``from_xml``, ``TreeStructure`` + index, ``DocumentStats``.
        self.document_ms = dict.fromkeys(
            ("trees.xml_parse_ms", "trees.structure_ms", "planning.stats_ms"), 0.0
        )
        self.ensure_ms = 0.0
        self.backend: Optional[SQLiteBackend] = None
        with Gauge() as gauge:
            if instance.workload.accel:
                self.backend = SQLiteBackend(str(workdir / "replay-accel.db"))
                started = time.perf_counter()
                for doc, tree in instance.trees.items():
                    self.backend.ensure_document(doc, tree)
                self.ensure_ms = (time.perf_counter() - started) * 1000.0 / len(instance.trees)
                self.store = DocumentStore(accel_backend=self.backend)
            else:
                self.store = DocumentStore()
                for doc, xml in instance.xml.items():
                    with self._timed("trees.xml_parse_ms"):
                        tree = from_xml(xml)
                    with self._timed("trees.structure_ms"):
                        TreeStructure(tree).index  # noqa: B018 - forces the index build
                    with self._timed("planning.stats_ms"):
                        DocumentStats.of_tree(tree)
                    self.store.register_xml(doc, xml)
        self.ensure_ms /= gauge.factor
        self.document_ms = {name: ms / gauge.factor for name, ms in self.document_ms.items()}
        self.whole_cache = QueryCache()
        self.staged_cache = QueryCache()
        # Its own cache, so a query is as novel to it as to ``run_request``.
        self.executor = BatchExecutor(self.store, QueryCache())
        self.sharded: Optional[ShardedExecutor] = None
        self._seen_texts: set[tuple[str, str]] = set()
        self._seen_keys: set[str] = set()
        self._reset_counters()

    @contextmanager
    def _timed(self, name: str):
        started = time.perf_counter()
        yield
        share = (time.perf_counter() - started) * 1000.0 / len(self.instance.xml)
        self.document_ms[name] += share

    def _reset_counters(self) -> None:
        self.requests = 0
        self.whole_s = 0.0
        self.dispatch_s: list[float] = []
        self.ipc_s = 0.0
        self.answers = 0
        self.routes: dict[str, int] = {}
        self.slowdowns: list[float] = []
        self._cache_before = self.whole_cache.stats()
        self.spans.reset()

    def start_shards(self, shards: int) -> None:
        self.sharded = ShardedExecutor(shards=shards)
        for doc, xml in self.instance.xml.items():
            self.sharded.register_payload({"doc": doc, "xml": xml})

    def close(self) -> None:
        self.executor.close()
        if self.sharded is not None:
            self.sharded.close()
        if self.backend is not None:
            self.backend.close()

    def warm(self, requests: list[Req]) -> None:
        """Bring both caches to the server's post-warm-up state; record nothing."""
        self.run_unit(requests)
        self._reset_counters()

    def run_unit(self, requests: list[Req]) -> None:
        """Replay one traffic unit inside its own speed gauge."""
        with Gauge() as gauge:
            for req in requests:
                self.run(req)
        self.slowdowns.append(gauge.factor)

    # -- one request ------------------------------------------------------------

    def run(self, req: Req) -> None:
        body = body_of(req)
        request = Request.from_json_dict(json.loads(body))
        rid = self.requests
        self.requests += 1

        # Two whole executions, through ``run_request`` and through the
        # executor; they alternate order, so neither is always the one that
        # finds the processor caches warm.
        if rid % 2:
            executor_s = self._timed_call(self.executor.execute, request)[1]
        whole, core_s = self._timed_call(run_request, self.store, self.whole_cache, request)
        if not rid % 2:
            executor_s = self._timed_call(self.executor.execute, request)[1]
        if not whole.ok:
            raise RuntimeError(f"replay of {req.spec} failed: {whole.error}")
        self.whole_s += core_s
        self.dispatch_s.append(executor_s - core_s)
        self.answers += whole.count
        if self.sharded is not None:
            self.ipc_s += self._timed_call(self.sharded.execute, request)[1] - core_s

        _clear_global_query_caches()
        staged = self._staged(rid, body)
        if (staged.answers, staged.count, staged.truncated) != (
            whole.answers,
            whole.count,
            whole.truncated,
        ):
            raise RuntimeError(f"staged replay of {req.spec} diverged from run_request")

    @staticmethod
    def _timed_call(function, *args):
        _clear_global_query_caches()
        started = time.perf_counter()
        value = function(*args)
        return value, time.perf_counter() - started

    def _staged(self, rid: int, body: bytes) -> RequestResult:
        span, store, cache = self.spans.span, self.store, self.staged_cache
        with span("request", rid):
            with span("service.core.validate", rid):
                request = Request.from_json_dict(json.loads(body))
            with span("service.core.run_request", rid):
                started = time.perf_counter()
                entry, cache_hit = self._resolve(rid, request)
                with span("decomposition.decompose", rid):
                    entry.compiled.decomposition  # noqa: B018 - forces the lazy property
                with span("planning.plan", rid):
                    accel_only = store.residency(request.doc) == "accel"
                    plan = cache.plan_for(
                        entry, store.stats_for(request.doc), accel_only=accel_only
                    )
                self.routes[plan.engine.value] = self.routes.get(plan.engine.value, 0) + 1
                if accel_only:
                    answers, count, truncated = self._stream(rid, request, entry, plan)
                else:
                    found = self._evaluate(rid, request, entry, plan)
                    with span("service.core.sort_limit", rid):
                        answers = sorted(found)
                        count = len(answers)
                        truncated = request.limit is not None and count > request.limit
                        if truncated:
                            answers = answers[: request.limit]
                elapsed_ms = (time.perf_counter() - started) * 1000.0
            result = RequestResult(
                doc=request.doc,
                query_key=entry.key,
                answers=answers,
                count=count,
                truncated=truncated,
                satisfied=(count > 0) if entry.query.is_boolean else None,
                elapsed_ms=elapsed_ms,
                propagator=plan.propagator.value,
                engine=plan.engine.value,
                cache_hit=cache_hit,
            )
            with span("service.core.encode", rid):
                json.dumps(result.to_json_dict()).encode("utf-8")
        return result

    def _resolve(self, rid: int, request: Request):
        span, cache = self.spans.span, self.staged_cache
        if request.xpath is not None:
            kind, text = "xpath", request.xpath
        else:
            kind, text = "datalog", request.query
        with span("service.cache.resolve", rid):
            if (kind, text) in self._seen_texts:
                return cache.resolve_text(text, kind)
            with span("queries.parse", rid):
                query = xpath_to_cq(text) if kind == "xpath" else parse_query(text)
            with span("queries.simplify", rid):
                simplified = simplify_query(query)
            with span("queries.canonicalize", rid):
                canonical = canonicalize(simplified)
                key = canonical_key(simplified)
            if key not in self._seen_keys:
                with span("evaluation.compile", rid):
                    compile_query(canonical)
            # The memoized steps above make this the cache's own share:
            # lookups, the static engine tier, entry insertion.
            resolved = cache.resolve_query(query)
        self._seen_texts.add((kind, text))
        self._seen_keys.add(key)
        return resolved

    def _evaluate(self, rid: int, request: Request, entry, plan):
        span = self.spans.span
        structure = self.store.get(request.doc).structure
        if plan.engine is Engine.DECOMPOSITION:
            with span("decomposition.evaluate", rid):
                return yannakakis.evaluate_answers(
                    entry.query, structure, propagator=plan.propagator, compiled=entry.compiled
                )
        with span("evaluation.evaluate", rid) as evaluate_span:
            found = evaluate(
                entry.query,
                structure,
                engine=plan.engine,
                propagator=plan.propagator,
                compiled=entry.compiled,
            )
        with span("evaluation.propagate", rid, probe_of=evaluate_span):
            propagate(entry.compiled, structure, propagator=plan.propagator)
        return found

    def _stream(self, rid: int, request: Request, entry, plan):
        span, backend = self.spans.span, self.backend
        knobs = {"lowering": plan.lowering, "materialize": plan.materialize}
        limit = None if request.limit is None else request.limit + 1
        with span("backends.sqlite.stream", rid) as stream_span:
            answers = list(backend.stream_answers(request.doc, entry.query, limit=limit, **knobs))
        with span("backends.sqlite.lower", rid, probe_of=stream_span):
            explain_sql(entry.query, doc_id=request.doc, backend=backend, lowering=plan.lowering)
        if request.limit is None or len(answers) <= request.limit:
            return answers, len(answers), False
        with span("backends.sqlite.count", rid):
            count = backend.count_answers(request.doc, entry.query, **knobs)
        return answers[: request.limit], count, True

    # -- the numbers --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = self.requests
        # Milliseconds per request at reference speed (the span file stays raw).
        scale = 1000.0 / n / statistics.fmean(self.slowdowns)
        ms = {name: total * scale for name, total in self.spans.totals.items()}
        run_request_ms = self.whole_s * scale
        # The staged run minus the probes that ran inside its interval.
        staged_ms = ms["service.core.run_request"] - sum(ms.get(probe, 0.0) for probe in PROBES)
        attributed = sum(ms.get(stage, 0.0) for stage in RUN_REQUEST_STAGES)
        after, before = self.whole_cache.stats(), self._cache_before
        lookups = (after["hits"] + after["misses"]) - (before["hits"] + before["misses"])
        out = {f"{name}_ms": ms.get(name, 0.0) for name in SPAN_METRICS}
        out.update(self.document_ms)
        out.update(
            {
                "service.shards.ipc_ms": self.ipc_s * scale,
                # A constant few microseconds under milliseconds of noise: the
                # median of the paired differences, not their mean.
                "service.executor.dispatch_ms": statistics.median(self.dispatch_s) * scale * n,
                "service.core.run_request_ms": run_request_ms,
                "service.core.unattributed_ms": run_request_ms - attributed,
                "service.cache.hit_rate": (after["hits"] - before["hits"]) / lookups,
                "evaluation.enumerate_ms": ms.get("evaluation.evaluate", 0.0)
                - ms.get("evaluation.propagate", 0.0),
                "evaluation.answers_per_req": self.answers / n,
                "backends.sqlite.ensure_ms": self.ensure_ms,
                "trace.overhead_share": (staged_ms - run_request_ms) / run_request_ms,
                "attributed_ms": attributed,
            }
        )
        for engine in ("xproperty", "acyclic", "decomposition", "backtracking", "sql"):
            out[f"planning.route.{engine}"] = self.routes.get(engine, 0) / n
        return out


class HttpPass:
    """One connection, no queueing: client latency beside the server's own clock.

    Runs slice by slice (each inside its own speed gauge), so the caller can
    alternate slices with replay units and both see the same drift of the box.
    Every body is read for its ``elapsed_ms``, so every body is verified too.
    """

    def __init__(self, server: ServerProcess, connection: Connection, checker: Checker):
        self.server, self.connection, self.checker = server, connection, checker
        self.latencies: dict[str, list[float]] = {"": []}
        self.overheads: list[float] = []
        self.sizes: list[int] = []
        self.cpu_ms = 0.0

    def run_slice(self, sequence: list[Req]) -> None:
        cpu_before = self.server.cpu_seconds()
        (result,) = run_rounds([self.connection], [[sequence]], self.checker, len(sequence), 0)
        self.cpu_ms += (self.server.cpu_seconds() - cpu_before) * 1000.0 / result.slowdown
        for sample in result.samples:
            if sample.status == 200:
                latency = sample.latency * 1000.0 / result.slowdown
                elapsed = json.loads(sample.raw)["elapsed_ms"] / result.slowdown
                self.overheads.append(latency - elapsed)
                self.sizes.append(sample.size)
                self.latencies[""].append(latency)
                if sample.req.klass:
                    self.latencies.setdefault(sample.req.klass, []).append(latency)

    def _quantile(self, klass: str, q: float) -> float:
        values = self.latencies.get(klass)
        return percentile(sorted(values), q) if values else 0.0

    def metrics(self, asynchronous: bool) -> dict[str, float]:
        overhead_ms = statistics.fmean(self.overheads)
        return {
            "service.server.overhead_ms": 0.0 if asynchronous else overhead_ms,
            "service.async_server.overhead_ms": overhead_ms if asynchronous else 0.0,
            "service.server.response_bytes": statistics.fmean(self.sizes),
            "service.cache.novel_p50_ms": self._quantile("novel", 0.50),
            "service.cache.renamed_p50_ms": self._quantile("renamed", 0.50),
            "service.core.limit_p50_ms": self._quantile("limit", 0.50),
            "service.core.full_p50_ms": self._quantile("full", 0.50),
            "server.cpu_ms_per_req": self.cpu_ms / len(self.latencies[""]),
            "client.latency_p99_ms": self._quantile("", 0.99),
            "client.latency_max_ms": max(self.latencies[""]),
            "overhead_ms": overhead_ms,
            "client_mean_ms": statistics.fmean(self.latencies[""]),
        }

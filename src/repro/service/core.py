"""The request-execution core shared by the thread and process backends.

:class:`Request` (the wire format), :class:`RequestResult` (the outcome) and
:func:`run_request` (resolve the cached plan, fetch the resident document, ask
the engine for its page of answers) live here so that every serving backend --
:class:`~repro.service.executor.BatchExecutor`'s worker threads and
:class:`~repro.service.shards.ShardedExecutor`'s worker processes -- executes
requests through one code path and therefore honours one contract:

* results are deterministic: what an engine hands over is the first ``limit``
  answers in ascending order plus the exact total
  (:func:`repro.evaluation.planner.answer_page` for resident documents, the
  SQL backend's ordered cursor for accel-only ones) -- the core neither sorts
  nor slices -- byte-identical to the sorted, then truncated
  :func:`repro.evaluation.planner.evaluate` set for every engine;
* failures are per-request values, never batch aborts.  Client mistakes
  (unknown document, parse errors, bad parameters) are reported verbatim in
  ``RequestResult.error``; anything else -- a genuine bug in the evaluation
  stack -- is still caught and reported with an ``internal:`` prefix, because
  one poisoned request must not void its batchmates or kill a worker;
* error results carry the same attribution fields (``elapsed_ms``,
  ``propagator``, ``engine``) as successes, so failed requests show up in
  latency accounting with full routing attribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

from ..evaluation.planner import Engine, answer_page
from ..evaluation.propagation import choose_propagator
from ..observability import tracing
from ..observability.accounting import ACCOUNTING
from ..observability.metrics import REGISTRY, SLOW_LOG
from ..planning import QueryPlan, sql_can_run
from ..queries.parser import QueryParseError
from ..queries.query import ConjunctiveQuery
from ..queries.xpath import XPathTranslationError
from ..trees.columnar import AnswerPage
from ..trees.xmlio import XMLParseError
from .cache import CachedQuery, QueryCache
from .store import DocumentNotFound, DocumentStore

#: Request outcomes: ``ok`` / ``error`` (client mistakes) / ``internal``.
REQUESTS_TOTAL = REGISTRY.counter(
    "cqtrees_requests_total",
    "Evaluation requests executed, by outcome.",
    ("status",),
)
#: End-to-end request latency, attributed to the engine that served it
#: (errors attribute to the engine chosen before the failure, or ``none``
#: when routing itself failed).
REQUEST_SECONDS = REGISTRY.histogram(
    "cqtrees_request_seconds",
    "End-to-end request latency in seconds, by engine.",
    ("engine",),
)
#: Planner choices, one increment per planned request: where the plan sent
#: the query.
PLAN_CHOICES = REGISTRY.counter(
    "cqtrees_plan_choices_total",
    "Planner choices by engine and SQL lowering.",
    ("engine", "lowering"),
)
#: Cost-model estimates span many orders of magnitude (label-selective bags
#: vs cartesian n^(w+1) terms), so the histogram buckets by decade.  Only SQL
#: plans carry one (it chose their lowering).  How the estimates compare with
#: what requests actually cost is the drift ledger's
#: (:mod:`repro.observability.accounting`).
PLAN_ESTIMATED_COST = REGISTRY.histogram(
    "cqtrees_plan_estimated_cost",
    "Estimated cost (cost-model work units) of the chosen SQL plan, by engine.",
    ("engine",),
    buckets=tuple(10.0**exponent for exponent in range(13)),
)

#: Exceptions that are the client's fault; reported verbatim per request.
REQUEST_ERRORS = (
    DocumentNotFound,
    QueryParseError,
    XPathTranslationError,
    XMLParseError,
    ValueError,
)


def validate_limit(limit: object) -> Optional[int]:
    """Check a wire-format ``limit``: a non-negative integer or ``None``.

    ``bool`` is rejected explicitly -- ``True`` passes ``isinstance(x, int)``,
    so without the check ``{"limit": true}`` would silently mean ``limit=1``.
    """
    if limit is not None and (
        isinstance(limit, bool) or not isinstance(limit, int) or limit < 0
    ):
        raise ValueError("'limit' must be a non-negative integer")
    return limit


def validate_engine(engine: object) -> Optional[Engine]:
    """Check a wire-format ``engine``; ``None``/``"auto"`` mean no override.

    Returns the explicit :class:`Engine` override or ``None`` when the
    planner (query shape + document residency) should choose.
    """
    if engine is None:
        return None
    if isinstance(engine, Engine):
        member = engine
    elif isinstance(engine, str):
        try:
            member = Engine(engine)
        except ValueError:
            allowed = ", ".join(e.value for e in Engine)
            raise ValueError(f"unknown engine {engine!r}; expected one of: {allowed}") from None
    else:
        raise ValueError("'engine' must be a string")
    return None if member is Engine.AUTO else member


@dataclass(frozen=True)
class Request:
    """One evaluation request.

    Exactly one of ``query`` (datalog text or a
    :class:`~repro.queries.query.ConjunctiveQuery`) and ``xpath`` must be
    given.  ``limit`` truncates the *sorted* answer list; the total count is
    reported either way.  ``engine`` forces one of the evaluation engines
    (``"fixpoint"``, ``"decomposition"``, ``"sql"``); by default
    :func:`~repro.planning.plan_query` chooses from the query shape, the
    document's statistics and its residency (accel-only documents route to
    SQL automatically).  What prunes the candidates is no field: the query
    fixes it, and the result's ``propagator`` reports what ran.
    """

    doc: str
    query: Union[str, ConjunctiveQuery, None] = None
    xpath: Optional[str] = None
    limit: Optional[int] = None
    engine: Optional[str] = None
    #: Record a tracing span tree for this request (attached as ``trace``).
    debug: bool = False
    #: Explain the plan -- engine, width, bags, SQL -- without executing.
    explain: bool = False

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Request":
        """Build a request from a JSON object (HTTP body / JSONL line)."""
        if not isinstance(payload, dict):
            raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - _WIRE_FIELDS
        if unknown:
            raise ValueError(f"unknown request field(s): {', '.join(sorted(unknown))}")
        doc = payload.get("doc")
        if not isinstance(doc, str) or not doc:
            raise ValueError("request needs a non-empty 'doc' document id")
        limit = validate_limit(payload.get("limit"))
        validate_engine(payload.get("engine"))  # fail fast on unknown engines
        for key in ("query", "xpath"):
            if payload.get(key) is not None and not isinstance(payload[key], str):
                raise ValueError(f"'{key}' must be a string")
        for key in ("debug", "explain"):
            if not isinstance(payload.get(key, False), bool):
                raise ValueError(f"'{key}' must be a boolean")
        return cls(
            doc=doc,
            query=payload.get("query"),
            xpath=payload.get("xpath"),
            limit=limit,
            engine=payload.get("engine"),
            debug=bool(payload.get("debug", False)),
            explain=bool(payload.get("explain", False)),
        )


#: A request's wire fields are its dataclass fields, by the same names.
_WIRE_FIELDS = frozenset(field.name for field in fields(Request))


@dataclass
class RequestResult:
    """The outcome of one request: answers or an error, plus timings."""

    doc: str
    query_key: Optional[str] = None
    #: The page of answers: an :class:`~repro.trees.columnar.AnswerPage` (any
    #: sequence of row tuples will do), ``None`` on an error or an explain.
    answers: Optional[Sequence[tuple[int, ...]]] = None
    count: int = 0
    truncated: bool = False
    satisfied: Optional[bool] = None
    elapsed_ms: float = 0.0
    #: The propagator that ran (the plan's record); ``"auto"`` before a plan.
    propagator: str = "auto"
    engine: Optional[str] = None
    cache_hit: bool = False
    error: Optional[str] = None
    #: The span tree recorded for a ``debug: true`` request (JSON dict).
    trace: Optional[dict] = None
    #: The plan description of an ``explain: true`` request (JSON dict).
    explain: Optional[dict] = None
    #: Plan attribution for the slow log: the lowering, and for a SQL plan
    #: its estimated cost and drift.
    #: Deliberately NOT serialized: wire bodies must stay byte-identical
    #: whether or not the accounting layer recorded anything.
    plan_attribution: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json_dict(self) -> dict:
        """A stable JSON rendering (JSONL output); HTTP bodies are its bytes."""
        payload = self.wire_fields()
        if "answers" in payload:
            payload["answers"] = list(payload["answers"])
        return payload

    def wire_fields(self) -> dict:
        """:meth:`to_json_dict` with the page as it is under ``answers`` (empty: ``()``).

        The response encoder (:mod:`repro.service.routes`) writes every other
        field with ``json.dumps`` and joins the page's columns itself.
        """
        # Every shape carries the attribution fields, error results included:
        # latency accounting must be able to see what a failed request cost
        # and which engine/propagator pair it was (or would have been) routed to.
        attribution = {
            "elapsed_ms": round(self.elapsed_ms, 3),
            "propagator": self.propagator,
            "engine": self.engine,
        }
        if not self.ok:
            payload = {"doc": self.doc, "error": self.error, **attribution}
        elif self.explain is not None:
            # Explain results never executed: answers/count would be noise.
            return {
                "doc": self.doc,
                "query_key": self.query_key,
                "explain": self.explain,
                **attribution,
                "cache_hit": self.cache_hit,
            }
        else:
            payload = {
                "doc": self.doc,
                "query_key": self.query_key,
                "answers": self.answers or (),
                "count": self.count,
                "truncated": self.truncated,
                **attribution,
                "cache_hit": self.cache_hit,
            }
            if self.satisfied is not None:
                payload["satisfied"] = self.satisfied
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


def resolve_entry(cache: QueryCache, request: Request) -> tuple[CachedQuery, bool]:
    """The cache entry for the request's query, plus whether it was warm."""
    if (request.query is None) == (request.xpath is None):
        raise ValueError("exactly one of 'query' and 'xpath' must be given")
    if request.xpath is not None:
        if not isinstance(request.xpath, str):
            raise ValueError(f"'xpath' must be a string, got {type(request.xpath).__name__}")
        return cache.resolve_text(request.xpath, kind="xpath")
    if isinstance(request.query, ConjunctiveQuery):
        return cache.resolve_query(request.query)
    if isinstance(request.query, str):
        return cache.resolve_text(request.query, kind="datalog")
    raise ValueError(
        f"'query' must be a string or ConjunctiveQuery, got {type(request.query).__name__}"
    )


def _stream_sql_answers(
    backend, request: Request, query: ConjunctiveQuery, plan: QueryPlan
) -> tuple[AnswerPage, int, bool]:
    """Streamed ``(answers, count, truncated)`` for an accel-only document.

    The answers arrive already sorted (the SQL carries a deterministic
    ``ORDER BY``) and the ``limit`` is pushed into the statement, so a
    truncated request never materializes the full answer set in Python; the
    exact total rides on the same statement as a window count.  The plan's
    lowering shape applies throughout.  The cursor's rows are transposed
    into the page's columns once.
    """
    if request.limit is None:
        rows = list(backend.stream_answers(request.doc, query, lowering=plan.lowering))
        count = len(rows)
    else:
        rows, count = backend.page_answers(
            request.doc, query, limit=request.limit, lowering=plan.lowering
        )
    return AnswerPage.from_rows(rows, query.arity), count, count > len(rows)


def _resolve_plan(
    store: DocumentStore,
    cache: QueryCache,
    request: Request,
    attribution: Optional[dict] = None,
) -> tuple[QueryPlan, CachedQuery, bool, str]:
    """Shared routing front half: ``(plan, entry, cache_hit, residency)``.

    Produces the single :class:`~repro.planning.plan.QueryPlan` every entry
    point runs from, memoized per (canonical query, engine override,
    residency) in the query cache -- and per stats bucket where SQL can run,
    the only plans that read the document's stats.  An explicit ``request.engine``
    override always wins; documents resident only in the accel store plan
    with ``accel_only=True`` and so pin :attr:`Engine.SQL` (the sole engine
    that can see them).  Raises :data:`REQUEST_ERRORS` members on routing
    mistakes; ``attribution`` (when given) is filled as facts are
    established, so even a routing failure is attributed to the engine it
    was routed to.
    """
    override = validate_engine(request.engine)
    if override is not None and attribution is not None:
        attribution["engine"] = override.value
    entry, cache_hit = resolve_entry(cache, request)
    residency = store.residency(request.doc)
    if residency is None:
        raise DocumentNotFound(request.doc)
    accel_only = residency == "accel"
    stats = store.stats_for(request.doc) if sql_can_run(override, accel_only) else None
    try:
        plan = cache.plan_for(entry, stats, engine=override, accel_only=accel_only)
    except ValueError:
        # A forced engine the query refuses: attributed to what it would run.
        if attribution is not None:
            attribution["propagator"] = choose_propagator(entry.compiled).value
            attribution["query_key"] = entry.key
        raise
    if attribution is not None:
        attribution["engine"] = plan.engine.value
        attribution["propagator"] = plan.propagator.value
        attribution["query_key"] = entry.key
    if accel_only and plan.engine is not Engine.SQL:
        raise ValueError(
            f"document {request.doc!r} is accel-only; "
            f"engine {plan.engine.value!r} needs a resident document"
        )
    PLAN_CHOICES.inc(engine=plan.engine.value, lowering=plan.lowering)
    if plan.engine is Engine.SQL:
        PLAN_ESTIMATED_COST.observe(plan.estimated_cost, engine=plan.engine.value)
    return plan, entry, cache_hit, residency


def _execute_request(
    store: DocumentStore, cache: QueryCache, request: Request, attribution: dict, started: float
) -> RequestResult:
    """The happy path of :func:`run_request`; exceptions bubble to the caller.

    ``attribution`` collects routing facts as they are established, so the
    caller's error handler can attribute failures to the engine/propagator
    they were (or would have been) routed to.
    """
    plan, entry, cache_hit, residency = _resolve_plan(store, cache, request, attribution)
    plan_ready = time.perf_counter()
    if residency == "accel":
        with tracing.span("sql_execute", doc=request.doc, engine=plan.engine.value):
            answers, count, truncated = _stream_sql_answers(
                store.accel_backend, request, entry.query, plan
            )
    else:
        document = store.get(request.doc)
        with tracing.span(
            "evaluate", engine=plan.engine.value, propagator=plan.propagator.value
        ):
            answers, count = answer_page(
                entry.query,
                document.structure,
                engine=plan.engine,
                compiled=entry.compiled,
                limit=request.limit,
                lowering=plan.lowering,
            )
        truncated = count > len(answers)
    finished = time.perf_counter()
    elapsed_ms = (finished - started) * 1000.0
    plan_attribution = {"lowering": plan.lowering}
    if plan.engine is Engine.SQL:
        # Close the planning loop where estimates decided something: ledger
        # the actuals (elapsed, rows enumerated, stage split) against the
        # plan's estimates.  The drift ratio feeds the /metrics histogram,
        # the /stats top-drift table and the slow log.
        drift = ACCOUNTING.record(
            query_key=entry.key,
            query_text=entry.query,
            doc=request.doc,
            rows=count,
            elapsed_ms=elapsed_ms,
            stage_ms={
                "plan": (plan_ready - started) * 1000.0,
                "execute": (finished - plan_ready) * 1000.0,
            },
            **plan.accounting_fields(),
        )
        plan_attribution["estimated_cost"] = round(plan.estimated_cost, 1)
        plan_attribution["drift"] = drift if drift is None else round(drift, 4)
    return RequestResult(
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
        plan_attribution=plan_attribution,
    )


def _error_result(request: Request, attribution: dict, started: float, error: str) -> RequestResult:
    return RequestResult(
        doc=request.doc,
        query_key=attribution.get("query_key"),
        propagator=attribution.get("propagator", "auto"),
        engine=attribution.get("engine"),
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        error=error,
    )


def _observe_result(result: RequestResult) -> RequestResult:
    """Record a finished request in the metrics registry and the slow log."""
    if result.ok:
        status = "ok"
    elif result.error is not None and result.error.startswith("internal:"):
        status = "internal"
    else:
        status = "error"
    REQUESTS_TOTAL.inc(status=status)
    REQUEST_SECONDS.observe(result.elapsed_ms / 1000.0, engine=result.engine or "none")
    # Plan attribution (when execution got far enough to have a plan) lets
    # the slow log answer "was this slow because the estimate was wrong?".
    SLOW_LOG.maybe_record(
        result.elapsed_ms,
        doc=result.doc,
        query_key=result.query_key,
        engine=result.engine,
        propagator=result.propagator,
        ok=result.ok,
        **(result.plan_attribution or {}),
    )
    return result


def run_request(store: DocumentStore, cache: QueryCache, request: Request) -> RequestResult:
    """Evaluate one request against resident artifacts; never raises.

    Client errors (:data:`REQUEST_ERRORS`) are reported verbatim in
    ``result.error``; unexpected exceptions -- evaluation-stack bugs -- are
    reported with an ``internal:`` prefix so they are distinguishable, but
    they still come back as a *value*: a crash in one request must not abort
    its batch, kill its worker thread, or poison its shard process.

    Engine routing: an explicit ``request.engine`` always wins; otherwise the
    planner's per-query choice applies (``result.engine``, the plan counters
    and the slow log all name the engine that ran: k-ary heads enumerate on
    ``decomposition``; the drift ledger holds SQL requests only), except that
    documents resident only in the accel store auto-route to
    :attr:`Engine.SQL` (the sole engine that can see them) with answers
    streamed out of SQLite in sorted order -- byte-identical to what the
    in-memory engines would produce.

    Observability: every executed request lands in the metrics registry
    (:data:`REQUESTS_TOTAL`, :data:`REQUEST_SECONDS`) and, past the latency
    threshold, the slow-query log.  ``request.explain`` short-circuits to
    :func:`explain_request` (plan only, never executed, not metered);
    ``request.debug`` additionally records a span tree and attaches it as
    ``result.trace``.
    """
    if request.explain:
        return explain_request(store, cache, request)
    if not request.debug:
        return _run_request(store, cache, request)
    with tracing.trace("request", doc=request.doc) as root:
        result = _run_request(store, cache, request)
    result.trace = root.to_json_dict()
    return result


def _run_request(store: DocumentStore, cache: QueryCache, request: Request) -> RequestResult:
    started = time.perf_counter()
    attribution: dict = {}
    try:
        result = _execute_request(store, cache, request, attribution, started)
    except REQUEST_ERRORS as error:
        result = _error_result(request, attribution, started, str(error))
    except Exception as error:  # noqa: BLE001 - the per-request error contract
        result = _error_result(
            request, attribution, started, f"internal: {type(error).__name__}: {error}"
        )
    return _observe_result(result)


def explain_request(store: DocumentStore, cache: QueryCache, request: Request) -> RequestResult:
    """Describe the plan a request would run -- without executing it.

    The ``explain`` payload reports the full :class:`QueryPlan`: the chosen
    engine and propagator, the SQL lowering that *would actually run*, the
    document's residency, for SQL plans the stats bucket and the cost-model
    estimates that chose the lowering (``null`` for every other plan), cache
    state, the compiled decomposition (achieved
    width, exactness, method, bag structure as sorted variable lists plus the
    parent vector of the head-rooted join tree both engines run, the static
    per-bag cost the width tie-break uses) and -- for
    :attr:`Engine.SQL` -- the generated SQL text for the *chosen* lowering
    (lowered with an empty extra-unary environment: the statement a plain
    evaluation of the canonical query would execute).  Errors follow the
    same per-request value contract as :func:`run_request`.
    """
    started = time.perf_counter()
    attribution: dict = {}
    try:
        plan, entry, cache_hit, residency = _resolve_plan(store, cache, request, attribution)
        from ..decomposition.decompose import atom_pair_costs, decomposition_cost

        decomposition = entry.compiled.decomposition
        static_cost = decomposition_cost(decomposition, atom_pair_costs(entry.compiled))
        payload = {
            "doc": request.doc,
            "residency": residency,
            "engine": plan.engine.value,
            "propagator": plan.propagator.value,
            "lowering": plan.lowering,
            "stats_bucket": plan.stats_bucket,
            "cache_hit": cache_hit,
            "cache_hits": entry.hits,
            "arity": entry.query.arity,
            "atoms": len(entry.query.body),
            "width": decomposition.width,
            "width_exact": decomposition.exact,
            "decomposition_method": decomposition.method,
            "decomposition_static_cost": static_cost,
            "bags": [sorted(bag) for bag in decomposition.bags],
            "bag_parents": list(decomposition.parent),
            "estimates": plan.describe()["estimates"],
        }
        if plan.engine is Engine.SQL:
            from ..backends.sqlite import explain_sql

            backend = store.accel_backend if residency == "accel" else None
            payload["sql"] = explain_sql(
                entry.query, doc_id=request.doc, backend=backend, lowering=plan.lowering
            )
    except REQUEST_ERRORS as error:
        return _error_result(request, attribution, started, str(error))
    except Exception as error:  # noqa: BLE001 - the per-request error contract
        return _error_result(
            request, attribution, started, f"internal: {type(error).__name__}: {error}"
        )
    return RequestResult(
        doc=request.doc,
        query_key=entry.key,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
        propagator=plan.propagator.value,
        engine=plan.engine.value,
        cache_hit=cache_hit,
        explain=payload,
    )

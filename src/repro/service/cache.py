"""The query cache: parse -> canonicalize -> compile -> plan, memoized.

Serving traffic resubmits the same queries over and over, frequently with
cosmetic differences: another variable naming, another atom order, another
rule name.  :class:`QueryCache` memoizes the whole front half of the pipeline
behind a renaming-invariant key (:func:`repro.queries.canonical.canonical_key`):

* **parse cache** -- raw request text (datalog or XPath) to its cache entry,
  so byte-identical resubmissions skip even the parser;
* **entry cache** -- canonical key to :class:`CachedQuery`: the canonical
  representative query, its :class:`~repro.evaluation.compile.CompiledQuery`
  and its plans per stats bucket and overrides (:meth:`QueryCache.plan_for`;
  a :class:`~repro.planning.plan.QueryPlan` is what names an engine).
  Alpha-equivalent submissions -- textually different, even mixed
  datalog/XPath -- share one entry, and because the entry holds the
  *canonical* query value, ``compile_query``'s per-value ``lru_cache`` is hit
  across cache instances as well.

Both maps are LRU-bounded by ``capacity`` and thread-safe; statistics
(:meth:`stats`) expose hit rates so an operator can see the amortization
working.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from ..evaluation.compile import CompiledQuery, compile_query
from ..evaluation.planner import Engine
from ..evaluation.propagation import Propagator
from ..observability import tracing
from ..observability.metrics import REGISTRY
from ..planning import DocumentStats, QueryPlan, plan_query
from ..queries.canonical import canonical_key, canonicalize
from ..queries.simplify import simplify_query
from ..queries.parser import parse_query
from ..queries.query import ConjunctiveQuery
from ..queries.xpath import xpath_to_cq

#: Recognised query syntaxes for textual submissions.
KINDS = ("datalog", "xpath")

#: Query-cache lookups by result: ``parse_hit`` (byte-identical text, parser
#: skipped), ``hit`` (alpha-equivalent entry), ``miss`` (full compile).
CACHE_LOOKUPS = REGISTRY.counter(
    "cqtrees_query_cache_lookups_total",
    "Query-cache lookups by result (parse_hit / hit / miss).",
    ("result",),
)


@dataclass
class CachedQuery:
    """One resident query: canonical query, compiled form, plans."""

    key: str
    query: ConjunctiveQuery
    compiled: CompiledQuery
    hits: int = field(default=0)
    #: Memoized :class:`~repro.planning.plan.QueryPlan` values, keyed by
    #: (stats bucket, engine override, propagator override, accel_only).
    #: Bucket-keying is the invalidation story: re-registering a document with
    #: different contents moves it to another stats bucket, so stale plans are
    #: never served (they only age out of the bounded map).
    plans: dict = field(default_factory=dict)

    def describe(self) -> dict:
        # Report the decomposition width only when the lazy cached property
        # was already materialized (planning forces it).  Forcing it here
        # would run the exact treewidth search for entries never planned --
        # tens of milliseconds per 12-variable entry, under the cache lock --
        # just to describe them.
        decomposition = self.compiled.__dict__.get("decomposition")
        return {
            "key": self.key,
            "arity": self.query.arity,
            "atoms": len(self.query.body),
            "width": decomposition.width if decomposition is not None else None,
            "hits": self.hits,
            "plans": len(self.plans),
        }


class QueryCache:
    """Renaming-invariant memoization of the query-side pipeline."""

    def __init__(self, capacity: Optional[int] = 1024):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedQuery]" = OrderedDict()
        self._parse_cache: "OrderedDict[tuple[str, str], CachedQuery]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._parse_hits = 0

    # -- lookup / population ---------------------------------------------------

    def resolve_text(self, text: str, kind: str = "datalog") -> tuple[CachedQuery, bool]:
        """The cache entry for a textual query, plus whether it was warm.

        ``kind`` selects the syntax: ``"datalog"`` rule notation or
        ``"xpath"`` navigational expressions.  Parsing happens at most once
        per distinct text; parse errors propagate
        (:class:`~repro.queries.parser.QueryParseError`,
        :class:`~repro.queries.xpath.XPathTranslationError`) and failed
        parses are not cached.
        """
        if kind not in KINDS:
            raise ValueError(f"unknown query kind {kind!r}; expected one of {KINDS}")
        parse_key = (kind, text)
        with self._lock:
            cached = self._parse_cache.get(parse_key)
            if cached is not None:
                self._parse_cache.move_to_end(parse_key)
                if cached.key in self._entries:
                    # A textual hit is a use of the entry too; without this
                    # touch the hottest (textually stable) queries would be
                    # the first evicted from the entry LRU.
                    self._entries.move_to_end(cached.key)
                else:
                    # The entry was LRU-evicted while its parse-cache pointer
                    # survived (e.g. object-form resolves pushed it out).
                    # Serving the dead entry without re-admitting it would
                    # silently violate the capacity bound: ``describe()`` and
                    # ``stats()`` would disagree with what is actually being
                    # served.  Re-admit it as the most recent entry and
                    # re-enforce the bound.
                    self._entries[cached.key] = cached
                    if self.capacity is not None:
                        while len(self._entries) > self.capacity:
                            self._entries.popitem(last=False)
                self._parse_hits += 1
                self._hits += 1
                cached.hits += 1
                CACHE_LOOKUPS.inc(result="parse_hit")
                return cached, True
        with tracing.span("parse", kind=kind):
            query = xpath_to_cq(text) if kind == "xpath" else parse_query(text)
        entry, hit = self.resolve_query(query)
        with self._lock:
            self._parse_cache[parse_key] = entry
            if self.capacity is not None:
                while len(self._parse_cache) > self.capacity:
                    self._parse_cache.popitem(last=False)
        return entry, hit

    def resolve_query(self, query: ConjunctiveQuery) -> tuple[CachedQuery, bool]:
        """The cache entry for a query object, plus whether it was warm.

        Alpha-equivalent queries share one entry (and one compiled artifact);
        the answer-preserving simplification runs first, so queries that only
        differ in vacuous existential structure (``//``-step roots, collapsible
        ``Child*``/``Child`` chains) share one too -- and the compiled plan
        never carries the full-domain variables the rewrite removes.
        """
        query = simplify_query(query)
        key = canonical_key(query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                entry.hits += 1
                CACHE_LOOKUPS.inc(result="hit")
                return entry, True
        # Compile outside the lock: canonicalize/compile_query are themselves
        # memoized and thread-safe, so a rare duplicate compile race is cheap.
        with tracing.span("canonicalize"):
            canonical = canonicalize(query)
        with tracing.span("compile"):
            entry = CachedQuery(key=key, query=canonical, compiled=compile_query(canonical))
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._hits += 1
                existing.hits += 1
                CACHE_LOOKUPS.inc(result="hit")
                return existing, True
            self._entries[key] = entry
            self._misses += 1
            CACHE_LOOKUPS.inc(result="miss")
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
        return entry, False

    #: Distinct plans kept per cache entry.  Plans are small (a dataclass of
    #: floats over the already-resident decomposition), so the bound only
    #: guards against a pathological stream of distinct stats buckets.
    PLANS_PER_ENTRY = 32

    def plan_for(
        self,
        entry: CachedQuery,
        stats: DocumentStats,
        *,
        engine: Optional[Engine] = None,
        propagator: Optional[Propagator] = None,
        accel_only: bool = False,
    ) -> QueryPlan:
        """The :class:`QueryPlan` for ``entry`` on a document in ``stats``'s bucket.

        Plans are pure functions of (canonical query, stats bucket, overrides)
        -- ``entry`` holds the canonical query, so alpha-equivalent
        submissions share plans exactly as they share compiled artifacts.
        """
        plan_key = (
            stats.bucket(),
            engine.value if engine is not None else None,
            propagator.value if propagator is not None else None,
            accel_only,
        )
        with self._lock:
            plan = entry.plans.get(plan_key)
            if plan is not None:
                return plan
        plan = plan_query(
            entry.query,
            stats,
            compiled=entry.compiled,
            engine=engine,
            propagator=propagator,
            accel_only=accel_only,
        )
        with self._lock:
            existing = entry.plans.setdefault(plan_key, plan)
            while len(entry.plans) > self.PLANS_PER_ENTRY:
                entry.plans.pop(next(iter(entry.plans)))
        return existing

    def entry_for_text(self, text: str, kind: str = "datalog") -> CachedQuery:
        """Convenience wrapper around :meth:`resolve_text`."""
        return self.resolve_text(text, kind)[0]

    def entry_for_query(self, query: ConjunctiveQuery) -> CachedQuery:
        """Convenience wrapper around :meth:`resolve_query`."""
        return self.resolve_query(query)[0]

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._parse_cache.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "parse_entries": len(self._parse_cache),
                "plan_entries": sum(len(e.plans) for e in self._entries.values()),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "parse_hits": self._parse_hits,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
            }

    def describe(self) -> list[dict]:
        with self._lock:
            return [entry.describe() for entry in self._entries.values()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryCache(entries={len(self)}, stats={self.stats()})"

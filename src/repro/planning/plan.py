"""The :class:`QueryPlan` value and the one routing rule that produces it.

``plan_query`` is the single choke point every consumer (serving layer, CLI,
EXPLAIN, benchmarks, library ``evaluate(engine=AUTO)``) goes through, and the
only place an engine is chosen.  The *complexity* tier comes first -- the
paper's dichotomy as a table:

* accel residency: SQL, the only engine that can see the document;
* a Boolean head, or a monadic head over a forest-shaped body: one fixpoint
  decides or *is* the answer -- X-property evaluation on a tractable
  signature (Theorem 3.5), acyclic evaluation on an acyclic query graph;
* any other head over a forest-shaped body: the decomposition engine over the
  width-1 join tree.

Everything else is the **cyclic residue** (NP-hard cyclic bodies, and
non-projection heads over cyclic bodies on any signature), settled on *this*
document by comparing the estimated decomposition cost (sum of per-bag row
estimates) against the estimated backtracking cost -- for a non-Boolean head,
the per-candidate-tuple reduction -- unless the caller forces the semijoin
sweeps, which only the decomposition engine accepts on a cyclic body.  The
estimates also pick:

* the propagator: the semijoin sweeps on every forest-shaped body (the exact
  full reducer there) and in front of the decomposition engine on any body
  (supersets suffice); a cyclic body routed to backtracking keeps arc
  consistency: hybrid where the AC-4 ablations show it winning, else AC-4;
* the SQL lowering, only where SQL can run (accel residency or an explicit
  ``engine=sql``): ``"flat"`` when the single-block join is estimated cheaper
  than the join-tree CTE cascade.  Elsewhere the flat join is never priced
  (its estimator is quartic in the variable count) and the plan reads
  ``lowering="tree"``.

Plans are pure functions of (canonical query, stats bucket, overrides), which
is what makes them cacheable in :class:`~repro.service.cache.QueryCache` and
alpha-renaming invariant (planning happens after canonicalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..evaluation.compile import CompiledQuery, compile_query
from ..evaluation.planner import Engine
from ..evaluation.propagation import Propagator
from ..queries.graph import QueryGraph
from ..queries.query import ConjunctiveQuery
from ..xproperty.dichotomy import is_tractable
from .cost import (
    backtracking_cost_estimate,
    choose_propagator,
    decomposition_cost_estimate,
    fixpoint_cost_estimate,
    flat_cost_estimate,
)
from .stats import DocumentStats

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..decomposition.decompose import TreeDecomposition


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """Everything downstream needs to run (and explain) one query on one document."""

    engine: Engine
    propagator: Propagator
    #: SQL lowering shape: chosen by cost where SQL can run, ``"tree"`` elsewhere.
    lowering: str
    decomposition: "TreeDecomposition"
    stats_bucket: str
    #: Estimated rows per decomposition bag, in ``decomposition.bags`` order.
    bag_rows: tuple[float, ...]
    #: Also the join-tree SQL lowering's estimate (one CTE per bag).
    decomposition_cost: float
    backtracking_cost: float
    #: The single-block SQL join; ``None`` where SQL cannot run.
    flat_cost: Optional[float]
    #: The estimate for the engine/lowering actually chosen.
    estimated_cost: float
    # Not a field: benchmarks/e2e/layers.py still reads it as a SQL knob.
    materialize = False

    def accounting_fields(self) -> dict:
        """The plan attribution the plan-vs-actual ledger records per request.

        ``estimated_rows`` is the widest bag: the cost model's proxy for the
        largest intermediate this plan expects to materialize (the quantity
        the Gottlob-Leone-Scarcello width bound actually controls), which is
        the number worth comparing against the rows the request enumerated.
        """
        return {
            "engine": self.engine.value,
            "propagator": self.propagator.value,
            "lowering": self.lowering,
            "stats_bucket": self.stats_bucket,
            "estimated_cost": self.estimated_cost,
            "estimated_rows": max(self.bag_rows) if self.bag_rows else 0.0,
        }

    def describe(self) -> dict:
        """JSON-friendly rendering for EXPLAIN surfaces."""
        return {
            "engine": self.engine.value,
            "propagator": self.propagator.value,
            "lowering": self.lowering,
            "stats_bucket": self.stats_bucket,
            "estimates": {
                "bag_rows": [round(rows, 1) for rows in self.bag_rows],
                "decomposition_cost": round(self.decomposition_cost, 1),
                "backtracking_cost": round(self.backtracking_cost, 1),
                "flat_cost": None if self.flat_cost is None else round(self.flat_cost, 1),
                "estimated_cost": round(self.estimated_cost, 1),
            },
        }


def _tier(query: ConjunctiveQuery, compiled: CompiledQuery, accel_only: bool) -> Optional[Engine]:
    """The engine the dichotomy fixes, or ``None`` for the cyclic residue."""
    if accel_only:
        return Engine.SQL
    if query.is_boolean or (query.is_monadic and compiled.shadow_is_forest):
        # One fixpoint decides (Boolean) or *is* (monadic projection) the
        # answer: dispatch on the body's complexity class.
        if is_tractable(query.signature()):
            return Engine.XPROPERTY
        if QueryGraph(query).is_acyclic():
            return Engine.ACYCLIC
    if not query.is_boolean and compiled.shadow_is_forest:
        # Every other head is enumerated over the join tree; a forest-shaped
        # body has width 1, which is the right complexity class, not a guess.
        return Engine.DECOMPOSITION
    return None


def plan_query(
    query: ConjunctiveQuery,
    stats: DocumentStats,
    *,
    compiled: Optional[CompiledQuery] = None,
    engine: Optional[Engine] = None,
    propagator: Optional[Propagator] = None,
    accel_only: bool = False,
) -> QueryPlan:
    """Produce the :class:`QueryPlan` for ``query`` over a document with ``stats``.

    ``engine`` / ``propagator`` are explicit user overrides and always win.
    ``accel_only`` is the residency signal: such documents can only run on
    the SQL backend, so the engine tier is pinned there.
    """
    if compiled is None:
        compiled = compile_query(query)
    chosen_propagator = propagator if propagator is not None else choose_propagator(compiled)

    decomposition = compiled.decomposition
    bag_rows, decomposition_total = decomposition_cost_estimate(decomposition, compiled, stats)
    backtracking_total = backtracking_cost_estimate(compiled, stats, chosen_propagator)

    if engine is not None and engine is not Engine.AUTO:
        chosen_engine = engine
    else:
        chosen_engine = _tier(query, compiled, accel_only)
    if chosen_engine is None:
        if propagator is Propagator.SEMIJOIN and not compiled.shadow_is_forest:
            # The sweeps are exact on forests only: on a cyclic body the
            # decomposition engine is the one that accepts them (as supersets).
            chosen_engine = Engine.DECOMPOSITION
        elif decomposition_total <= backtracking_total:
            chosen_engine = Engine.DECOMPOSITION
        else:
            chosen_engine = Engine.BACKTRACKING

    if propagator is None and chosen_engine is Engine.DECOMPOSITION:
        # The bags enforce every atom and their semijoin passes supply global
        # consistency: sound candidate supersets are enough in front of them
        # (the pick above still priced what backtracking would have run).
        chosen_propagator = Propagator.SEMIJOIN

    flat_cost: Optional[float] = None
    lowering = "tree"
    if accel_only or engine is Engine.SQL:
        flat_cost = flat_cost_estimate(compiled, stats)
        if flat_cost < decomposition_total:
            lowering = "flat"

    if chosen_engine is Engine.SQL:
        estimated = flat_cost if lowering == "flat" else decomposition_total
    elif chosen_engine is Engine.DECOMPOSITION:
        estimated = decomposition_total
    elif chosen_engine is Engine.BACKTRACKING:
        estimated = backtracking_total
    elif query.is_boolean:
        # XPROPERTY / ACYCLIC: one fixpoint.
        estimated = fixpoint_cost_estimate(compiled, stats, chosen_propagator)
    else:
        # Forced onto a head that needs enumeration, they run the per-tuple
        # reduction.  The backtracking estimate prices exactly that (and a
        # monadic forest projection at one fixpoint).
        estimated = backtracking_total

    return QueryPlan(
        engine=chosen_engine,
        propagator=chosen_propagator,
        lowering=lowering,
        decomposition=decomposition,
        stats_bucket=stats.bucket(),
        bag_rows=bag_rows,
        decomposition_cost=decomposition_total,
        backtracking_cost=backtracking_total,
        flat_cost=flat_cost,
        estimated_cost=estimated,
    )

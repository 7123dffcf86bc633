"""The :class:`QueryPlan` value and the one routing rule that produces it.

``plan_query`` is the single choke point every consumer (serving layer, CLI,
EXPLAIN, benchmarks) goes through, and the only place an engine is chosen.
The engine is the paper's dichotomy as a table,
:func:`repro.evaluation.planner.tier` (which library
``evaluate(engine=AUTO)`` reads directly), decided by the query and the
document's residency alone:

* accel residency: SQL, the only engine that can see the document;
* a Boolean head, or a monadic head over a forest-shaped body: one fixpoint
  decides or *is* the answer -- X-property evaluation on a tractable
  signature (Theorem 3.5), acyclic evaluation on an acyclic query graph;
* everything else, the **cyclic residue** included (NP-hard cyclic bodies,
  and non-projection heads over cyclic bodies on any signature): the
  decomposition engine, polynomial for bounded width -- what stays tractable
  outside the paper's axis sets (Section 5; Gottlob-Leone-Scarcello).

An explicit ``engine=`` always wins; ``backtracking`` is only ever that.  The
plan then fixes:

* the propagator: the semijoin sweeps on every forest-shaped body (the exact
  full reducer there) and in front of the decomposition engine on any body
  (supersets suffice); any other cyclic body over a tractable signature runs
  Theorem 3.5's pointer walk
  (:func:`~repro.evaluation.propagation.choose_propagator`);
* the SQL lowering, by cost, only where SQL can run (accel residency or an
  explicit ``engine=sql``): ``"flat"`` when the single-block join is estimated cheaper
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
from ..evaluation.planner import Engine, fixpoint_answers, tier
from ..evaluation.propagation import Propagator, choose_propagator
from ..queries.query import ConjunctiveQuery
from .cost import (
    decomposition_cost_estimate,
    fixpoint_cost_estimate,
    flat_cost_estimate,
    variable_domain_estimate,
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
                "flat_cost": None if self.flat_cost is None else round(self.flat_cost, 1),
                "estimated_cost": round(self.estimated_cost, 1),
            },
        }


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
    if engine is not None and engine is not Engine.AUTO:
        chosen_engine = engine
    else:
        chosen_engine = tier(query, compiled, accel_only)
    if propagator is not None:
        chosen_propagator = propagator
    else:
        chosen_propagator = choose_propagator(
            compiled, decomposition=chosen_engine is Engine.DECOMPOSITION
        )

    decomposition = compiled.decomposition
    bag_rows, decomposition_total = decomposition_cost_estimate(decomposition, compiled, stats)

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
    else:
        # One fixpoint decides a Boolean head and *is* a monadic forest
        # projection; forced onto any other head, a fixpoint engine (or
        # backtracking) runs the per-candidate-tuple reduction: one fixpoint
        # per tuple of the head's candidate product.
        estimated = fixpoint_cost_estimate(compiled, stats, chosen_propagator)
        if not fixpoint_answers(query, compiled):
            for variable in dict.fromkeys(query.head):
                estimated *= max(variable_domain_estimate(variable, compiled, stats), 1.0)

    return QueryPlan(
        engine=chosen_engine,
        propagator=chosen_propagator,
        lowering=lowering,
        decomposition=decomposition,
        stats_bucket=stats.bucket(),
        bag_rows=bag_rows,
        decomposition_cost=decomposition_total,
        flat_cost=flat_cost,
        estimated_cost=estimated,
    )

"""The :class:`QueryPlan` value and the routing decision that produces it.

``plan_query`` is the single choke point every consumer (serving layer, CLI,
EXPLAIN, benchmarks) goes through.  Two routings exist:

* ``routing="cost"`` (the default) keeps the *complexity* tiers exactly as the
  static rule (:func:`~repro.evaluation.planner.choose_engine`) picks them --
  Boolean and monadic-projection heads over X-property signatures and acyclic
  shadows, every other head over a forest-shaped body (the width-1 join
  tree), and accel-only SQL are already the right asymptotic class and stay
  static -- and spends the estimates where the static rule was guessing:

  - the cyclic residue (NP-hard cyclic bodies, and non-projection heads over
    cyclic bodies on any signature): ``MAX_AUTO_DECOMPOSITION_WIDTH`` is
    replaced by comparing the estimated decomposition cost (sum of per-bag
    row estimates) against the estimated backtracking cost -- for a
    non-Boolean head, the per-candidate-tuple reduction -- on *this* document;
  - the SQL lowering: ``"flat"`` when the single-block join is estimated
    cheaper than the join-tree CTE cascade, plus TEMP-table materialization
    of large bags;
  - the propagator: the semijoin sweeps on every forest-shaped body (the
    exact full reducer there) and in front of the decomposition engine on any
    body (supersets suffice); a cyclic body routed to backtracking keeps arc
    consistency: hybrid where the AC-4 ablations show it winning, else AC-4.

* ``routing="static"`` reproduces the pre-planner behaviour bit for bit
  (static engine rule, AC-4, tree lowering, no materialization) and is kept
  on every entry point as the ablation baseline.  Answers are byte-identical
  under both routings by construction: every engine and propagator computes
  the same answer set.

Plans are pure functions of (canonical query, stats bucket, overrides), which
is what makes them cacheable in :class:`~repro.service.cache.QueryCache` and
alpha-renaming invariant (planning happens after canonicalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..evaluation.compile import CompiledQuery, compile_query
from ..evaluation.planner import Engine, choose_engine
from ..evaluation.propagation import DEFAULT_PROPAGATOR, Propagator
from ..queries.query import ConjunctiveQuery
from .cost import (
    MATERIALIZE_ROWS_THRESHOLD,
    backtracking_cost_estimate,
    choose_propagator,
    decomposition_cost_estimate,
    fixpoint_cost_estimate,
    flat_cost_estimate,
)
from .stats import DocumentStats

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..decomposition.decompose import TreeDecomposition

#: Accepted values of the ``routing`` knob on every entry point.
ROUTINGS: tuple[str, ...] = ("cost", "static")

#: Engine tiers the cost router never second-guesses: they are the *complexity*
#: dispatch (tractable signature / acyclic shadow / residency), not a
#: performance guess.  So is the decomposition engine on a forest-shaped head
#: (width 1); only the cyclic residue (decomposition vs backtracking) is
#: arbitrated by estimates.
_STATIC_TIERS = frozenset({Engine.XPROPERTY, Engine.ACYCLIC, Engine.SQL})


def validate_routing(value: str) -> str:
    """Validate a wire/CLI ``routing`` value."""
    if value not in ROUTINGS:
        raise ValueError(f"unknown routing: {value!r} (expected one of {ROUTINGS})")
    return value


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """Everything downstream needs to run (and explain) one query on one document."""

    routing: str
    engine: Engine
    propagator: Propagator
    #: SQL lowering shape; meaningful only when ``engine`` is SQL but always
    #: reported so EXPLAIN shows the lowering that *would* run.
    lowering: str
    #: Materialize large bag CTEs as indexed TEMP tables (SQL tree lowering).
    materialize: bool
    decomposition: "TreeDecomposition"
    stats_bucket: str
    #: Estimated rows per decomposition bag, in ``decomposition.bags`` order.
    bag_rows: tuple[float, ...]
    decomposition_cost: float
    backtracking_cost: float
    tree_cost: float
    flat_cost: float
    #: The estimate for the engine/lowering actually chosen.
    estimated_cost: float

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
            "routing": self.routing,
            "stats_bucket": self.stats_bucket,
            "estimated_cost": self.estimated_cost,
            "estimated_rows": max(self.bag_rows) if self.bag_rows else 0.0,
        }

    def describe(self) -> dict:
        """JSON-friendly rendering for EXPLAIN surfaces."""
        return {
            "routing": self.routing,
            "engine": self.engine.value,
            "propagator": self.propagator.value,
            "lowering": self.lowering,
            "materialize": self.materialize,
            "stats_bucket": self.stats_bucket,
            "estimates": {
                "bag_rows": [round(rows, 1) for rows in self.bag_rows],
                "decomposition_cost": round(self.decomposition_cost, 1),
                "backtracking_cost": round(self.backtracking_cost, 1),
                "tree_cost": round(self.tree_cost, 1),
                "flat_cost": round(self.flat_cost, 1),
                "estimated_cost": round(self.estimated_cost, 1),
            },
        }


def plan_query(
    query: ConjunctiveQuery,
    stats: DocumentStats,
    *,
    compiled: Optional[CompiledQuery] = None,
    routing: str = "cost",
    engine: Optional[Engine] = None,
    propagator: Optional[Propagator] = None,
    accel_only: bool = False,
) -> QueryPlan:
    """Produce the :class:`QueryPlan` for ``query`` over a document with ``stats``.

    ``engine`` / ``propagator`` are explicit user overrides and always win
    over both routings.  ``accel_only`` is the residency signal: such
    documents can only run on the SQL backend, so the engine tier is pinned
    there regardless of routing.
    """
    validate_routing(routing)
    if compiled is None:
        compiled = compile_query(query)

    if propagator is not None:
        chosen_propagator = propagator
    elif routing == "cost":
        chosen_propagator = choose_propagator(compiled)
    else:
        chosen_propagator = DEFAULT_PROPAGATOR

    decomposition = compiled.decomposition
    bag_rows, decomposition_total = decomposition_cost_estimate(decomposition, compiled, stats)
    backtracking_total = backtracking_cost_estimate(compiled, stats, chosen_propagator)
    tree_cost = decomposition_total
    flat_cost = flat_cost_estimate(compiled, stats)
    fixpoint = fixpoint_cost_estimate(compiled, stats, chosen_propagator)

    static_engine = choose_engine(query, accel_only=accel_only)
    forest_head = compiled.shadow_is_forest and not query.is_boolean
    if engine is not None and engine is not Engine.AUTO:
        chosen_engine = engine
    elif routing == "static" or static_engine in _STATIC_TIERS or forest_head:
        chosen_engine = static_engine
    else:
        # The cyclic residue: per-instance decomposition-vs-backtracking
        # arbitration, replacing the static MAX_AUTO_DECOMPOSITION_WIDTH bound.
        chosen_engine = (
            Engine.DECOMPOSITION
            if decomposition_total <= backtracking_total
            else Engine.BACKTRACKING
        )

    if propagator is None and routing == "cost" and chosen_engine is Engine.DECOMPOSITION:
        # The bags enforce every atom and their semijoin passes supply global
        # consistency: sound candidate supersets are enough in front of them
        # (the pick above still priced what backtracking would have run).
        chosen_propagator = Propagator.SEMIJOIN

    if routing == "cost":
        lowering = "flat" if flat_cost < tree_cost else "tree"
        materialize = (
            chosen_engine is Engine.SQL
            and lowering == "tree"
            and bool(bag_rows)
            and max(bag_rows) > MATERIALIZE_ROWS_THRESHOLD
        )
    else:
        lowering = "tree"
        materialize = False

    if chosen_engine is Engine.SQL:
        estimated = flat_cost if lowering == "flat" else tree_cost
    elif chosen_engine is Engine.DECOMPOSITION:
        estimated = decomposition_total
    elif chosen_engine is Engine.BACKTRACKING:
        estimated = backtracking_total
    else:
        # XPROPERTY / ACYCLIC: one fixpoint -- unless forced onto a head that
        # needs enumeration, where they run the per-tuple reduction.  The
        # backtracking estimate prices exactly that (and a monadic forest
        # projection at one fixpoint).
        estimated = fixpoint if query.is_boolean else backtracking_total

    return QueryPlan(
        routing=routing,
        engine=chosen_engine,
        propagator=chosen_propagator,
        lowering=lowering,
        materialize=materialize,
        decomposition=decomposition,
        stats_bucket=stats.bucket(),
        bag_rows=bag_rows,
        decomposition_cost=decomposition_total,
        backtracking_cost=backtracking_total,
        tree_cost=tree_cost,
        flat_cost=flat_cost,
        estimated_cost=estimated,
    )

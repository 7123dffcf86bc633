"""The :class:`QueryPlan` value and the one routing rule that produces it.

``plan_query`` is the single choke point every consumer (serving layer, CLI,
EXPLAIN, benchmarks) goes through, and the only place an engine is chosen.
The engine is the paper's dichotomy as a table,
:func:`repro.evaluation.planner.tier` (which library
``evaluate(engine=AUTO)`` reads directly), decided by the query and the
document's residency alone:

* accel residency: **sql**, the only engine that can see the document;
* a head one arc-consistency fixpoint answers -- a Boolean head over a
  forest-shaped body (Prop. 3.1) or a tractable signature (Theorem 3.5), a
  monadic head over a forest-shaped body: **fixpoint**;
* everything else, the **cyclic residue** included (NP-hard cyclic bodies,
  and non-projection heads over cyclic bodies on any signature):
  **decomposition**, polynomial for bounded width -- what stays tractable
  outside the paper's axis sets (Section 5; Gottlob-Leone-Scarcello).

An explicit ``engine=`` always wins (a ``fixpoint`` forced onto a query one
fixpoint cannot answer fails when it runs).  The plan then records the
propagator that engine runs, which the query fixes
(:func:`~repro.evaluation.propagation.choose_propagator`, the rule every
engine calls itself): Theorem 3.5's pointer walk (``walk``) on a cyclic body
over a tractable signature in front of the fixpoint engine, the semijoin
sweeps (``semijoin``) everywhere else -- the exact full reducer on a
forest-shaped body, sound supersets in front of the decomposition engine.

Estimates decide one thing: the SQL lowering, and only where SQL can run
(accel residency or an explicit ``engine=sql``, :func:`sql_can_run`) --
``"flat"`` when the single-block join is estimated cheaper than the join-tree
CTE cascade.  Only those plans read the document's stats, force the query's
decomposition and carry estimates.  Every other plan records its engine and
propagator and nothing else: it is a pure function of (canonical query,
engine override, residency), a SQL plan of those and the stats bucket, which
is what makes plans cacheable in :class:`~repro.service.cache.QueryCache` and
alpha-renaming invariant (planning happens after canonicalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..evaluation.compile import CompiledQuery, compile_query
from ..evaluation.planner import Engine, tier
from ..evaluation.propagation import Propagator, choose_propagator
from ..queries.query import ConjunctiveQuery
from .cost import decomposition_cost_estimate, flat_cost_estimate
from .stats import DocumentStats


def sql_can_run(engine: Optional[Engine], accel_only: bool) -> bool:
    """Is a plan priced?  Only where SQL can run is there a lowering to choose."""
    return accel_only or engine is Engine.SQL


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """Everything downstream needs to run (and explain) one query on one document."""

    engine: Engine
    #: What the engine runs (:func:`choose_propagator`): a record, not a choice.
    propagator: Propagator
    #: SQL lowering shape: chosen by cost where SQL can run, ``"tree"`` elsewhere.
    lowering: str = "tree"
    # The estimates that chose the lowering; ``None`` / empty where SQL cannot run.
    stats_bucket: Optional[str] = None
    #: Estimated rows per bag of ``compiled.decomposition``, in bag order.
    bag_rows: tuple[float, ...] = ()
    #: The join-tree SQL lowering (one CTE per bag): the sum of ``bag_rows``.
    decomposition_cost: Optional[float] = None
    #: The single-block SQL join.
    flat_cost: Optional[float] = None
    # Not a field: benchmarks/e2e/layers.py still reads it as a SQL knob.
    materialize = False

    @property
    def estimated_cost(self) -> Optional[float]:
        """The estimate for the lowering chosen; ``None`` where SQL cannot run."""
        return self.flat_cost if self.lowering == "flat" else self.decomposition_cost

    def accounting_fields(self) -> dict:
        """The plan attribution the plan-vs-actual ledger records per SQL request.

        ``estimated_rows`` is the widest bag: the cost model's proxy for the
        largest intermediate this plan expects to materialize (the quantity
        the Gottlob-Leone-Scarcello width bound actually controls), which is
        the number worth comparing against the rows the request enumerated.
        """
        return {
            "engine": self.engine.value,
            "lowering": self.lowering,
            "stats_bucket": self.stats_bucket,
            "estimated_cost": self.estimated_cost,
            "estimated_rows": max(self.bag_rows, default=0.0),
        }

    def describe(self) -> dict:
        """JSON-friendly rendering for EXPLAIN surfaces (``estimates``: SQL plans only)."""
        estimates = None
        if self.stats_bucket is not None:
            estimates = {
                "bag_rows": [round(rows, 1) for rows in self.bag_rows],
                "decomposition_cost": round(self.decomposition_cost, 1),
                "flat_cost": round(self.flat_cost, 1),
                "estimated_cost": round(self.estimated_cost, 1),
            }
        return {
            "engine": self.engine.value,
            "propagator": self.propagator.value,
            "lowering": self.lowering,
            "stats_bucket": self.stats_bucket,
            "estimates": estimates,
        }


def plan_query(
    query: ConjunctiveQuery,
    stats: Optional[DocumentStats] = None,
    *,
    compiled: Optional[CompiledQuery] = None,
    engine: Optional[Engine] = None,
    accel_only: bool = False,
) -> QueryPlan:
    """Produce the :class:`QueryPlan` for ``query`` over a document with ``stats``.

    ``engine`` is an explicit user override and always wins.  ``accel_only``
    is the residency signal: such documents can only run on the SQL backend,
    so the engine tier is pinned there.  ``stats`` is read only where SQL can
    run (:func:`sql_can_run`), and must be given there.
    """
    if compiled is None:
        compiled = compile_query(query)
    if engine is not None and engine is not Engine.AUTO:
        chosen_engine = engine
    else:
        chosen_engine = tier(query, compiled, accel_only)
    propagator = choose_propagator(compiled, decomposition=chosen_engine is Engine.DECOMPOSITION)
    if not sql_can_run(engine, accel_only):
        return QueryPlan(chosen_engine, propagator)
    if stats is None:
        raise ValueError("a plan SQL can run is priced: it needs the document's stats")
    bag_rows, tree_cost = decomposition_cost_estimate(compiled.decomposition, compiled, stats)
    flat_cost = flat_cost_estimate(compiled, stats)
    return QueryPlan(
        engine=chosen_engine,
        propagator=propagator,
        lowering="flat" if flat_cost < tree_cost else "tree",
        stats_bucket=stats.bucket(),
        bag_rows=bag_rows,
        decomposition_cost=tree_cost,
        flat_cost=flat_cost,
    )

"""Cost-based query planning: one :class:`QueryPlan` across every consumer.

The dichotomy (acyclic / X-property / bounded width) says *which* algorithm is
polynomial and so which engine runs; this package prices that plan on this
document and makes the choices it leaves -- the propagator, and where SQL can
run the lowering, by cost.  It combines cheap per-document statistics
collected at registration (:class:`~repro.planning.stats.DocumentStats`) with
per-axis selectivity estimates derived from the pre/post rank
characterizations (:mod:`repro.planning.cost`) into a single
:class:`~repro.planning.plan.QueryPlan` value -- engine, propagator, SQL
lowering, decomposition, per-bag cardinality estimates and an estimated cost
-- consumed by the serving layer, the CLI, the EXPLAIN surface and the
library's ``evaluate(engine=AUTO)``.  :func:`~repro.planning.plan.plan_query`
is the only place an engine is chosen.
"""

from ..evaluation.propagation import choose_propagator
from .cost import (
    bag_rows_estimate,
    decomposition_cost_estimate,
    fixpoint_cost_estimate,
    flat_cost_estimate,
    variable_domain_estimate,
)
from .plan import QueryPlan, plan_query
from .stats import DocumentStats

__all__ = [
    "DocumentStats",
    "QueryPlan",
    "bag_rows_estimate",
    "choose_propagator",
    "decomposition_cost_estimate",
    "fixpoint_cost_estimate",
    "flat_cost_estimate",
    "plan_query",
    "variable_domain_estimate",
]

"""Cost-based query planning: one :class:`QueryPlan` across every consumer.

The dichotomy (acyclic / X-property / bounded width) says *which* algorithm is
polynomial and so which engine runs, and the query fixes the propagator that
engine runs; the one choice left is made by cost, and only where SQL can run:
the lowering.  There this package prices the plan on the document, combining
cheap per-document statistics collected at registration
(:class:`~repro.planning.stats.DocumentStats`) with per-axis selectivity
estimates derived from the pre/post rank characterizations
(:mod:`repro.planning.cost`).  The result is a single
:class:`~repro.planning.plan.QueryPlan` value -- engine, the propagator it
runs, SQL lowering and, for SQL plans, per-bag cardinality estimates and an
estimated cost -- consumed by the serving layer, the CLI, the EXPLAIN surface
and the library's ``evaluate(engine=AUTO)``.  :func:`~repro.planning.plan.plan_query`
is the only place an engine is chosen.
"""

from ..evaluation.propagation import choose_propagator
from .cost import (
    bag_rows_estimate,
    decomposition_cost_estimate,
    flat_cost_estimate,
    variable_domain_estimate,
)
from .plan import QueryPlan, plan_query, sql_can_run
from .stats import DocumentStats

__all__ = [
    "DocumentStats",
    "QueryPlan",
    "bag_rows_estimate",
    "choose_propagator",
    "decomposition_cost_estimate",
    "flat_cost_estimate",
    "plan_query",
    "sql_can_run",
    "variable_domain_estimate",
]

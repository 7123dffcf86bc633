"""Evaluation engines for conjunctive queries over trees."""

from . import acyclic
from .ac4 import (
    ac4_fixpoint,
    hybrid_fixpoint,
    maximal_arc_consistent_ac4,
    maximal_arc_consistent_hybrid,
)
from .arc_consistency import (
    is_arc_consistent,
    maximal_arc_consistent,
    maximal_arc_consistent_horn,
)
from .backtracking import SearchStatistics, count_solutions, find_solution, iter_solutions
from .compile import CompiledAtom, CompiledQuery, compile_query
from .domains import Domains, Valuation, domain_views, initial_domains, valuation_satisfies
from .planner import (
    Engine,
    answer_page,
    check_answer,
    evaluate,
    evaluate_on_tree,
    evaluate_union,
    is_satisfied,
    satisfying_assignment,
)
from .propagation import (
    DEFAULT_PROPAGATOR,
    PropagationResult,
    Propagator,
    propagate,
)
from .xprop_evaluator import (
    XPropertyEvaluationError,
    boolean_query_holds,
    choose_order,
    minimum_valuation,
    witness,
)

__all__ = [
    "CompiledAtom",
    "CompiledQuery",
    "DEFAULT_PROPAGATOR",
    "Domains",
    "Engine",
    "PropagationResult",
    "Propagator",
    "SearchStatistics",
    "Valuation",
    "XPropertyEvaluationError",
    "ac4_fixpoint",
    "acyclic",
    "answer_page",
    "boolean_query_holds",
    "check_answer",
    "choose_order",
    "compile_query",
    "count_solutions",
    "domain_views",
    "evaluate",
    "evaluate_on_tree",
    "evaluate_union",
    "find_solution",
    "hybrid_fixpoint",
    "initial_domains",
    "is_arc_consistent",
    "is_satisfied",
    "iter_solutions",
    "maximal_arc_consistent",
    "maximal_arc_consistent_ac4",
    "maximal_arc_consistent_horn",
    "maximal_arc_consistent_hybrid",
    "minimum_valuation",
    "propagate",
    "satisfying_assignment",
    "valuation_satisfies",
    "witness",
]

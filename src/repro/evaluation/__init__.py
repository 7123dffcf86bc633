"""Evaluation engines for conjunctive queries over trees."""

from .backtracking import SearchStatistics, count_solutions, find_solution, iter_solutions
from .compile import CompiledAtom, CompiledQuery, compile_query
from .domains import Domains, Valuation, initial_domains, valuation_satisfies
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
from .propagation import PropagationResult, Propagator, choose_propagator, propagate
from .xprop_evaluator import (
    XPropertyEvaluationError,
    boolean_query_holds,
    choose_order,
    least_valuation,
    witness,
)

__all__ = [
    "CompiledAtom",
    "CompiledQuery",
    "Domains",
    "Engine",
    "PropagationResult",
    "Propagator",
    "SearchStatistics",
    "Valuation",
    "XPropertyEvaluationError",
    "answer_page",
    "boolean_query_holds",
    "check_answer",
    "choose_order",
    "choose_propagator",
    "compile_query",
    "count_solutions",
    "evaluate",
    "evaluate_on_tree",
    "evaluate_union",
    "find_solution",
    "initial_domains",
    "is_satisfied",
    "iter_solutions",
    "least_valuation",
    "propagate",
    "satisfying_assignment",
    "valuation_satisfies",
    "witness",
]

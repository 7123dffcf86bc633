"""Structural decomposition: hypergraphs, tree decompositions, Yannakakis.

Outside the paper's tractable axis sets cyclic queries are NP-hard; what
stays polynomial is bounded width (Gottlob-Leone-Scarcello).  This package
builds the query's atom hypergraph (:mod:`hypergraph`), searches for a
low-width tree decomposition of its primal graph (:mod:`decompose`), and
evaluates over it (:mod:`yannakakis`): a memoised join-tree search for
Boolean and monadic heads, bag materialization + semijoin passes + join-tree
answer enumeration for the rest -- polynomial for bounded width, exact for
every query.
"""

from .decompose import (
    EXACT_VERTEX_LIMIT,
    TreeDecomposition,
    decompose,
    decompose_hypergraph,
    exact_elimination_order,
    min_degree_order,
    min_fill_order,
)
from .hypergraph import (
    GYOResult,
    Hypergraph,
    gyo_reduction,
    is_alpha_acyclic,
    query_hypergraph,
)
from .yannakakis import boolean_query_holds, evaluate_answers

__all__ = [
    "EXACT_VERTEX_LIMIT",
    "GYOResult",
    "Hypergraph",
    "TreeDecomposition",
    "boolean_query_holds",
    "decompose",
    "decompose_hypergraph",
    "evaluate_answers",
    "exact_elimination_order",
    "gyo_reduction",
    "is_alpha_acyclic",
    "min_degree_order",
    "min_fill_order",
    "query_hypergraph",
]

"""The generic backtracking evaluator (the exponential baseline).

This evaluator works for every conjunctive query (cyclic or not, any axes).
No plan routes to it -- evaluation runs it only under an explicit
``engine=backtracking`` -- and it serves the reproduction as the *baseline*
the polynomial-time algorithms are compared against (Table I and the forced
columns of the committed benchmarks), as a reference of the correctness tests
(beside the brute-force Horn oracle of ``tests/oracle.py``), and as a plain
enumeration of satisfying valuations (``iter_solutions`` / ``find_solution``).

The search prunes its candidates first (through the ``propagator=``
dimension: sound supersets are all it needs, so ``semijoin`` sweeps a
spanning forest of a cyclic body -- see
:func:`~repro.evaluation.propagation.candidate_supersets`), then runs with
*forward checking*: assigning a node narrows the candidate list of every
unassigned neighbour to the node's partners (the full reducer's semijoin
against that one node), a neighbour left without candidates rejects the node
before its subtree is entered, and the next variable is the connected one
with the fewest candidates left.  Every
candidate of an assigned variable was kept by all its assigned neighbours,
so no separate consistency check runs.  Candidates are tried in ascending
node order, so the solution sequence is deterministic.  The worst case
remains exponential -- necessarily so, by Section 5.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure
from .compile import compile_query
from .domains import Valuation, valuation_satisfies
from .propagation import PropagatorLike, candidate_supersets
from .reducer import _semijoin, initial_columns

#: Each variable's candidates still in play, ascending.
Columns = Mapping[Variable, Sequence[int]]


class SearchStatistics:
    """Mutable counters describing one backtracking run (used by benchmarks)."""

    def __init__(self) -> None:
        self.nodes_expanded = 0
        self.backtracks = 0
        self.forward_prunes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchStatistics(nodes={self.nodes_expanded}, "
            f"backtracks={self.backtracks}, forward_prunes={self.forward_prunes})"
        )


def iter_solutions(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    use_arc_consistency: bool = True,
    statistics: Optional[SearchStatistics] = None,
    propagator: Optional[PropagatorLike] = None,
) -> Iterator[Valuation]:
    """Enumerate all satisfying valuations by backtracking search."""
    compiled = compile_query(query)
    variables = compiled.variables
    if not variables:
        yield {}
        return

    if use_arc_consistency:
        result = candidate_supersets(compiled, structure, pinned, propagator)
        columns = None if result is None else {v: result.sorted_domain(v) for v in variables}
    else:
        columns = initial_columns(compiled, structure, pinned)
    if columns is None:
        return

    stats = statistics if statistics is not None else SearchStatistics()

    def select_variable(assignment: Valuation, live: Columns) -> Variable:
        unassigned = [v for v in variables if v not in assignment]
        connected = [
            v
            for v in unassigned
            if any(atom.other(v) in assignment for atom in compiled.atoms_of(v))
        ]
        return min(connected or unassigned, key=lambda v: len(live[v]))

    def narrow(
        variable: Variable, node: int, assignment: Valuation, live: Columns
    ) -> Optional[dict[Variable, Sequence[int]]]:
        """Forward checking: the unassigned neighbours' candidates that still fit ``node``."""
        narrowed: dict[Variable, Sequence[int]] = {}
        for atom in compiled.atoms_of(variable):
            other = atom.other(variable)
            if other in assignment:
                continue
            column = narrowed.get(other, live[other])
            kept = _semijoin(atom.axis, column, (node,), atom.source == other, structure)
            if not kept:
                return None
            narrowed[other] = kept
        return narrowed

    def search(assignment: Valuation, live: Columns) -> Iterator[Valuation]:
        if len(assignment) == len(variables):
            yield dict(assignment)
            return
        variable = select_variable(assignment, live)
        for node in live[variable]:
            stats.nodes_expanded += 1
            narrowed = narrow(variable, node, assignment, live)
            if narrowed is None:
                stats.forward_prunes += 1
                continue
            assignment[variable] = node
            found = False
            for solution in search(assignment, {**live, **narrowed}):
                found = True
                yield solution
            if not found:
                stats.backtracks += 1
            del assignment[variable]

    yield from search({}, columns)


def boolean_query_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    use_arc_consistency: bool = True,
    statistics: Optional[SearchStatistics] = None,
    propagator: Optional[PropagatorLike] = None,
) -> bool:
    """Boolean evaluation: is there at least one satisfying valuation?"""
    for _ in iter_solutions(
        query, structure, pinned, use_arc_consistency, statistics, propagator
    ):
        return True
    return False


def count_solutions(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator: Optional[PropagatorLike] = None,
) -> int:
    """Count all satisfying valuations (exponentially many in the worst case)."""
    return sum(1 for _ in iter_solutions(query, structure, pinned, propagator=propagator))


def find_solution(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator: Optional[PropagatorLike] = None,
) -> Optional[Valuation]:
    """Return some satisfying valuation, or ``None``."""
    for solution in iter_solutions(query, structure, pinned, propagator=propagator):
        assert valuation_satisfies(query, structure, solution)
        return solution
    return None


"""The generic backtracking evaluator (the exponential baseline).

This evaluator works for every conjunctive query (cyclic or not, any axes).
It is no engine: no plan routes to it.  It is the NP side's search (Table I,
the Theorem 5.1 reduction, :func:`~repro.evaluation.planner.satisfying_assignment`
off the tractable side), the *baseline* the polynomial-time engines are timed
against (:func:`answers`, the paper's singleton-relation reduction), a
reference of the correctness tests (beside the brute-force Horn oracle of
``tests/oracle.py``), and a plain enumeration of satisfying valuations
(``iter_solutions`` / ``find_solution``).

The search prunes its candidates first (sound supersets are all it needs,
so :func:`~repro.evaluation.propagation.candidate_supersets` runs the plan's
propagator, which on a cyclic body with no X-property order sweeps a
spanning forest), then runs with *forward checking*: assigning a node
narrows the candidate list of every unassigned neighbour to the node's
partners (the full reducer's semijoin against that one node), a neighbour
left without candidates rejects the node before its subtree is entered, and
the next variable is the connected one with the fewest candidates left.  Every
candidate of an assigned variable was kept by all its assigned neighbours,
so no separate consistency check runs.  Candidates are tried in ascending
node order, so the solution sequence is deterministic.  The worst case
remains exponential -- necessarily so, by Section 5.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from ..observability import tracing
from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure
from .compile import compile_query
from .domains import Valuation, valuation_satisfies
from .propagation import candidate_supersets
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
) -> Iterator[Valuation]:
    """Enumerate all satisfying valuations by backtracking search."""
    compiled = compile_query(query)
    variables = compiled.variables
    if not variables:
        yield {}
        return

    if use_arc_consistency:
        result = candidate_supersets(compiled, structure, pinned)
        columns = None if result is None else {v: result.sorted_domain(v) for v in variables}
    else:
        columns = initial_columns(compiled, structure, pinned)
    if columns is None or not all(columns.values()):
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
) -> bool:
    """Boolean evaluation: is there at least one satisfying valuation?"""
    for _ in iter_solutions(query, structure, pinned, use_arc_consistency, statistics):
        return True
    return False


def answers(query: ConjunctiveQuery, structure: TreeStructure) -> frozenset[tuple[int, ...]]:
    """All answers by the singleton-relation reduction after Theorem 3.5.

    Candidate head tuples come from :func:`candidate_supersets` (a sound
    over-approximation of the answer projection), and each tuple that passes
    the head atoms pays one pinned backtracking verdict: ``O(|A|^k)``
    searches.  The quadratic baseline the committed benchmarks time the
    engines against, and a reference of the tests.  A Boolean query answers
    ``{()}`` when satisfied and the empty set otherwise.
    """
    if query.is_boolean:
        return frozenset({()}) if boolean_query_holds(query, structure) else frozenset()
    compiled = compile_query(query)
    result = candidate_supersets(compiled, structure)
    if result is None:
        return frozenset()
    # Atoms connecting two head variables can be checked in O(1) per candidate
    # tuple from the tree's rank arrays, skipping the search for tuples that
    # already violate one of them.
    head_set = set(query.head)
    head_atoms = [
        atom
        for atom in compiled.atoms
        if atom.source in head_set and atom.target in head_set
    ]
    index = structure.index
    candidate_sets = [result.sorted_domain(variable) for variable in query.head]
    found: set[tuple[int, ...]] = set()
    # Suppress tracing inside the loop: each search would otherwise add its
    # own propagate span per candidate tuple.
    with tracing.suppress():
        for candidate in product(*candidate_sets):
            # Head variables may repeat; a repeated variable must get one node.
            pinned: dict[str, int] = {}
            consistent = True
            for variable, node in zip(query.head, candidate):
                if variable in pinned and pinned[variable] != node:
                    consistent = False
                    break
                pinned[variable] = node
            if not consistent:
                continue
            if not all(
                index.holds(atom.axis, pinned[atom.source], pinned[atom.target])
                for atom in head_atoms
            ):
                continue
            if _pinned_holds(query, structure, pinned):
                found.add(tuple(candidate))
    return frozenset(found)


def _pinned_holds(
    query: ConjunctiveQuery, structure: TreeStructure, pinned: Mapping[Variable, int]
) -> bool:
    """One candidate tuple's verdict: the Boolean closure, searched under ``pinned``.

    The per-tuple work of ``is_satisfied(query, structure, pinned=...)`` --
    the closure, the unsafe-pin filter, the compile-cache lookup -- which the
    committed baselines of ``BENCH_planner.json`` and
    ``BENCH_decomposition.json`` measured.  A pinned head variable the body
    never mentions ranges over every node, so its pin is dropped.
    """
    boolean_query = query.as_boolean()
    unsafe = set(query.head).difference(boolean_query.variables())
    if unsafe:
        pinned = {v: node for v, node in pinned.items() if v not in unsafe}
    compile_query(boolean_query)
    return boolean_query_holds(boolean_query, structure, pinned=pinned)


def count_solutions(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> int:
    """Count all satisfying valuations (exponentially many in the worst case)."""
    return sum(1 for _ in iter_solutions(query, structure, pinned))


def find_solution(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Valuation]:
    """Return some satisfying valuation, or ``None``."""
    for solution in iter_solutions(query, structure, pinned):
        assert valuation_satisfies(query, structure, solution)
        return solution
    return None


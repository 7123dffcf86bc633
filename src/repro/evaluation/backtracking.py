"""The generic backtracking evaluator (the exponential baseline).

This evaluator works for every conjunctive query (cyclic or not, any axes).
No plan routes to it -- evaluation runs it only under an explicit
``engine=backtracking`` -- and it serves the reproduction as the *baseline*
the polynomial-time algorithms are compared against (Table I and the forced
columns of the committed benchmarks), as the ground truth, beside the Horn
program, of the correctness tests on small instances, and as a plain
enumeration of satisfying valuations (``iter_solutions`` / ``find_solution``).

The search uses arc consistency as preprocessing (through the pluggable
``propagator=`` engine, AC-4 support counting by default), a
smallest-domain-first variable order restricted to variables connected to
already-assigned ones, consistency checks against already-assigned neighbours,
and *index-based forward checking*: a freshly assigned node must still have an
axis witness inside the (static) candidate domain of every unassigned
neighbour, a necessary condition tested in O(log n) against the domain's
sorted-array view (:mod:`repro.trees.index`) before the subtree of the search
is entered.  The views are the ones the propagation engine already maintains
-- AC-4 hands its incremental views over at the fixpoint instead of having
them rebuilt.  Candidates are tried in ascending node order, so the solution
sequence is deterministic.  The worst case remains exponential -- necessarily
so, by Section 5.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure
from .compile import compile_query
from .domains import Valuation, valuation_satisfies
from .propagation import DEFAULT_PROPAGATOR, PropagationResult, PropagatorLike, propagate


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
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
) -> Iterator[Valuation]:
    """Enumerate all satisfying valuations by backtracking search."""
    compiled = compile_query(query)
    variables = compiled.variables
    if not variables:
        yield {}
        return

    if use_arc_consistency:
        result = propagate(query, structure, pinned, propagator)
        if result is None:
            return
    else:
        domains = compiled.initial_domains(structure, pinned)
        if any(not domain for domain in domains.values()):
            return
        result = PropagationResult(structure, domains)

    domains = result.domains
    # Sorted-array views of the (static) domains, for forward witness checks
    # and deterministic candidate order; maintained views when AC-4 ran.
    views = result.views
    index = structure.index
    loops = compiled.loops

    stats = statistics if statistics is not None else SearchStatistics()

    def select_variable(assignment: Valuation) -> Variable:
        unassigned = [v for v in variables if v not in assignment]
        connected = [
            v
            for v in unassigned
            if any(
                (atom.source in assignment or atom.target in assignment)
                for atom in compiled.atoms_of(v)
            )
        ]
        pool = connected if connected else unassigned
        return min(pool, key=lambda v: len(domains[v]))

    def consistent(variable: Variable, node: int, assignment: Valuation) -> bool:
        for atom in compiled.atoms_of(variable):
            source = node if atom.source == variable else assignment.get(atom.source)
            target = node if atom.target == variable else assignment.get(atom.target)
            if source is None or target is None:
                continue
            if not index.holds(atom.axis, source, target):
                return False
        for atom in loops:
            if atom.source == variable and not index.holds(atom.axis, node, node):
                return False
        return True

    def forward_check(variable: Variable, node: int, assignment: Valuation) -> bool:
        """A necessary condition: witnesses must survive in unassigned domains."""
        for atom in compiled.atoms_of(variable):
            if atom.source == variable and atom.target not in assignment:
                if not index.has_successor_in(atom.axis, node, views[atom.target]):
                    return False
            elif atom.target == variable and atom.source not in assignment:
                if not index.has_predecessor_in(atom.axis, node, views[atom.source]):
                    return False
        return True

    def search(assignment: Valuation) -> Iterator[Valuation]:
        if len(assignment) == len(variables):
            yield dict(assignment)
            return
        variable = select_variable(assignment)
        for node in views[variable].array:
            stats.nodes_expanded += 1
            if not consistent(variable, node, assignment):
                stats.backtracks += 1
                continue
            if not forward_check(variable, node, assignment):
                stats.forward_prunes += 1
                continue
            assignment[variable] = node
            yield from search(assignment)
            del assignment[variable]

    yield from search({})


def boolean_query_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    use_arc_consistency: bool = True,
    statistics: Optional[SearchStatistics] = None,
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
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
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
) -> int:
    """Count all satisfying valuations (exponentially many in the worst case)."""
    return sum(1 for _ in iter_solutions(query, structure, pinned, propagator=propagator))


def find_solution(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
) -> Optional[Valuation]:
    """Return some satisfying valuation, or ``None``."""
    for solution in iter_solutions(query, structure, pinned, propagator=propagator):
        assert valuation_satisfies(query, structure, solution)
        return solution
    return None

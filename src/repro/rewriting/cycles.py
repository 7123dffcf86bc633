"""Directed-cycle elimination (Lemma 6.4).

If a conjunctive query over tree axes contains a directed cycle

    R1(x1, x2), R2(x2, x3), ..., Rk(xk, x1)

then either all the Ri are reflexive axes (``Child*`` / ``NextSibling*``), in
which case the cycle forces ``x1 = x2 = ... = xk`` and the variables can be
identified, or some Ri is irreflexive, in which case the query is
unsatisfiable (the union of the tree axes is acyclic as a graph over nodes).

:func:`eliminate_directed_cycles` applies this exhaustively and returns either
a query without directed cycles or ``None`` (unsatisfiable).
"""

from __future__ import annotations

from typing import Optional

from ..queries.atoms import AxisAtom
from ..queries.graph import QueryGraph
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis

#: Axes whose atoms may participate in a satisfiable directed cycle.
_COLLAPSIBLE = {Axis.CHILD_STAR, Axis.NEXT_SIBLING_STAR, Axis.SELF}


def eliminate_directed_cycles(query: ConjunctiveQuery) -> Optional[ConjunctiveQuery]:
    """Apply Lemma 6.4 until the query graph has no directed cycles.

    Returns the rewritten (equivalent) query, or ``None`` when a directed
    cycle contains an irreflexive axis and the query is unsatisfiable.
    Collapsing a cycle can create new cycles, so the procedure iterates to a
    fixpoint.
    """
    current = query
    while True:
        graph = QueryGraph(current)
        cycle_components = graph.directed_cycle_components()
        if not cycle_components:
            return current
        component = cycle_components[0]
        internal_atoms = [edge.atom for edge in graph.edges_within(component)]
        if any(atom.axis not in _COLLAPSIBLE for atom in internal_atoms):
            return None
        current = _collapse(current, component, internal_atoms)


def _collapse(
    query: ConjunctiveQuery,
    component: set[str],
    internal_atoms: list[AxisAtom],
) -> ConjunctiveQuery:
    """Identify all variables of a reflexive-axes-only cycle component."""
    representative = sorted(component)[0]
    mapping = {variable: representative for variable in component}
    new_head = tuple(mapping.get(variable, variable) for variable in query.head)
    renamed_atoms = [atom.rename(mapping) for atom in query.body]
    # Remove atoms that became reflexive Child*/NextSibling*/Self loops and
    # deduplicate while preserving order.
    kept = [
        atom
        for atom in dict.fromkeys(renamed_atoms)
        if not (
            isinstance(atom, AxisAtom)
            and atom.source == atom.target
            and atom.axis in _COLLAPSIBLE
        )
    ]
    # Safety: a head variable must keep occurring in the body (the paper adds a
    # Node(x1) atom; we use the same trick, Node(x) := Child*(x, x') for a
    # fresh x', which is satisfiable at every node).
    body_variables = {variable for atom in kept for variable in atom.variables()}
    if representative in new_head and representative not in body_variables:
        used = body_variables | set(new_head)
        index = 0
        fresh = f"_node{index}"
        while fresh in used:
            index += 1
            fresh = f"_node{index}"
        kept.append(AxisAtom(Axis.CHILD_STAR, representative, fresh))
    return ConjunctiveQuery(new_head, tuple(kept), query.name)


def is_trivially_unsatisfiable(query: ConjunctiveQuery) -> bool:
    """Quick test: does Lemma 6.4 already show the query unsatisfiable?"""
    return eliminate_directed_cycles(query) is None

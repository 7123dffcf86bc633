"""Valuations (Section 3) and the check that one satisfies a query.

A *prevaluation* Phi assigns to each query variable a non-empty set of nodes;
a *valuation* theta assigns a single node, here a ``dict[Variable, int]``.
The evaluation algorithms hold prevaluations as sorted candidate columns:
:func:`repro.evaluation.reducer.initial_columns` builds the starting one
(every variable gets the nodes satisfying its unary atoms, a pinned variable
exactly its node -- the first clause group of the Horn program of
Proposition 3.1), and the propagators hand theirs over as a
:class:`~repro.evaluation.propagation.PropagationResult`, with a
:class:`~repro.trees.index.DomainView` per variable on demand, against which
the tree's interval index answers witness queries by bisection instead of
relation enumeration.
"""

from __future__ import annotations

from typing import Mapping

from ..queries.atoms import LabelAtom, Variable
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure

Valuation = dict[Variable, int]


def valuation_satisfies(
    query: ConjunctiveQuery, structure: TreeStructure, valuation: Mapping[Variable, int]
) -> bool:
    """Check whether a total valuation satisfies every atom of the query."""
    from ..queries.atoms import AxisAtom  # local import to keep module load light

    for atom in query.body:
        if isinstance(atom, LabelAtom):
            if not structure.unary_holds(atom.label, valuation[atom.variable]):
                return False
        elif isinstance(atom, AxisAtom):
            if not structure.axis_holds(
                atom.axis, valuation[atom.source], valuation[atom.target]
            ):
                return False
    return True

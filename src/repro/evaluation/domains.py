"""Prevaluations, valuations and initial candidate domains (Section 3).

A *prevaluation* Phi assigns to each query variable a non-empty set of nodes;
a *valuation* theta assigns a single node.  The evaluation algorithms
manipulate prevaluations as ``dict[Variable, set[int]]`` ("domains") and
valuations as ``dict[Variable, int]``.

:func:`initial_domains` builds the starting prevaluation: every variable gets
all nodes satisfying its unary atoms (and, for pinned variables, exactly the
pinned node).  This corresponds to applying the first clause group of the
Horn program of Proposition 3.1.

Alongside the ``set`` form, the propagators hand domains over as sorted
columns (:class:`~repro.evaluation.propagation.PropagationResult`), with a
:class:`~repro.trees.index.DomainView` per variable on demand, against which
the tree's interval index answers witness queries by bisection instead of
relation enumeration.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..queries.atoms import LabelAtom, Variable
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure

Domains = dict[Variable, set[int]]
Valuation = dict[Variable, int]


def initial_domains(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Domains:
    """Per-variable candidate node sets before arc consistency.

    ``pinned`` restricts the given variables to a single node each -- the
    singleton-relation trick used to reduce answer checking to Boolean
    evaluation (discussion after Theorem 3.5).

    Delegates to the compile-once recipe
    (:meth:`repro.evaluation.compile.CompiledQuery.initial_domains`) so there
    is exactly one implementation of the starting prevaluation.
    """
    from .compile import compile_query  # local import: compile depends on this module

    return compile_query(query).initial_domains(structure, pinned)


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

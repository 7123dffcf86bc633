"""Prevaluations, valuations and initial candidate domains (Section 3).

A *prevaluation* Phi assigns to each query variable a non-empty set of nodes;
a *valuation* theta assigns a single node.  The evaluation algorithms
manipulate prevaluations as ``dict[Variable, set[int]]`` ("domains") and
valuations as ``dict[Variable, int]``.

:func:`initial_domains` builds the starting prevaluation: every variable gets
all nodes satisfying its unary atoms (and, for pinned variables, exactly the
pinned node).  This corresponds to applying the first clause group of the
Horn program of Proposition 3.1.

Alongside the mutable ``set`` form, domains have a *sorted-array companion
representation*: a :class:`~repro.trees.index.DomainView` per variable
(:func:`domain_views`), against which the tree's interval index answers
witness queries by bisection instead of relation enumeration.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..queries.atoms import LabelAtom, Variable
from ..queries.query import ConjunctiveQuery
from ..trees.index import DomainView
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


def domain_views(structure: TreeStructure, domains: Domains) -> dict[Variable, DomainView]:
    """Sorted-array companion views of every domain (one per variable).

    The views are frozen snapshots: they stay valid for as long as the
    underlying sets are not mutated.  The evaluation pipeline itself now
    carries *maintained* delete-aware views through propagation
    (:class:`~repro.trees.index.MutableDomainView`, handed over by
    :class:`~repro.evaluation.propagation.PropagationResult`); this helper
    remains for consumers that have a plain prevaluation in hand.
    """
    index = structure.index
    return {variable: index.view(nodes) for variable, nodes in domains.items()}

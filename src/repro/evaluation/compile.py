"""Compile-once query representation shared by every evaluation engine.

Every evaluator used to re-derive the same facts about a query on every call:
``axis_atoms()`` filtered the body, ``atoms_of``/adjacency maps were rebuilt by
hand in the propagators, the acyclic evaluator and :mod:`backtracking`, and the
initial-domain computation re-walked the body per evaluation.  This module
factors all of that into a single :class:`CompiledQuery` produced (and cached)
by :func:`compile_query`:

* **variable numbering** -- ``variables`` in first-occurrence order plus a
  ``variable_index`` mapping, so engines can use dense arrays when they want;
* **atom normalization** -- inverse axes (``Parent``, ``Ancestor``,
  ``Preceding``, ...) are rewritten to their forward counterpart with the
  endpoints swapped (``Parent(x, y)`` denotes the same constraint as
  ``Child(y, x)``), and duplicate constraints are dropped, so engines only ever
  see the ten forward axes, every one answered by the interval index;
* **adjacency** -- per-variable tuples of the (non-loop) atoms touching the
  variable, plus the self-loop atoms separately (a self-loop is a static node
  filter, not a propagation edge);
* **initial-column recipe** -- the per-variable unary relation names, so
  :func:`repro.evaluation.reducer.initial_columns` builds the starting
  prevaluation without re-scanning the body.

Compilation depends only on the query (never on the structure), so
:func:`compile_query` memoizes on the (hashable, immutable)
:class:`~repro.queries.query.ConjunctiveQuery` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from ..decomposition.decompose import TreeDecomposition

from ..queries.atoms import AxisAtom, LabelAtom, Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import INVERSE, Axis
from ..trees.orders import Order
from ..xproperty.dichotomy import order_for


#: Inverse axes normalised away during compilation (argument swap).
_REVERSED_AXES: frozenset[Axis] = frozenset(
    {
        Axis.PARENT,
        Axis.ANCESTOR,
        Axis.ANCESTOR_OR_SELF,
        Axis.PREVIOUS_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.PRECEDING,
    }
)


@dataclass(frozen=True)
class CompiledAtom:
    """A normalized binary atom: forward axis, original kept."""

    axis: Axis
    source: Variable
    target: Variable
    original: AxisAtom

    @property
    def is_loop(self) -> bool:
        return self.source == self.target

    def other(self, variable: Variable) -> Variable:
        """The endpoint opposite to ``variable`` (itself for self-loops)."""
        return self.target if variable == self.source else self.source

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.axis.value}({self.source}, {self.target})"


def normalize_atom(atom: AxisAtom) -> CompiledAtom:
    """Rewrite an atom over an inverse axis to the forward axis, endpoints swapped."""
    axis, source, target = atom.axis, atom.source, atom.target
    if axis in _REVERSED_AXES:
        axis, source, target = INVERSE[axis], target, source
    return CompiledAtom(axis, source, target, atom)


@dataclass(frozen=True, eq=False)
class CompiledQuery:
    """The compile-once representation every evaluation engine consumes.

    ``atoms`` holds every distinct normalized binary constraint; ``edges`` the
    non-loop subset (the propagation graph), ``loops`` the self-loop subset
    (static per-node filters).  ``adjacency`` maps each variable to the edges
    touching it, in body order.
    """

    query: ConjunctiveQuery
    variables: tuple[Variable, ...]
    variable_index: Mapping[Variable, int]
    atoms: tuple[CompiledAtom, ...]
    edges: tuple[CompiledAtom, ...]
    loops: tuple[CompiledAtom, ...]
    adjacency: Mapping[Variable, tuple[CompiledAtom, ...]]
    labels_by_variable: Mapping[Variable, tuple[str, ...]]
    #: Is the (deduplicated, normalized) edge multigraph a forest?  Computed
    #: once at compile time; distinct parallel constraints between one
    #: variable pair count as a cycle, self-loops live in ``loops`` (static
    #: filters) and do not.  On forests the arc-consistent fixpoint is
    #: globally consistent, which the planner's monadic fast path exploits.
    shadow_is_forest: bool

    # -- structural decomposition ----------------------------------------------

    @cached_property
    def decomposition(self) -> "TreeDecomposition":
        """The query's tree decomposition (lazy, cached on the compiled form).

        Computed from the normalized constraint graph on first access and then
        resident for the lifetime of the compiled artifact -- the serving
        layer's query cache holds these, so a decomposition is searched once
        per distinct (alpha-equivalence class of) query, not per request.
        Its bags are what the planner prices the decomposition engine by.
        """
        from ..decomposition.decompose import decompose

        return decompose(self)

    @cached_property
    def order(self) -> Optional[Order]:
        """An order w.r.t. which every edge's axis has the X-property (``None``: none).

        What :func:`repro.evaluation.xprop_evaluator.least_valuation` walks in.
        Judged on the normalized edges, so an inverse axis counts as its
        forward one; self-loops are static filters and do not count.
        """
        return order_for(atom.axis for atom in self.edges)

    @cached_property
    def sweep_order(self) -> tuple[tuple[Variable, CompiledAtom], ...]:
        """The shadow forest's edges as ``(child, atom)``, every parent first.

        The order the semijoin full reducer (:mod:`repro.evaluation.reducer`)
        sweeps in: backwards it is a leaves-to-root pass, forwards a
        root-to-leaves pass.  Each component is rooted at a head variable when
        it has one, otherwise at its first variable.  On a cyclic body this
        is a spanning forest that drops the chord atoms: sweeping it yields
        supersets of the fixpoint, which is all the decomposition engine asks.
        """
        order: list[tuple[Variable, CompiledAtom]] = []
        seen: set[Variable] = set()
        for root in (*dict.fromkeys(self.query.head), *self.variables):
            if root in seen:
                continue
            seen.add(root)
            stack = [root]
            while stack:
                variable = stack.pop()
                for atom in self.adjacency[variable]:
                    child = atom.other(variable)
                    if child not in seen:
                        seen.add(child)
                        order.append((child, atom))
                        stack.append(child)
        return tuple(order)

    @cached_property
    def sweep_roots(self) -> frozenset[Variable]:
        """The component roots of :attr:`sweep_order`: no edge hangs them below a parent.

        The variables whose column the reducer's leaves-to-root sweep alone
        makes exact on a forest -- a monadic head is one of them.
        """
        return frozenset(self.variables).difference(child for child, _ in self.sweep_order)

    @cached_property
    def search_setups(self) -> dict:
        """The join-tree search's per-bag set-up, by (head, domain-size rank).

        Filled by :mod:`repro.decomposition.yannakakis` (bag plans and
        look-ahead lists depend on the query and on which variables have the
        fewest candidates, never on the nodes), and resident with the
        compiled query like :attr:`decomposition`.
        """
        return {}

    # -- convenience -----------------------------------------------------------

    def atoms_of(self, variable: Variable) -> tuple[CompiledAtom, ...]:
        """The non-loop atoms touching ``variable`` (the propagation edges)."""
        return self.adjacency.get(variable, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledQuery(variables={len(self.variables)}, "
            f"edges={len(self.edges)}, loops={len(self.loops)})"
        )


@lru_cache(maxsize=1024)
def compile_query(query: ConjunctiveQuery) -> CompiledQuery:
    """Compile (and memoize) the shared evaluation-ready form of ``query``.

    Safe to cache aggressively: queries are immutable and hashable, and the
    compiled form depends on nothing but the query.
    """
    variables = query.variables()
    variable_index = {variable: i for i, variable in enumerate(variables)}

    seen: dict[tuple[Axis, Variable, Variable], CompiledAtom] = {}
    for atom in query.body:
        if not isinstance(atom, AxisAtom):
            continue
        compiled = normalize_atom(atom)
        seen.setdefault((compiled.axis, compiled.source, compiled.target), compiled)
    atoms = tuple(seen.values())
    edges = tuple(atom for atom in atoms if not atom.is_loop)
    loops = tuple(atom for atom in atoms if atom.is_loop)

    adjacency: dict[Variable, list[CompiledAtom]] = {v: [] for v in variables}
    for atom in edges:
        adjacency[atom.source].append(atom)
        adjacency[atom.target].append(atom)

    labels: dict[Variable, list[str]] = {}
    for atom in query.body:
        if isinstance(atom, LabelAtom):
            bucket = labels.setdefault(atom.variable, [])
            if atom.label not in bucket:
                bucket.append(atom.label)

    # Union-find over the deduplicated edges: a forest iff no edge joins two
    # already-connected variables (which also catches parallel constraints).
    parent: dict[Variable, Variable] = {v: v for v in variables}

    def find(variable: Variable) -> Variable:
        while parent[variable] != variable:
            parent[variable] = parent[parent[variable]]
            variable = parent[variable]
        return variable

    shadow_is_forest = True
    for atom in edges:
        root_source, root_target = find(atom.source), find(atom.target)
        if root_source == root_target:
            shadow_is_forest = False
            break
        parent[root_source] = root_target

    return CompiledQuery(
        query=query,
        variables=variables,
        variable_index=variable_index,
        atoms=atoms,
        edges=edges,
        loops=loops,
        adjacency={v: tuple(atoms_list) for v, atoms_list in adjacency.items()},
        labels_by_variable={v: tuple(label_list) for v, label_list in labels.items()},
        shadow_is_forest=shadow_is_forest,
    )

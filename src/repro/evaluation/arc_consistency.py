"""Arc consistency: the maximal arc-consistent prevaluation (Proposition 3.1).

A prevaluation Phi is *arc-consistent* iff

* for each unary atom ``P(x)`` and each ``v`` in Phi(x), ``P(v)`` holds, and
* for each binary atom ``R(x, y)``: every ``v`` in Phi(x) has a witness
  ``w`` in Phi(y) with ``R(v, w)``, and every ``w`` in Phi(y) has a witness
  ``v`` in Phi(x) with ``R(v, w)``.

Proposition 3.1 phrases the computation of the unique subset-maximal
arc-consistent prevaluation as a propositional Horn-SAT instance solvable in
time O(||A|| * |Q|).  Two implementations are provided:

* :func:`maximal_arc_consistent` -- a worklist (AC-3 style) algorithm over the
  per-variable candidate domains.  It computes exactly the same fixpoint (the
  greatest simultaneous fixpoint of the deletion rules).  Every domain lives
  in a delete-aware :class:`~repro.trees.index.MutableDomainView` and a revise
  step discards all unsupported candidates of an atom at once with the
  staircase kernels of :mod:`repro.trees.columnar` -- support counts for the
  interval axes come from cumulative membership columns in a few fused
  C-level passes, deletions are O(1) amortized discards, so a revise pass
  never sorts and never loops per candidate.  The same revise pass, once over
  every edge, is the opening sweep of the ``hybrid`` propagator
  (:func:`bulk_revise_views`).
* :func:`maximal_arc_consistent_horn` -- a literal transcription of the Horn
  program from the proof (unit propagation over ``Remove(x, v)`` atoms), the
  ground truth every other propagator is tested against.

Engine selection lives in :mod:`repro.evaluation.propagation` (the planner's
``propagator=`` dimension); all engines consume the shared
:class:`~repro.evaluation.compile.CompiledQuery` representation.

Both return ``None`` when no arc-consistent prevaluation exists (some variable
loses all candidates), in which case the query is unsatisfiable on the
structure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Mapping, Optional

from ..queries.atoms import AxisAtom, LabelAtom, Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis
from ..trees.columnar import (
    ancestor_counts,
    casualties,
    descendant_counts,
    threshold_casualties_by_end,
)
from ..trees.index import AxisIndex, MutableDomainView
from ..trees.structure import TreeStructure
from .compile import CompiledAtom, CompiledQuery, compile_query
from .domains import Domains


def maximal_arc_consistent(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Domains]:
    """Compute the subset-maximal arc-consistent prevaluation (worklist form).

    Returns the prevaluation as a dict of node sets, or ``None`` if some
    variable ends up with an empty candidate set (no arc-consistent
    prevaluation exists, hence the query is not satisfied -- Lemma 3.4's
    complement).

    Runs on the compile-once representation (:mod:`repro.evaluation.compile`):
    normalized atoms, precomputed adjacency and the initial-domain recipe all
    come from the :class:`CompiledQuery` instead of being re-derived per call.
    The domains *live* in delete-aware views -- kept sorted by construction,
    with bulk kernels producing the exact casualty list of each revise -- so
    total deletion work is bounded by the total number of deletions and each
    pass costs a handful of C-level column sweeps.
    """
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    domains = compiled.initial_domains(structure, pinned)
    if any(not domain for domain in domains.values()):
        return None

    # Self-loops R(x, x) are static per-node filters: apply them once.
    if not compiled.apply_loop_filters(domains, structure):
        return None

    index = structure.index
    views = {variable: index.mutable_view(domains[variable]) for variable in compiled.variables}
    queue: deque[CompiledAtom] = deque(compiled.edges)
    queued: set[CompiledAtom] = set(compiled.edges)
    while queue:
        atom = queue.popleft()
        queued.discard(atom)
        for variable in _revise(atom, views, index):
            if not views[variable].members:
                return None
            for neighbour_atom in compiled.atoms_of(variable):
                if neighbour_atom not in queued:
                    queue.append(neighbour_atom)
                    queued.add(neighbour_atom)
    return {variable: view.members for variable, view in views.items()}


def bulk_revise_views(
    compiled: CompiledQuery,
    views: Mapping[Variable, MutableDomainView],
    structure: TreeStructure,
) -> bool:
    """One revise pass over every edge (no worklist, no repeats), in place.

    This is the opening move of the ``hybrid`` propagator
    (:func:`repro.evaluation.ac4.hybrid_fixpoint`): on fast-converging queries
    (pure ``Child+`` chains) a single pass of the bulk kernels removes the
    bulk of the dead candidates far cheaper than per-candidate support
    bookkeeping, and whatever it leaves behind is finished off by the
    deletion-driven AC-4 engine.  Deleting only unsupported candidates keeps
    the fixpoint unchanged (the deletion rules are confluent).

    Returns ``False`` iff some view empties.  The views stay valid (and
    maintained) either way, so the hybrid propagator hands them straight to
    the AC-4 engine without rebuilding.
    """
    index = structure.index
    for atom in compiled.edges:
        for variable in _revise(atom, views, index):
            if not views[variable].members:
                return False
    return True


def _revise(
    atom: CompiledAtom,
    views: Mapping[Variable, MutableDomainView],
    index: AxisIndex,
) -> list[Variable]:
    """Revise one atom: discard all unsupported candidates at once.

    Returns the variables whose domains shrank.
    """
    changed: list[Variable] = []
    source_view = views[atom.source]
    target_view = views[atom.target]

    dead = _unsupported_forward(atom.axis, source_view, target_view, index)
    if dead:
        discard = source_view.discard
        for node in dead:
            discard(node)
        changed.append(atom.source)
        if not source_view.members:
            return changed

    dead = _unsupported_backward(atom.axis, target_view, source_view, index)
    if dead:
        discard = target_view.discard
        for node in dead:
            discard(node)
        changed.append(atom.target)
    return changed


def _unsupported_forward(
    axis: Axis,
    watched: MutableDomainView,
    support: MutableDomainView,
    index: AxisIndex,
) -> list[int]:
    """Watched candidates ``u`` with no ``v`` in the support: ``axis(u, v)``."""
    candidates = watched.array
    if not candidates:
        return []
    support_array = support.array
    if not support_array:
        return list(candidates)
    if axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
        counts = descendant_counts(
            candidates, index.subtree_end_plus1, support.cum_pre, axis is Axis.CHILD_STAR
        )
        return casualties(candidates, counts)
    if axis is Axis.FOLLOWING:
        # Supported iff some support node opens after u's subtree closes.
        return threshold_casualties_by_end(candidates, index.subtree_end, support_array[-1])
    if axis is Axis.DOCUMENT_ORDER:
        # Supported iff max(support) > u: the casualties are a suffix slice.
        return list(candidates[bisect_left(candidates, support_array[-1]) :])
    # Local and sibling-threshold axes: per-candidate O(1) witness tests
    # against the support view's aggregates (already bulk-built and cached).
    has_successor_in = index.has_successor_in
    return [u for u in candidates if not has_successor_in(axis, u, support)]


def _unsupported_backward(
    axis: Axis,
    watched: MutableDomainView,
    support: MutableDomainView,
    index: AxisIndex,
) -> list[int]:
    """Watched candidates ``w`` with no ``u`` in the support: ``axis(u, w)``."""
    candidates = watched.array
    if not candidates:
        return []
    support_array = support.array
    if not support_array:
        return list(candidates)
    if axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
        include_self = axis is Axis.CHILD_STAR
        counts = ancestor_counts(
            candidates,
            support.cum_pre,
            support.cum_end,
            support.live_mask if include_self else None,
        )
        return casualties(candidates, counts)
    if axis is Axis.FOLLOWING:
        # Supported iff some support subtree closes before w opens: the
        # casualties are the prefix w <= min(subtree_end over support).
        return list(candidates[: bisect_right(candidates, support.min_end)])
    if axis is Axis.DOCUMENT_ORDER:
        return list(candidates[: bisect_right(candidates, support_array[0])])
    has_predecessor_in = index.has_predecessor_in
    return [w for w in candidates if not has_predecessor_in(axis, w, support)]


def is_arc_consistent(
    query: ConjunctiveQuery, structure: TreeStructure, domains: Domains
) -> bool:
    """Check the arc-consistency conditions for a given prevaluation."""
    if any(not domain for domain in domains.values()):
        return False
    for atom in query.body:
        if isinstance(atom, LabelAtom):
            if any(
                not structure.unary_holds(atom.label, node)
                for node in domains[atom.variable]
            ):
                return False
        elif isinstance(atom, AxisAtom):
            source_domain = domains[atom.source]
            target_domain = domains[atom.target]
            for v in source_domain:
                if not any(
                    structure.axis_holds(atom.axis, v, w) for w in target_domain
                ):
                    return False
            for w in target_domain:
                if not any(
                    structure.axis_holds(atom.axis, v, w) for v in source_domain
                ):
                    return False
    return True


# ---------------------------------------------------------------------------
# Literal Horn-program implementation (Proposition 3.1), the ground truth.
# ---------------------------------------------------------------------------


def maximal_arc_consistent_horn(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Domains]:
    """Compute the maximal arc-consistent prevaluation via the Horn program.

    The propositional atoms are ``Remove(x, v)``; the program contains

    * a fact ``Remove(x, v)`` for each unary atom ``P(x)`` and node ``v`` with
      ``not P(v)`` (and for pinned variables, each node other than the pin),
    * for each binary atom ``R(x, y)`` and node ``v``:
      ``Remove(x, v) <- AND { Remove(y, w) | R(v, w) }``,
    * for each binary atom ``R(x, y)`` and node ``w``:
      ``Remove(y, w) <- AND { Remove(x, v) | R(v, w) }``.

    Unit propagation (linear in the program size) computes the least model;
    the complement of ``Remove`` is the maximal arc-consistent prevaluation.
    """
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    variables = compiled.variables
    nodes = list(structure.domain())

    # Proposition index: (variable, node) -> proposition id.
    proposition_of: dict[tuple[Variable, int], int] = {}
    for variable in variables:
        for node in nodes:
            proposition_of[(variable, node)] = len(proposition_of)

    facts: list[int] = []
    # clauses: body size countdown + head; body_of maps proposition -> clause ids.
    clause_heads: list[int] = []
    clause_counts: list[int] = []
    watchers: dict[int, list[int]] = {}

    def add_clause(head: int, body: list[int]) -> None:
        if not body:
            facts.append(head)
            return
        clause_id = len(clause_heads)
        clause_heads.append(head)
        clause_counts.append(len(body))
        for proposition in body:
            watchers.setdefault(proposition, []).append(clause_id)

    # Unary facts.
    for variable, labels in compiled.labels_by_variable.items():
        for label_name in labels:
            for node in nodes:
                if not structure.unary_holds(label_name, node):
                    facts.append(proposition_of[(variable, node)])
    if pinned:
        for variable, pin in pinned.items():
            if variable not in compiled.variable_index:
                raise ValueError(f"pinned variable {variable!r} not in the query")
            for node in nodes:
                if node != pin:
                    facts.append(proposition_of[(variable, node)])

    # Binary clauses (normalized atoms; self-loops included).
    for atom in compiled.atoms:
        for v in nodes:
            body = [
                proposition_of[(atom.target, w)]
                for w in structure.axis_successors(atom.axis, v)
            ]
            add_clause(proposition_of[(atom.source, v)], body)
        for w in nodes:
            body = [
                proposition_of[(atom.source, v)]
                for v in structure.axis_predecessors(atom.axis, w)
            ]
            add_clause(proposition_of[(atom.target, w)], body)

    # Unit propagation over the Horn program.
    true_propositions: set[int] = set()
    queue = deque(facts)
    while queue:
        proposition = queue.popleft()
        if proposition in true_propositions:
            continue
        true_propositions.add(proposition)
        for clause_id in watchers.get(proposition, ()):
            clause_counts[clause_id] -= 1
            if clause_counts[clause_id] == 0:
                head = clause_heads[clause_id]
                if head not in true_propositions:
                    queue.append(head)

    # Complement: T = (Vars x A) - Remove.
    domains: Domains = {variable: set() for variable in variables}
    for (variable, node), proposition in proposition_of.items():
        if proposition not in true_propositions:
            domains[variable].add(node)
    if any(not domain for domain in domains.values()):
        return None
    return domains

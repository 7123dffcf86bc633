"""The evaluation entry points: one engine per request, chosen by the plan.

The paper's dichotomy is a table, :func:`tier`, kept here beside
:class:`Engine`: a head one fixpoint answers (:func:`fixpoint_answers`:
Boolean, or monadic over a forest-shaped body) runs **X-property
evaluation** (Theorem 3.5) on a tractable signature and **acyclic
evaluation** (the same fixpoint, which on an acyclic body is the Yannakakis
semijoin reduction) on an acyclic query graph; every other query, the cyclic
residue included, runs on the **decomposition engine**.
:func:`repro.planning.plan_query` (the one routing rule) and
``engine=Engine.AUTO`` here both read that table, which needs no document
statistics; an explicit engine runs as named, and **backtracking** runs only
so.

The paper's own k-ary procedure -- the singleton-relation reduction after
Theorem 3.5: one pinned Boolean evaluation per candidate head tuple,
``O(|A|^k . ||A|| . |Q|)`` on the tractable side -- is therefore no default.
It runs only under an explicit ``engine=`` (``xproperty`` / ``acyclic`` /
``backtracking``): the literal procedure, the independent oracle of the
property tests, and the ablation baseline of the committed benchmarks.

Every path prunes its candidate columns first, and the query fixes how
(:func:`~repro.evaluation.propagation.choose_propagator`, which each engine
calls itself): the Yannakakis semijoin sweeps on a forest-shaped body, where
they are exact, and in front of the decomposition engine on any body (its
bags enforce every atom, so supersets suffice); Theorem 3.5's pointer walk on
every other cyclic body over a tractable signature, where its verdict is
exact.  A cyclic body with no X-property order keeps the sweeps, whose
supersets only the engines that enforce every atom themselves
(decomposition, backtracking, the per-tuple reduction) can take; a fixpoint
engine forced onto it is a ``ValueError``.

Whatever the route, :func:`answer_page` is what comes out: the first ``limit``
answers in ascending order plus the exact count (:func:`evaluate` is its set).
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import Mapping, Optional

from ..decomposition import yannakakis
from ..observability import tracing
from ..queries.apq import UnionQuery, as_union
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure
from ..trees.tree import Tree
from ..xproperty.dichotomy import is_tractable
from . import backtracking, xprop_evaluator
from .compile import CompiledQuery, compile_query
from .domains import Valuation
from .propagation import (
    PropagatorLike,
    candidate_supersets,
    check_propagator,
    propagate,
)


class Engine(str, Enum):
    """Available evaluation engines."""

    AUTO = "auto"
    XPROPERTY = "xproperty"
    ACYCLIC = "acyclic"
    DECOMPOSITION = "decomposition"
    BACKTRACKING = "backtracking"
    #: The SQLite accel-table backend (:mod:`repro.backends.sqlite`): the
    #: out-of-core path.  Auto-chosen only when the document lives solely in
    #: the accel store (``plan_query(..., accel_only=True)``, which the
    #: serving layer derives from :meth:`DocumentStore.residency`); always
    #: selectable for cross-checking.
    SQL = "sql"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def fixpoint_answers(query: ConjunctiveQuery, compiled: CompiledQuery) -> bool:
    """Does one arc-consistency fixpoint answer ``query``'s head?

    It decides a Boolean head (Prop. 3.1 / Theorem 3.5) and *is* the answer
    of a monadic head over a forest-shaped body (the fixpoint is globally
    consistent there, so the head's column lists the answers).  Forest-ness
    is judged on the compiled (normalized, deduplicated) edges: distinct
    parallel constraints on one variable pair count as a cycle.
    """
    return query.is_boolean or (query.is_monadic and compiled.shadow_is_forest)


def tier(query: ConjunctiveQuery, compiled: CompiledQuery, accel_only: bool = False) -> Engine:
    """The engine the dichotomy fixes for ``query``: the table the plan reads."""
    if accel_only:
        return Engine.SQL
    if fixpoint_answers(query, compiled):
        # One fixpoint decides or is the answer: dispatch on the body's
        # complexity class.
        if is_tractable(query.signature()):
            return Engine.XPROPERTY
        if compiled.shadow_is_forest:
            return Engine.ACYCLIC
    # Every other head is enumerated over the join tree (a forest-shaped body
    # has width 1), and the cyclic residue is searched over it.
    return Engine.DECOMPOSITION


def _resolve_engine(
    engine: Engine, query: ConjunctiveQuery, compiled: Optional[CompiledQuery] = None
) -> Engine:
    """``engine``, or for ``Engine.AUTO`` the dichotomy's :func:`tier`.

    That is what :func:`repro.planning.plan_query` picks for a resident
    document: nothing about the document is priced.
    """
    if engine is not Engine.AUTO:
        return engine
    return tier(query, compiled or compile_query(query))


def _acyclic_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[str, int]] = None,
) -> bool:
    """Boolean evaluation of an *acyclic* query: the fixpoint exists iff it holds.

    On a forest-shaped body (judged on the compiled edges, as :func:`tier`
    does) arc consistency is the full semijoin reduction, complete on join
    trees (Yannakakis).  Raises ``ValueError`` on cyclic queries, for which
    this equivalence does not hold.
    """
    compiled = compile_query(query)
    if not compiled.shadow_is_forest:
        raise ValueError("the acyclic evaluator requires an acyclic query")
    return propagate(compiled, structure, pinned) is not None


def is_satisfied(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    engine: Engine = Engine.AUTO,
    pinned: Optional[Mapping[str, int]] = None,
    lowering: str = "tree",
) -> bool:
    """Boolean evaluation of (the existential closure of) a query.

    ``lowering`` only affects the SQL engine, where it picks the join-tree vs
    single-block translation; every in-memory engine ignores it.  A pinned head
    variable the body never mentions ranges over every node, so its pin
    constrains nothing and is dropped.
    """
    boolean_query = query.as_boolean()
    if pinned:
        unsafe = set(query.head).difference(boolean_query.variables())
        if unsafe:
            pinned = {v: node for v, node in pinned.items() if v not in unsafe}
    chosen = _resolve_engine(engine, boolean_query)
    if chosen is Engine.SQL:
        from ..backends.sqlite import structure_is_satisfied

        return structure_is_satisfied(boolean_query, structure, pinned=pinned, lowering=lowering)
    holds = {
        Engine.XPROPERTY: xprop_evaluator.boolean_query_holds,
        Engine.ACYCLIC: _acyclic_holds,
        Engine.DECOMPOSITION: yannakakis.boolean_query_holds,
        Engine.BACKTRACKING: backtracking.boolean_query_holds,
    }[chosen]
    return holds(boolean_query, structure, pinned=pinned)


def check_answer(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    answer: tuple[int, ...],
    engine: Engine = Engine.AUTO,
) -> bool:
    """Is ``answer`` (a tuple of nodes, one per head variable) in the result?

    Implements the singleton-relation reduction to Boolean evaluation.
    """
    if len(answer) != query.arity:
        raise ValueError(
            f"answer arity {len(answer)} does not match query arity {query.arity}"
        )
    pinned = dict(zip(query.head, answer))
    return is_satisfied(query, structure, engine, pinned)


def evaluate(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    engine: Engine = Engine.AUTO,
    compiled: Optional[CompiledQuery] = None,
    lowering: str = "tree",
    *,
    propagator: Optional[PropagatorLike] = None,
) -> frozenset[tuple[int, ...]]:
    """Compute all answers of a k-ary query: :func:`answer_page` as a set.

    Boolean queries return ``{()}`` when satisfied and the empty set otherwise.
    ``propagator`` chooses nothing: it must be what the plan records for the
    engine that runs, else ``ValueError``.
    """
    # benchmarks/e2e/layers.py still passes the plan's pick; the keyword
    # leaves with ROADMAP item 2, like QueryPlan.materialize.
    if propagator is not None:
        if compiled is None:
            compiled = compile_query(query)
        chosen = _resolve_engine(engine, query, compiled)
        check_propagator(compiled, propagator, decomposition=chosen is Engine.DECOMPOSITION)
    return frozenset(answer_page(query, structure, engine, compiled, None, lowering)[0])


def answer_page(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    engine: Engine = Engine.AUTO,
    compiled: Optional[CompiledQuery] = None,
    limit: Optional[int] = None,
    lowering: str = "tree",
) -> tuple[list[tuple[int, ...]], int]:
    """The first ``limit`` answers in ascending order, plus the exact count.

    The one thing an engine hands the serving core: rows sorted, already
    truncated, and how many there are in all.  Under the plan's engine
    (``Engine.AUTO``) every request costs **one** propagation pass: a
    monadic head over a forest-shaped body reads its answers straight off the
    arc-consistent fixpoint (globally consistent on shadow forests, so the
    head variable's sorted column *is* the answer list and ``limit`` a slice
    of it; the head roots the reducer's sweep, so its column is exact after
    the leaves-to-root sweep alone and the root-to-leaves one never runs),
    any other head is answered in wire order over the join tree
    (:func:`repro.decomposition.yannakakis.answer_page`, which prunes its own
    candidates, searches a monadic head over a cyclic body one candidate at a
    time and stops building rows at ``limit``).  The singleton-relation
    reduction -- candidate head tuples from the fixpoint (a sound
    over-approximation of the answer projection), one pinned Boolean
    evaluation each -- runs only under an explicit ``xproperty`` /
    ``acyclic`` / ``backtracking``.  It, the SQL engine on a resident document
    and Boolean heads produce a set, which is sorted here, once.

    ``compiled`` lets callers that keep compiled artifacts resident (the
    serving layer's query cache) bypass the compile-cache lookup; it must be
    the compilation of ``query``.
    """
    if query.is_boolean:
        with tracing.span("enumerate", strategy="boolean"):
            satisfied = is_satisfied(query, structure, engine, lowering=lowering)
            tracing.annotate(satisfied=satisfied)
        return ([()] if satisfied else [])[:limit], int(satisfied)

    if engine is Engine.SQL:
        from ..backends.sqlite import evaluate_structure

        with tracing.span("sql_execute", engine="sql"):
            answers = evaluate_structure(query, structure, lowering=lowering)
            tracing.annotate(answers=len(answers))
        return sorted(answers)[:limit], len(answers)
    if compiled is None:
        compiled = compile_query(query)
    chosen = _resolve_engine(engine, query, compiled)
    if chosen is Engine.DECOMPOSITION:
        return yannakakis.answer_page(query, structure, compiled=compiled, limit=limit)
    # A monadic head over a forest (Boolean heads returned above) reads its
    # answers off the reducer's columns: exact, and globally consistent there.
    # Any other head takes the per-tuple reduction over candidate supersets.
    project = fixpoint_answers(query, compiled)
    result = (propagate if project else candidate_supersets)(compiled, structure)
    if result is None:
        return [], 0
    if project:
        with tracing.span("enumerate", strategy="fixpoint_projection"):
            column = result.sorted_domain(query.head[0])
            tracing.annotate(answers=len(column))
        return list(zip(column[:limit])), len(column)
    # The singleton-relation reduction (explicit engine only).  Atoms
    # connecting two head variables can be checked in O(1) per candidate tuple
    # from the tree's rank arrays, skipping the full Boolean evaluation for
    # tuples that already violate one of them.
    head_set = set(query.head)
    head_atoms = [
        atom
        for atom in compiled.atoms
        if atom.source in head_set and atom.target in head_set
    ]
    index = structure.index
    candidate_sets = [result.sorted_domain(variable) for variable in query.head]
    answers: set[tuple[int, ...]] = set()
    with tracing.span("enumerate", strategy="candidate_product"):
        # Suppress tracing inside the loop: each Boolean-reduction check
        # would otherwise add its own propagate span per candidate tuple.
        with tracing.suppress():
            for candidate in product(*candidate_sets):
                # Head variables may repeat; a repeated variable must get one
                # node.
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
                if is_satisfied(query, structure, chosen, pinned):
                    answers.add(tuple(candidate))
        tracing.annotate(answers=len(answers))
    return sorted(answers)[:limit], len(answers)


def evaluate_union(
    union: UnionQuery | ConjunctiveQuery,
    structure: TreeStructure,
    engine: Engine = Engine.AUTO,
) -> frozenset[tuple[int, ...]]:
    """Evaluate a union of conjunctive queries (a PQ / APQ)."""
    union = as_union(union)
    answers: set[tuple[int, ...]] = set()
    for disjunct in union:
        answers.update(evaluate(disjunct, structure, engine))
    return frozenset(answers)


def evaluate_on_tree(
    query: ConjunctiveQuery | UnionQuery,
    tree: Tree,
    engine: Engine = Engine.AUTO,
) -> frozenset[tuple[int, ...]]:
    """Convenience wrapper evaluating directly on a tree (full Ax signature)."""
    structure = TreeStructure(tree)
    if isinstance(query, UnionQuery):
        return evaluate_union(query, structure, engine)
    return evaluate(query, structure, engine)


def satisfying_assignment(query: ConjunctiveQuery, structure: TreeStructure) -> Optional[Valuation]:
    """Return some satisfying valuation of the query's body (or ``None``).

    Uses the X-property walk's least valuation on tractable signatures and
    backtracking otherwise.
    """
    boolean_query = query.as_boolean()
    if is_tractable(boolean_query.signature()):
        witness = xprop_evaluator.witness(boolean_query, structure)
        if witness is not None:
            return witness
    return backtracking.find_solution(boolean_query, structure)

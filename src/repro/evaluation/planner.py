"""The evaluation entry points: one engine per request, chosen by the plan.

The paper's dichotomy is a table, :func:`tier`, kept here beside
:class:`Engine`, and it has three rows:

* **fixpoint** -- a head one arc-consistency fixpoint answers
  (:func:`fixpoint_answers`): a Boolean head over a tractable signature
  (Theorem 3.5) or a forest-shaped body (Prop. 3.1, where the fixpoint is
  the Yannakakis semijoin reduction), or a monadic head over a forest-shaped
  body, whose column the fixpoint *is*.  The engine runs one
  :func:`~repro.evaluation.propagation.propagate`, which picks Theorem 3.5's
  pointer walk on a cyclic body and the semijoin sweeps on a forest
  (:func:`~repro.evaluation.propagation.choose_propagator`);
* **decomposition** -- every other query, k-ary heads and the cyclic residue
  included: enumerated or searched over the join tree, polynomial for
  bounded width (Gottlob-Leone-Scarcello).  It prunes with the semijoin
  sweeps (its bags enforce every atom, so supersets suffice), except that a
  Boolean search first tries the label columns unswept;
* **sql** -- accel-only documents, chosen by residency in
  :func:`repro.planning.plan_query`.

:func:`repro.planning.plan_query` (the one routing rule) and
``engine=Engine.AUTO`` here both read that table, which needs no document
statistics; an explicit engine runs as named, and ``fixpoint`` forced onto a
query one fixpoint cannot answer is a ``ValueError``.  The exponential
search of :mod:`~repro.evaluation.backtracking` is no engine: it is the NP
side's search, and its :func:`~repro.evaluation.backtracking.answers` the
paper's singleton-relation reduction the benchmarks time the engines against.

Whatever the route, :func:`answer_page` is what comes out: the first ``limit``
answers in ascending order, as an :class:`~repro.trees.columnar.AnswerPage`
(one column per head variable), plus the exact count (:func:`evaluate` is
its set).
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional

from ..decomposition import yannakakis
from ..observability import tracing
from ..queries.apq import UnionQuery, as_union
from ..queries.query import ConjunctiveQuery
from ..trees.columnar import AnswerPage
from ..trees.structure import TreeStructure
from ..trees.tree import Tree
from . import backtracking, xprop_evaluator
from .compile import CompiledQuery, compile_query
from .domains import Valuation
from .propagation import PropagatorLike, check_propagator, propagate


class Engine(str, Enum):
    """Available evaluation engines."""

    AUTO = "auto"
    #: One arc-consistency fixpoint decides the query or is its answer.
    FIXPOINT = "fixpoint"
    DECOMPOSITION = "decomposition"
    #: The SQLite accel-table backend (:mod:`repro.backends.sqlite`): the
    #: out-of-core path.  Auto-chosen only when the document lives solely in
    #: the accel store (``plan_query(..., accel_only=True)``, which the
    #: serving layer derives from :meth:`DocumentStore.residency`); always
    #: selectable for cross-checking.
    SQL = "sql"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def fixpoint_answers(query: ConjunctiveQuery, compiled: CompiledQuery) -> bool:
    """Does one arc-consistency fixpoint answer ``query``?

    It decides a Boolean head whose body is forest-shaped (Prop. 3.1) or over
    a tractable signature (Theorem 3.5), and *is* the answer of a monadic
    head over a forest-shaped body (the fixpoint is globally consistent
    there, so the head's column lists the answers).  Both are judged on the
    compiled (normalized, deduplicated) edges: distinct parallel constraints
    on one variable pair count as a cycle.
    """
    if compiled.shadow_is_forest:
        return query.is_boolean or query.is_monadic
    return query.is_boolean and compiled.order is not None


def tier(query: ConjunctiveQuery, compiled: CompiledQuery, accel_only: bool = False) -> Engine:
    """The engine the dichotomy fixes for ``query``: the table the plan reads."""
    if accel_only:
        return Engine.SQL
    if fixpoint_answers(query, compiled):
        return Engine.FIXPOINT
    # Every other head is enumerated over the join tree (a forest-shaped body
    # has width 1), and the cyclic residue is searched over it.
    return Engine.DECOMPOSITION


def resolve_engine(engine: Engine, query: ConjunctiveQuery, compiled: CompiledQuery) -> Engine:
    """``engine``, or for ``Engine.AUTO`` the dichotomy's :func:`tier`.

    That is what :func:`repro.planning.plan_query` picks for a resident
    document: nothing about the document is priced.  ``fixpoint`` forced
    onto a query one fixpoint cannot answer raises ``ValueError``, here and
    so already when it is planned (or explained).
    """
    if engine is Engine.AUTO:
        return tier(query, compiled)
    if engine is Engine.FIXPOINT and not fixpoint_answers(query, compiled):
        raise ValueError(
            "one fixpoint cannot answer this query (a k-ary head, a monadic head "
            "over a cyclic body, or a cyclic body with no X-property order); "
            "use the decomposition engine"
        )
    return engine


def is_satisfied(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    engine: Engine = Engine.AUTO,
    pinned: Optional[Mapping[str, int]] = None,
    lowering: str = "tree",
    compiled: Optional[CompiledQuery] = None,
) -> bool:
    """Boolean evaluation of (the existential closure of) a query.

    ``lowering`` only affects the SQL engine, where it picks the join-tree vs
    single-block translation; every in-memory engine ignores it.  A pinned head
    variable the body never mentions ranges over every node, so its pin
    constrains nothing and is dropped.  ``compiled`` is used only when
    ``query`` is Boolean (it must be its compilation).
    """
    if query.is_boolean:
        boolean_query = query
    else:
        boolean_query, compiled = query.as_boolean(), None
    if pinned:
        unsafe = set(query.head).difference(boolean_query.variables())
        if unsafe:
            pinned = {v: node for v, node in pinned.items() if v not in unsafe}
    if compiled is None:
        compiled = compile_query(boolean_query)
    chosen = resolve_engine(engine, boolean_query, compiled)
    if chosen is Engine.SQL:
        from ..backends.sqlite import structure_is_satisfied

        return structure_is_satisfied(boolean_query, structure, pinned=pinned, lowering=lowering)
    if chosen is Engine.DECOMPOSITION:
        return yannakakis.boolean_query_holds(
            boolean_query, structure, pinned=pinned, compiled=compiled
        )
    return propagate(compiled, structure, pinned) is not None


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
        chosen = resolve_engine(engine, query, compiled)
        check_propagator(compiled, propagator, decomposition=chosen is Engine.DECOMPOSITION)
    return frozenset(answer_page(query, structure, engine, compiled, None, lowering)[0])


def answer_page(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    engine: Engine = Engine.AUTO,
    compiled: Optional[CompiledQuery] = None,
    limit: Optional[int] = None,
    lowering: str = "tree",
) -> tuple[AnswerPage, int]:
    """The first ``limit`` answers in ascending order, plus the exact count.

    The one thing an engine hands the serving core: rows sorted, already
    truncated, and how many there are in all -- as columns, one per head
    variable, which no route zips into rows.  Under the plan's engine
    (``Engine.AUTO``) every request costs **one** propagation pass: a
    monadic head over a forest-shaped body reads its answers straight off the
    arc-consistent fixpoint (globally consistent on shadow forests, so the
    head variable's sorted column *is* the answer list and ``limit`` a slice
    of it; the head roots the reducer's sweep, so its column is exact after
    the leaves-to-root sweep alone and the root-to-leaves one never runs),
    any other head is answered in wire order over the join tree
    (:func:`repro.decomposition.yannakakis.answer_page`, which prunes its own
    candidates, searches a monadic head over a cyclic body one candidate at a
    time and stops building rows at ``limit``).  The SQL engine on a resident
    document produces a set, which is sorted and transposed here, once; a
    Boolean head's page has no column, only its 0 or 1 rows.

    ``compiled`` lets callers that keep compiled artifacts resident (the
    serving layer's query cache) bypass the compile-cache lookup; it must be
    the compilation of ``query``.
    """
    if query.is_boolean:
        with tracing.span("enumerate", strategy="boolean"):
            satisfied = is_satisfied(query, structure, engine, lowering=lowering, compiled=compiled)
            tracing.annotate(satisfied=satisfied)
        rows = int(satisfied) if limit is None else min(int(satisfied), limit)
        return AnswerPage((), rows), int(satisfied)

    if engine is Engine.SQL:
        from ..backends.sqlite import evaluate_structure

        with tracing.span("sql_execute", engine="sql"):
            answers = evaluate_structure(query, structure, lowering=lowering)
            tracing.annotate(answers=len(answers))
        return AnswerPage.from_rows(sorted(answers)[:limit], query.arity), len(answers)
    if compiled is None:
        compiled = compile_query(query)
    chosen = resolve_engine(engine, query, compiled)
    if chosen is Engine.DECOMPOSITION:
        return yannakakis.answer_page(query, structure, compiled=compiled, limit=limit)
    # Engine.FIXPOINT on a monadic head over a forest (Boolean heads returned
    # above) reads its answers off the reducer's columns: exact, and globally
    # consistent there.
    result = propagate(compiled, structure)
    if result is None:
        return AnswerPage([[]]), 0
    with tracing.span("enumerate", strategy="fixpoint_projection"):
        column = result.sorted_domain(query.head[0])
        tracing.annotate(answers=len(column))
    if limit is not None and limit < len(column):
        return AnswerPage([column[:limit]]), len(column)
    return AnswerPage([column]), len(column)


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
    if compile_query(boolean_query).order is not None:
        witness = xprop_evaluator.witness(boolean_query, structure)
        if witness is not None:
            return witness
    return backtracking.find_solution(boolean_query, structure)

"""SQLite accel-table backend: out-of-core evaluation over interval columns.

The same pre/post-order interval encoding that powers the in-memory engines
(descendants of ``u`` are exactly the pre-order range ``(u, subtree_end(u)]``;
``Following(u, v)`` iff ``v > subtree_end(u)``) externalises directly to a
relational accel table::

    accel(doc, id, pre_order, post_order, parent, depth,
          subtree_end, sibling_index)      -- + index accel_parent(doc, parent)
    label(doc, node, name)                 -- primary key (doc, name, node)
    documents(doc, nodes, registered_at)

Every forward axis becomes a constant-size SQL predicate over two aliases
(compilation rewrites inverse axes away).  **Labels are the access path, not
a filter**: the ``label`` primary key *is* the sorted label column the
in-memory engines start from, so a labelled variable's rows come from a range
scan of it and an interval atom towards a labelled endpoint is the bisection
window ``l.node > s.id AND l.node <= s.subtree_end`` -- the work is bounded
by the label relations, never by the document (:meth:`_TreeLowering._bind`
holds the rule).  Two lowerings share that vocabulary and that rule:

* ``lowering="tree"`` (the default) -- **join-tree lowering**: the query's
  join tree (``CompiledQuery.decomposition``, rooted at the head by
  ``decompose``: the tree the in-memory decomposition engine runs) is printed
  as one plain CTE per bag, defined children-first so every bag CTE embeds
  the bottom-up semijoin (``EXISTS``/``IN`` pushdown onto its children's
  CTEs) -- the SQL mirror of the Yannakakis reduction.  Witness-only
  variables are never joined: their order-statistic atoms (``Following``,
  ``DocumentOrder``, ``NextSibling+``/``*``) lower to comparisons against
  aggregates of the witness relation -- the SQL mirror of AC-4's
  ``_GlobalThreshold`` / ``_SiblingThreshold`` trackers -- a labelled
  ancestor to a semijoin driven from its label range, and the rest to
  correlated first-witness ``EXISTS`` probes.  The final statement joins only
  the bags on the head variables' root paths, so a monadic chain never
  materialises a quadratic intermediate.
* ``lowering="flat"`` -- the original one-big-join lowering, kept as the
  ablation and cross-check path.

Answers can be **streamed**: :meth:`SQLiteBackend.stream_answers` orders the
head columns ascending in SQL, pushes ``LIMIT`` down after the ``ORDER BY``,
and iterates a server-side cursor in ``fetchmany`` batches, so peak Python
memory is bounded by the batch size; :meth:`SQLiteBackend.page_answers`
returns a truncated page and the exact total from one statement.
:meth:`SQLiteBackend.ensure_document` materialises a tree into a file-backed
database once and every later session reopens it without re-parsing.

Answers are byte-identical to the in-memory planner on every query and under
both lowerings -- ``tests/test_backend_equivalence.py`` and
``tests/test_sqlite_lowering.py`` pin them against each other, and the CI
``backend-equivalence`` job runs both on every push.  The planner exposes
this backend as ``Engine.SQL``; the serving layer auto-routes to it when a
document is registered *accel-only*.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Iterable, Iterator, Mapping, Optional
from weakref import WeakKeyDictionary

from ..observability import tracing
from ..observability.metrics import DEFAULT_SIZE_BUCKETS, REGISTRY
from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis
from ..trees.structure import TreeStructure
from ..trees.tree import Tree

Row = tuple[int, ...]

SQL_ROWS_STREAMED = REGISTRY.counter(
    "cqtrees_sql_rows_streamed_total",
    "Answer rows streamed out of the SQLite accel backend.",
)
#: Approximate: SQLite answer columns are 64-bit node ids, so bytes are
#: estimated as 8 per fetched value -- a traffic-shape signal, not an exact
#: wire accounting.
SQL_BYTES_FETCHED = REGISTRY.counter(
    "cqtrees_sql_bytes_fetched_total",
    "Approximate bytes fetched from the SQLite accel backend (8 per value).",
)
SQL_STREAM_ROWS = REGISTRY.histogram(
    "cqtrees_sql_stream_rows",
    "Rows streamed per stream_answers call.",
    buckets=DEFAULT_SIZE_BUCKETS,
)

#: Axis -> SQL predicate template over a source ``{s}`` and a target ``{t}``
#: (accel aliases) with id expressions ``{si}`` / ``{ti}``.  ``id`` *is* the
#: pre-order rank, so the interval axes are pure range comparisons; the local
#: axes use the parent / sibling_index columns.  A side whose alias never
#: appears (only its id does) reads no rank column: its rows can come from the
#: label index alone.  Inverse axes never reach the lowering -- compilation
#: rewrites them to these ten with the endpoints swapped.
_AXIS_SQL: dict[Axis, str] = {
    Axis.CHILD: "{t}.parent = {si}",
    Axis.CHILD_PLUS: "{ti} > {si} AND {ti} <= {s}.subtree_end",
    Axis.CHILD_STAR: "{ti} >= {si} AND {ti} <= {s}.subtree_end",
    Axis.NEXT_SIBLING: "{t}.parent = {s}.parent AND {t}.sibling_index = {s}.sibling_index + 1",
    Axis.NEXT_SIBLING_PLUS: "{t}.parent = {s}.parent AND {t}.sibling_index > {s}.sibling_index",
    Axis.NEXT_SIBLING_STAR: "{t}.parent = {s}.parent AND {t}.sibling_index >= {s}.sibling_index",
    Axis.FOLLOWING: "{ti} > {s}.subtree_end",
    Axis.DOCUMENT_ORDER: "{ti} > {si}",
    Axis.SUCC_PRE: "{ti} = {si} + 1",
    Axis.SELF: "{ti} = {si}",
}

#: How an atom's far endpoint is reached from its bound near one -- the SQL
#: mirror of the bag materializer's point / walk / range rule
#: (``decomposition/yannakakis.py``).  Cheaper classes are joined first, and a
#: variable reached by a point or a walk rides the accel indexes with its
#: label as a point check instead of starting from the label index.
_POINT, _WALK, _WINDOW, _PREFIX, _UNREACHED = range(5)
_POINT_AXES = frozenset({Axis.SUCC_PRE, Axis.SELF})
_WALK_AXES = frozenset(
    {Axis.CHILD, Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR}
)


def _reach(axis: Axis, forward: bool) -> int:
    """Cost class of reaching the target (``forward``) or the source of ``axis``."""
    if axis in _POINT_AXES or (axis is Axis.CHILD and not forward):
        return _POINT  # at most one node: a primary-key seek
    if axis in _WALK_AXES:
        return _WALK  # children / siblings: one accel_parent range
    if forward or axis is Axis.DOCUMENT_ORDER:
        return _WINDOW  # one pre-order window: a label (or accel) range scan
    return _PREFIX  # ancestors / preceding: a prefix plus a residual check


#: Above this many members an extra-unary relation is staged into a temp
#: table instead of an ``IN (?, ?, ...)`` list (SQLite caps bound variables).
_IN_LIST_LIMIT = 500

#: Default rows per ``fetchmany`` batch when streaming answers.
STREAM_BATCH_SIZE = 1024

#: Witness-only endpoints of these axes compare against a *global* extremum
#: of the witness relation (``Following``: ``max id`` / ``min subtree_end``;
#: ``DocumentOrder``: ``max``/``min id``) instead of a range join.
_GLOBAL_THRESHOLD_AXES = frozenset({Axis.FOLLOWING, Axis.DOCUMENT_ORDER})

#: Witness-only endpoints of these axes compare against *per-parent* sibling
#: extrema, computed by a window function over the witness relation.
_SIBLING_THRESHOLD_AXES = frozenset({Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR})

#: Window functions arrived in SQLite 3.25; older libraries fall back to the
#: correlated-EXISTS formulation (same answers, no window CTE).
_HAS_WINDOW_FUNCTIONS = sqlite3.sqlite_version_info >= (3, 25, 0)

#: Recognised values for the ``lowering=`` knobs.
LOWERINGS = ("tree", "flat")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    doc            TEXT PRIMARY KEY,
    nodes          INTEGER NOT NULL,
    registered_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS accel (
    doc            TEXT NOT NULL,
    id             INTEGER NOT NULL,
    pre_order      INTEGER NOT NULL,
    post_order     INTEGER NOT NULL,
    parent         INTEGER NOT NULL,
    depth          INTEGER NOT NULL,
    subtree_end    INTEGER NOT NULL,
    sibling_index  INTEGER NOT NULL,
    PRIMARY KEY (doc, id)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS accel_parent ON accel (doc, parent);
CREATE TABLE IF NOT EXISTS label (
    doc   TEXT NOT NULL,
    node  INTEGER NOT NULL,
    name  TEXT NOT NULL,
    PRIMARY KEY (doc, name, node)
) WITHOUT ROWID;
"""


class _TreeLowering:
    """Builds the join-tree (or flat) SQL for one query against one document.

    The compiled decomposition's bags become CTEs ``bag_i`` emitted
    children-first along the join tree exactly as ``decompose`` rooted it (at
    the head bags, so an acyclic tail reduces bottom-up to semijoins; the tree
    is reduced, so no bag CTE materializes a bare separator).  Each ``bag_i``
    selects the bag's *keep* columns -- the separator to its parent, the
    separators to children whose subtrees contain head variables, and the
    bag's own head variables -- with the bottom-up Yannakakis semijoin
    folded in as ``IN``/``EXISTS`` conditions over the children's CTEs.
    Everything else in the bag is witness-only and is never joined
    (:meth:`_witness_condition`).

    **Row sources** (:meth:`_bind`, shared by bags, witnesses and the flat
    join).  (1) A labelled variable's rows come from the label index --
    ``label l CROSS JOIN accel v``, or ``l.node`` alone when no rank column of
    ``v`` is read; further labels, extra-unary relations, pins and loops are
    residual filters.  (2) An interval atom towards a labelled endpoint is a
    range scan of that label.  (3) A variable reached over a local axis
    (``Child``, siblings) rides ``accel_parent`` / the accel primary key with
    its label as a point check.  Three measured traps shape the SQL text:

    * a plain ``JOIN`` is not enough -- on default statistics SQLite puts
      ``accel`` outermost again (and prefers ``doc = ?`` on the primary key
      to ``accel_parent``), so join order and the walk index are pinned with
      ``CROSS JOIN`` / ``INDEXED BY``; no plan depends on ``ANALYZE``;
    * label-first *inside a correlated local-axis probe* rescans the label
      once per outer row (94-218 ms for a ``Child`` witness at 10k nodes) --
      hence rule 3;
    * a child-bag ``IN (SELECT c FROM bag_k)`` on a walked variable becomes
      the index driver (one probe per bag member per outer row) unless it is
      shielded as ``+w.id IN (...)``.

    Parameter ordering: SQLite binds ``?`` placeholders left-to-right over
    the *whole* statement (CTE bodies included), so every fragment collects
    its parameters in a local list that is appended to :attr:`params` at the
    moment the fragment's text is appended to :attr:`ctes`.
    """

    def __init__(
        self,
        backend: "SQLiteBackend",
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]],
        extra_unary: Mapping[str, frozenset[int]],
    ):
        from ..evaluation.compile import compile_query

        self.backend = backend
        self.doc_id = doc_id
        self.query = query
        self.compiled = compile_query(query)
        self.vix = self.compiled.variable_index
        self.pinned = {v: node for v, node in (pinned or {}).items() if v in self.vix}
        self.extra_unary = extra_unary
        # The labels whose rows live in the label table, per variable: the
        # first is a row source candidate, the rest are point checks.
        labels_of = self.compiled.labels_by_variable
        self.stored_labels = {
            v: [name for name in labels_of.get(v, ()) if name not in extra_unary]
            for v in self.compiled.variables
        }
        self.params: list = []
        self.temp_tables: list[str] = []
        self.ctes: list[str] = []
        self._sibling_counter = 0
        self.loops_by_variable: dict[Variable, list] = {}
        for loop in self.compiled.loops:
            self.loops_by_variable.setdefault(loop.source, []).append(loop)

    # -- row sources -------------------------------------------------------------

    def _reads_rank(self, variable: Variable, atoms: Iterable) -> bool:
        """Whether any atom reads a column of ``variable`` other than its id."""
        return any(
            (atom.source == variable and "{s}." in _AXIS_SQL[atom.axis])
            or (atom.target == variable and "{t}." in _AXIS_SQL[atom.axis])
            for atom in (*atoms, *self.loops_by_variable.get(variable, ()))
        )

    @staticmethod
    def _atom_condition(atom, names: Mapping[Variable, tuple[str, str]]) -> str:
        (s, si), (t, ti) = names[atom.source], names[atom.target]
        return "(" + _AXIS_SQL[atom.axis].format(s=s, si=si, t=t, ti=ti) + ")"

    def _bind(
        self,
        variables: Iterable[Variable],
        atoms: list,
        names: dict[Variable, tuple[str, str]],
        prefix: str,
        params: list,
        refining: Mapping[Variable, list[int]],
    ) -> tuple[str, list[str]]:
        """Row sources for ``variables``, joined in a pinned order after ``names``.

        ``names`` is the scope -- ``variable -> (accel alias, id expression)``
        of everything already bound (the outer query of a correlated probe)
        -- and is extended with the new variables.  Returns the ``CROSS JOIN``
        chain plus, in lockstep with ``params``, each variable's document,
        label, extra-unary, pin, child-bag (``refining``) and self-loop
        filters and every atom of ``atoms`` whose endpoints are both bound;
        atoms with an endpoint outside the scope only count as column readers.

        Variables are placed cheapest-reach-first: pins, then points, walks,
        windows; labelled before unlabelled; ties towards the variable whose
        neighbours are cheapest to reach from it.  A labelled variable reached
        by a window (or by nothing) starts from the label primary key; one
        reached by a point or a walk stays on ``accel`` (class docstring).
        """
        vix = self.vix
        pending = sorted(variables, key=vix.__getitem__)
        sources: list[str] = []
        conditions: list[str] = []

        def reach(variable: Variable, others, outward: bool) -> int:
            costs = [
                _reach(atom.axis, (atom.source == variable) == outward)
                for atom in atoms
                if variable in (atom.source, atom.target) and atom.other(variable) in others
            ]
            if not costs:
                return _POINT if outward else _UNREACHED
            return max(costs) if outward else min(costs)

        while pending:
            variable = min(
                pending,
                key=lambda v: (
                    v not in self.pinned,
                    reach(v, names, False),
                    not self.stored_labels[v],
                    reach(v, pending, True),
                    vix[v],
                ),
            )
            pending.remove(variable)
            reached = reach(variable, names, False)
            local = reached <= _WALK
            alias = f"{prefix}{vix[variable]}"
            labels = self.stored_labels[variable]
            if labels and not local:
                ident = f"l{alias}.node"
                sources.append(f"label l{alias}")
                conditions.append(f"l{alias}.doc = ? AND l{alias}.name = ?")
                params.extend((self.doc_id, labels[0]))
                labels = labels[1:]
                if self._reads_rank(variable, atoms):
                    sources.append(f"accel {alias}")
                    conditions.append(f"{alias}.doc = ? AND {alias}.id = {ident}")
                    params.append(self.doc_id)
            else:
                # A walk constrains ``parent``.  Pin its index: on default
                # statistics SQLite rates ``doc = ?`` on the primary key
                # cheaper whenever accel_parent does not cover the columns read.
                ident = f"{alias}.id"
                sources.append(
                    f"accel {alias}" + (" INDEXED BY accel_parent" if reached == _WALK else "")
                )
                conditions.append(f"{alias}.doc = ?")
                params.append(self.doc_id)
            names[variable] = (alias, ident)
            for label in labels:
                conditions.append(
                    f"EXISTS (SELECT 1 FROM label WHERE doc = ? AND name = ? AND node = {ident})"
                )
                params.extend((self.doc_id, label))
            for label in self.compiled.labels_by_variable.get(variable, ()):
                if label in self.extra_unary:
                    conditions.append(
                        self.backend._unary_condition(
                            ident, self.extra_unary[label], params, self.temp_tables
                        )
                    )
            if variable in self.pinned:
                conditions.append(f"{ident} = ?")
                params.append(self.pinned[variable])
            member = f"+{ident}" if local else ident
            conditions.extend(
                f"{member} IN (SELECT c{vix[variable]} FROM bag_{child})"
                for child in refining.get(variable, ())
            )
            conditions.extend(
                self._atom_condition(atom, names)
                for atom in (*atoms, *self.loops_by_variable.get(variable, ()))
                if variable in (atom.source, atom.target) and atom.other(variable) in names
            )
        return " CROSS JOIN ".join(sources), conditions

    # -- witness-only variables ------------------------------------------------

    def _witness_condition(
        self,
        variable: Variable,
        atoms: list,
        names: Mapping[Variable, tuple[str, str]],
        refining: Mapping[Variable, list[int]],
        params: list,
    ) -> str:
        """Eliminate a witness-only variable from its bag.

        ``refining[variable]`` are the child bags whose separator is exactly
        ``(variable,)``: their already-reduced CTEs narrow the witness
        relation (the bottom-up semijoin applied *before* the aggregate, so a
        threshold never counts a witness the subtree below has refuted).
        """
        refining = {variable: refining.get(variable, ())}
        scope: dict[Variable, tuple[str, str]] = {}
        single = atoms[0] if len(atoms) == 1 else None
        sibling = (
            single is not None and single.axis in _SIBLING_THRESHOLD_AXES and _HAS_WINDOW_FUNCTIONS
        )
        if sibling:
            params = []  # bound where the window CTE is defined, not in this bag
        if sibling or (single is not None and single.axis in _GLOBAL_THRESHOLD_AXES):
            # Uncorrelated: one aggregate over the witness relation, which is
            # the variable's label range when it has a label.
            dropped_is_target = single.target == variable
            other, other_id = names[single.source if dropped_is_target else single.target]
            sources, conditions = self._bind([variable], atoms, scope, "w", params, refining)
            walias, wid = scope[variable]
            relation = f"FROM {sources} WHERE {' AND '.join(conditions)}"
            if not sibling:
                following = single.axis is Axis.FOLLOWING
                if dropped_is_target:
                    # exists t: t.id > s.subtree_end  <=>  s.subtree_end < max(t.id)
                    bound = f"{other}.subtree_end" if following else other_id
                    return f"{bound} < (SELECT MAX({wid}) {relation})"
                # exists s: t.id > s.subtree_end  <=>  t.id > min(s.subtree_end)
                bound = f"{walias}.subtree_end" if following else wid
                return f"{other_id} > (SELECT MIN({bound}) {relation})"
            self._sibling_counter += 1
            name = f"sib_{self._sibling_counter}"
            aggregate = "MAX" if dropped_is_target else "MIN"
            body = (
                f"SELECT DISTINCT {walias}.parent AS parent, "
                f"{aggregate}({walias}.sibling_index) "
                f"OVER (PARTITION BY {walias}.parent) AS si {relation}"
            )
            self.ctes.append(f"{name} AS ({body})")
            self.params.extend(params)
            strict = single.axis is Axis.NEXT_SIBLING_PLUS
            operator = (">" if strict else ">=") if dropped_is_target else ("<" if strict else "<=")
            return (
                f"EXISTS (SELECT 1 FROM {name} WHERE {name}.parent = {other}.parent "
                f"AND {name}.si {operator} {other}.sibling_index)"
            )
        if (
            single is not None
            and _reach(single.axis, single.target == variable) == _PREFIX
            and self.stored_labels[variable]
        ):
            # A labelled ancestor-side witness: a correlated probe would scan
            # the ancestor label's prefix once per outer row.  Decorrelate it
            # into a semijoin driven from the ancestor's label range -- one
            # window scan of the descendant side per ancestor.
            inner = single.target
            sources, conditions = self._bind([variable, inner], atoms, scope, "s", params, refining)
            return (
                f"{names[inner][1]} IN (SELECT {scope[inner][1]} FROM {sources} "
                f"WHERE {' AND '.join(conditions)})"
            )
        # Generic first-witness probe: one EXISTS over all of the variable's
        # in-bag atoms (they share the single witness).
        scope.update(names)
        sources, conditions = self._bind([variable], atoms, scope, "w", params, refining)
        return f"EXISTS (SELECT 1 FROM {sources} WHERE {' AND '.join(conditions)})"

    # -- bag CTEs --------------------------------------------------------------

    def _emit_bag(
        self,
        index: int,
        atoms: list,
        keep: list[Variable],
        separators: list[tuple[Variable, ...]],
    ) -> None:
        vix = self.vix
        bag = self.bags[index]
        keep_set = set(keep)

        # Children semijoin into this bag on their separators.  Single-variable
        # separators refine that variable's rows directly (and can be folded
        # into a witness-only variable's relation); wider or empty separators
        # become EXISTS conditions over retained aliases.
        refining: dict[Variable, list[int]] = {}
        blocked: set[Variable] = set()
        exists_children: list[tuple[int, tuple[Variable, ...]]] = []
        for child in self.children[index]:
            separator = separators[child]
            if len(separator) == 1:
                refining.setdefault(separator[0], []).append(child)
            else:
                blocked.update(separator)
                exists_children.append((child, separator))

        droppable = {v for v in bag if v not in keep_set and v not in blocked}
        # An atom between two witness-only variables shares its witness pair;
        # retain one endpoint so every eliminated variable's atoms connect it
        # to joined aliases only.
        for atom in atoms:
            if atom.source in droppable and atom.target in droppable:
                droppable.discard(max(atom.source, atom.target, key=vix.__getitem__))

        names: dict[Variable, tuple[str, str]] = {}
        params: list = []
        from_clause, conditions = self._bind(
            (v for v in bag if v not in droppable), atoms, names, "v", params, refining
        )
        for child, separator in exists_children:
            child_name = f"bag_{child}"
            equalities = " AND ".join(f"{child_name}.c{vix[v]} = {names[v][1]}" for v in separator)
            conditions.append(f"EXISTS (SELECT 1 FROM {child_name} WHERE {equalities or 1})")
        for variable in sorted(droppable, key=vix.__getitem__):
            # A variable with no atom in the bag only has to exist: the
            # generic probe over no atoms.
            own = [atom for atom in atoms if variable in (atom.source, atom.target)]
            conditions.append(self._witness_condition(variable, own, names, refining, params))

        where = " AND ".join(conditions)  # never empty: every variable contributes
        if from_clause:
            from_clause = " FROM " + from_clause
        if keep:
            columns = ", ".join(f"{names[v][1]} AS c{vix[v]}" for v in keep)
            body = f"SELECT DISTINCT {columns}{from_clause} WHERE {where}"
        else:
            # Witness-only bag (a headless component): one row iff satisfiable.
            body = f"SELECT 1 AS ok{from_clause} WHERE {where} LIMIT 1"
        self.ctes.append(f"bag_{index} AS ({body})")
        self.params.extend(params)

    # -- whole statements ------------------------------------------------------

    def lower_flat(self, boolean: bool) -> tuple[str, list, list[str]]:
        """The one-big-join ablation: every variable joined, sourced by :meth:`_bind`."""
        names: dict[Variable, tuple[str, str]] = {}
        sources, conditions = self._bind(
            self.compiled.variables, list(self.compiled.edges), names, "a", self.params, {}
        )
        relation = f"FROM {sources} WHERE {' AND '.join(conditions)}"
        if boolean or not self.query.head:
            sql = f"SELECT 1 {relation} LIMIT 1"
        else:
            columns = ", ".join(names[v][1] for v in self.query.head)
            sql = f"SELECT DISTINCT {columns} {relation}"
        return sql, self.params, self.temp_tables

    def lower(self, boolean: bool) -> tuple[str, list, list[str]]:
        decomposition = self.compiled.decomposition
        self.bags, self.children = decomposition.bags, decomposition.children()
        bags, parent, roots = self.bags, decomposition.parent, decomposition.roots
        count, vix = len(bags), self.vix
        head = () if boolean else self.query.head
        head_set = set(head)

        # Each atom lives in the lowest-index reduced bag covering its endpoints.
        bag_atoms: list[list] = [[] for _ in range(count)]
        for atom in self.compiled.edges:
            pair = {atom.source, atom.target}
            bag_atoms[next(i for i, bag in enumerate(bags) if pair <= bag)].append(atom)

        separators: list[tuple[Variable, ...]] = [
            tuple(sorted(bags[i] & bags[parent[i]], key=vix.__getitem__)) if parent[i] >= 0 else ()
            for i in range(count)
        ]

        # Parents-first order of the tree; reversed it is the children-first
        # CTE emission order (a CTE may only reference CTEs defined before it,
        # and each bag references its children's).
        top_down: list[int] = []
        stack = list(roots)
        while stack:
            bag_index = stack.pop()
            top_down.append(bag_index)
            stack.extend(self.children[bag_index])

        subtree_has_head = [bool(bags[index] & head_set) for index in range(count)]
        for index in reversed(top_down):
            if subtree_has_head[index] and parent[index] >= 0:
                subtree_has_head[parent[index]] = True

        keep: list[list[Variable]] = []
        for index in range(count):
            keep_set = (bags[index] & head_set) | set(separators[index])
            for child in self.children[index]:
                if subtree_has_head[child]:
                    keep_set |= set(separators[child])
            keep.append(sorted(keep_set, key=vix.__getitem__))

        for index in reversed(top_down):
            self._emit_bag(index, bag_atoms[index], keep[index], separators)

        if not head:
            conditions = " AND ".join(f"EXISTS (SELECT 1 FROM bag_{root})" for root in roots)
            final = f"SELECT 1 WHERE {conditions} LIMIT 1"
        else:
            # The final join touches only the head bags and their root paths;
            # every other subtree is already folded in by the semijoins.
            kept_order = [index for index in range(count) if subtree_has_head[index]]
            conditions = [
                f"bag_{index}.c{vix[v]} = bag_{parent[index]}.c{vix[v]}"
                for index in kept_order
                for v in separators[index]
            ]
            conditions.extend(
                f"EXISTS (SELECT 1 FROM bag_{root})"
                for root in roots
                if not subtree_has_head[root]
            )
            home = {v: min(i for i in kept_order if v in keep[i]) for v in head_set}
            columns = ", ".join(f"bag_{home[v]}.c{vix[v]}" for v in head)
            from_clause = ", ".join(f"bag_{index}" for index in kept_order)
            where = " AND ".join(conditions) or "1"
            final = f"SELECT DISTINCT {columns} FROM {from_clause} WHERE {where}"
        prelude = "WITH " + ",\n     ".join(self.ctes) + "\n" if self.ctes else ""
        return prelude + final, self.params, self.temp_tables


def _head_order(query: ConjunctiveQuery) -> str:
    """``ORDER BY`` positions of the head columns: Python's tuple order."""
    return ", ".join(str(k + 1) for k in range(len(query.head)))


class SQLiteBackend:
    """Accel-table document store plus conjunctive-query evaluator.

    ``path=":memory:"`` (the default) keeps the database in RAM -- the
    cross-check configuration; a file path gives the out-of-core
    configuration, where registered documents persist across processes.  One
    connection is shared and serialised behind a lock, so a backend instance
    is safe to use from the serving layer's worker threads.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._connection = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        self._temp_counter = 0
        with self._lock:
            self._connection.executescript(_SCHEMA)
            self._connection.commit()

    # -- document registration -------------------------------------------------

    def register_tree(self, doc_id: str, tree: Tree) -> None:
        """Materialise ``tree``'s accel columns under ``doc_id`` (replacing)."""
        n = len(tree)
        subtree_end = tree.subtree_end
        accel_rows = (
            (
                doc_id,
                node_id,
                node_id,  # pre_order: node ids ARE pre-order ranks
                tree.post[node_id],
                tree.parent[node_id],
                tree.depth[node_id],
                subtree_end[node_id],
                tree.sibling_index[node_id],
            )
            for node_id in range(n)
        )
        label_rows = (
            (doc_id, node_id, name)
            for node_id in range(n)
            for name in tree.labels_of[node_id]
        )
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("DELETE FROM accel WHERE doc = ?", (doc_id,))
            cursor.execute("DELETE FROM label WHERE doc = ?", (doc_id,))
            cursor.executemany(
                "INSERT INTO accel VALUES (?, ?, ?, ?, ?, ?, ?, ?)", accel_rows
            )
            cursor.executemany("INSERT INTO label VALUES (?, ?, ?)", label_rows)
            cursor.execute(
                "INSERT OR REPLACE INTO documents VALUES (?, ?, ?)",
                (doc_id, n, time.time()),
            )
            self._connection.commit()

    def ensure_document(self, doc_id: str, tree: Tree) -> bool:
        """Register ``tree`` unless ``doc_id`` is already materialised.

        Returns ``True`` when the document was (re)materialised, ``False``
        when the existing accel rows were reused -- the out-of-core fast path
        for file-backed databases surviving across sessions.
        """
        if self.document_nodes(doc_id) == len(tree):
            return False
        self.register_tree(doc_id, tree)
        return True

    def has_document(self, doc_id: str) -> bool:
        return self.document_nodes(doc_id) is not None

    def document_nodes(self, doc_id: str) -> Optional[int]:
        """Node count of a registered document, or ``None``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT nodes FROM documents WHERE doc = ?", (doc_id,)
            ).fetchone()
        return None if row is None else row[0]

    def document_label_count(self, doc_id: str) -> int:
        """Distinct label names of a registered document."""
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(DISTINCT name) FROM label WHERE doc = ?", (doc_id,)
            ).fetchone()
        return count

    def document_ids(self) -> list[str]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT doc FROM documents ORDER BY doc"
            ).fetchall()
        return [doc for (doc,) in rows]

    # -- query lowering --------------------------------------------------------

    def _lower(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]],
        extra_unary: Mapping[str, frozenset[int]],
        boolean: bool,
        lowering: str,
    ) -> tuple[str, list, list[str]]:
        """Compile the query to ``(sql, parameters, temp_tables)``.

        The caller drops the temp tables (staged extra-unary relations) after
        fetching.
        """
        if lowering not in LOWERINGS:
            raise ValueError(f"unknown lowering {lowering!r} (expected one of {LOWERINGS})")
        plan = _TreeLowering(self, doc_id, query, pinned, extra_unary)
        return plan.lower_flat(boolean) if lowering == "flat" else plan.lower(boolean)

    def _unary_condition(
        self,
        column: str,
        members: frozenset[int],
        params: list,
        temp_tables: list[str],
    ) -> str:
        """Membership test against an extra-unary relation.

        Small relations (the singleton pins of the k-ary reduction) inline as
        an ``IN`` list; large ones stage into a temp table to stay clear of
        SQLite's bound-variable cap.
        """
        if not members:
            return "0"
        if len(members) <= _IN_LIST_LIMIT:
            params.extend(sorted(members))
            return f"{column} IN ({', '.join('?' * len(members))})"
        self._temp_counter += 1
        name = f"tmp_unary_{self._temp_counter}"
        cursor = self._connection.cursor()
        cursor.execute(f"CREATE TEMP TABLE {name} (node INTEGER PRIMARY KEY)")
        cursor.executemany(
            f"INSERT INTO {name} VALUES (?)", ((node,) for node in sorted(members))
        )
        temp_tables.append(name)
        return f"{column} IN (SELECT node FROM {name})"

    # -- evaluation ------------------------------------------------------------

    def _fetch(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]],
        extra_unary: Optional[Mapping[str, frozenset[int]]],
        lowering: str,
        boolean: bool = False,
        wrap: str = "{}",
    ) -> list:
        """Lower, run ``wrap`` around the statement, fetch all, drop temp tables."""
        with self._lock:
            sql, params, temp_tables = self._lower(
                doc_id, query, pinned, extra_unary or {}, boolean, lowering
            )
            sql = wrap.format(sql)
            tracing.annotate(sql=sql, doc=doc_id)
            try:
                return self._connection.execute(sql, params).fetchall()
            finally:
                self._drop_temp_tables(temp_tables)

    def evaluate(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]] = None,
        extra_unary: Optional[Mapping[str, frozenset[int]]] = None,
        lowering: str = "tree",
    ) -> frozenset[Row]:
        """All answers of ``query`` on the registered document.

        Boolean queries return ``{()}`` / ``frozenset()``; the answer set is
        byte-identical to :func:`repro.evaluation.planner.evaluate` on every
        query and under both lowerings, which the equivalence suite enforces.
        """
        knobs = (doc_id, query, pinned, extra_unary, lowering)
        if not query.variables() or query.is_boolean:
            return frozenset({()}) if self.is_satisfied(*knobs) else frozenset()
        return frozenset(tuple(row) for row in self._fetch(*knobs))

    def stream_answers(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]] = None,
        extra_unary: Optional[Mapping[str, frozenset[int]]] = None,
        *,
        limit: Optional[int] = None,
        batch_size: int = STREAM_BATCH_SIZE,
        lowering: str = "tree",
        materialize: bool = False,  # ignored: benchmarks/e2e/layers.py still passes it
    ) -> Iterator[Row]:
        """Answers in ascending head-tuple order, streamed in cursor batches.

        The ``ORDER BY`` over the head columns runs inside SQLite (matching
        Python's lexicographic tuple order on the sorted answer set) and
        ``limit`` is pushed down *after* it, so a truncated request never
        materialises the full answer set anywhere -- peak Python memory is
        bounded by ``batch_size`` rows, not the result size.
        """
        if not query.variables() or query.is_boolean:
            if (limit is None or limit > 0) and self.is_satisfied(
                doc_id, query, pinned, extra_unary, lowering
            ):
                yield ()
            return
        with self._lock:
            sql, params, temp_tables = self._lower(
                doc_id, query, pinned, extra_unary or {}, False, lowering
            )
            sql += f" ORDER BY {_head_order(query)}"
            if limit is not None:
                sql += " LIMIT ?"
                params.append(limit)
            cursor = self._connection.cursor()
            try:
                cursor.execute(sql, params)
            except BaseException:
                self._drop_temp_tables(temp_tables)
                raise
        tracing.annotate(sql=sql, doc=doc_id)
        streamed = 0
        width = len(query.head)
        try:
            while True:
                with self._lock:
                    rows = cursor.fetchmany(batch_size)
                if not rows:
                    return
                streamed += len(rows)
                SQL_ROWS_STREAMED.inc(len(rows))
                SQL_BYTES_FETCHED.inc(8 * width * len(rows))
                for row in rows:
                    yield tuple(row)
        finally:
            SQL_STREAM_ROWS.observe(streamed)
            tracing.annotate(rows_streamed=streamed)
            with self._lock:
                cursor.close()
                self._drop_temp_tables(temp_tables)

    def count_answers(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]] = None,
        extra_unary: Optional[Mapping[str, frozenset[int]]] = None,
        lowering: str = "tree",
        materialize: bool = False,  # ignored: benchmarks/e2e/layers.py still passes it
    ) -> int:
        """Exact answer count, without materialising any answers in Python."""
        knobs = (doc_id, query, pinned, extra_unary, lowering)
        if not query.variables() or query.is_boolean:
            return int(self.is_satisfied(*knobs))
        return self._fetch(*knobs, wrap="SELECT COUNT(*) FROM ({})")[0][0]

    def page_answers(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]] = None,
        extra_unary: Optional[Mapping[str, frozenset[int]]] = None,
        *,
        limit: int,
        lowering: str = "tree",
    ) -> tuple[list[Row], int]:
        """The first ``limit`` answers in head-tuple order plus the exact total.

        One statement: ``COUNT(*) OVER ()`` rides on the ordered, limited
        select, so a truncated request lowers and executes its query once
        instead of streaming ``limit + 1`` rows and counting in a second run
        (which remains the path for Boolean queries and for SQLite < 3.25).
        """
        knobs = (doc_id, query, pinned, extra_unary)
        if not _HAS_WINDOW_FUNCTIONS or not query.variables() or query.is_boolean:
            rows = list(self.stream_answers(*knobs, limit=limit + 1, lowering=lowering))
            if len(rows) <= limit:
                return rows, len(rows)
            return rows[:limit], self.count_answers(*knobs, lowering)
        # LIMIT 0 would leave no row to read the total from.
        wrap = (
            f"SELECT *, COUNT(*) OVER () FROM ({{}}) "
            f"ORDER BY {_head_order(query)} LIMIT {max(int(limit), 1)}"
        )
        rows = self._fetch(*knobs, lowering, wrap=wrap)
        SQL_ROWS_STREAMED.inc(min(len(rows), limit))
        tracing.annotate(rows_streamed=min(len(rows), limit))
        return [tuple(row[:-1]) for row in rows[:limit]], rows[0][-1] if rows else 0

    def is_satisfied(
        self,
        doc_id: str,
        query: ConjunctiveQuery,
        pinned: Optional[Mapping[Variable, int]] = None,
        extra_unary: Optional[Mapping[str, frozenset[int]]] = None,
        lowering: str = "tree",
    ) -> bool:
        """Boolean evaluation (existential closure) of ``query``."""
        if not query.variables():
            return True
        return bool(self._fetch(doc_id, query, pinned, extra_unary, lowering, boolean=True))

    def _drop_temp_tables(self, temp_tables: Iterable[str]) -> None:
        for name in temp_tables:
            self._connection.execute(f"DROP TABLE IF EXISTS {name}")

    def explain_sql(self, doc_id: str, query: ConjunctiveQuery, lowering: str = "tree") -> str:
        """The SQL text :meth:`evaluate` would run -- without executing it.

        Lowers with an empty extra-unary environment (every label is read
        from the ``label`` table, never an inlined ``IN`` list), so no temp
        table is staged and nothing is executed: the EXPLAIN surface can
        describe plans for documents that are not even registered here.
        """
        if not query.variables():
            return "SELECT 1"
        with self._lock:
            sql, _params, temp_tables = self._lower(
                doc_id, query, None, {}, query.is_boolean, lowering
            )
            self._drop_temp_tables(temp_tables)
        return sql

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SQLiteBackend(path={self.path!r})"


# ---------------------------------------------------------------------------
# Planner integration: evaluate a TreeStructure through a cached backend.
# ---------------------------------------------------------------------------

#: One in-memory backend per live tree, for ``Engine.SQL`` cross-checking;
#: entries die with their tree.
_TREE_BACKENDS: "WeakKeyDictionary[Tree, SQLiteBackend]" = WeakKeyDictionary()
_TREE_DOC_ID = "tree"


def backend_for_tree(tree: Tree) -> SQLiteBackend:
    """The (memoized) in-memory accel database of ``tree``."""
    backend = _TREE_BACKENDS.get(tree)
    if backend is None:
        backend = SQLiteBackend()
        backend.register_tree(_TREE_DOC_ID, tree)
        _TREE_BACKENDS[tree] = backend
    return backend


def evaluate_structure(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    lowering: str = "tree",
) -> frozenset[Row]:
    """``Engine.SQL`` entry point: answers of ``query`` over ``structure``."""
    return backend_for_tree(structure.tree).evaluate(
        _TREE_DOC_ID, query, pinned, structure.extra_unary_relations(), lowering
    )


def structure_is_satisfied(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    lowering: str = "tree",
) -> bool:
    """``Engine.SQL`` Boolean entry point."""
    return backend_for_tree(structure.tree).is_satisfied(
        _TREE_DOC_ID, query, pinned, structure.extra_unary_relations(), lowering
    )


#: Lazily created shared backend used only to *lower* queries for the
#: EXPLAIN surface (the schema exists; no document rows ever do).
_EXPLAIN_BACKEND: Optional[SQLiteBackend] = None
_EXPLAIN_LOCK = threading.Lock()


def explain_sql(
    query: ConjunctiveQuery,
    doc_id: str = "doc",
    backend: Optional[SQLiteBackend] = None,
    lowering: str = "tree",
) -> str:
    """The SQL text ``Engine.SQL`` would run for ``query`` -- never executed.

    With ``backend=None`` (a document that is not accel-resident) the
    lowering runs against a shared empty in-memory backend: the generated
    statement depends only on the query and the doc id, not on any data.
    """
    global _EXPLAIN_BACKEND
    if backend is None:
        with _EXPLAIN_LOCK:
            if _EXPLAIN_BACKEND is None:
                _EXPLAIN_BACKEND = SQLiteBackend()
            backend = _EXPLAIN_BACKEND
    return backend.explain_sql(doc_id, query, lowering=lowering)

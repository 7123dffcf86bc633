"""Yannakakis semijoin evaluation over a tree decomposition.

The engine behind ``Engine.DECOMPOSITION``: evaluate a *cyclic* conjunctive
query in time polynomial for bounded decomposition width, instead of the
planner's exponential backtracking fallback -- and enumerate the answers of
*any* k-ary head in time polynomial in input + output, instead of one
Boolean evaluation per candidate head tuple.  The pipeline is the classical
one (Yannakakis 1981, via Gottlob-Leone-Scarcello's hypertree programme),
instantiated over the arc-consistent prevaluation and the interval index:

1. **propagate** -- the AC fixpoint (any ``propagator=``) prunes every
   variable's domain first; an empty fixpoint already decides unsatisfiable.
2. **bag materialization** -- every decomposition bag becomes an explicit
   relation over its variables: candidates come from the fixpoint's domain
   views, tuples are generated atom-driven through
   :meth:`~repro.trees.index.AxisIndex.successors_in` /
   :meth:`~repro.trees.index.AxisIndex.predecessors_in` (contiguous pre-order
   ranges for the interval axes, pointer walks for the local ones), and every
   query atom whose endpoints lie inside the bag is enforced.  Cost is
   output-proportional: O(n^(width+1)) worst case, far less after AC pruning.
3. **bottom-up / top-down semijoin passes** along the join tree (children
   precede parents by construction).  After the bottom-up pass a component is
   satisfiable iff its root relation is non-empty; the top-down pass makes
   every relation globally consistent, bounding the enumeration join sizes.
4. **answer enumeration by join-tree traversal** -- a bottom-up join-project
   pass keeps, per bag, only the columns still needed above it (the separator
   to its parent plus the head variables collected in its subtree), so k-ary
   answers come out in time polynomial in input + output without ever
   materializing the full join.

Correctness does not depend on the width: the engine is exact for every
conjunctive query (the property tests pit it against backtracking across all
propagators, cyclic and acyclic shapes, with and without pinning).  The
planner makes it the default for every head that one fixpoint cannot answer
and merely *prefers* it, in the cyclic residue, when the width is small.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis
from ..trees.structure import TreeStructure
from .decompose import TreeDecomposition

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from ..evaluation.compile import CompiledAtom, CompiledQuery

Row = tuple[int, ...]

#: Forward atoms whose target, given a source anchor ``a``, is exactly a
#: pre-order range of the candidate array (``end`` = ``subtree_end``):
#: ``Child+``: ``(a, end(a)]``, ``Child*``: ``[a, end(a)]``, ``Following``:
#: ``(end(a), n)``, ``DocumentOrder``: ``(a, n)``.
_RANGE_FORWARD = frozenset(
    {Axis.CHILD_PLUS, Axis.CHILD_STAR, Axis.FOLLOWING, Axis.DOCUMENT_ORDER}
)
#: Backward atoms whose source, given a target anchor ``a``, lies in ``[0, a)``
#: (``Following`` additionally needs the O(1) ``end(u) < a`` residual check).
_RANGE_BACKWARD = frozenset({Axis.FOLLOWING, Axis.DOCUMENT_ORDER})
#: Atoms with at most one witness per anchor: always the cheapest driver.
_POINT_FORWARD = frozenset({Axis.NEXT_SIBLING, Axis.SUCC_PRE, Axis.SELF})
_POINT_BACKWARD = frozenset({Axis.CHILD, Axis.NEXT_SIBLING, Axis.SUCC_PRE, Axis.SELF})


class _BagRelation:
    """One materialized bag: an ordered column tuple plus its rows."""

    __slots__ = ("columns", "position", "rows")

    def __init__(self, columns: tuple[Variable, ...], rows: list[Row]):
        self.columns = columns
        self.position = {variable: i for i, variable in enumerate(columns)}
        self.rows = rows

    def project_positions(self, variables: Sequence[Variable]) -> tuple[int, ...]:
        return tuple(self.position[variable] for variable in variables)


def _materialize_bag(
    bag: frozenset[Variable],
    atoms: Sequence["CompiledAtom"],
    views: Mapping[Variable, object],
    structure: TreeStructure,
    variable_index: Mapping[Variable, int],
    needed: frozenset[Variable],
    columnar: bool = True,
) -> _BagRelation:
    """Enumerate the bag's relation, projected onto its ``needed`` columns.

    ``needed`` holds the columns the join tree actually consumes above and
    below this bag -- the separators to the parent and children plus the head
    variables it contains.  Everything else is a *local existential*: it only
    has to be witnessed, never reported, so it is projected out during
    enumeration instead of multiplying the relation.  (For a single-bag
    triangle query ``Q(x)`` this is the difference between one witness search
    per head candidate and materializing all O(n^2) satisfying pairs.)

    Variables are instantiated smallest-domain-first, each subsequent one
    driven by an atom connecting it to the already-assigned prefix whenever
    one exists (witness *enumeration* through the index, so the work is
    proportional to the candidates produced, not to the domain size); the
    remaining connecting atoms are O(1) ``holds`` checks.  Needed variables
    are preferred at every step, pushing the local existentials into a
    trailing suffix whenever the constraint graph allows; that suffix is
    resolved by a first-witness search with early cut-off.
    """
    index = structure.index
    order: list[Variable] = []
    assigned: set[Variable] = set()
    remaining = set(bag)

    def domain_size(variable: Variable) -> int:
        return len(views[variable].array)

    def connects(variable: Variable) -> bool:
        return any(
            (atom.source == variable and atom.target in assigned)
            or (atom.target == variable and atom.source in assigned)
            for atom in atoms
            if not atom.is_loop
        )

    while remaining:
        connected = [v for v in remaining if connects(v)]
        pool = connected if connected else sorted(remaining)
        pick = min(
            pool,
            key=lambda v: (v not in needed, domain_size(v), variable_index[v]),
        )
        order.append(pick)
        assigned.add(pick)
        remaining.discard(pick)

    # Everything from the last needed variable onwards is witness-only: one
    # satisfying completion per prefix suffices.
    cut = max(
        (i + 1 for i, variable in enumerate(order) if variable in needed),
        default=0,
    )
    # Local existentials *before* the cut (the constraint graph forced them
    # early) branch the prefix, so projected rows may repeat and need a dedup
    # -- unless the union-of-ranges skip below absorbs the branching.

    # Per position: how candidates for the variable are produced, given the
    # assigned prefix.  Every connecting atom is used exactly once -- as the
    # candidate source or as an O(1) residual check:
    #
    # * a *point* atom (next-sibling, parent, ...) has at most one witness,
    #   so it always wins as the driver;
    # * otherwise a *walk* atom (child fan-out, sibling chain, ancestor path)
    #   enumerates through :meth:`AxisIndex.successors_in` /
    #   :meth:`predecessors_in` -- walks are bounded by local tree shape
    #   (degree, sibling count, depth), which beats slicing a subtree range;
    # * otherwise all *range* atoms (the interval axes) are intersected into
    #   one pre-order window ``[lo, hi)`` answered by two bisections -- a
    #   ``Child+`` plus a ``Following`` constraint becomes the exact slice
    #   ``(max(x, end(y)), end(x)]`` instead of a scan of either;
    # * an unconnected variable iterates its whole domain view.
    drivers: list[Optional[tuple["CompiledAtom", bool]]] = [None]
    ranges: list[list[tuple["CompiledAtom", bool]]] = [[]]
    checks: list[list["CompiledAtom"]] = [[]]
    prefix: set[Variable] = {order[0]} if order else set()
    for variable in order[1:]:
        connecting: list[tuple["CompiledAtom", bool]] = []
        for atom in atoms:
            if atom.is_loop:
                continue
            if atom.source == variable and atom.target in prefix:
                connecting.append((atom, False))
            elif atom.target == variable and atom.source in prefix:
                connecting.append((atom, True))
        point = next(
            (
                (atom, forward)
                for atom, forward in connecting
                if atom.axis in (_POINT_FORWARD if forward else _POINT_BACKWARD)
            ),
            None,
        )
        range_atoms = [
            (atom, forward)
            for atom, forward in connecting
            if atom.axis in (_RANGE_FORWARD if forward else _RANGE_BACKWARD)
        ]
        walk = next(
            (
                (atom, forward)
                for atom, forward in connecting
                if atom.axis not in (_POINT_FORWARD if forward else _POINT_BACKWARD)
                and atom.axis not in (_RANGE_FORWARD if forward else _RANGE_BACKWARD)
            ),
            None,
        )
        driver: Optional[tuple["CompiledAtom", bool]] = None
        window: list[tuple["CompiledAtom", bool]] = []
        residual: list["CompiledAtom"] = []
        if point is not None:
            driver = point
            residual = [atom for atom, _ in connecting if atom is not point[0]]
        elif walk is not None:
            driver = walk
            residual = [atom for atom, _ in connecting if atom is not walk[0]]
        elif range_atoms:
            window = range_atoms
            in_window = {id(atom) for atom, _ in range_atoms}
            residual = [atom for atom, _ in connecting if id(atom) not in in_window]
            # A backward Following window is a superset ([0, anchor)): keep
            # the O(1) membership test as a residual check.
            residual.extend(
                atom
                for atom, forward in range_atoms
                if not forward and atom.axis is Axis.FOLLOWING
            )
        drivers.append(driver)
        ranges.append(window)
        checks.append(residual)
        prefix.add(variable)

    # -- union-of-ranges pruning for mid-bag local existentials ----------------
    #
    # A local existential forced *before* the cut branches the prefix: every
    # one of its witnesses re-enumerates the whole remaining suffix, and the
    # repeated projected rows are deduplicated afterwards.  When the
    # existential's only downstream role is anchoring interval windows of the
    # *immediately following* variable, the branching is unnecessary: merge
    # the per-witness windows into disjoint intervals and enumerate the next
    # variable once over the union.  (In the four-cycle's {a, b, c} bag with
    # order [a, b, c], the union of b's ``Following`` suffixes collapses to a
    # single suffix from the minimal ``subtree_end(b) + 1``.)
    def _references(depth: int) -> set[Variable]:
        referenced: set[Variable] = set()
        driver = drivers[depth]
        if driver is not None:
            atom, forward = driver
            referenced.add(atom.source if forward else atom.target)
        for atom, forward in ranges[depth]:
            referenced.add(atom.source if forward else atom.target)
        for atom in checks[depth]:
            referenced.add(atom.source)
            referenced.add(atom.target)
        return referenced

    skip: set[int] = set()
    if columnar:
        for i in range(cut - 1):
            variable = order[i]
            if variable in needed or (i - 1) in skip:
                continue
            nxt = i + 1
            if not ranges[nxt]:
                continue
            if not any(
                (atom.source if forward else atom.target) == variable
                for atom, forward in ranges[nxt]
            ):
                continue
            # The merged union loses which witness produced which window, so
            # the skipped variable must not appear in any residual check at
            # ``nxt`` (this also excludes backward-Following windows anchored
            # on it) nor anywhere later in the enumeration.
            if any(variable in (atom.source, atom.target) for atom in checks[nxt]):
                continue
            if any(variable in _references(d) for d in range(nxt + 1, len(order))):
                continue
            skip.add(i)

    must_deduplicate = any(
        variable not in needed and i not in skip
        for i, variable in enumerate(order[:cut])
    )

    position = {variable: i for i, variable in enumerate(order)}
    columns = tuple(variable for variable in order[:cut] if variable in needed)
    keep_positions = tuple(
        i for i, variable in enumerate(order[:cut]) if variable in needed
    )
    rows: list[Row] = []
    current: list[int] = [0] * len(order)
    subtree_end = index.subtree_end
    n = index.n

    def candidates_at(depth: int):
        variable = order[depth]
        view = views[variable]
        window = ranges[depth]
        if window:
            lo, hi = 0, n
            for atom, forward in window:
                if forward:
                    anchor = current[position[atom.source]]
                    if atom.axis is Axis.CHILD_PLUS:
                        lo = max(lo, anchor + 1)
                        hi = min(hi, subtree_end[anchor] + 1)
                    elif atom.axis is Axis.CHILD_STAR:
                        lo = max(lo, anchor)
                        hi = min(hi, subtree_end[anchor] + 1)
                    elif atom.axis is Axis.FOLLOWING:
                        lo = max(lo, subtree_end[anchor] + 1)
                    else:  # DocumentOrder
                        lo = max(lo, anchor + 1)
                else:
                    anchor = current[position[atom.target]]
                    hi = min(hi, anchor)  # Following / DocumentOrder source
            if hi <= lo:
                return ()
            array = view.array
            return array[bisect_left(array, lo) : bisect_left(array, hi)]
        driver = drivers[depth]
        if driver is None:
            return view.array
        atom, forward = driver
        if forward:
            anchor = current[position[atom.source]]
            return index.successors_in(atom.axis, anchor, view)
        anchor = current[position[atom.target]]
        return index.predecessors_in(atom.axis, anchor, view)

    def satisfies_checks(depth: int, node: int) -> bool:
        variable = order[depth]
        for atom in checks[depth]:
            source = node if atom.source == variable else current[position[atom.source]]
            target = node if atom.target == variable else current[position[atom.target]]
            if not index.holds(atom.axis, source, target):
                return False
        return True

    def witness(depth: int) -> bool:
        """First-witness search over the trailing local existentials."""
        if depth == len(order):
            return True
        for node in candidates_at(depth):
            if satisfies_checks(depth, node):
                current[depth] = node
                if witness(depth + 1):
                    return True
        return False

    def extend_union(depth: int) -> None:
        """Enumerate ``order[depth + 1]`` once over the union of windows.

        ``order[depth]`` is a skipped mid-bag existential: each of its
        witnesses contributes one pre-order window for the next variable;
        the windows are merged into disjoint intervals so every candidate of
        the next variable is produced (and recursed on) exactly once per
        prefix.  ``current[depth]`` is left stale, which is safe by the skip
        conditions (nothing at depth > ``depth + 1`` references it).
        """
        nxt = depth + 1
        skipped = order[depth]
        array = views[order[nxt]].array
        # Windows from range atoms anchored on *other* prefix variables are
        # identical for every witness: intersect them once.
        fixed_lo, fixed_hi = 0, n
        anchored = []
        for atom, forward in ranges[nxt]:
            anchor_variable = atom.source if forward else atom.target
            if anchor_variable == skipped:
                anchored.append((atom, forward))
                continue
            anchor = current[position[anchor_variable]]
            if forward:
                if atom.axis is Axis.CHILD_PLUS:
                    fixed_lo = max(fixed_lo, anchor + 1)
                    fixed_hi = min(fixed_hi, subtree_end[anchor] + 1)
                elif atom.axis is Axis.CHILD_STAR:
                    fixed_lo = max(fixed_lo, anchor)
                    fixed_hi = min(fixed_hi, subtree_end[anchor] + 1)
                elif atom.axis is Axis.FOLLOWING:
                    fixed_lo = max(fixed_lo, subtree_end[anchor] + 1)
                else:  # DocumentOrder
                    fixed_lo = max(fixed_lo, anchor + 1)
            else:
                fixed_hi = min(fixed_hi, anchor)
        intervals: list[tuple[int, int]] = []
        for node in candidates_at(depth):
            if not satisfies_checks(depth, node):
                continue
            lo, hi = fixed_lo, fixed_hi
            for atom, forward in anchored:
                if forward:
                    if atom.axis is Axis.CHILD_PLUS:
                        lo = max(lo, node + 1)
                        hi = min(hi, subtree_end[node] + 1)
                    elif atom.axis is Axis.CHILD_STAR:
                        lo = max(lo, node)
                        hi = min(hi, subtree_end[node] + 1)
                    elif atom.axis is Axis.FOLLOWING:
                        lo = max(lo, subtree_end[node] + 1)
                    else:  # DocumentOrder
                        lo = max(lo, node + 1)
                else:
                    hi = min(hi, node)
            if lo < hi:
                intervals.append((lo, hi))
        if not intervals:
            return
        intervals.sort()
        merged: list[list[int]] = [list(intervals[0])]
        for lo, hi in intervals[1:]:
            if lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        if (
            nxt == cut - 1
            and cut == len(order)
            and not checks[nxt]
            and keep_positions
            and keep_positions[-1] == nxt
        ):
            # Same bulk tail as extend(): every candidate completes a row.
            head = tuple(current[p] for p in keep_positions[:-1])
            for lo, hi in merged:
                chunk = array[bisect_left(array, lo) : bisect_left(array, hi)]
                rows.extend(head + (node,) for node in chunk)
            return
        for lo, hi in merged:
            for node in array[bisect_left(array, lo) : bisect_left(array, hi)]:
                if satisfies_checks(nxt, node):
                    current[nxt] = node
                    extend(nxt + 1)

    def extend(depth: int) -> None:
        if depth == cut:
            if witness(depth):
                rows.append(tuple(current[p] for p in keep_positions))
            return
        if depth in skip:
            extend_union(depth)
            return
        if (
            columnar
            and depth == cut - 1
            and cut == len(order)
            and not checks[depth]
            and keep_positions
            and keep_positions[-1] == depth
        ):
            # Bulk tail: the final variable has no residual checks and no
            # witness suffix behind it, so *every* candidate the driver or
            # window produces completes the prefix into a row -- emit the
            # whole candidate column at once instead of recursing per node.
            head = tuple(current[p] for p in keep_positions[:-1])
            rows.extend(head + (node,) for node in candidates_at(depth))
            return
        for node in candidates_at(depth):
            if satisfies_checks(depth, node):
                current[depth] = node
                extend(depth + 1)

    if order:
        extend(0)
    else:
        rows.append(())
    if must_deduplicate:
        rows = sorted(set(rows))
    return _BagRelation(columns, rows)


def _reduce(
    decomposition: TreeDecomposition,
    relations: list[_BagRelation],
) -> bool:
    """Bottom-up then top-down semijoin passes; False iff some bag empties."""
    parent = decomposition.parent
    separators: list[tuple[Variable, ...]] = []
    for i, parent_index in enumerate(parent):
        if parent_index < 0:
            separators.append(())
        else:
            shared = decomposition.bags[i] & decomposition.bags[parent_index]
            separators.append(tuple(sorted(shared)))

    # Bottom-up: children have larger indices, so visiting bags in decreasing
    # index order sees every child fully reduced before it filters its parent.
    for i in range(len(parent) - 1, -1, -1):
        parent_index = parent[i]
        if parent_index < 0:
            if not relations[i].rows:
                return False
            continue
        child_positions = relations[i].project_positions(separators[i])
        keys = {tuple(row[p] for p in child_positions) for row in relations[i].rows}
        parent_relation = relations[parent_index]
        parent_positions = parent_relation.project_positions(separators[i])
        parent_relation.rows = [
            row
            for row in parent_relation.rows
            if tuple(row[p] for p in parent_positions) in keys
        ]
        if not relations[i].rows:
            return False

    # Top-down: parents precede children, so increasing order propagates the
    # root's reduction all the way down; afterwards every relation is globally
    # consistent along the tree.
    for i in range(len(parent)):
        parent_index = parent[i]
        if parent_index < 0:
            continue
        parent_relation = relations[parent_index]
        parent_positions = parent_relation.project_positions(separators[i])
        keys = {tuple(row[p] for p in parent_positions) for row in parent_relation.rows}
        child_positions = relations[i].project_positions(separators[i])
        relations[i].rows = [
            row
            for row in relations[i].rows
            if tuple(row[p] for p in child_positions) in keys
        ]
        if not relations[i].rows:
            return False
    return True


def _first_witness(
    decomposition: TreeDecomposition,
    relations: list[_BagRelation],
) -> bool:
    """First-solution search down the join tree for Boolean queries.

    Instead of the full bottom-up + top-down semijoin passes (which reduce
    *every* bag globally before answering), walk the tree once looking for a
    single globally consistent assignment: a bag row is a witness iff every
    child bag has a witness row agreeing with it on their separator.  Outcomes
    are memoized per ``(bag, separator key)`` and each bag's separator index
    is built lazily on first access, so a satisfiable instance can stop after
    touching a handful of rows while the worst case stays one semijoin pass.
    """
    parent = decomposition.parent
    children = decomposition.children()
    separators: list[tuple[Variable, ...]] = []
    for i, parent_index in enumerate(parent):
        if parent_index < 0:
            separators.append(())
        else:
            shared = decomposition.bags[i] & decomposition.bags[parent_index]
            separators.append(tuple(sorted(shared)))
    # For a row of bag i, the lookup key into child c is c's separator read
    # out of i's columns (the separator is shared, so both bags carry it).
    child_key_positions = [
        [(c, relations[i].project_positions(separators[c])) for c in children[i]]
        for i in range(len(parent))
    ]
    own_positions = [
        relations[i].project_positions(separators[i]) for i in range(len(parent))
    ]
    key_index: list[Optional[dict[Row, list[Row]]]] = [None] * len(parent)
    memo: dict[tuple[int, Row], bool] = {}

    def rows_for(i: int, key: Row) -> list[Row]:
        index = key_index[i]
        if index is None:
            index = {}
            positions = own_positions[i]
            for row in relations[i].rows:
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
            key_index[i] = index
        return index.get(key, [])

    def witness(i: int, key: Row) -> bool:
        cached = memo.get((i, key))
        if cached is not None:
            return cached
        found = False
        for row in rows_for(i, key):
            if all(
                witness(c, tuple(row[p] for p in positions))
                for c, positions in child_key_positions[i]
            ):
                found = True
                break
        memo[(i, key)] = found
        return found

    return all(witness(root, ()) for root in decomposition.roots)


def _collect_answers(
    decomposition: TreeDecomposition,
    relations: list[_BagRelation],
    head: tuple[Variable, ...],
) -> frozenset[Row]:
    """Bottom-up join-project pass: answers without the full join.

    Each bag reduces to a relation over ``separator(bag) U (head variables
    seen in its subtree)``; children are folded in one at a time through a
    hash join on their separator and the result is deduplicated immediately,
    so intermediate sizes stay polynomial in input + output for bounded
    width and arity.
    """
    parent = decomposition.parent
    head_set = set(head)
    children = decomposition.children()

    reduced: list[Optional[_BagRelation]] = [None] * len(parent)
    for i in range(len(parent) - 1, -1, -1):
        relation = relations[i]
        acc_columns = list(relation.columns)
        acc_rows: list[Row] = relation.rows
        for child in children[i]:
            child_relation = reduced[child]
            assert child_relation is not None
            shared = [v for v in child_relation.columns if v in relation.position]
            extra = [v for v in child_relation.columns if v not in relation.position]
            shared_positions = child_relation.project_positions(shared)
            extra_positions = child_relation.project_positions(extra)
            matches: dict[Row, list[Row]] = {}
            for row in child_relation.rows:
                key = tuple(row[p] for p in shared_positions)
                matches.setdefault(key, []).append(
                    tuple(row[p] for p in extra_positions)
                )
            acc_positions = [acc_columns.index(v) for v in shared]
            joined: list[Row] = []
            for row in acc_rows:
                key = tuple(row[p] for p in acc_positions)
                for extension in matches.get(key, ()):
                    joined.append(row + extension)
            acc_columns.extend(extra)
            acc_rows = joined
            reduced[child] = None  # free the child relation eagerly
        if parent[i] >= 0:
            keep_set = (decomposition.bags[i] & decomposition.bags[parent[i]]) | (
                head_set & set(acc_columns)
            )
        else:
            keep_set = head_set & set(acc_columns)
        keep = [v for v in acc_columns if v in keep_set]
        keep_positions = [acc_columns.index(v) for v in keep]
        projected = {tuple(row[p] for p in keep_positions) for row in acc_rows}
        reduced[i] = _BagRelation(tuple(keep), sorted(projected))

    # Cross-combine the (disjoint) root relations and read the head off.
    mapping_columns: list[Variable] = []
    combined: list[Row] = [()]
    for root in decomposition.roots:
        root_relation = reduced[root]
        assert root_relation is not None
        if not root_relation.rows:
            return frozenset()
        mapping_columns.extend(root_relation.columns)
        combined = [row + suffix for row in combined for suffix in root_relation.rows]
    position = {variable: i for i, variable in enumerate(mapping_columns)}
    answers = {tuple(row[position[v]] for v in head) for row in combined}
    return frozenset(answers)


def _evaluate(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    propagator,
    compiled: Optional["CompiledQuery"],
    boolean_only: bool,
    columnar: bool = True,
) -> Optional[frozenset[Row]]:
    from ..evaluation.compile import compile_query
    from ..evaluation.propagation import propagate
    from ..observability import tracing

    if compiled is None:
        compiled = compile_query(query)
    if not compiled.variables:
        return frozenset({()})
    result = propagate(compiled, structure, pinned, propagator, columnar=columnar)
    if result is None:
        return None if boolean_only else frozenset()
    with tracing.span("decompose"):
        decomposition = compiled.decomposition
        tracing.annotate(
            width=decomposition.width,
            exact=decomposition.exact,
            method=decomposition.method,
            bags=len(decomposition.bags),
        )
    views = result.views
    head_set = frozenset() if boolean_only else frozenset(query.head)
    children = decomposition.children()
    relations: list[_BagRelation] = []
    with tracing.span("materialize_bags"):
        for index, bag in enumerate(decomposition.bags):
            bag_atoms = [
                atom
                for atom in compiled.atoms
                if atom.source in bag and atom.target in bag
            ]
            # The columns the join tree consumes from this bag: the separators
            # to its parent and children plus its head variables.  Everything
            # else is witness-only and projected out during materialization.
            needed = head_set & bag
            parent_index = decomposition.parent[index]
            if parent_index >= 0:
                needed |= bag & decomposition.bags[parent_index]
            for child in children[index]:
                needed |= bag & decomposition.bags[child]
            relation = _materialize_bag(
                bag,
                bag_atoms,
                views,
                structure,
                compiled.variable_index,
                frozenset(needed),
                columnar=columnar,
            )
            if not relation.rows:
                return None if boolean_only else frozenset()
            relations.append(relation)
        tracing.annotate(bag_rows=[len(relation.rows) for relation in relations])
    if boolean_only:
        # First-solution short-circuit: a Boolean query only needs one
        # globally consistent assignment, not fully reduced bags.
        with tracing.span("semijoin", mode="first_witness"):
            witness = _first_witness(decomposition, relations)
        return frozenset({()}) if witness else None
    with tracing.span("semijoin", mode="reduce"):
        reduced = _reduce(decomposition, relations)
    if not reduced:
        return frozenset()
    with tracing.span("enumerate", strategy="join_tree"):
        answers = _collect_answers(decomposition, relations, query.head)
        tracing.annotate(answers=len(answers))
    return answers


def boolean_query_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator=None,
    columnar: bool = True,
) -> bool:
    """Boolean evaluation: materialize the bags, stop at the first witness."""
    from ..evaluation.propagation import DEFAULT_PROPAGATOR

    chosen = DEFAULT_PROPAGATOR if propagator is None else propagator
    outcome = _evaluate(
        query.as_boolean(),
        structure,
        pinned,
        chosen,
        None,
        boolean_only=True,
        columnar=columnar,
    )
    return outcome is not None


def evaluate_answers(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator=None,
    compiled: Optional["CompiledQuery"] = None,
    columnar: bool = True,
) -> frozenset[Row]:
    """All answers of a (possibly cyclic) k-ary query via the join tree.

    Boolean queries yield ``{()}`` / ``frozenset()``; the answer *set* is
    identical to the backtracking engine's on every query, which the property
    tests enforce.
    """
    from ..evaluation.propagation import DEFAULT_PROPAGATOR

    chosen = DEFAULT_PROPAGATOR if propagator is None else propagator
    outcome = _evaluate(
        query, structure, pinned, chosen, compiled, boolean_only=False, columnar=columnar
    )
    assert outcome is not None
    return outcome

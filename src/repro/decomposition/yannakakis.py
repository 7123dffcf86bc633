"""Yannakakis semijoin evaluation over a tree decomposition.

The engine behind ``Engine.DECOMPOSITION``: evaluate a *cyclic* conjunctive
query in time polynomial for bounded decomposition width -- the planner's one
engine for the cyclic residue the dichotomy leaves NP-hard -- and enumerate
the answers of *any* k-ary head in time polynomial in input + output.  The
pipeline is the classical one (Yannakakis 1981, via Gottlob-Leone-Scarcello's
hypertree programme), instantiated over pruned candidate columns and the
interval index:

1. **candidates** -- sorted candidate columns per variable.  They only have
   to be *sound supersets* of the solution projections (every atom is enforced
   inside a bag, global consistency comes from the join tree), so on any body
   they are the reducer's two semijoin sweeps along a spanning forest
   (:func:`repro.evaluation.propagation.candidate_supersets`, the
   propagator :func:`~repro.evaluation.propagation.choose_propagator` picks
   for this engine).  An empty column already decides unsatisfiable.  A
   Boolean head sweeps only if it must: the label columns themselves are
   sound supersets too (step 2).
2. **the memoised search** -- Boolean heads, and monadic heads on a multi-bag
   tree (:class:`_JoinTreeSearch`): depth-first in the join tree's bag order,
   each bag walked one prefix at a time (:class:`_DepthFirst`) with its
   separator to the parent pinned first, whether a subtree completes
   memoised per ``(bag, separator assignment)`` for the whole request -- the
   goods and nogoods of Jegou & Terrioux (*AIJ* 2003).  First-witness speed
   when a witness exists, O(n^(width+1)) per bag when none does, and its own
   stack instead of recursion along the tree.  A Boolean head is searched
   first over the unswept label columns (views resident per document),
   allowed :data:`SEARCH_TOUCHES_PER_CANDIDATE` candidates touched per
   label-column candidate; only when that runs out are the columns swept and
   searched again, memo kept (:func:`_search_first`).  A monadic head is one
   search per head candidate over the swept columns, ascending, pinned at the
   root bag, sharing the memo: its answers come out in wire order.  The
   per-bag set-up lives on the compiled query, keyed by the variables'
   domain-size rank (:func:`_search_setup`).
3. **bag materialization** -- every other head (k-ary, or monadic on one
   bag, where no separator is left to memoise on): each bag becomes an
   explicit relation, built *a level at a time* from the sorted candidate
   columns (:func:`_expand_levels`).  Every axis makes the candidates of a
   prefix a window of a sorted column -- the paper's Eq. (1) read as
   pre-order ranges for the interval axes; children and later / earlier
   siblings are a run of the column regrouped by parent -- so one pass gives
   *every* prefix its window, and the level is then **expanded** (windows
   concatenated, prefix columns repeated, residual checks applied in one
   ``compress``), **counted** (the last level under a ``limit``: only the
   first ``limit`` rows are built) or **tested** (a single trailing
   witness-only level: the prefixes with a non-empty window stay, the
   first-witness test in C).  Cost is output-proportional -- O(n^(width+1))
   worst case -- and paid in a handful of C-level passes per level.  Longer
   witness suffixes go through :class:`_DepthFirst`, which walked from the
   empty prefix is also the reference the kernel is pinned against.
   Bottom-up then top-down semijoin passes along the
   join tree (children precede parents) make every relation globally
   consistent.
4. **answer enumeration by join-tree traversal** -- a bottom-up join-project
   pass keeps, per bag, only the columns still needed above it (the separator
   to its parent plus the head variables collected in its subtree), so k-ary
   answers come out without ever materializing the full join, as one list
   sorted once.  Bags instantiate their head variables first and in head
   order wherever the atoms allow, so the rows of a one-bag join tree *are*
   the answers, in wire order, and a ``limit`` stops building rows and only
   counts the rest (:func:`answer_page`).

Correctness does not depend on the width: the engine is exact for every
conjunctive query (the property tests pit it against backtracking and the
Horn oracle across shapes and pinning).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import and_, itemgetter, lt, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..observability import tracing
from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis
from ..trees.columnar import (
    ancestor_paths,
    expand_windows,
    group_by_parent,
    holds_column,
    repeat_each,
    window_bounds,
)
from ..trees.structure import TreeStructure
from .decompose import AXIS_WEIGHTS, FILL_WEIGHT, TreeDecomposition

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from ..evaluation.compile import CompiledAtom, CompiledQuery
    from ..evaluation.propagation import PropagationResult
    from ..trees.index import AxisIndex

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

#: A Boolean search's first attempt, over the unswept label columns, may touch
#: this many candidates per candidate of those columns before it sweeps them
#: and searches on (:func:`_search_first`).  ``benchmarks/bench_decomposition.py``'s
#: ``ablation_allowance_*`` entries time it against 0 (sweep first) and
#: unbounded (never sweep).
SEARCH_TOUCHES_PER_CANDIDATE = 1 / 256
#: Search set-ups kept per compiled query (one per head and domain-size rank).
SEARCH_SETUPS_PER_QUERY = 16


class _BagRelation:
    """One materialized bag: an ordered column tuple plus its rows."""

    __slots__ = ("columns", "position", "rows")

    def __init__(self, columns: tuple[Variable, ...], rows: list[Row]):
        self.columns = columns
        self.position = {variable: i for i, variable in enumerate(columns)}
        self.rows = rows

    def project_positions(self, variables: Sequence[Variable]) -> tuple[int, ...]:
        return tuple(self.position[variable] for variable in variables)


def _projector(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[p] for p in positions)``, at C speed from two positions up."""
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    return itemgetter(*positions) if positions else lambda row: ()


@dataclass(slots=True)
class _BagPlan:
    """How one bag is enumerated: the variable order and, per position, the atoms in play."""

    order: list[Variable]
    #: ``order.index``, as a mapping.
    position: dict[Variable, int]
    #: Per position: the atom whose partners are the candidates (``None``: the
    #: whole column), the range atoms cutting them, the atoms left to check.
    drivers: list[Optional[tuple["CompiledAtom", bool]]]
    ranges: list[list[tuple["CompiledAtom", bool]]]
    checks: list[list["CompiledAtom"]]
    #: Everything from ``order[cut]`` onwards is witness-only.
    cut: int
    #: Positions of mid-bag existentials absorbed by a union of windows.
    skip: set[int]
    #: The emitted columns and where each sits in ``order``.
    columns: tuple[Variable, ...]
    keep_positions: tuple[int, ...]
    must_deduplicate: bool


def _plan_bag(
    bag: frozenset[Variable],
    atoms: Sequence["CompiledAtom"],
    domain_sizes: Mapping[Variable, int],
    variable_index: Mapping[Variable, int],
    needed: frozenset[Variable],
    head: tuple[Variable, ...],
    merge_unions: bool,
    pinned: tuple[Variable, ...] = (),
) -> _BagPlan:
    """Pick the instantiation order of a bag and assign every atom its role.

    ``pinned`` variables come first, their values set by the caller (the
    separator the memoised search fixes; atoms among them are the parent
    bag's to check).  Then head variables, in ``head`` order, for as long as
    each one connects to the already-assigned prefix; otherwise
    smallest-domain-first -- behind a pinned prefix, domain times the
    :data:`~repro.decomposition.decompose.AXIS_WEIGHTS` fan-out of the
    narrowest connecting atom, so the search branches on the fewest
    candidates first -- each subsequent one driven by an atom connecting it
    to the prefix whenever one exists.  Needed variables are preferred at
    every step, pushing the local existentials into a trailing suffix
    whenever the constraint graph allows.
    """
    order: list[Variable] = list(pinned)
    assigned: set[Variable] = set(pinned)
    remaining = set(bag).difference(pinned)
    leads = [variable for variable in dict.fromkeys(head) if variable in bag]

    def fan_out(variable: Variable) -> Optional[int]:
        return min(
            (
                AXIS_WEIGHTS.get(atom.axis, FILL_WEIGHT)
                for atom in atoms
                if (atom.source == variable and atom.target in assigned)
                or (atom.target == variable and atom.source in assigned)
            ),
            default=None,
        )

    while remaining:
        pick = next((variable for variable in leads if variable in remaining), None)
        if pick is None or (order and fan_out(pick) is None):
            weights = {v: fan_out(v) for v in remaining}
            pool = [v for v in remaining if weights[v] is not None] or sorted(remaining)
            pick = min(
                pool,
                key=lambda v: (
                    v not in needed,
                    domain_sizes[v] * ((weights[v] or 1) if pinned else 1),
                    variable_index[v],
                ),
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
    # candidate source, in the window, or as an O(1) residual check:
    #
    # * a *point* atom (next-sibling, parent, ...) has at most one witness,
    #   so it always wins as the driver;
    # * otherwise a *walk* atom (child fan-out, sibling chain, ancestor path)
    #   drives -- walks are bounded by local tree shape (degree, sibling
    #   count, depth), which beats slicing a subtree range;
    # * all *range* atoms (the interval axes) are intersected into one
    #   pre-order window ``[lo, hi)`` and cut out of the driver's candidates
    #   (the whole candidate column without one) by two bisections -- a
    #   ``Child+`` plus a ``Following`` constraint becomes the exact slice
    #   ``(max(x, end(y)), end(x)]`` instead of a scan of either;
    # * an unconnected variable iterates its whole candidate column.
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
        window = [
            (atom, forward)
            for atom, forward in connecting
            if atom.axis in (_RANGE_FORWARD if forward else _RANGE_BACKWARD)
        ]
        local = [pair for pair in connecting if pair not in window]
        driver = next(
            (
                (atom, forward)
                for atom, forward in local
                if atom.axis in (_POINT_FORWARD if forward else _POINT_BACKWARD)
            ),
            local[0] if local else None,
        )
        # A backward Following window is a superset ([0, anchor)): keep the
        # O(1) membership test as a residual check.
        residual = [atom for atom, _ in local if driver is None or atom is not driver[0]]
        residual.extend(
            atom for atom, forward in window if not forward and atom.axis is Axis.FOLLOWING
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
    if merge_unions:
        for i in range(cut - 1):
            variable = order[i]
            if variable in needed or (i - 1) in skip:
                continue
            nxt = i + 1
            # The union is taken over windows of the whole candidate column.
            if not ranges[nxt] or drivers[nxt] is not None:
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
    # Head variables in head order, then the other separators as enumerated.
    columns = tuple(
        sorted(
            (variable for variable in order[:cut] if variable in needed),
            key=lambda variable: leads.index(variable) if variable in leads else len(leads),
        )
    )
    keep_positions = tuple(position[variable] for variable in columns)
    return _BagPlan(
        order=order,
        position=position,
        drivers=drivers,
        ranges=ranges,
        checks=checks,
        cut=cut,
        skip=skip,
        columns=columns,
        keep_positions=keep_positions,
        must_deduplicate=must_deduplicate,
    )


class _DepthFirst:
    """One prefix at a time: the bag walk of the memoised search.

    :meth:`prefixes` walks the bag from a given depth (the positions before it
    set by the caller) and stops at every completing prefix up to the plan's
    cut; :meth:`witness` answers whether a prefix completes at all, at the
    first completion, which no level-wide pass can beat.  Walked from the
    empty prefix over a plan built with ``merge_unions=False``, it is also the
    reference the level kernel is pinned against in the tests.
    """

    def __init__(
        self,
        plan: _BagPlan,
        views: Mapping[Variable, object],
        index: "AxisIndex",
        ahead: Optional[list[list[tuple[Axis, bool, Variable]]]] = None,
        ticks: Optional[Iterator[bool]] = None,
    ):
        self.plan = plan
        self.views = views
        self.index = index
        # ``ticks``: one item is drawn per candidate touched (:func:`_allowance`).
        self.ticks = ticks
        self.current = [0] * len(plan.order)
        # Per position: the atoms to variables outside the bag, as ``(axis,
        # whether the node is the source, the other end)``.  A node with no
        # witness in the other end's view completes no subtree below; the
        # views are static, so each node is looked at once per position.
        self.ahead = ahead or [[] for _ in plan.order]
        self.looked: list[dict[int, bool]] = [{} for _ in plan.order]
        # What a walk yields depends on the anchor alone: kept per anchor.
        self.walked: list[dict[int, Sequence[int]]] = [{} for _ in plan.order]

    def narrow(self, lo: int, hi: int, atom: "CompiledAtom", forward: bool, anchor: int):
        """Intersect the pre-order window ``[lo, hi)`` with one range atom at ``anchor``."""
        if not forward:
            return lo, min(hi, anchor)  # Following / DocumentOrder source
        subtree_end = self.index.subtree_end
        if atom.axis is Axis.CHILD_PLUS:
            return max(lo, anchor + 1), min(hi, subtree_end[anchor] + 1)
        if atom.axis is Axis.CHILD_STAR:
            return max(lo, anchor), min(hi, subtree_end[anchor] + 1)
        if atom.axis is Axis.FOLLOWING:
            return max(lo, subtree_end[anchor] + 1), hi
        return max(lo, anchor + 1), hi  # DocumentOrder

    def candidates_at(self, depth: int) -> Sequence[int]:
        plan, current, position = self.plan, self.current, self.plan.position
        view = self.views[plan.order[depth]]
        driver = plan.drivers[depth]
        if driver is None:
            base = view.array
        else:
            atom, forward = driver
            anchor = current[position[atom.source if forward else atom.target]]
            base = self.walked[depth].get(anchor)
            if base is None:
                walk = self.index.successors_in if forward else self.index.predecessors_in
                base = walk(atom.axis, anchor, view)
                if self.ticks is not None:
                    base = compress(base, self.ticks)
                base = self.walked[depth][anchor] = list(base)
        window = plan.ranges[depth]
        if not window:
            return base
        lo, hi = 0, self.index.n
        for atom, forward in window:
            anchor = current[position[atom.source if forward else atom.target]]
            lo, hi = self.narrow(lo, hi, atom, forward, anchor)
        if hi <= lo:
            return ()
        return base[bisect_left(base, lo) : bisect_left(base, hi)]

    def satisfies_checks(self, depth: int, node: int) -> bool:
        current, position = self.current, self.plan.position
        variable = self.plan.order[depth]
        for atom in self.plan.checks[depth]:
            source = node if atom.source == variable else current[position[atom.source]]
            target = node if atom.target == variable else current[position[atom.target]]
            if not self.index.holds(atom.axis, source, target):
                return False
        if not self.ahead[depth]:
            return True
        looked, index, views = self.looked[depth], self.index, self.views
        if node not in looked:
            looked[node] = all(
                (index.has_successor_in if forward else index.has_predecessor_in)(
                    axis, node, views[other]
                )
                for axis, forward, other in self.ahead[depth]
            )
        return looked[node]

    def witness(self, depth: int) -> bool:
        """First-witness search over the local existentials from ``depth`` on."""
        if depth == len(self.plan.order):
            return True
        candidates = self.candidates_at(depth)
        if self.ticks is not None:
            candidates = compress(candidates, self.ticks)
        for node in candidates:
            if self.satisfies_checks(depth, node):
                self.current[depth] = node
                if self.witness(depth + 1):
                    return True
        return False

    def prefixes(self, depth: int) -> Iterator[None]:
        """Stop at every completing prefix up to the cut, the positions before ``depth`` given."""
        if depth == self.plan.cut:
            if self.witness(depth):
                yield
            return
        candidates = self.candidates_at(depth)
        if self.ticks is not None:
            candidates = compress(candidates, self.ticks)
        for node in candidates:
            if self.satisfies_checks(depth, node):
                self.current[depth] = node
                yield from self.prefixes(depth + 1)


#: Key of the column that numbers the prefixes while a union level is staged.
_PREFIX = -1
_successor = (1).__add__


def _expand_levels(
    plan: _BagPlan, candidates: "PropagationResult", index: "AxisIndex", limit: int
) -> tuple[list[Row], int]:
    """Enumerate the bag a level at a time over parallel prefix columns.

    The table of prefixes is one column per instantiated position.  For the
    next variable one pass gives *every* prefix its candidate window
    ``base[lo:hi]`` (:func:`windows`), and the level is then

    * **expanded** -- the new column is all windows concatenated, the prefix
      columns are repeated by window size, residual checks filter the result in
      one ``compress``; rows are zipped once, at the very end;
    * **counted** -- the last level under a ``limit``: the count is the sum of
      the window sizes and only the prefixes that make up the first ``limit``
      rows are expanded;
    * **tested** -- a single trailing witness-only level: the prefixes with a
      non-empty window stay (the in-memory threshold aggregate).

    Only what asks for mere existence more than one level deep (a longer
    witness suffix, a Boolean bag, a tested level with a residual check) goes
    through the first-witness search, one call per surviving prefix.
    """
    order, position, cut = plan.order, plan.position, plan.cut
    parent = index.parent
    end_plus1 = index.subtree_end_plus1.__getitem__

    def windows(depth: int, table: Mapping[int, Sequence[int]], rows: int):
        """``(base, lo, hi)``: the candidates of prefix ``i`` are ``base[lo[i]:hi[i]]``."""
        base = candidates.sorted_domain(order[depth])
        starts = stops = None
        lows: list[Iterable[int]] = []
        highs: list[Iterable[int]] = []
        driver = plan.drivers[depth]
        if driver is not None:
            atom, forward = driver
            axis = atom.axis
            anchors = table[position[atom.source if forward else atom.target]]
            if axis in (_POINT_FORWARD if forward else _POINT_BACKWARD):
                # At most one candidate ``t``: the window ``[t, t + 1)`` (no node is -1 or n).
                if axis is Axis.SELF:
                    points = anchors
                elif axis is Axis.SUCC_PRE:
                    points = list(map((1 if forward else -1).__add__, anchors))
                elif axis is Axis.NEXT_SIBLING:
                    sibling = index.next_sibling if forward else index.prev_sibling
                    points = list(map(sibling.__getitem__, anchors))
                else:  # Child, towards the parent
                    points = list(map(parent.__getitem__, anchors))
                lows.append(points)
                highs.append(map(_successor, points))
            elif axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
                base, starts, stops = ancestor_paths(base, anchors, parent, axis is Axis.CHILD_STAR)
            else:
                # Children, or siblings ("same parent and later / earlier"): a
                # run of the column regrouped by parent.
                base, start_of, stop_of = group_by_parent(base, parent)
                if axis is not Axis.CHILD:
                    reflexive = axis is Axis.NEXT_SIBLING_STAR
                    if forward:
                        lows.append(anchors if reflexive else map(_successor, anchors))
                    else:
                        highs.append(map(_successor, anchors) if reflexive else anchors)
                    anchors = list(map(parent.__getitem__, anchors))
                starts = list(map(start_of.get, anchors, repeat(0)))
                stops = list(map(stop_of.get, anchors, repeat(0)))
        for atom, forward in plan.ranges[depth]:
            anchors = table[position[atom.source if forward else atom.target]]
            if not forward:  # Following / DocumentOrder source: before the anchor
                highs.append(anchors)
            elif atom.axis is Axis.CHILD_PLUS:
                lows.append(map(_successor, anchors))
                highs.append(map(end_plus1, anchors))
            elif atom.axis is Axis.CHILD_STAR:
                lows.append(anchors)
                highs.append(map(end_plus1, anchors))
            elif atom.axis is Axis.FOLLOWING:
                lows.append(map(end_plus1, anchors))
            else:  # DocumentOrder
                lows.append(map(_successor, anchors))
        lo, hi = window_bounds(base, lows, highs, rows, starts, stops)
        return base, lo, hi

    def expand(depth, table, base, lo, hi, sizes) -> dict[int, Sequence[int]]:
        """The table one level on: every window unrolled, residual checks applied."""
        table = {p: repeat_each(column, sizes) for p, column in table.items()}
        table[depth] = expand_windows(base, lo, hi)
        held = None
        for atom in plan.checks[depth]:
            mask = holds_column(
                index, atom.axis, table[position[atom.source]], table[position[atom.target]]
            )
            held = mask if held is None else map(and_, held, mask)
        return table if held is None else select(table, list(held))

    def select(table, mask) -> dict[int, Sequence[int]]:
        return {p: list(compress(column, mask)) for p, column in table.items()}

    def union_windows(depth: int, table, rows: int):
        """The windows of ``order[depth + 1]``, merged over the witnesses of ``order[depth]``.

        ``order[depth]`` is a skipped mid-bag existential: each of its
        witnesses contributes one window for the next variable.  The level is
        staged (every witness tagged with the prefix it extends), the windows
        are taken per staged row and merged into disjoint intervals per
        prefix, so every candidate of the next variable is produced exactly
        once per prefix and ascending.  Returns the table with one row per
        merged interval; by the skip conditions nothing later reads the
        witness column, which is dropped.
        """
        base, lo, hi = windows(depth, table, rows)
        staged = {**table, _PREFIX: range(rows)}
        staged = expand(depth, staged, base, lo, hi, list(map(sub, hi, lo)))
        base, lo, hi = windows(depth + 1, staged, len(staged[depth]))
        owners: list[int] = []
        merged_lo: list[int] = []
        merged_hi: list[int] = []
        for owner, low, high in sorted(zip(staged[_PREFIX], lo, hi)):
            if low == high:
                continue
            if owners and owners[-1] == owner and low <= merged_hi[-1]:
                if high > merged_hi[-1]:
                    merged_hi[-1] = high
            else:
                owners.append(owner)
                merged_lo.append(low)
                merged_hi.append(high)
        table = {p: list(map(column.__getitem__, owners)) for p, column in table.items()}
        return table, base, merged_lo, merged_hi

    table: dict[int, Sequence[int]] = {}
    rows = 1  # the empty prefix
    count = None
    for depth in range(cut):
        if depth in plan.skip:
            continue  # absorbed by the next level's windows
        if depth - 1 in plan.skip:
            table, base, lo, hi = union_windows(depth - 1, table, rows)
        else:
            base, lo, hi = windows(depth, table, rows)
        sizes = list(map(sub, hi, lo))
        if depth == len(order) - 1 and limit < sys.maxsize and not plan.checks[depth]:
            # Counted: every candidate of the last level completes a row.
            count = sum(sizes)
            if count > limit:
                filled = bisect_left(list(accumulate(sizes)), limit) + 1
                lo, hi, sizes = lo[:filled], hi[:filled], sizes[:filled]
                table = {p: column[:filled] for p, column in table.items()}
        table = expand(depth, table, base, lo, hi, sizes)
        rows = len(table[depth])
        if not rows:
            return [], count or 0
    if cut < len(order):
        if cut == len(order) - 1 and not plan.checks[cut]:
            # Tested: one more variable to witness, any candidate will do.
            _, lo, hi = windows(cut, table, rows)
            alive = list(map(lt, lo, hi))
        else:
            search = _DepthFirst(plan, candidates.views, index)
            held = sorted(table)  # skipped positions have no column, and no reader

            def completes(*prefix: int) -> bool:
                for p, node in zip(held, prefix):
                    search.current[p] = node
                return search.witness(cut)

            alive = list(map(completes, *map(table.get, held))) if held else [completes()]
        table = select(table, alive)
        rows = sum(alive)
    if count is None:
        count = rows
    kept = [table[p][:limit] if count > limit else table[p] for p in plan.keep_positions]
    return (list(zip(*kept)) if kept else [()] * min(rows, limit)), count


def _materialize_bag(
    bag: frozenset[Variable],
    atoms: Sequence["CompiledAtom"],
    candidates: "PropagationResult",
    structure: TreeStructure,
    variable_index: Mapping[Variable, int],
    needed: frozenset[Variable],
    head: tuple[Variable, ...] = (),
    limit: Optional[int] = None,
) -> tuple[_BagRelation, int]:
    """Enumerate the bag's relation, projected onto its ``needed`` columns.

    ``needed`` holds the columns the join tree actually consumes above and
    below this bag -- the separators to the parent and children plus the head
    variables it contains.  Everything else is a *local existential*: it only
    has to be witnessed, never reported, so it is projected out during
    enumeration instead of multiplying the relation.  (For a single-bag
    triangle query ``Q(x)`` this is the difference between one witness search
    per head candidate and materializing all O(n^2) satisfying pairs.)

    :func:`_plan_bag` fixes the order (head variables first and in head order
    wherever the atoms allow, local existentials in a trailing suffix) and the
    role of every atom; :func:`_expand_levels` then runs it a level at a time
    over the sorted candidate columns of ``candidates``.  Candidates come out
    ascending at every level and the columns are the head variables in head
    order (then the other separators), so whenever the enumeration could
    follow the columns the rows are emitted sorted and duplicate-free.  Only
    then is ``limit`` honoured: rows past it are counted, not built.
    Returns the relation and its exact row count.
    """
    plan = _plan_bag(
        bag, atoms, candidates.domain_sizes(), variable_index, needed, head, merge_unions=True
    )
    keep = list(plan.keep_positions)
    if limit is None or plan.must_deduplicate or keep != sorted(keep):
        limit = sys.maxsize  # rows are not emitted in column order: build them all
    rows, count = _expand_levels(plan, candidates, structure.index, limit)
    if plan.must_deduplicate:
        rows = list(set(rows))
        count = len(rows)
    return _BagRelation(plan.columns, rows), count


class _AllowanceSpent(Exception):
    """A capped search has touched as many candidates as it was allowed."""


def _allowance(touches: int) -> Iterator[bool]:
    """``touches`` ticks, then :class:`_AllowanceSpent`: a C-level counter for ``compress``."""
    yield from repeat(True, touches)
    raise _AllowanceSpent


class _JoinTreeSearch:
    """Depth-first search in the join tree's bag order, memoised per separator assignment.

    :meth:`holds`: does the subtree below a bag complete under an assignment
    of its separator to the parent (at a root: of its pinned head variable,
    or of nothing)?  A bag holds at the first completed prefix of its walk
    that every child accepts; each verdict is kept for the whole request.
    The bags walk ``views``, candidate columns that need only be sound
    supersets of the solutions' projections: a completed subtree is a real
    partial solution, and a subtree with no completion among them is on no
    solution.  So a ``memo`` carries over to a search on narrower columns.
    """

    def __init__(
        self,
        compiled: "CompiledQuery",
        head: tuple[Variable, ...],
        views: Mapping[Variable, object],
        sizes: Mapping[Variable, int],
        index: "AxisIndex",
        ticks: Optional[Iterator[bool]] = None,
        memo: Optional[dict[tuple[int, Row], bool]] = None,
    ):
        self.decomposition = compiled.decomposition
        self.memo = {} if memo is None else memo
        self.pinned, setup = _search_setup(compiled, head, sizes)
        # Per bag: its walk, and each child with how to read its key off the walk.
        self.walks: list[tuple[_DepthFirst, list]] = [
            (_DepthFirst(plan, views, index, ahead, ticks), requests)
            for plan, ahead, requests in setup
        ]

    def _bag(self, i: int, key: Row):
        """One bag under ``key``: yields ``(child, child key)``, is sent each verdict."""
        search, requests = self.walks[i]
        current = search.current
        current[: len(key)] = key
        for _ in search.prefixes(len(key)):
            for child, project in requests:
                if not (yield child, project(current)):
                    break
            else:
                return True
        return False

    def holds(self, bag: int, key: Row) -> bool:
        """Does ``bag``'s subtree complete under ``key``?  One explicit stack of bag walks."""
        memo, verdict = self.memo, None
        stack = [((bag, key), self._bag(bag, key))]
        while stack:
            asked, walk = stack[-1]
            try:
                request = walk.send(verdict)
            except StopIteration as done:
                verdict = memo[asked] = done.value
                stack.pop()
                continue
            verdict = memo.get(request)
            if verdict is None:
                stack.append((request, self._bag(*request)))
        return verdict

    def satisfiable(self) -> bool:
        """Does every unpinned root's subtree complete?  (A Boolean head's answer.)"""
        roots = self.decomposition.roots
        return all(self.holds(root, ()) for root in roots if not self.pinned[root])

    def answers(self, column: Sequence[int]) -> list[Row]:
        """A monadic head's answers among its candidates ``column``, ascending."""
        if not self.satisfiable():
            return []
        root = next(root for root in self.decomposition.roots if self.pinned[root])
        return [(node,) for node in column if self.holds(root, (node,))]


def _search_setup(
    compiled: "CompiledQuery", head: tuple[Variable, ...], sizes: Mapping[Variable, int]
) -> tuple[list[tuple[Variable, ...]], list[tuple[_BagPlan, list, list]]]:
    """Per bag: its pinned prefix, and ``(plan, look-ahead atoms, child requests)``.

    Resident on ``compiled`` (its ``search_setups``), keyed by the head and
    the variables ranked by candidate count -- all the bag orders look at,
    bar the fan-out weights behind a pinned separator, which the sizes of the
    first request with that rank settle.  At most
    :data:`SEARCH_SETUPS_PER_QUERY` are kept.
    """
    rank = tuple(sorted(compiled.variables, key=sizes.__getitem__))
    setups = compiled.search_setups
    found = setups.get((head, rank))
    if found is not None:
        return found
    decomposition = compiled.decomposition
    pinned = _separators(decomposition)
    for root in decomposition.roots:
        pinned[root] = tuple(v for v in head if v in decomposition.bags[root])
    setup = []
    for bag, prefix, children in zip(decomposition.bags, pinned, decomposition.children()):
        plan = _plan_bag(
            bag,
            [atom for atom in compiled.atoms if atom.source in bag and atom.target in bag],
            sizes,
            compiled.variable_index,
            frozenset(prefix).union(*(pinned[c] for c in children)),
            (),
            merge_unions=False,
            pinned=prefix,
        )
        # Per position: the atoms to variables outside the bag, as ``(axis,
        # whether the variable is the source, the other end)``.
        ahead = [
            [
                (atom.axis, atom.source == variable, atom.other(variable))
                for atom in compiled.atoms_of(variable)
                if atom.other(variable) not in bag
            ]
            for variable in plan.order
        ]
        requests = [
            (child, _projector([plan.position[v] for v in pinned[child]])) for child in children
        ]
        setup.append((plan, ahead, requests))
    found = (pinned, setup)
    if len(setups) < SEARCH_SETUPS_PER_QUERY:
        setups[(head, rank)] = found
    return found


def _separators(decomposition: TreeDecomposition) -> list[tuple[Variable, ...]]:
    """Per bag, the (sorted) variables it shares with its parent; ``()`` at a root."""
    bags = decomposition.bags
    return [
        tuple(sorted(bags[i] & bags[parent])) if parent >= 0 else ()
        for i, parent in enumerate(decomposition.parent)
    ]


def _reduce(
    decomposition: TreeDecomposition,
    relations: list[_BagRelation],
) -> bool:
    """Bottom-up then top-down semijoin passes; False iff some bag empties."""
    parent = decomposition.parent
    separators = _separators(decomposition)

    def semijoin(watched: _BagRelation, support: _BagRelation, separator) -> bool:
        keys = set(map(_projector(support.project_positions(separator)), support.rows))
        key_of = _projector(watched.project_positions(separator))
        watched.rows = [row for row in watched.rows if key_of(row) in keys]
        return bool(watched.rows)

    # Bottom-up: children have larger indices, so visiting bags in decreasing
    # index order sees every child fully reduced before it filters its parent.
    for i in range(len(parent) - 1, -1, -1):
        if not relations[i].rows:
            return False
        if parent[i] >= 0:
            semijoin(relations[parent[i]], relations[i], separators[i])
    # Top-down: parents precede children, so increasing order propagates the
    # root's reduction all the way down; afterwards every relation is globally
    # consistent along the tree.
    for i in range(len(parent)):
        if parent[i] >= 0 and not semijoin(relations[i], relations[parent[i]], separators[i]):
            return False
    return True


def _collect_answers(
    decomposition: TreeDecomposition,
    relations: list[_BagRelation],
    head: tuple[Variable, ...],
) -> list[Row]:
    """Bottom-up join-project pass: the sorted answers without the full join.

    Each bag reduces to a relation over ``separator(bag) U (head variables
    seen in its subtree)``; children are folded in one at a time through a
    hash join on their separator and a projection that drops columns is
    deduplicated immediately, so intermediate sizes stay polynomial in
    input + output for bounded width and arity.  Nothing is sorted before the
    end, and that one sort is a linear scan when the rows arrive in wire
    order -- as the rows of a one-bag tree do, for which every loop below is
    empty.
    """
    parent = decomposition.parent
    bags = decomposition.bags
    head_set = set(head)
    children = decomposition.children()

    reduced: list[Optional[_BagRelation]] = [None] * len(parent)
    for i in range(len(parent) - 1, -1, -1):
        relation = relations[i]
        columns = list(relation.columns)
        rows = relation.rows
        for child in children[i]:
            child_relation = reduced[child]
            assert child_relation is not None
            shared = [v for v in child_relation.columns if v in relation.position]
            extra = [v for v in child_relation.columns if v not in relation.position]
            key_of = _projector(child_relation.project_positions(shared))
            extra_of = _projector(child_relation.project_positions(extra))
            matches: dict[Row, list[Row]] = {}
            for row in child_relation.rows:
                matches.setdefault(key_of(row), []).append(extra_of(row))
            key_of = _projector([columns.index(v) for v in shared])
            rows = [row + extension for row in rows for extension in matches.get(key_of(row), ())]
            columns.extend(extra)
            reduced[child] = None  # free the child relation eagerly
        keep = [v for v in columns if v in head_set or (parent[i] >= 0 and v in bags[parent[i]])]
        if len(keep) < len(columns):
            rows = list(set(map(_projector([columns.index(v) for v in keep]), rows)))
        reduced[i] = _BagRelation(tuple(keep), rows)

    # Cross-combine the (disjoint) root relations and read the head off.
    first, *others = (reduced[root] for root in decomposition.roots)
    columns, answers = list(first.columns), first.rows
    for root_relation in others:
        columns.extend(root_relation.columns)
        answers = [row + suffix for row in answers for suffix in root_relation.rows]
    if tuple(columns) != head:
        answers = list(map(_projector([columns.index(v) for v in head]), answers))
    answers.sort()
    return answers


def _evaluate(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    compiled: Optional["CompiledQuery"],
    limit: Optional[int] = None,
) -> tuple[list[Row], int]:
    """``(sorted answers, exact count)``; the first ``limit`` answers at least are built."""
    from ..evaluation.compile import compile_query

    if compiled is None:
        compiled = compile_query(query)
    if not compiled.variables:
        return [()], 1
    head = query.head
    if not head:
        return ([()], 1) if _search_first(compiled, structure, pinned) else ([], 0)
    result = _candidates(compiled, structure, pinned)
    if result is None:
        return [], 0
    decomposition = _decomposition(compiled)
    if len(head) == 1 and len(decomposition.bags) > 1:
        with tracing.span("search", bags=len(decomposition.bags)):
            search = _JoinTreeSearch(
                compiled, head, result.views, result.domain_sizes(), structure.index
            )
            answers = search.answers(result.sorted_domain(head[0]))
            tracing.annotate(memo=len(search.memo), answers=len(answers))
        return answers, len(answers)
    head_set = frozenset(head)
    children = decomposition.children()
    # The rows of a one-bag tree are the answers: only there can a limit stop
    # the building of rows (never the first: empty means unsatisfiable).
    single = len(decomposition.bags) == 1
    bag_limit = max(limit, 1) if single and limit is not None else None
    relations: list[_BagRelation] = []
    bag_rows: list[int] = []
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
            relation, count = _materialize_bag(
                bag,
                bag_atoms,
                result,
                structure,
                compiled.variable_index,
                frozenset(needed),
                head=head,
                limit=bag_limit,
            )
            if not relation.rows:
                return [], 0
            relations.append(relation)
            bag_rows.append(count)
        # Under a limit a bag counts rows it does not build: report both.
        tracing.annotate(
            bag_rows=bag_rows, rows_built=[len(relation.rows) for relation in relations]
        )
    with tracing.span("semijoin"):
        reduced = _reduce(decomposition, relations)
    if not reduced:
        return [], 0
    with tracing.span("enumerate", strategy="join_tree"):
        answers = _collect_answers(decomposition, relations, head)
        if not single:
            count = len(answers)
        tracing.annotate(answers=count)
    return answers, count


def _candidates(
    compiled: "CompiledQuery",
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    initial: Optional[Mapping[Variable, Sequence[int]]] = None,
) -> Optional["PropagationResult"]:
    """Sound candidate supersets for the bags; ``None`` refutes the query.

    The bags enforce every atom, so on a cyclic body ``semijoin`` sweeps a
    spanning forest (:func:`~repro.evaluation.propagation.choose_propagator`).
    The sweeps start from ``initial`` when the caller built the columns.
    """
    from ..evaluation.propagation import candidate_supersets, choose_propagator

    propagator = choose_propagator(compiled, decomposition=True)
    return candidate_supersets(compiled, structure, pinned, propagator, initial)


def _decomposition(compiled: "CompiledQuery") -> TreeDecomposition:
    with tracing.span("decompose"):
        decomposition = compiled.decomposition
        tracing.annotate(
            width=decomposition.width,
            exact=decomposition.exact,
            method=decomposition.method,
            bags=len(decomposition.bags),
        )
    return decomposition


def _search_first(
    compiled: "CompiledQuery",
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
) -> bool:
    """A Boolean head: search the initial columns first, and sweep only if that runs long.

    The first attempt walks the label columns as they are (resident views,
    :meth:`~repro.trees.structure.TreeStructure.resident_view`) and may touch
    :data:`SEARCH_TOUCHES_PER_CANDIDATE` candidates per initial candidate;
    none is made when that is fewer than the variables, since a witness
    touches a candidate of each.  When it runs out, the columns are swept
    (:func:`_candidates`, from the columns already built) and the search
    starts over on them, its memo kept.
    The ``search`` span records ``swept``.
    """
    from ..evaluation.reducer import initial_columns

    columns = initial_columns(compiled, structure, pinned)
    if not all(columns.values()):
        return False
    decomposition = _decomposition(compiled)
    with tracing.span("search", bags=len(decomposition.bags)):
        sizes = {variable: len(column) for variable, column in columns.items()}
        touches = SEARCH_TOUCHES_PER_CANDIDATE * sum(sizes.values())
        memo: dict[tuple[int, Row], bool] = {}
        holds = None
        # A witness touches a candidate of every variable: below that, sweep.
        if touches >= len(sizes):
            views = _unswept_views(compiled, structure, pinned, columns)
            ticks = _allowance(int(touches)) if touches < math.inf else None
            try:
                holds = _JoinTreeSearch(
                    compiled, (), views, sizes, structure.index, ticks, memo
                ).satisfiable()
            except _AllowanceSpent:
                pass
        swept = holds is None
        if swept:
            result = _candidates(compiled, structure, pinned, columns)
            holds = result is not None and _JoinTreeSearch(
                compiled, (), result.views, result.domain_sizes(), structure.index, memo=memo
            ).satisfiable()
        tracing.annotate(swept=swept, memo=len(memo), answers=int(holds))
    return holds


def _unswept_views(
    compiled: "CompiledQuery",
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    columns: Mapping[Variable, Sequence[int]],
) -> dict[Variable, object]:
    """Views of the initial columns: the resident ones wherever a label column is unnarrowed."""
    narrowed = {loop.source for loop in compiled.loops}.union(pinned or ())
    views: dict[Variable, object] = {}
    for variable, column in columns.items():
        labels = compiled.labels_by_variable.get(variable, ())
        if variable in narrowed or len(labels) > 1:
            views[variable] = structure.index.view(column, presorted=True)
        else:
            views[variable] = structure.resident_view(labels[0] if labels else None)
    return views


def boolean_query_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    compiled: Optional["CompiledQuery"] = None,
) -> bool:
    """Boolean evaluation: the memoised join-tree search, stopped at the first witness.

    ``compiled`` (of the Boolean ``query``) skips the compile-cache lookup.
    """
    if not query.is_boolean:
        query, compiled = query.as_boolean(), None
    _, count = _evaluate(query, structure, pinned, compiled)
    return count > 0


def answer_page(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    compiled: Optional["CompiledQuery"] = None,
    limit: Optional[int] = None,
) -> tuple[list[Row], int]:
    """The first ``limit`` answers in ascending order, and how many there are.

    Boolean queries yield ``[()]`` / ``[]``.
    """
    answers, count = _evaluate(query, structure, pinned, compiled, limit)
    return answers[:limit], count


def evaluate_answers(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    compiled: Optional["CompiledQuery"] = None,
    *,
    propagator=None,
) -> frozenset[Row]:
    """All answers of a (possibly cyclic) k-ary query via the join tree.

    :func:`answer_page` without a limit, as a set; the answer *set* is
    identical to :func:`repro.evaluation.backtracking.answers` on every query,
    which the property tests enforce.  ``propagator`` chooses nothing: it must be the plan's
    pick for this engine (``semijoin``), else ``ValueError``.
    """
    # benchmarks/e2e/layers.py still passes the plan's pick; the keyword
    # leaves with ROADMAP item 2, like QueryPlan.materialize.
    if propagator is not None:
        from ..evaluation.compile import compile_query
        from ..evaluation.propagation import check_propagator

        if compiled is None:
            compiled = compile_query(query)
        check_propagator(compiled, propagator, decomposition=True)
    return frozenset(answer_page(query, structure, pinned, compiled)[0])

"""The Yannakakis full reducer as a propagator (``Propagator.SEMIJOIN``).

Over a forest-shaped body the subset-maximal arc-consistent prevaluation of
Proposition 3.1 *is* the per-variable projection of the solution set, and two
directional semijoin sweeps along the query's own shadow forest compute that
projection exactly (the full reducer of acyclic evaluation, Gottlob-Leone-
Scarcello): leaves to root (:func:`upward_sweep`), every parent keeps the
candidates with a partner in each child; root to leaves
(:func:`downward_sweep`), every child keeps the candidates with a partner in
its parent.  No worklist, no support counters, no deletions: one semijoin per
edge per sweep, each producing a *sorted* survivor column from two sorted
columns, and none of them a pass over the document.  ``Child+`` and
``Child*`` are pre-order intervals (``u`` is an ancestor of ``w`` iff ``u <
w <= end(u)``), so a watched node that needs an ancestor in the support lies
under the support's *staircase* -- the disjoint subtrees of its outermost
nodes (the staircase join of Grust, van Keulen and Teubner, VLDB 2003) --
read as one window of the watched column per stair.  One that needs a
descendant is an ancestor of a support node: walking up from the support
marks each such node once.  A few watched candidates against a large support
bisect it (or its staircase) one by one instead.

The first sweep alone already makes every component root's column exact (a
kept root candidate extends to a solution of its whole component), and the
roots are head variables wherever the head has one
(:attr:`CompiledQuery.sweep_roots`): a Boolean body holds iff no column
empties on the way up, and a monadic head's answers are its root column.  So
:func:`repro.evaluation.propagation.propagate` runs the second sweep only when
a consumer reads a column it did not settle.

Domains start from the resident sorted label columns (the identity column
``index.pre`` for an unlabeled variable) and stay sorted throughout, so
nothing downstream re-sorts them.  On a cyclic body the same two sweeps run
over a spanning forest (:attr:`CompiledQuery.sweep_order` drops the chord
atoms) and compute a *superset* of the fixpoint: refused by ``propagate``
(its verdict must be exact), swept by
:func:`~repro.evaluation.propagation.candidate_supersets` for the engines
that enforce every atom anyway (the decomposition engine, the backtracking
search).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import le, lt
from typing import Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..trees.axes import Axis
from ..trees.columnar import expand_windows
from ..trees.index import AxisIndex
from ..trees.structure import TreeStructure
from .compile import CompiledQuery

#: From this many watched candidates per stair of the support's staircase on,
#: a backward ``Child+``/``Child*`` semijoin reads the watched column as one
#: window per stair instead of bisecting the stairs per candidate.
WATCHED_PER_STAIR = 2
#: From this many watched candidates per support node on, a forward
#: ``Child+``/``Child*`` semijoin walks up from the support (one mask lookup per
#: candidate after it) instead of bisecting the support per candidate.  The
#: walk pays an interpreted step per support node, the bisection a C-level
#: search per candidate: on a 10k-node tree they cross near one to one.
#: ``benchmarks/bench_planner.py``'s ``ablation_reducer_*`` entries force
#: either read of both crossovers and hold them.
WATCHED_PER_SUPPORT = 1


def semijoin_sweeps(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    initial: Optional[Mapping[Variable, Sequence[int]]] = None,
) -> Optional[dict[Variable, list[int]]]:
    """One leaves-to-root and one root-to-leaves sweep over ``sweep_order``.

    On a forest-shaped body this is the fixpoint; on a cyclic one the columns
    are arc consistent along the spanning forest only -- sorted supersets of
    the fixpoint's domains (and subsets of the initial ones), ``None`` when
    one of them empties, which already refutes the query.  ``initial`` is as
    in :func:`upward_sweep`.
    """
    columns = upward_sweep(compiled, structure, pinned, initial)
    if columns is None:
        return None
    downward_sweep(compiled, structure, columns)
    # Fresh lists: an isolated variable's column is still the resident one.
    return {variable: list(column) for variable, column in columns.items()}


def upward_sweep(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    initial: Optional[Mapping[Variable, Sequence[int]]] = None,
) -> Optional[dict[Variable, Sequence[int]]]:
    """The leaves-to-root half: every parent keeps the candidates with a partner in each child.

    ``None`` when a column empties.  The columns are sorted and may be the
    resident ones (a column no semijoin narrowed is not copied); on a forest
    the roots' columns are exact, the others still supersets.  ``initial``
    is :func:`initial_columns` of the same arguments, when the caller has
    built it already; the sweep rebinds the entries of a copy.
    """
    columns = initial_columns(compiled, structure, pinned) if initial is None else dict(initial)
    if not all(columns.values()):
        return None
    for child, atom in reversed(compiled.sweep_order):
        parent = atom.other(child)
        kept = _semijoin(
            atom.axis, columns[parent], columns[child], parent == atom.source, structure
        )
        if not kept:
            return None
        columns[parent] = kept
    return columns


def downward_sweep(
    compiled: CompiledQuery,
    structure: TreeStructure,
    columns: dict[Variable, Sequence[int]],
) -> None:
    """The root-to-leaves half, in place on the columns of :func:`upward_sweep`.

    Every child keeps the candidates with a partner in its parent.  Every
    surviving parent candidate has a partner in each child, so no column
    empties, and the roots' columns do not change.
    """
    for child, atom in compiled.sweep_order:
        parent = atom.other(child)
        columns[child] = _semijoin(
            atom.axis, columns[child], columns[parent], child == atom.source, structure
        )


def initial_columns(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
) -> dict[Variable, Sequence[int]]:
    """Sorted label columns with pinning and the loop filters applied (some may be empty)."""
    columns: dict[Variable, Sequence[int]] = {}
    for variable in compiled.variables:
        labels = compiled.labels_by_variable.get(variable, ())
        if not labels:
            columns[variable] = structure.index.pre
            continue
        column = structure.unary_members(labels[0])
        for label in labels[1:]:
            column = list(filter(structure.unary_member_set(label).__contains__, column))
        columns[variable] = column
    for variable, node in (pinned or {}).items():
        if variable not in columns:
            raise ValueError(f"pinned variable {variable!r} not in the query")
        column = columns[variable]
        position = bisect_left(column, node)
        found = position < len(column) and column[position] == node
        columns[variable] = [node] if found else []
    for loop in compiled.loops:
        columns[loop.source] = [
            node for node in columns[loop.source] if structure.axis_holds(loop.axis, node, node)
        ]
    return columns


def _semijoin(
    axis: Axis,
    watched: Sequence[int],
    support: Sequence[int],
    forward: bool,
    structure: TreeStructure,
) -> Sequence[int]:
    """The ``watched`` candidates with an ``axis`` partner in ``support``.

    Both columns are sorted and non-empty; the result is sorted and may be
    empty.  ``forward`` means the watched variable is the atom's source
    (partners are successors).
    """
    index = structure.index
    if axis is Axis.CHILD:
        parent = index.parent
        if forward:
            parents = set(map(parent.__getitem__, support))
            return list(filter(parents.__contains__, watched))
        members = range(index.n) if len(support) == index.n else set(support)
        return list(compress(watched, map(members.__contains__, map(parent.__getitem__, watched))))
    if axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
        if forward and len(support) == index.n:
            # Every node is a support: u has itself, and a strict descendant
            # iff its subtree is more than u.
            if axis is Axis.CHILD_STAR:
                return watched
            ends = map(index.subtree_end.__getitem__, watched)
            return list(compress(watched, map(lt, watched, ends)))
        return _subtree_semijoin(watched, support, forward, axis is Axis.CHILD_STAR, index)
    if axis is Axis.FOLLOWING:
        end = index.subtree_end
        if forward:
            # Some support node opens after u's subtree closes.
            bound = support[-1]
            prefix = watched[: bisect_left(watched, bound)]
            return list(compress(prefix, map(bound.__gt__, map(end.__getitem__, prefix))))
        # Some support subtree closes before w opens.
        return watched[bisect_right(watched, min(map(end.__getitem__, support))) :]
    if axis is Axis.DOCUMENT_ORDER:
        if forward:
            return watched[: bisect_left(watched, support[-1])]
        return watched[bisect_right(watched, support[0]) :]
    # Local and sibling axes: one O(1) witness test per candidate against the
    # support's view (its per-parent sibling extrema are built once).
    view = index.view(support, presorted=True)
    has_partner = index.has_successor_in if forward else index.has_predecessor_in
    return [node for node in watched if has_partner(axis, node, view)]


def _subtree_semijoin(
    watched: Sequence[int],
    support: Sequence[int],
    forward: bool,
    reflexive: bool,
    index: AxisIndex,
) -> Sequence[int]:
    """``Child+`` (``Child*`` when ``reflexive``) semijoin over pre-order ranges.

    ``u`` is a strict ancestor of ``w`` iff ``u < w <= end(u)``.  Backward
    (every watched node needs an ancestor in the support) reads the support's
    staircase; forward (a descendant) marks the support's ancestors once the
    watched column outnumbers the support :data:`WATCHED_PER_SUPPORT` times,
    and bisects the support per candidate below that.
    """
    if not forward:
        return _under_staircase(watched, support, reflexive, index)
    if len(watched) >= WATCHED_PER_SUPPORT * len(support):
        # Walk up from every support node (from its parent, when strict),
        # marking each ancestor once: a marked node's ancestors are marked
        # already, and none below the first watched node is asked for.
        parent, low = index.parent, watched[0]
        mark = bytearray(index.n)
        for node in support if reflexive else map(parent.__getitem__, support):
            while node >= low and not mark[node]:
                mark[node] = 1
                node = parent[node]
        return list(compress(watched, map(mark.__getitem__, watched)))
    # The first support node after u (at u, when reflexive) still lies
    # inside u's subtree.
    following = map(bisect_left if reflexive else bisect_right, repeat(support), watched)
    first = map([*support, index.n].__getitem__, following)
    return list(compress(watched, map(le, first, map(index.subtree_end.__getitem__, watched))))


def _under_staircase(
    watched: Sequence[int], support: Sequence[int], reflexive: bool, index: AxisIndex
) -> Sequence[int]:
    """The watched nodes below (or at, when ``reflexive``) a support node.

    Only the support's outermost nodes matter: their subtrees are disjoint,
    ascending pre-order ranges that cover every other support node's (the
    staircase of Grust, van Keulen and Teubner's staircase join), kept by a
    prefix maximum of subtree ends.  (A plain loop: ``accumulate(..., max)``
    pays a builtin call per element and measures 4x slower; bisecting past
    each stair's subtree measures 5x slower on a support that does not
    nest.)  A full support's staircase is the root.
    """
    subtree_end = index.subtree_end
    tops, ends, reach = [], [], -1
    for top in support[:1] if len(support) == index.n else support:
        if top > reach:
            reach = subtree_end[top]
            tops.append(top)
            ends.append(reach)
    if watched is index.pre:
        # The identity column: a stair's window is its own range.
        lo = tops if reflexive else map((1).__add__, tops)
        return expand_windows(watched, lo, map((1).__add__, ends))
    if len(watched) >= WATCHED_PER_STAIR * len(tops):
        lo = list(map(bisect_left if reflexive else bisect_right, repeat(watched), tops))
        return expand_windows(watched, lo, map(bisect_right, repeat(watched), ends, lo))
    # The last stair opening before w (at w, when reflexive) still covers w.
    before = map(bisect_right if reflexive else bisect_left, repeat(tops), watched)
    return list(compress(watched, map(le, watched, map([-1, *ends].__getitem__, before))))

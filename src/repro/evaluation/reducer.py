"""The Yannakakis full reducer as a propagator (``Propagator.SEMIJOIN``).

Over a forest-shaped body the subset-maximal arc-consistent prevaluation of
Proposition 3.1 *is* the per-variable projection of the solution set, and two
directional semijoin sweeps along the query's own shadow forest compute that
projection exactly (the full reducer of acyclic evaluation, Gottlob-Leone-
Scarcello): leaves to root, every parent keeps the candidates with a partner
in each child; root to leaves, every child keeps the candidates with a partner
in its parent.  No worklist, no support counters, no deletions: one semijoin
per edge per sweep, each producing a *sorted* survivor column from two sorted
columns in a few C-level passes.

Domains start from the resident sorted label columns (the identity column
``index.pre`` for an unlabeled variable) and stay sorted throughout, so
nothing downstream re-sorts them.  On a cyclic body the same two sweeps run
over a spanning forest (:attr:`CompiledQuery.sweep_order` drops the chord
atoms) and compute a *superset* of the fixpoint: refused by ``propagate``
(its contract is the exact prevaluation), swept by the decomposition engine
(:func:`semijoin_sweeps`), whose bags enforce every atom anyway.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, filterfalse, repeat
from operator import le, lt
from typing import Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..trees.axes import Axis
from ..trees.columnar import (
    ancestor_counts,
    cumulative_end_membership,
    cumulative_membership,
    descendant_counts,
    membership_mask,
    survivors,
)
from ..trees.index import AxisIndex
from ..trees.structure import TreeStructure
from .arc_consistency import _unsupported_backward, _unsupported_forward
from .compile import CompiledQuery

#: Above this many bisection steps per tree node, one ``Child+``/``Child*``
#: semijoin switches from a bisection per candidate to the O(n) cumulative
#: membership kernels.  Bisection wins on label-selective columns, the kernels
#: on unlabeled variables; ``benchmarks/bench_planner.py``'s
#: ``ablation_reducer_*`` entries force either side and hold the crossover.
BISECT_STEPS_PER_NODE = 4


def semijoin_fixpoint(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[dict[Variable, list[int]]]:
    """The arc-consistent fixpoint of a forest-shaped body, as sorted columns.

    Returns ``None`` when some variable loses every candidate.  Raises
    :class:`ValueError` on a cyclic body (a client error on the wire).
    """
    if not compiled.shadow_is_forest:
        raise ValueError(
            "propagator 'semijoin' needs a forest-shaped body; "
            "use ac4, ac3, horn or hybrid on cyclic queries"
        )
    return semijoin_sweeps(compiled, structure, pinned)


def semijoin_sweeps(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[dict[Variable, list[int]]]:
    """One leaves-to-root and one root-to-leaves sweep over ``sweep_order``.

    On a forest-shaped body this is the fixpoint; on a cyclic one the columns
    are arc consistent along the spanning forest only -- sorted supersets of
    the fixpoint's domains (and subsets of the initial ones), ``None`` when
    one of them empties, which already refutes the query.
    """
    columns = _initial_columns(compiled, structure, pinned)
    if columns is None:
        return None
    order = compiled.sweep_order
    for child, atom in reversed(order):
        parent = atom.other(child)
        kept = _semijoin(
            atom.axis, columns[parent], columns[child], parent == atom.source, structure
        )
        if not kept:
            return None
        columns[parent] = kept
    # Every surviving parent candidate has a partner in each child, so the
    # downward sweep cannot empty a column.
    for child, atom in order:
        parent = atom.other(child)
        columns[child] = _semijoin(
            atom.axis, columns[child], columns[parent], child == atom.source, structure
        )
    # Fresh lists: an isolated variable's column is still the resident one.
    return {variable: list(column) for variable, column in columns.items()}


def _initial_columns(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
) -> Optional[dict[Variable, Sequence[int]]]:
    """Sorted label columns with pinning and the loop filters applied."""
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
    return columns if all(columns.values()) else None


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
        if len(support) == index.n:
            # Every node is a support: u has itself, a strict descendant iff
            # its subtree is more than u, a strict ancestor iff it has a parent.
            if axis is Axis.CHILD_STAR:
                return watched
            if forward:
                ends = map(index.subtree_end.__getitem__, watched)
                return list(compress(watched, map(lt, watched, ends)))
            return list(compress(watched, map((0).__le__, map(index.parent.__getitem__, watched))))
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
    unsupported = _unsupported_forward if forward else _unsupported_backward
    dead = unsupported(
        axis, index.mutable_view(watched, True), index.mutable_view(support, True), index
    )
    return list(filterfalse(set(dead).__contains__, watched)) if dead else watched


def _subtree_semijoin(
    watched: Sequence[int],
    support: Sequence[int],
    forward: bool,
    reflexive: bool,
    index: AxisIndex,
) -> list[int]:
    """``Child+`` (``Child*`` when ``reflexive``) semijoin over pre-order ranges."""
    n = index.n
    if len(watched) * len(support).bit_length() > BISECT_STEPS_PER_NODE * n:
        cum = cumulative_membership(support, n)
        if forward:
            counts = descendant_counts(watched, index.subtree_end_plus1, cum, reflexive)
        else:
            counts = ancestor_counts(
                watched,
                cum,
                cumulative_end_membership(support, index.subtree_end, n),
                membership_mask(support, n) if reflexive else None,
            )
        return survivors(watched, counts)
    if forward:
        # The first support node after u (at u, when reflexive) still lies
        # inside u's subtree.
        following = map(bisect_left if reflexive else bisect_right, repeat(support), watched)
        first = map([*support, n].__getitem__, following)
        return list(compress(watched, map(le, first, map(index.subtree_end.__getitem__, watched))))
    # Some support node s before w (at w, when reflexive) whose subtree still
    # covers w: a prefix maximum of subtree ends over the sorted support.  (A
    # plain loop: ``accumulate(..., max)`` pays a builtin call per element and
    # measures 4x slower.)
    ends, reach = [-1], -1
    for end in map(index.subtree_end.__getitem__, support):
        if end > reach:
            reach = end
        ends.append(reach)
    before = map(bisect_right if reflexive else bisect_left, repeat(support), watched)
    return list(compress(watched, map(le, watched, map(ends.__getitem__, before))))

"""Pre/post-order interval index for axis evaluation (the "accelerator" view).

Every axis in the paper's set ``Ax`` (Section 2) has a *constant-size
characterization* in pre/post-order coordinates.  Writing ``pre(u)`` for the
pre-order (document-order) rank and ``post(u)`` for the post-order rank:

==================  =====================================================
Axis                pre/post characterization
==================  =====================================================
``Child+(u, v)``    ``pre(u) < pre(v)`` and ``post(v) < post(u)``
``Child*(u, v)``    ``u = v`` or ``Child+(u, v)``
``Following(u,v)``  ``pre(u) < pre(v)`` and ``post(u) < post(v)``
``Child(u, v)``     ``parent(v) = u``
``NextSibling``     same parent, sibling rank differs by one
``NextSibling+``    same parent, sibling rank strictly increases
``NextSibling*``    ``u = v`` or ``NextSibling+(u, v)``
==================  =====================================================

The ``Following`` row is exactly the paper's Eq. (1),

    ``Following(x, y) = exists z1 z2 . Child*(z1, x) & NextSibling+(z1, z2)
    & Child*(z2, y)``,

unfolded over a tree: ``x``'s subtree closes before ``y``'s subtree opens.
This is the encoding used by XPath-on-RDBMS "accelerator" systems, and it
turns every axis test into a comparison of a constant number of integer ranks.

:class:`AxisIndex` packages, per tree,

* the rank arrays ``pre`` (identity on node ids), ``post``, ``bflr``,
* the local-structure arrays ``parent``, ``next_sibling``, ``prev_sibling``,
  ``sibling_index``, ``subtree_end``,

and answers the two questions the evaluation algorithms actually ask:

* ``holds(axis, u, v)`` -- the O(1) rank-comparison membership test;
* ``has_successor_in(axis, u, view)`` / ``has_predecessor_in(axis, v, view)``
  -- "does ``u`` have an axis witness inside a candidate set ``S``?", answered
  in O(1) or O(log n) against a :class:`DomainView` (a sorted-array view of
  ``S`` with lazily built companion aggregates) instead of enumerating the
  axis relation.

The witness primitives are what make one semijoin over a local axis
O((|S| + |T|) log n) instead of O(|S| * n) (see
:mod:`repro.evaluation.reducer`), and the backtracking forward checker and
the decomposition engine's bag builders probe them per candidate.

Interval reasoning used by the witness tests (``end`` = ``subtree_end``):

* descendants of ``u`` are exactly the pre-range ``(u, end(u)]`` -- so a
  ``Child+`` witness is one :func:`range_any` bisection;
* ancestors of ``v`` are the ``u < v`` with ``end(u) >= v`` -- so an ancestor
  witness is a prefix-maximum of ``end`` over the sorted view;
* ``Following(u, v)`` iff ``v > end(u)`` -- so a ``Following`` witness is a
  single comparison against ``max(S)`` resp. ``min over S of end``;
* ``NextSibling+`` witnesses reduce to per-parent extrema of sibling ranks.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Optional, Sequence

from .axes import INVERSE, Axis
from .columnar import COLUMN_TYPECODE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (Tree builds us lazily)
    from .tree import Tree


# ---------------------------------------------------------------------------
# Bisect primitives over sorted integer arrays.
# ---------------------------------------------------------------------------


def range_count(sorted_ids: Sequence[int], lo: int, hi: int) -> int:
    """Number of elements of ``sorted_ids`` in the half-open range ``[lo, hi)``."""
    if hi <= lo:
        return 0
    return bisect_left(sorted_ids, hi) - bisect_left(sorted_ids, lo)


def range_any(sorted_ids: Sequence[int], lo: int, hi: int) -> bool:
    """True iff ``sorted_ids`` has an element in the half-open range ``[lo, hi)``."""
    position = bisect_left(sorted_ids, lo)
    return position < len(sorted_ids) and sorted_ids[position] < hi


def nodes_in_pre_range(sorted_ids: Sequence[int], lo: int, hi: int) -> Sequence[int]:
    """The slice of ``sorted_ids`` with pre-order ranks in ``[lo, hi)``."""
    return sorted_ids[bisect_left(sorted_ids, lo) : bisect_left(sorted_ids, hi)]


# ---------------------------------------------------------------------------
# Sorted-array views of candidate sets.
# ---------------------------------------------------------------------------


class DomainView:
    """A candidate node set ``S`` as a sorted array plus lazy aggregates.

    The evaluation algorithms hand candidates around as sorted columns or
    plain ``set`` objects; a ``DomainView`` is the companion representation
    the index queries run against.  Construction is one sort (none when the
    nodes come ``presorted``); each aggregate is built on first use in
    O(|S|) and cached:

    * :attr:`prefix_max_end` -- running maximum of ``subtree_end`` in pre
      order, for ancestor (``Child+`` predecessor) witnesses;
    * :attr:`min_end` -- minimum ``subtree_end`` over ``S``, for ``Following``
      predecessor witnesses;
    * :attr:`max_sibling_rank` / :attr:`min_sibling_rank` -- per-parent
      extrema of sibling ranks, for ``NextSibling+`` witnesses.

    ``array`` is a contiguous ``array``-module column (pre-order sorted), so
    bulk consumers slice and scan it at C speed.
    """

    __slots__ = (
        "index",
        "array",
        "members",
        "_prefix_max_end",
        "_min_end",
        "_max_sibling_rank",
        "_min_sibling_rank",
    )

    def __init__(
        self,
        index: "AxisIndex",
        nodes: Iterable[int],
        presorted: bool = False,
        members: Optional[Collection[int]] = None,
    ):
        self.index = index
        # Snapshot: a view must stay internally consistent even if the caller
        # later mutates the set it was built from.  ``presorted``: ``nodes``
        # is already an ascending duplicate-free sequence, so skip the sort.
        # ``members``: an immutable set of the same nodes the caller already
        # holds (a resident label set), kept instead of a copy.
        self.members = frozenset(nodes) if members is None else members
        self.array: array = array(COLUMN_TYPECODE, nodes if presorted else sorted(self.members))
        self._prefix_max_end: list[int] | None = None
        self._min_end: int | None = None
        self._max_sibling_rank: dict[int, int] | None = None
        self._min_sibling_rank: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.members

    @property
    def prefix_max_end(self) -> list[int]:
        """``prefix_max_end[i] = max(subtree_end[array[j]] for j <= i)``."""
        if self._prefix_max_end is None:
            end = self.index.subtree_end
            self._prefix_max_end = list(accumulate(map(end.__getitem__, self.array), max))
        return self._prefix_max_end

    @property
    def min_end(self) -> int:
        """Minimum ``subtree_end`` over the view (``n`` when empty)."""
        if self._min_end is None:
            end = self.index.subtree_end
            self._min_end = min(map(end.__getitem__, self.array), default=len(end))
        return self._min_end

    @property
    def max_sibling_rank(self) -> dict[int, int]:
        """Per parent id, the maximum sibling rank of a view member under it."""
        if self._max_sibling_rank is None:
            parent = self.index.parent
            rank = self.index.sibling_index
            extrema: dict[int, int] = {}
            for node_id in self.array:
                parent_id = parent[node_id]
                if parent_id >= 0:
                    node_rank = rank[node_id]
                    if extrema.get(parent_id, -1) < node_rank:
                        extrema[parent_id] = node_rank
            self._max_sibling_rank = extrema
        return self._max_sibling_rank

    @property
    def min_sibling_rank(self) -> dict[int, int]:
        """Per parent id, the minimum sibling rank of a view member under it."""
        if self._min_sibling_rank is None:
            parent = self.index.parent
            rank = self.index.sibling_index
            extrema: dict[int, int] = {}
            for node_id in self.array:
                parent_id = parent[node_id]
                if parent_id >= 0:
                    node_rank = rank[node_id]
                    if extrema.get(parent_id, len(rank)) > node_rank:
                        extrema[parent_id] = node_rank
            self._min_sibling_rank = extrema
        return self._min_sibling_rank


# ---------------------------------------------------------------------------
# The index proper.
# ---------------------------------------------------------------------------

#: Axes answered by delegating to the opposite witness of their inverse.
_INVERSE_AXES = frozenset(
    {
        Axis.PARENT,
        Axis.ANCESTOR,
        Axis.ANCESTOR_OR_SELF,
        Axis.PREVIOUS_SIBLING,
        Axis.PRECEDING_SIBLING,
        Axis.PRECEDING,
    }
)


class AxisIndex:
    """Per-tree rank arrays and interval-based axis primitives.

    Construction is O(n); everything is derived from the arrays the
    :class:`~repro.trees.tree.Tree` already carries (node ids *are* pre-order
    ranks, so ``pre`` is the identity).  Use :meth:`view` to wrap a candidate
    set once, then ask :meth:`has_successor_in` / :meth:`has_predecessor_in`
    per node.
    """

    def __init__(self, tree: "Tree"):
        self.tree = tree
        n = len(tree)
        self.n = n
        # Rank arrays are shared with the (immutable) tree, not copied.
        self.pre: list[int] = tree.pre
        self.post: list[int] = tree.post
        self.bflr: list[int] = tree.bflr
        self.parent: list[int] = tree.parent
        self.sibling_index: list[int] = tree.sibling_index
        self.subtree_end: list[int] = tree.subtree_end
        #: ``subtree_end[u] + 1`` precomputed once, so the bag level kernel's
        #: upper-bound lookups run as a single fused ``map`` pipeline.
        self.subtree_end_plus1: list[int] = [end + 1 for end in tree.subtree_end]
        next_sibling = [-1] * n
        prev_sibling = [-1] * n
        for children in tree.children_of:
            for left, right in zip(children, children[1:]):
                next_sibling[left] = right
                prev_sibling[right] = left
        self.next_sibling: list[int] = next_sibling
        self.prev_sibling: list[int] = prev_sibling

    # -- O(1) membership from rank arrays -------------------------------------

    def holds(self, axis: Axis, u: int, v: int) -> bool:
        """Membership test ``axis(u, v)`` by rank comparison (O(1))."""
        if axis is Axis.CHILD:
            return self.parent[v] == u
        if axis is Axis.CHILD_PLUS:
            return u < v and self.post[v] < self.post[u]
        if axis is Axis.CHILD_STAR:
            return u == v or (u < v and self.post[v] < self.post[u])
        if axis is Axis.NEXT_SIBLING:
            return (
                self.parent[u] >= 0
                and self.parent[u] == self.parent[v]
                and self.sibling_index[v] == self.sibling_index[u] + 1
            )
        if axis is Axis.NEXT_SIBLING_PLUS:
            return (
                self.parent[u] >= 0
                and self.parent[u] == self.parent[v]
                and self.sibling_index[v] > self.sibling_index[u]
            )
        if axis is Axis.NEXT_SIBLING_STAR:
            return u == v or self.holds(Axis.NEXT_SIBLING_PLUS, u, v)
        if axis is Axis.FOLLOWING:
            return u < v and self.post[u] < self.post[v]
        if axis is Axis.DOCUMENT_ORDER:
            return u < v
        if axis is Axis.SUCC_PRE:
            return v == u + 1
        if axis is Axis.SELF:
            return u == v
        inverse = INVERSE.get(axis)
        if inverse is not None and inverse is not axis:
            return self.holds(inverse, v, u)
        raise NotImplementedError(f"axis not supported by the index: {axis}")

    # -- sorted-array views ----------------------------------------------------

    def view(
        self,
        nodes: Iterable[int],
        presorted: bool = False,
        members: Optional[Collection[int]] = None,
    ) -> DomainView:
        """Wrap a candidate set in a :class:`DomainView` bound to this index."""
        return DomainView(self, nodes, presorted, members)


    # -- witness tests ---------------------------------------------------------

    def has_successor_in(self, axis: Axis, u: int, view: DomainView) -> bool:
        """Is there a ``v`` in the view with ``axis(u, v)``?"""
        array = view.array
        if not array:
            return False
        if axis is Axis.CHILD:
            return self._child_witness(u, view)
        if axis is Axis.CHILD_PLUS:
            return range_any(array, u + 1, self.subtree_end[u] + 1)
        if axis is Axis.CHILD_STAR:
            return range_any(array, u, self.subtree_end[u] + 1)
        if axis is Axis.NEXT_SIBLING:
            sibling = self.next_sibling[u]
            return sibling >= 0 and sibling in view.members
        if axis is Axis.NEXT_SIBLING_PLUS:
            parent_id = self.parent[u]
            if parent_id < 0:
                return False
            return view.max_sibling_rank.get(parent_id, -1) > self.sibling_index[u]
        if axis is Axis.NEXT_SIBLING_STAR:
            return u in view.members or self.has_successor_in(Axis.NEXT_SIBLING_PLUS, u, view)
        if axis is Axis.FOLLOWING:
            # Following(u, v) iff v opens after u's subtree closes.
            return array[-1] > self.subtree_end[u]
        if axis is Axis.DOCUMENT_ORDER:
            return array[-1] > u
        if axis is Axis.SUCC_PRE:
            return (u + 1) in view.members
        if axis is Axis.SELF:
            return u in view.members
        if axis in _INVERSE_AXES:
            return self.has_predecessor_in(INVERSE[axis], u, view)
        raise NotImplementedError(f"axis not supported by the index: {axis}")

    def has_predecessor_in(self, axis: Axis, v: int, view: DomainView) -> bool:
        """Is there a ``u`` in the view with ``axis(u, v)``?"""
        array = view.array
        if not array:
            return False
        if axis is Axis.CHILD:
            parent_id = self.parent[v]
            return parent_id >= 0 and parent_id in view.members
        if axis is Axis.CHILD_PLUS:
            return self._ancestor_witness(v, view)
        if axis is Axis.CHILD_STAR:
            return v in view.members or self._ancestor_witness(v, view)
        if axis is Axis.NEXT_SIBLING:
            sibling = self.prev_sibling[v]
            return sibling >= 0 and sibling in view.members
        if axis is Axis.NEXT_SIBLING_PLUS:
            parent_id = self.parent[v]
            if parent_id < 0:
                return False
            return view.min_sibling_rank.get(parent_id, self.n) < self.sibling_index[v]
        if axis is Axis.NEXT_SIBLING_STAR:
            return v in view.members or self.has_predecessor_in(Axis.NEXT_SIBLING_PLUS, v, view)
        if axis is Axis.FOLLOWING:
            # Following(u, v) iff u's subtree closes strictly before v opens.
            return view.min_end < v
        if axis is Axis.DOCUMENT_ORDER:
            return array[0] < v
        if axis is Axis.SUCC_PRE:
            return (v - 1) in view.members
        if axis is Axis.SELF:
            return v in view.members
        if axis in _INVERSE_AXES:
            return self.has_successor_in(INVERSE[axis], v, view)
        raise NotImplementedError(f"axis not supported by the index: {axis}")

    # -- witness enumeration ---------------------------------------------------

    def successors_in(self, axis: Axis, u: int, view: DomainView) -> Iterator[int]:
        """Enumerate the ``v`` in the view with ``axis(u, v)``, ascending.

        The interval axes are contiguous pre-order ranges of the sorted view
        (``Child+``: ``(u, end(u)]``, ``Following``: ``(end(u), n)``, ...), so
        enumeration costs O(log |S| + answers) -- this is what lets the
        decomposition engine materialize its bags in output-proportional time
        instead of |S| membership tests per node.  Local axes walk the tree's
        child/sibling pointer arrays; anything else falls back to scanning the
        view with :meth:`holds`.
        """
        array = view.array
        if not array:
            return
        if axis is Axis.CHILD_PLUS:
            yield from nodes_in_pre_range(array, u + 1, self.subtree_end[u] + 1)
        elif axis is Axis.CHILD_STAR:
            yield from nodes_in_pre_range(array, u, self.subtree_end[u] + 1)
        elif axis is Axis.FOLLOWING:
            yield from array[bisect_left(array, self.subtree_end[u] + 1) :]
        elif axis is Axis.DOCUMENT_ORDER:
            yield from array[bisect_left(array, u + 1) :]
        elif axis is Axis.CHILD:
            members = view.members
            children = self.tree.children_of[u]
            lo = bisect_left(array, u + 1)
            hi = bisect_left(array, self.subtree_end[u] + 1)
            if hi - lo < len(children):
                parent = self.parent
                yield from (array[i] for i in range(lo, hi) if parent[array[i]] == u)
            else:
                yield from (child for child in children if child in members)
        elif axis is Axis.NEXT_SIBLING:
            sibling = self.next_sibling[u]
            if sibling >= 0 and sibling in view.members:
                yield sibling
        elif axis is Axis.NEXT_SIBLING_PLUS or axis is Axis.NEXT_SIBLING_STAR:
            members = view.members
            if axis is Axis.NEXT_SIBLING_STAR and u in members:
                yield u
            sibling = self.next_sibling[u]
            while sibling >= 0:
                if sibling in members:
                    yield sibling
                sibling = self.next_sibling[sibling]
        elif axis is Axis.SUCC_PRE:
            if (u + 1) in view.members:
                yield u + 1
        elif axis is Axis.SELF:
            if u in view.members:
                yield u
        elif axis in _INVERSE_AXES:
            yield from self.predecessors_in(INVERSE[axis], u, view)
        else:
            yield from (v for v in array if self.holds(axis, u, v))

    def predecessors_in(self, axis: Axis, v: int, view: DomainView) -> Iterator[int]:
        """Enumerate the ``u`` in the view with ``axis(u, v)``, ascending.

        ``Child+`` predecessors (ancestors) walk the parent chain, so they
        cost O(depth); ``Following`` predecessors filter the view's prefix
        before ``v`` by ``subtree_end < v`` (the set is not an interval in
        pre-order, so O(prefix) is the honest bound).
        """
        array = view.array
        if not array:
            return
        if axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
            members = view.members
            ancestors = []
            if axis is Axis.CHILD_STAR and v in members:
                ancestors.append(v)
            node = self.parent[v]
            while node >= 0:
                if node in members:
                    ancestors.append(node)
                node = self.parent[node]
            yield from sorted(ancestors)
        elif axis is Axis.FOLLOWING:
            end = self.subtree_end
            hi = bisect_left(array, v)
            yield from (array[i] for i in range(hi) if end[array[i]] < v)
        elif axis is Axis.DOCUMENT_ORDER:
            yield from array[: bisect_left(array, v)]
        elif axis is Axis.CHILD:
            parent_id = self.parent[v]
            if parent_id >= 0 and parent_id in view.members:
                yield parent_id
        elif axis is Axis.NEXT_SIBLING:
            sibling = self.prev_sibling[v]
            if sibling >= 0 and sibling in view.members:
                yield sibling
        elif axis is Axis.NEXT_SIBLING_PLUS or axis is Axis.NEXT_SIBLING_STAR:
            members = view.members
            earlier = []
            sibling = self.prev_sibling[v]
            while sibling >= 0:
                if sibling in members:
                    earlier.append(sibling)
                sibling = self.prev_sibling[sibling]
            if axis is Axis.NEXT_SIBLING_STAR and v in members:
                earlier.append(v)
            yield from sorted(earlier)
        elif axis is Axis.SUCC_PRE:
            if v - 1 >= 0 and (v - 1) in view.members:
                yield v - 1
        elif axis is Axis.SELF:
            if v in view.members:
                yield v
        elif axis in _INVERSE_AXES:
            yield from self.successors_in(INVERSE[axis], v, view)
        else:
            yield from (u for u in array if self.holds(axis, u, v))

    # -- helpers ---------------------------------------------------------------

    def _child_witness(self, u: int, view: DomainView) -> bool:
        """Does the view contain a child of ``u``?  O(min(deg, |S cap range|))."""
        children = self.tree.children_of[u]
        if not children:
            return False
        array = view.array
        lo = bisect_left(array, children[0])
        hi = bisect_right(array, children[-1])
        if len(children) <= hi - lo:
            members = view.members
            return any(child in members for child in children)
        parent = self.parent
        return any(parent[array[i]] == u for i in range(lo, hi))

    def _ancestor_witness(self, v: int, view: DomainView) -> bool:
        """Does the view contain a strict ancestor of ``v``?  O(log |S|).

        Ancestors of ``v`` are exactly the ``u < v`` whose subtree interval
        ``(u, subtree_end[u]]`` still covers ``v``, so a prefix maximum of
        ``subtree_end`` over the sorted view decides existence.
        """
        position = bisect_left(view.array, v)
        return position > 0 and view.prefix_max_end[position - 1] >= v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AxisIndex(n={self.n})"

"""AC-4 support-counting propagation over pre/post interval ranks.

The AC-3 worklist of :mod:`arc_consistency` re-scans both whole domains of an
atom on every revise pass; on label-free transitive queries over large trees
the worklist needs many passes, so the same candidates are re-tested over and
over.  This module bounds the total propagation work in the AC-4 style
instead: compute, once, how much
support every (atom-direction, candidate) pair has, then drive all further
work off *deletions* -- when a node leaves a domain, only the candidates it
actually supported are touched, each with an O(1) counter decrement or an
amortized-O(1) threshold pop.

The support bookkeeping exploits the same pre/post interval characterizations
as the index (ROADMAP "Performance & indexing"), one strategy per axis shape:

* **local axes** (``Child``, ``NextSibling``, ``SuccPre``, ``Self``) --
  explicit counters; a deleted node supports O(1) (or O(degree)) candidates,
  found by a direct array lookup (:class:`_LocalCounter`);
* **subtree axes** (``Child+``/``Child*`` in the descendant direction) --
  counters initialised by one bisection per candidate
  (``count = |domain ∩ subtree-interval|``); deleting a node decrements
  exactly its ancestors' counters, found by walking the parent chain
  (:class:`_DescendantCounter`);
* **ancestor direction** -- counters initialised either by per-candidate
  parent-chain walks or by one O(n) stack sweep in pre-order (whichever is
  cheaper); deleting a node decrements the candidates inside its subtree
  interval, enumerated from the incremental view (:class:`_AncestorCounter`);
* **order-statistic axes** (``Following``, ``DocumentOrder``,
  ``NextSibling+``/``NextSibling*``) -- support existence depends only on a
  monotone aggregate of the opposite domain (max pre rank, min subtree end,
  per-parent sibling extrema).  Since domains only shrink, the aggregate moves
  monotonically, and candidates lose support in sorted-threshold order: each
  is popped at most once (:class:`_GlobalThreshold`, :class:`_SiblingThreshold`).

Domains are held in delete-aware
:class:`~repro.trees.index.MutableDomainView`\\ s, which are *maintained*, not
rebuilt, and remain valid at the fixpoint -- the backtracking forward
checker consumes them directly.

The result equals the AC-3 fixpoint and the Horn-SAT least model complement
(the deletion rules are confluent); the property tests cross-check all three.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis
from ..trees.index import MutableDomainView
from ..trees.structure import TreeStructure
from .arc_consistency import bulk_revise_views
from .compile import CompiledQuery, compile_query
from .domains import Domains

#: The fixpoint as maintained views, one per variable.
Views = dict[Variable, MutableDomainView]


# ---------------------------------------------------------------------------
# Support trackers: one per (atom, direction).
# ---------------------------------------------------------------------------


class _Tracker:
    """Support bookkeeping for the candidates of one atom endpoint.

    ``watched`` is the variable whose candidates we keep support counts for;
    ``support`` is the variable whose domain provides the witnesses.  The
    engine calls :meth:`initialise` once (returning the candidates that start
    with no support at all) and :meth:`on_support_delete` after every deletion
    from the support domain (returning the candidates that just lost their
    last witness).  Emitted candidates may already be dead, and the counter
    trackers deliberately keep decrementing stale entries for dead nodes; the
    engine checks liveness exactly once, when it pops a candidate off the
    deletion queue, so the per-decrement hot path stays branch-free.
    """

    __slots__ = ("watched", "support", "watched_view", "support_view")

    def __init__(
        self,
        watched: Variable,
        support: Variable,
        watched_view: MutableDomainView,
        support_view: MutableDomainView,
    ):
        self.watched = watched
        self.support = support
        self.watched_view = watched_view
        self.support_view = support_view

    def initialise(self) -> list[int]:
        raise NotImplementedError

    def on_support_delete(self, node: int) -> list[int]:
        raise NotImplementedError


class _LocalCounter(_Tracker):
    """Counters for axes where each witness supports O(degree) candidates.

    ``supported_by(w)`` enumerates the candidates a witness ``w`` supports
    (e.g. for ``Child`` forward, the single node ``parent(w)``).  Counters are
    initialised from the support side in O(|support domain|) and decremented
    in O(1) per (witness, candidate) pair.
    """

    __slots__ = ("supported_by", "counts")

    def __init__(self, watched, support, watched_view, support_view, supported_by):
        super().__init__(watched, support, watched_view, support_view)
        self.supported_by: Callable[[int], Iterable[int]] = supported_by

    def initialise(self) -> list[int]:
        counts = [0] * self.watched_view.index.n
        for witness in self.support_view.array:
            for candidate in self.supported_by(witness):
                counts[candidate] += 1
        self.counts = counts
        return [u for u in self.watched_view.array if counts[u] == 0]

    def on_support_delete(self, node: int) -> list[int]:
        lost = []
        counts = self.counts
        for candidate in self.supported_by(node):
            remaining = counts[candidate]
            counts[candidate] = remaining - 1
            if remaining == 1:
                lost.append(candidate)
        return lost


class _DescendantCounter(_Tracker):
    """``Child+``/``Child*`` in the descendant direction (watched = ancestor).

    ``count[u] = |support ∩ (u, end(u)]|`` (``[u, end(u)]`` for ``Child*``).
    Initialisation is the per-candidate two-bisection loop: the measured
    columnar variant (cumulative-membership reads via
    ``repro.trees.columnar.descendant_counts``) was parity with it on every
    benchmarked size -- counter init is bisection-bound either way -- so the
    BENCH_columnar ablation retired it.  A deleted witness ``w`` was counted
    by exactly the ancestors(-or-self) of ``w``: walk the parent chain and
    decrement.
    """

    __slots__ = ("include_self", "counts", "_parent", "_end")

    def __init__(self, watched, support, watched_view, support_view, include_self):
        super().__init__(watched, support, watched_view, support_view)
        self.include_self = include_self
        index = watched_view.index
        self._parent = index.parent
        self._end = index.subtree_end

    def initialise(self) -> list[int]:
        watched_array = self.watched_view.array
        n = len(self._parent)
        support_array = self.support_view.array
        end = self._end
        offset = 0 if self.include_self else 1
        counts = [0] * n
        empty = []
        for u in watched_array:
            count = bisect_left(support_array, end[u] + 1) - bisect_left(
                support_array, u + offset
            )
            counts[u] = count
            if count == 0:
                empty.append(u)
        self.counts = counts
        return empty

    def on_support_delete(self, node: int) -> list[int]:
        lost = []
        counts = self.counts
        parent = self._parent
        u = node if self.include_self else parent[node]
        while u >= 0:
            remaining = counts[u]
            counts[u] = remaining - 1
            if remaining == 1:
                lost.append(u)
            u = parent[u]
        return lost


class _AncestorCounter(_Tracker):
    """``Child+``/``Child*`` in the ancestor direction (watched = descendant).

    ``count[w] = |ancestors(-or-self)(w) ∩ support|``, initialised by
    per-candidate parent-chain walks when the watched domain is sparse and by
    one pre-order stack sweep otherwise.  The measured columnar variant (the
    closed form ``cum_pre[w] - cum_end[w]`` via
    ``repro.trees.columnar.ancestor_counts``) was parity with this pair on
    every benchmarked size, so the BENCH_columnar ablation retired it.  A
    deleted support node ``v`` was counted by exactly the candidates inside
    ``v``'s subtree interval, enumerated live from the incremental view.
    """

    __slots__ = ("include_self", "counts", "_parent", "_end")

    def __init__(self, watched, support, watched_view, support_view, include_self):
        super().__init__(watched, support, watched_view, support_view)
        self.include_self = include_self
        index = watched_view.index
        self._parent = index.parent
        self._end = index.subtree_end

    def initialise(self) -> list[int]:
        watched_array = self.watched_view.array
        support_members = self.support_view.members
        parent = self._parent
        n = len(parent)
        counts = [0] * n
        if len(watched_array) * 8 < n:
            for w in watched_array:
                count = 0
                u = w if self.include_self else parent[w]
                while u >= 0:
                    if u in support_members:
                        count += 1
                    u = parent[u]
                counts[w] = count
        else:
            end = self._end
            watched_members = self.watched_view.members
            stack: list[tuple[int, int]] = []  # (subtree_end, counted-in-support)
            running = 0
            for u in range(n):
                while stack and stack[-1][0] < u:
                    running -= stack.pop()[1]
                in_support = 1 if u in support_members else 0
                if u in watched_members:
                    counts[u] = running + (in_support if self.include_self else 0)
                stack.append((end[u], in_support))
                running += in_support
        self.counts = counts
        return [w for w in watched_array if counts[w] == 0]

    def on_support_delete(self, node: int) -> list[int]:
        lost = []
        counts = self.counts
        # The backing array may still hold dead entries; decrementing their
        # stale counters is harmless (the engine liveness-checks on pop) and
        # cheaper than filtering here.
        array = self.watched_view.unpruned_array
        lo = bisect_left(array, node if self.include_self else node + 1)
        hi = bisect_left(array, self._end[node] + 1)
        for position in range(lo, hi):
            w = array[position]
            remaining = counts[w]
            counts[w] = remaining - 1
            if remaining == 1:
                lost.append(w)
        return lost


class _GlobalThreshold(_Tracker):
    """Axes whose support condition is a comparison against a global extremum.

    ``Following`` forward: ``u`` is supported iff some witness opens after
    ``u``'s subtree closes, i.e. iff ``max(support ids) > end(u)``.  As the
    support domain shrinks, the max only decreases, so candidates -- kept
    sorted by their threshold key -- lose support from the top and each is
    popped at most once.  ``flavor='min'`` is the mirrored condition
    (``aggregate < key(u)``), covering the backward direction.
    """

    __slots__ = ("flavor", "_agg_entries", "_agg_pos", "_cands", "_cand_pos")

    def __init__(self, watched, support, watched_view, support_view, flavor, agg_key, cand_key):
        super().__init__(watched, support, watched_view, support_view)
        self.flavor = flavor
        # Support entries sorted by aggregate key; the live extremum is found
        # by advancing a pointer past dead entries (monotone: domains shrink).
        self._agg_entries = sorted(
            ((agg_key(w), w) for w in support_view.array),
            reverse=(flavor == "max"),
        )
        self._agg_pos = 0
        # For 'max', candidates with the LARGEST keys lose support first (the
        # live max only decreases); for 'min', the smallest (the min only
        # increases).  Sorting that way makes the pop pointer monotone.
        self._cands = sorted(
            ((cand_key(u), u) for u in watched_view.array),
            reverse=(flavor == "max"),
        )
        self._cand_pos = 0

    def _aggregate(self) -> Optional[int]:
        entries = self._agg_entries
        members = self.support_view.members
        position = self._agg_pos
        while position < len(entries) and entries[position][1] not in members:
            position += 1
        self._agg_pos = position
        return entries[position][0] if position < len(entries) else None

    def _pop_unsupported(self) -> list[int]:
        aggregate = self._aggregate()
        cands = self._cands
        position = self._cand_pos
        lost = []
        if self.flavor == "max":
            # Candidates (sorted by key descending) unsupported iff key >= max.
            while position < len(cands) and (
                aggregate is None or cands[position][0] >= aggregate
            ):
                lost.append(cands[position][1])
                position += 1
        else:
            # Candidates (sorted by key ascending) unsupported iff key <= min.
            while position < len(cands) and (
                aggregate is None or cands[position][0] <= aggregate
            ):
                lost.append(cands[position][1])
                position += 1
        self._cand_pos = position
        return lost

    def initialise(self) -> list[int]:
        return self._pop_unsupported()

    def on_support_delete(self, node: int) -> list[int]:
        entries = self._agg_entries
        position = self._agg_pos
        if position < len(entries) and entries[position][1] == node:
            return self._pop_unsupported()
        return []


class _SiblingThreshold(_Tracker):
    """``NextSibling+``/``NextSibling*``: per-parent sibling-rank extrema.

    Within one parent, sibling order coincides with pre-order id order, so
    ``u`` has a later-sibling witness iff the max live support id under
    ``parent(u)`` exceeds ``u`` -- a per-group instance of the global
    threshold scheme.  ``NextSibling*`` additionally lets a candidate support
    itself: a candidate that fails the threshold but is itself a live support
    member is parked and re-emitted only when *it* leaves the support domain
    (thresholds never recover, so no recheck is needed).
    """

    __slots__ = (
        "flavor",
        "include_self",
        "_group_entries",
        "_group_pos",
        "_group_cands",
        "_group_cand_pos",
        "_self_supported",
        "_parent",
    )

    def __init__(self, watched, support, watched_view, support_view, flavor, include_self):
        super().__init__(watched, support, watched_view, support_view)
        self.flavor = flavor
        self.include_self = include_self
        parent = watched_view.index.parent
        self._parent = parent
        reverse = flavor == "max"
        group_entries: dict[int, list[int]] = {}
        for w in support_view.array:
            parent_id = parent[w]
            if parent_id >= 0:
                group_entries.setdefault(parent_id, []).append(w)
        # Support arrays are pre-order sorted; flip for max so the pointer
        # always advances towards the surviving extremum.
        if reverse:
            for entry_list in group_entries.values():
                entry_list.reverse()
        self._group_entries = group_entries
        self._group_pos = {parent_id: 0 for parent_id in group_entries}
        group_cands: dict[int, list[int]] = {}
        for u in watched_view.array:
            group_cands.setdefault(parent[u], []).append(u)
        # Mirror of the global tracker: 'max' consumes candidates largest-id
        # first, 'min' smallest-id first.
        if reverse:
            for cand_list in group_cands.values():
                cand_list.reverse()
        self._group_cands = group_cands
        self._group_cand_pos = {parent_id: 0 for parent_id in group_cands}
        self._self_supported: set[int] = set()

    def _aggregate(self, parent_id: int) -> Optional[int]:
        entries = self._group_entries.get(parent_id)
        if entries is None:
            return None
        members = self.support_view.members
        position = self._group_pos[parent_id]
        while position < len(entries) and entries[position] not in members:
            position += 1
        self._group_pos[parent_id] = position
        return entries[position] if position < len(entries) else None

    def _pop_unsupported(self, parent_id: int) -> list[int]:
        cands = self._group_cands.get(parent_id)
        if cands is None:
            return []
        aggregate = None if parent_id < 0 else self._aggregate(parent_id)
        position = self._group_cand_pos[parent_id]
        lost = []
        if self.flavor == "max":
            while position < len(cands) and (
                aggregate is None or cands[position] >= aggregate
            ):
                lost.append(cands[position])
                position += 1
        else:
            while position < len(cands) and (
                aggregate is None or cands[position] <= aggregate
            ):
                lost.append(cands[position])
                position += 1
        self._group_cand_pos[parent_id] = position
        if self.include_self:
            support_members = self.support_view.members
            really_lost = []
            for u in lost:
                if u in support_members:
                    self._self_supported.add(u)
                else:
                    really_lost.append(u)
            return really_lost
        return lost

    def initialise(self) -> list[int]:
        lost = []
        for parent_id in list(self._group_cands):
            lost.extend(self._pop_unsupported(parent_id))
        return lost

    def on_support_delete(self, node: int) -> list[int]:
        lost = []
        if self.include_self and node in self._self_supported:
            # Its sibling threshold had already failed; self-support was all
            # that was left, and thresholds never recover.
            self._self_supported.discard(node)
            lost.append(node)
        parent_id = self._parent[node]
        if parent_id >= 0:
            entries = self._group_entries.get(parent_id)
            if entries is not None:
                position = self._group_pos[parent_id]
                if position < len(entries) and entries[position] == node:
                    lost.extend(self._pop_unsupported(parent_id))
        return lost


# ---------------------------------------------------------------------------
# Tracker construction.
# ---------------------------------------------------------------------------


def _make_trackers(
    structure: TreeStructure,
    atom,
    views: Views,
) -> Sequence[_Tracker]:
    """The forward and backward trackers of one non-loop compiled atom."""
    index = structure.index
    axis = atom.axis
    source_view = views[atom.source]
    target_view = views[atom.target]
    n = index.n
    parent = index.parent
    children_of = index.tree.children_of
    next_sibling = index.next_sibling
    prev_sibling = index.prev_sibling

    def fwd(cls, *args, **kwargs):
        return cls(atom.source, atom.target, source_view, target_view, *args, **kwargs)

    def bwd(cls, *args, **kwargs):
        return cls(atom.target, atom.source, target_view, source_view, *args, **kwargs)

    if axis is Axis.CHILD:
        return (
            fwd(_LocalCounter, lambda w: (parent[w],) if parent[w] >= 0 else ()),
            bwd(_LocalCounter, lambda v: children_of[v]),
        )
    if axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
        include_self = axis is Axis.CHILD_STAR
        return (
            fwd(_DescendantCounter, include_self),
            bwd(_AncestorCounter, include_self),
        )
    if axis is Axis.NEXT_SIBLING:
        return (
            fwd(_LocalCounter, lambda w: (prev_sibling[w],) if prev_sibling[w] >= 0 else ()),
            bwd(_LocalCounter, lambda v: (next_sibling[v],) if next_sibling[v] >= 0 else ()),
        )
    if axis is Axis.NEXT_SIBLING_PLUS or axis is Axis.NEXT_SIBLING_STAR:
        include_self = axis is Axis.NEXT_SIBLING_STAR
        return (
            fwd(_SiblingThreshold, "max", include_self),
            bwd(_SiblingThreshold, "min", include_self),
        )
    if axis is Axis.FOLLOWING:
        end = index.subtree_end
        return (
            fwd(_GlobalThreshold, "max", lambda w: w, lambda u: end[u]),
            bwd(_GlobalThreshold, "min", lambda v: end[v], lambda w: w),
        )
    if axis is Axis.DOCUMENT_ORDER:
        identity = lambda u: u  # noqa: E731 - tiny key functions
        return (
            fwd(_GlobalThreshold, "max", identity, identity),
            bwd(_GlobalThreshold, "min", identity, identity),
        )
    if axis is Axis.SUCC_PRE:
        return (
            fwd(_LocalCounter, lambda w: (w - 1,) if w > 0 else ()),
            bwd(_LocalCounter, lambda v: (v + 1,) if v + 1 < n else ()),
        )
    # Axis.SELF: compiled atoms carry only the ten forward axes, so the last
    # one needs no test.
    return (
        fwd(_LocalCounter, lambda w: (w,)),
        bwd(_LocalCounter, lambda v: (v,)),
    )


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


def ac4_fixpoint(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    initial_views: Optional[Views] = None,
) -> Optional[Views]:
    """The maximal arc-consistent prevaluation as maintained mutable views.

    Returns ``None`` when some variable loses every candidate (the query is
    unsatisfiable on the structure).  The returned views are the live,
    delete-aware representation: callers may hand them straight to the index
    witness primitives or to the backtracking forward checker.

    ``initial_views`` lets a caller seed the engine with views it has already
    (soundly) narrowed -- the hybrid propagator's bulk revise sweep
    (:func:`~repro.evaluation.arc_consistency.bulk_revise_views`) uses this;
    they are adopted without rebuilding.  Seeded views must have the pin and
    self-loop filters applied and be non-empty; confluence of the deletion
    rules guarantees the fixpoint is unchanged.  ``pinned`` therefore cannot
    be combined with a seed (the seed is expected to embody it already).
    """
    if pinned is not None and initial_views is not None:
        raise ValueError(
            "pinned cannot be combined with initial_views; "
            "apply the pin while building the seed instead"
        )
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)

    if initial_views is not None:
        views = initial_views
    else:
        domains = compiled.initial_domains(structure, pinned)
        for domain in domains.values():
            if not domain:
                return None
        # Self-loops R(x, x) are static per-node filters, applied once up front.
        if not compiled.apply_loop_filters(domains, structure):
            return None
        index = structure.index
        views = {
            variable: index.mutable_view(domains[variable]) for variable in compiled.variables
        }

    trackers_by_support: dict[Variable, list[_Tracker]] = {
        variable: [] for variable in compiled.variables
    }
    queue: deque[tuple[Variable, int]] = deque()
    for atom in compiled.edges:
        for tracker in _make_trackers(structure, atom, views):
            trackers_by_support[tracker.support].append(tracker)
            for candidate in tracker.initialise():
                queue.append((tracker.watched, candidate))

    while queue:
        variable, node = queue.popleft()
        if not views[variable].discard(node):
            continue
        if not views[variable].members:
            return None
        for tracker in trackers_by_support[variable]:
            for candidate in tracker.on_support_delete(node):
                queue.append((tracker.watched, candidate))
    return views


def hybrid_fixpoint(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Views]:
    """One bulk AC-3 revise sweep, then AC-4 support counting (``hybrid``).

    The ROADMAP trade-off: on fast-converging queries (pure ``Child+`` chains)
    AC-3's bulk scans beat AC-4's per-candidate bookkeeping, while on
    slow-converging ones (``Following`` chains, cyclic shapes) AC-4's bounded
    total work wins by orders of magnitude.  The hybrid takes one bulk
    revise pass over every edge first -- harvesting the cheap deletions at
    bulk-scan cost, with the staircase kernels running directly on maintained
    views -- and the AC-4 engine adopts those views as its seed, whose counter
    initialisation is now proportionally cheaper.  Both stages delete only
    unsupported candidates, so the fixpoint (and therefore every consumer
    downstream) is identical to the other propagators'.
    """
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    domains = compiled.initial_domains(structure, pinned)
    for domain in domains.values():
        if not domain:
            return None
    if not compiled.apply_loop_filters(domains, structure):
        return None
    index = structure.index
    views: Views = {
        variable: index.mutable_view(domains[variable]) for variable in compiled.variables
    }
    if not bulk_revise_views(compiled, views, structure):
        return None
    return ac4_fixpoint(compiled, structure, initial_views=views)


def maximal_arc_consistent_hybrid(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Domains]:
    """Hybrid twin of :func:`maximal_arc_consistent_ac4` (same fixpoint)."""
    views = hybrid_fixpoint(query, structure, pinned)
    if views is None:
        return None
    return {variable: view.members for variable, view in views.items()}


def maximal_arc_consistent_ac4(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Domains]:
    """AC-4 twin of :func:`~repro.evaluation.arc_consistency.maximal_arc_consistent`.

    Same fixpoint, support-counting propagation; returns plain per-variable
    node sets (the live member sets of the maintained views).
    """
    views = ac4_fixpoint(query, structure, pinned)
    if views is None:
        return None
    return {variable: view.members for variable, view in views.items()}

"""Relational-structure view of a tree (Section 2).

The paper represents a tree as a relational structure ``A`` with

* domain ``A = |A|`` (the nodes),
* unary relations ``Label_a`` for each label ``a`` of the alphabet,
* binary axis relations taken from ``Ax``.

:class:`TreeStructure` packages a :class:`~repro.trees.tree.Tree` together with
a *signature* (the set of axes allowed to appear in queries) and optional
additional unary relations (e.g. the singleton relations ``X_i = {a_i}`` used
to reduce k-ary query answering to Boolean evaluation, Theorem 3.5's
discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .axes import AX, Axis, AxisOracle
from .index import AxisIndex, DomainView
from .tree import Tree


@dataclass(frozen=True)
class Signature:
    """A set of axis relations (a ``tau`` of the paper, minus the labels)."""

    axes: frozenset[Axis]

    @classmethod
    def of(cls, *axis_list: Axis) -> "Signature":
        return cls(frozenset(axis_list))

    def __contains__(self, axis: Axis) -> bool:
        return axis in self.axes

    def __iter__(self):
        return iter(sorted(self.axes, key=lambda axis: axis.value))

    def __len__(self) -> int:
        return len(self.axes)

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.axes | other.axes)

    def __str__(self) -> str:
        return "{" + ", ".join(axis.value for axis in self) + "}"


#: The signatures named in the paper (tau_1 ... tau_17 plus full Ax).
TAU: dict[str, Signature] = {
    "tau1": Signature.of(Axis.CHILD_PLUS, Axis.CHILD_STAR),
    "tau2": Signature.of(Axis.FOLLOWING),
    "tau3": Signature.of(
        Axis.CHILD, Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_STAR, Axis.NEXT_SIBLING_PLUS
    ),
    "tau4": Signature.of(Axis.CHILD, Axis.CHILD_PLUS),
    "tau5": Signature.of(Axis.CHILD, Axis.CHILD_STAR),
    "tau6": Signature.of(Axis.CHILD, Axis.FOLLOWING),
    "tau7": Signature.of(Axis.CHILD_PLUS, Axis.FOLLOWING),
    "tau8": Signature.of(Axis.CHILD_STAR, Axis.FOLLOWING),
    "tau9": Signature.of(Axis.CHILD_STAR, Axis.NEXT_SIBLING_PLUS),
    "tau10": Signature.of(Axis.CHILD_STAR, Axis.NEXT_SIBLING),
    "tau11": Signature.of(Axis.CHILD_STAR, Axis.NEXT_SIBLING_STAR),
    "tau12": Signature.of(Axis.CHILD_PLUS, Axis.NEXT_SIBLING),
    "tau13": Signature.of(Axis.CHILD_PLUS, Axis.NEXT_SIBLING_PLUS),
    "tau14": Signature.of(Axis.CHILD_PLUS, Axis.NEXT_SIBLING_STAR),
    "tau15": Signature.of(Axis.FOLLOWING, Axis.NEXT_SIBLING),
    "tau16": Signature.of(Axis.FOLLOWING, Axis.NEXT_SIBLING_PLUS),
    "tau17": Signature.of(Axis.FOLLOWING, Axis.NEXT_SIBLING_STAR),
    "ax": Signature(AX),
}


class TreeStructure:
    """A tree together with its relational signature and extra unary relations.

    Parameters
    ----------
    tree:
        The underlying finalised tree.
    signature:
        Axis relations available to queries.  Defaults to the full ``Ax``.
    extra_unary:
        Additional unary relations beyond the labels, given as a mapping from
        relation name to a collection of node ids.  Names must not clash with
        tree labels.
    """

    def __init__(
        self,
        tree: Tree,
        signature: Optional[Signature] = None,
        extra_unary: Optional[Mapping[str, Iterable[int]]] = None,
    ):
        self.tree = tree
        self.signature = signature if signature is not None else Signature(AX)
        self.oracle = AxisOracle(tree)
        self._extra_unary: dict[str, frozenset[int]] = {}
        self._unary_sets: dict[str, frozenset[int]] = {}
        self._views: dict[Optional[str], DomainView] = {}
        if extra_unary:
            for name, members in extra_unary.items():
                self.add_unary(name, members)

    # -- unary relations -------------------------------------------------------

    def add_unary(self, name: str, members: Iterable[int]) -> None:
        """Register an extra unary relation (e.g. a singleton ``X_i``)."""
        member_set = frozenset(members)
        for node_id in member_set:
            if not (0 <= node_id < len(self.tree)):
                raise ValueError(f"node id {node_id} outside the domain")
        self._extra_unary[name] = member_set
        self._unary_sets.pop(name, None)
        self._views.pop(name, None)

    def with_singletons(self, assignment: Mapping[str, int]) -> "TreeStructure":
        """Return a copy with fresh singleton unary relations.

        This is the construction used to reduce answering a k-ary query to a
        Boolean query (discussion after Theorem 3.5): for each pinned variable
        we add a relation holding exactly one node.
        """
        copy = TreeStructure(self.tree, self.signature, None)
        copy._extra_unary = dict(self._extra_unary)
        copy._unary_sets = dict(self._unary_sets)
        copy._views = dict(self._views)
        for name, node_id in assignment.items():
            copy.add_unary(name, (node_id,))
        return copy

    def unary_members(self, name: str) -> Sequence[int]:
        """All nodes in the unary relation ``name`` (label or extra relation)."""
        if name in self._extra_unary:
            return sorted(self._extra_unary[name])
        return self.tree.nodes_with_label(name)

    def unary_member_set(self, name: str) -> frozenset[int]:
        """The unary relation ``name`` as a resident frozenset (memoized).

        This is the initial-domain artifact the serving layer keeps warm: the
        per-label candidate sets every evaluation starts from.  Memoizing them
        on the structure means repeated queries over a resident document never
        rebuild them; :meth:`with_singletons` copies share the memo for
        relations the pinning does not shadow.
        """
        cached = self._unary_sets.get(name)
        if cached is None:
            if name in self._extra_unary:
                cached = self._extra_unary[name]
            else:
                cached = frozenset(self.tree.nodes_with_label(name))
                if not cached:
                    # Unknown names are client-controlled (query labels that do
                    # not occur in the tree); never memoize them, or a resident
                    # structure's cache would grow unboundedly under adversarial
                    # traffic.  The empty set is trivial to recompute anyway.
                    return cached
            self._unary_sets[name] = cached
        return cached

    def resident_view(self, name: Optional[str]) -> DomainView:
        """The unary relation ``name`` (``None``: every node) as a memoized view.

        Built once per structure on the :meth:`unary_member_set` frozenset and
        the resident sorted column, for the searches that read a label column
        no propagation has narrowed; it lives and dies with the structure, so
        evicting or re-registering a document drops it.  Empty relations are
        not memoized (see :meth:`unary_member_set`).
        """
        view = self._views.get(name)
        if view is None:
            index = self.tree.index
            if name is None:
                view = index.view(index.pre, presorted=True, members=range(index.n))
            else:
                members = self.unary_member_set(name)
                view = index.view(self.unary_members(name), presorted=True, members=members)
                if not members:
                    return view
            self._views[name] = view
        return view

    def unary_holds(self, name: str, node_id: int) -> bool:
        if name in self._extra_unary:
            return node_id in self._extra_unary[name]
        return self.tree.has_label(node_id, name)

    def unary_names(self) -> frozenset[str]:
        return self.tree.alphabet() | frozenset(self._extra_unary)

    def extra_unary_relations(self) -> Mapping[str, frozenset[int]]:
        """The extra (non-label) unary relations, name -> member set.

        These shadow same-named tree labels (matching :meth:`unary_holds`);
        out-of-core backends need them explicitly because only the labels are
        materialised in the accel store.
        """
        return dict(self._extra_unary)

    # -- binary relations ------------------------------------------------------

    def axis_holds(self, axis: Axis, u: int, v: int) -> bool:
        return self.oracle.holds(axis, u, v)

    def axis_successors(self, axis: Axis, u: int) -> Sequence[int]:
        return self.oracle.successors(axis, u)

    def axis_predecessors(self, axis: Axis, v: int) -> Sequence[int]:
        return self.oracle.predecessors(axis, v)

    # -- interval index --------------------------------------------------------

    @property
    def index(self) -> AxisIndex:
        """The tree's lazily built pre/post interval index (shared per tree)."""
        return self.tree.index

    def domain_view(self, nodes: Iterable[int]) -> DomainView:
        """Wrap a candidate node set in a sorted-array view for witness tests."""
        return self.tree.index.view(nodes)

    def axis_has_successor_in(self, axis: Axis, u: int, view: DomainView) -> bool:
        """Does ``u`` have an ``axis`` successor inside the viewed set?"""
        return self.tree.index.has_successor_in(axis, u, view)

    def axis_has_predecessor_in(self, axis: Axis, v: int, view: DomainView) -> bool:
        """Does ``v`` have an ``axis`` predecessor inside the viewed set?"""
        return self.tree.index.has_predecessor_in(axis, v, view)

    # -- sizes -----------------------------------------------------------------

    @property
    def domain_size(self) -> int:
        return len(self.tree)

    def domain(self) -> range:
        return self.tree.node_ids()

    def size(self) -> int:
        """``||A||`` -- structure size under a reasonable encoding."""
        extra = sum(len(members) for members in self._extra_unary.values())
        return self.tree.structure_size() + extra

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeStructure(n={len(self.tree)}, signature={self.signature})"


def structure(tree: Tree, *axis_list: Axis) -> TreeStructure:
    """Convenience constructor: ``structure(tree, Axis.CHILD, Axis.FOLLOWING)``."""
    signature = Signature(frozenset(axis_list)) if axis_list else None
    return TreeStructure(tree, signature)

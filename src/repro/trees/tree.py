"""The :class:`Tree` class: a finalised unranked ordered labelled tree.

A ``Tree`` freezes a root :class:`~repro.trees.node.Node` and precomputes, for
every node, the numberings the paper uses throughout:

* ``pre``  -- the pre-order (document order, sequence of opening tags),
* ``post`` -- the post-order (sequence of closing tags),
* ``bflr`` -- breadth-first left-to-right order,
* ``depth``, ``parent``, ``sibling index``.

Nodes are identified by their pre-order index (an ``int`` in ``range(n)``),
which is what evaluation algorithms operate on.  All axis relations of the
paper are answered in O(1) per pair from these numberings (see
:mod:`repro.trees.axes`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .node import Node


class Tree:
    """An immutable view of a finalised tree.

    Node identity: after construction every node is referred to by its
    pre-order index (0 = root).  The original :class:`Node` objects remain
    reachable through :attr:`nodes`.
    """

    def __init__(self, root: Node):
        self.root = root
        self._index = None
        self.nodes: list[Node] = []
        self.parent: list[int] = []
        self.depth: list[int] = []
        self.children_of: list[list[int]] = []
        self.sibling_index: list[int] = []
        self.pre: list[int] = []
        self.post: list[int] = []
        self.bflr: list[int] = []
        self.labels_of: list[frozenset[str]] = []
        self._finalise()

    # -- construction ----------------------------------------------------------

    def _finalise(self) -> None:
        # Pre-order traversal assigns identities.
        order: list[Node] = []
        stack: list[tuple[Node, Optional[int], int, int]] = [(self.root, None, 0, 0)]
        # Iterative pre-order keeping parent ids, depth and sibling index.
        # We need parents processed before children, so a stack of
        # (node, parent_id, depth, sibling_index) works if we push children in
        # reverse order.
        while stack:
            node, parent_id, depth, sib = stack.pop()
            node_id = len(order)
            node._index = node_id
            order.append(node)
            self.parent.append(parent_id if parent_id is not None else -1)
            self.depth.append(depth)
            self.sibling_index.append(sib)
            self.children_of.append([])
            self.labels_of.append(node.labels)
            if parent_id is not None:
                self.children_of[parent_id].append(node_id)
            for child_sib, child in reversed(list(enumerate(node.children))):
                stack.append((child, node_id, depth + 1, child_sib))
        self.nodes = order
        n = len(order)
        self.pre = list(range(n))

        # Post-order numbering.
        self.post = [0] * n
        counter = 0
        visit: list[tuple[int, bool]] = [(0, False)]
        while visit:
            node_id, expanded = visit.pop()
            if expanded:
                self.post[node_id] = counter
                counter += 1
                continue
            visit.append((node_id, True))
            for child in reversed(self.children_of[node_id]):
                visit.append((child, False))

        # Breadth-first left-to-right numbering.
        self.bflr = [0] * n
        queue = [0]
        counter = 0
        while queue:
            next_queue: list[int] = []
            for node_id in queue:
                self.bflr[node_id] = counter
                counter += 1
                next_queue.extend(self.children_of[node_id])
            queue = next_queue

        # Subtree extent in pre-order: descendants of v are exactly the ids in
        # (v, subtree_end[v]].  Used for fast descendant enumeration.
        self.subtree_end = [0] * n
        for node_id in range(n - 1, -1, -1):
            end = node_id
            for child in self.children_of[node_id]:
                end = max(end, self.subtree_end[child])
            self.subtree_end[node_id] = end

        # Label index: label -> sorted list of node ids.
        self._label_index: dict[str, list[int]] = {}
        for node_id, labels in enumerate(self.labels_of):
            for label in labels:
                self._label_index.setdefault(label, []).append(node_id)

    # -- basic accessors -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def size(self) -> int:
        """Number of nodes (the paper's |A|)."""
        return len(self.nodes)

    def node_ids(self) -> range:
        return range(len(self.nodes))

    def labels(self, node_id: int) -> frozenset[str]:
        return self.labels_of[node_id]

    def has_label(self, node_id: int, label: str) -> bool:
        return label in self.labels_of[node_id]

    def nodes_with_label(self, label: str) -> Sequence[int]:
        """All node ids carrying ``label`` (ascending pre-order)."""
        return self._label_index.get(label, [])

    def alphabet(self) -> frozenset[str]:
        """The labelling alphabet actually used in this tree."""
        return frozenset(self._label_index)

    def children(self, node_id: int) -> Sequence[int]:
        return self.children_of[node_id]

    def parent_of(self, node_id: int) -> Optional[int]:
        parent = self.parent[node_id]
        return None if parent < 0 else parent

    def descendants(self, node_id: int) -> range:
        """Strict descendants of ``node_id`` as a range of pre-order ids."""
        return range(node_id + 1, self.subtree_end[node_id] + 1)

    def is_descendant(self, ancestor: int, descendant: int) -> bool:
        """True iff ``descendant`` is a *strict* descendant of ``ancestor``."""
        return ancestor < descendant <= self.subtree_end[ancestor]

    def next_sibling(self, node_id: int) -> Optional[int]:
        parent = self.parent[node_id]
        if parent < 0:
            return None
        siblings = self.children_of[parent]
        index = self.sibling_index[node_id]
        if index + 1 < len(siblings):
            return siblings[index + 1]
        return None

    def siblings_after(self, node_id: int) -> Sequence[int]:
        parent = self.parent[node_id]
        if parent < 0:
            return []
        siblings = self.children_of[parent]
        return siblings[self.sibling_index[node_id] + 1:]

    def following(self, node_id: int) -> Iterator[int]:
        """All nodes y with Following(node_id, y), ascending in pre-order."""
        post = self.post
        for other in range(self.subtree_end[node_id] + 1, len(self.nodes)):
            if post[other] > post[node_id]:
                yield other

    # -- interval index --------------------------------------------------------

    @property
    def index(self):
        """The lazily built :class:`~repro.trees.index.AxisIndex` of this tree.

        Built on first access and shared by every :class:`TreeStructure`
        wrapping this tree; the tree is immutable, so the index never needs
        invalidation.
        """
        if self._index is None:
            from .index import AxisIndex

            self._index = AxisIndex(self)
        return self._index

    # -- convenience -----------------------------------------------------------

    def path_to_root(self, node_id: int) -> list[int]:
        path = [node_id]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path

    def structure_size(self) -> int:
        """A reasonable ``||A||``: nodes + edges + label occurrences."""
        edges = len(self.nodes) - 1
        label_occurrences = sum(len(labels) for labels in self.labels_of)
        return len(self.nodes) + edges + label_occurrences

    def to_nested(self) -> object:
        """Serialise to the nested-tuple format understood by ``from_nested``."""

        def rec(node_id: int) -> object:
            labels = sorted(self.labels_of[node_id])
            label: object = labels[0] if len(labels) == 1 else tuple(labels)
            kids = [rec(child) for child in self.children_of[node_id]]
            return (label, kids) if kids else (label, [])

        return rec(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree(n={len(self.nodes)}, alphabet={sorted(self.alphabet())})"

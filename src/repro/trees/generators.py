"""Tree generators: random trees, path structures, scattered paths.

These generators provide the synthetic data used by the tests, benchmarks and
experiments:

* :func:`random_tree` -- random unranked labelled trees with controllable size,
  branching factor and alphabet (the generic workload for the polynomial-time
  and rewriting experiments),
* :func:`random_binary_tree`, :func:`random_path` -- degenerate shapes useful
  as edge cases,
* :func:`path_structure` -- a tree whose ``Child`` graph is a path (Section 7's
  "path-structure"),
* :func:`scattered_path_structure` -- a k-scattered path structure (Section 7),
* :func:`all_trees` -- exhaustive enumeration of small labelled trees, used by
  the equivalence checker to compare queries on *all* trees up to a size bound.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .node import Node
from .tree import Tree


def random_tree(
    size: int,
    alphabet: Sequence[str] = ("A", "B", "C"),
    max_children: int = 4,
    multi_label_probability: float = 0.0,
    unlabeled_probability: float = 0.0,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Tree:
    """Generate a uniformly-ish random tree with ``size`` nodes.

    Nodes are attached one by one to a random existing node whose fan-out is
    still below ``max_children`` (falling back to any node when all are full).
    Labels are drawn uniformly from ``alphabet``; with
    ``multi_label_probability`` a second distinct label is added and with
    ``unlabeled_probability`` the node gets no label at all.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    rng = rng or random.Random(seed)

    def draw_labels() -> tuple[str, ...]:
        if alphabet and rng.random() < unlabeled_probability:
            return ()
        if not alphabet:
            return ()
        first = rng.choice(alphabet)
        if len(alphabet) > 1 and rng.random() < multi_label_probability:
            second = rng.choice([label for label in alphabet if label != first])
            return (first, second)
        return (first,)

    root = Node(draw_labels())
    nodes = [root]
    # The nodes below ``max_children`` in creation order, kept up to date in
    # place (a node leaves when it fills), so each draw is the very draw of a
    # list rebuilt from ``nodes`` before every node.
    eligible = [root] if max_children > 0 else []
    for _ in range(size - 1):
        if eligible:
            slot = rng.choice(range(len(eligible)))
            parent = eligible[slot]
        else:
            parent = rng.choice(nodes)
        child = parent.add(draw_labels())
        if eligible and len(parent.children) >= max_children:
            del eligible[slot]
        nodes.append(child)
        if max_children > 0:
            eligible.append(child)
    return Tree(root)


def random_binary_tree(
    size: int,
    alphabet: Sequence[str] = ("A", "B"),
    seed: Optional[int] = None,
) -> Tree:
    """A random tree where every node has at most two children."""
    return random_tree(size, alphabet=alphabet, max_children=2, seed=seed)


def random_path(
    size: int,
    alphabet: Sequence[str] = ("A", "B", "C"),
    seed: Optional[int] = None,
) -> Tree:
    """A random path (chain) tree: every node has exactly one child."""
    rng = random.Random(seed)
    root = Node((rng.choice(alphabet),))
    current = root
    for _ in range(size - 1):
        current = current.add((rng.choice(alphabet),))
    return Tree(root)


def path_structure(labels: Sequence[Iterable[str]]) -> Tree:
    """Build a path-structure from per-node label sets (Section 7).

    ``labels[i]`` is the (possibly empty) label collection of the i-th node
    from the root.
    """
    if not labels:
        raise ValueError("a path structure needs at least one node")

    def as_set(item: Iterable[str]) -> tuple[str, ...]:
        if isinstance(item, str):
            return (item,) if item else ()
        return tuple(item)

    root = Node(as_set(labels[0]))
    current = root
    for item in labels[1:]:
        current = current.add(as_set(item))
    return Tree(root)


def scattered_path_structure(
    k: int,
    labels: Sequence[str],
    gap: Optional[int] = None,
    leading: Optional[int] = None,
    trailing: Optional[int] = None,
) -> Tree:
    """Build a k-scattered path structure containing ``labels`` in order.

    A path structure is *k-scattered* (Section 7) if it has at least ``k``
    nodes, each node has at most one label, no two nodes share a label, and
    any two labelled nodes -- as well as a labelled node and the topmost or
    bottommost node -- are at distance at least ``k``.

    The default layout places ``k`` unlabelled nodes before the first label,
    between consecutive labels, and after the last label.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(set(labels)) != len(labels):
        raise ValueError("labels of a scattered path structure must be distinct")
    gap = k if gap is None else gap
    leading = k if leading is None else leading
    trailing = k if trailing is None else trailing
    if gap < k or leading < k or trailing < k:
        raise ValueError("gaps must be at least k for the structure to be k-scattered")

    sequence: list[tuple[str, ...]] = [()] * leading
    for position, label in enumerate(labels):
        if position > 0:
            sequence.extend([()] * gap)
        sequence.append((label,))
    sequence.extend([()] * trailing)
    return path_structure(sequence)


def is_scattered(tree: Tree, k: int) -> bool:
    """Check the four conditions of k-scatteredness for a path structure."""
    n = len(tree)
    if n < k:
        return False
    # Must be a path structure.
    if any(len(tree.children(node_id)) > 1 for node_id in tree.node_ids()):
        return False
    seen_labels: set[str] = set()
    labelled_depths: list[int] = []
    for node_id in tree.node_ids():
        labels = tree.labels_of[node_id]
        if len(labels) > 1:
            return False
        if labels:
            label = next(iter(labels))
            if label in seen_labels:
                return False
            seen_labels.add(label)
            labelled_depths.append(tree.depth[node_id])
    endpoints = [0, n - 1]
    for depth in labelled_depths:
        for other in labelled_depths:
            if other != depth and abs(depth - other) < k:
                return False
        for endpoint in endpoints:
            if depth != endpoint and abs(depth - endpoint) < k:
                return False
    return True


def all_trees(max_size: int, alphabet: Sequence[str] = ("A", "B")) -> Iterator[Tree]:
    """Enumerate *all* ordered labelled trees with at most ``max_size`` nodes.

    Every node carries exactly one label from ``alphabet``.  This is used by
    the exhaustive equivalence checker; the count grows quickly
    (Catalan(size) * |alphabet|^size), so keep ``max_size`` small (<= 4 or 5).
    """
    for size in range(1, max_size + 1):
        for shape in _tree_shapes(size):
            for labelling in product(alphabet, repeat=size):
                labelled = _apply_labels(shape, list(labelling))
                yield Tree(labelled)


def _tree_shapes(size: int) -> Iterator[Node]:
    """All ordered tree shapes (unlabelled) with exactly ``size`` nodes."""
    if size == 1:
        yield Node()
        return
    # Root plus an ordered forest of total size size-1.
    for forest in _forests(size - 1):
        root = Node()
        for subtree in forest:
            root.add_child(subtree)
        yield root


def _forests(size: int) -> Iterator[list[Node]]:
    """All ordered forests with exactly ``size`` nodes."""
    if size == 0:
        yield []
        return
    for first_size in range(1, size + 1):
        for first in _tree_shapes(first_size):
            for rest in _forests(size - first_size):
                yield [_clone(first)] + [_clone(node) for node in rest]


def _clone(node: Node) -> Node:
    copy = Node(node.labels)
    for child in node.children:
        copy.add_child(_clone(child))
    return copy


def _apply_labels(shape: Node, labels: list[str]) -> Node:
    """Clone ``shape`` assigning ``labels`` in pre-order."""
    iterator = iter(labels)

    def rec(node: Node) -> Node:
        copy = Node((next(iterator),))
        for child in node.children:
            copy.add_child(rec(child))
        return copy

    return rec(shape)

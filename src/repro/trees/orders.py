"""Total orders on tree nodes (Section 2) and order-related relations.

The paper works with three total orders on the nodes of an ordered tree:

* ``pre``  -- depth-first left-to-right (document order / opening tags),
* ``post`` -- bottom-up left-to-right (closing tags),
* ``bflr`` -- breadth-first left-to-right.

These orders are the backbone of the X-property framework (Section 3/4): an
axis that has the X-property w.r.t. one of them admits the minimum-valuation
polynomial-time evaluation of Theorem 3.5.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Collection, Sequence

from .tree import Tree


class Order(str, Enum):
    """The three total orders considered in the paper."""

    PRE = "pre"
    POST = "post"
    BFLR = "bflr"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ALL_ORDERS: tuple[Order, ...] = (Order.PRE, Order.POST, Order.BFLR)


def rank(tree: Tree, order: Order) -> Sequence[int]:
    """Return ``rank[v]`` = position of node ``v`` in ``order``."""
    if order is Order.PRE:
        return tree.pre
    if order is Order.POST:
        return tree.post
    if order is Order.BFLR:
        return tree.bflr
    raise ValueError(f"unknown order: {order}")


def key_function(tree: Tree, order: Order) -> Callable[[int], int]:
    """A key function usable with ``min``/``sorted`` for the given order."""
    ranks = rank(tree, order)
    return lambda node_id: ranks[node_id]


def less(tree: Tree, order: Order, u: int, v: int) -> bool:
    """``u < v`` in the given order."""
    ranks = rank(tree, order)
    return ranks[u] < ranks[v]


def sorted_nodes(tree: Tree, order: Order) -> list[int]:
    """All node ids sorted ascending by ``order``."""
    ranks = rank(tree, order)
    return sorted(tree.node_ids(), key=lambda node_id: ranks[node_id])


def minimum(tree: Tree, order: Order, nodes: Collection[int]) -> int:
    """The ``order``-minimal node of a non-empty collection.

    This is the ingredient of the *minimum valuation* of Lemma 3.4.
    """
    if not nodes:
        raise ValueError("minimum() of an empty node collection")
    ranks = rank(tree, order)
    return min(nodes, key=lambda node_id: ranks[node_id])

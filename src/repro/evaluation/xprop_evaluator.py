"""The polynomial-time evaluator for X-property structures (Lemma 3.4 / Thm 3.5).

An axis ``R`` has the X-property w.r.t. an order ``<`` (Definition 3.2) iff it
is *min-closed*: ``R(a, b)`` and ``R(c, d)`` imply ``R(min(a, c), min(b, d))``.
So a query over a tractable signature that has a solution has a *least* one,
Lemma 3.4's minimum valuation, and :func:`least_valuation` finds it with one
monotone walk -- no maximal arc-consistent prevaluation is computed first:

1. every variable's candidates are sorted by the order, with one lower-bound
   pointer each, at the front;
2. a worklist of atoms moves a pointer past every candidate that has no
   partner at or above the pointer of the atom's other end.  No solution uses
   such a candidate, since every solution lies at or above the pointers;
3. when no pointer moves, either one ran off its list and the query is false,
   or the nodes under the pointers are a satisfaction: for each atom
   ``R(x, y)`` the node ``x0`` under ``x``'s pointer has a partner ``y' >=
   y0`` and ``y0`` one ``x' >= x0``, so ``R(x0, y0)`` by the X-property.

Pointers only move forward, so the walk costs one support probe per pointer
move and incident atom, and every probe over an axis of
:data:`~repro.xproperty.dichotomy.X_PROPERTY_AXES` is O(1) or O(log n) in its
order's ranks: descendants are a pre range, children and later siblings
contiguous ``bflr`` runs, a ``Following`` partner a suffix maximum or minimum
over a post-sorted list, and the ancestors of a rising node a sliding window
(both of its ends rise).

For an order that lacks the X-property the walk still refutes soundly, but the
nodes under its pointers may fail the query; :func:`boolean_query_holds`'s
``verify`` mode checks them and raises (the tests use it to confirm Lemma 3.4
on random trees, and to exhibit its failure beyond the tractability frontier).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate
from typing import Callable, Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.axes import Axis
from ..trees.index import AxisIndex
from ..trees.orders import Order, rank
from ..trees.structure import TreeStructure
from .compile import CompiledAtom, CompiledQuery, compile_query
from .domains import Valuation, valuation_satisfies
from .propagation import propagate
from .reducer import initial_columns

#: Does a node have a partner at or above the other end's pointer?
Probe = Callable[[int], bool]
#: The order ranks a node's partners occupy, as an inclusive range (``None``: none).
Bounds = Callable[[int], Optional[tuple[int, int]]]


class XPropertyEvaluationError(RuntimeError):
    """Raised in ``verify`` mode when the minimum valuation is not consistent."""


def choose_order(query: ConjunctiveQuery) -> Optional[Order]:
    """Pick an order making all of the query's axes X (None if impossible).

    The compiled query's :attr:`~repro.evaluation.compile.CompiledQuery.order`:
    judged on the normalized edges, as :func:`repro.evaluation.planner.tier`
    does, so ``Parent`` counts as ``Child`` and a self-loop counts not at all.
    """
    return compile_query(query).order


def least_valuation(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    order: Optional[Order] = None,
) -> Optional[dict[Variable, list[int]]]:
    """Lemma 3.4's minimum valuation by one pointer walk; ``None`` refutes the query.

    Returns each variable's candidates from its pointer on, sorted by
    ``order`` (by default the compiled query's X-property order): the first
    nodes form the least satisfaction, and every satisfaction lies in the
    lists.  Raises ``ValueError`` when no order is given and the signature
    is not tractable.
    """
    if order is None:
        order = compiled.order
        if order is None:
            raise ValueError(
                "propagator 'walk' needs a tractable signature; "
                "use the decomposition or backtracking engine"
            )
    columns = initial_columns(compiled, structure, pinned)
    if not all(columns.values()):
        return None
    index = structure.index
    ranks = rank(structure.tree, order)
    if order is Order.PRE:
        nodes, keys = columns, columns
    else:
        nodes = {v: sorted(column, key=ranks.__getitem__) for v, column in columns.items()}
        keys = {v: list(map(ranks.__getitem__, column)) for v, column in nodes.items()}
    pointer = dict.fromkeys(compiled.variables, 0)
    edges = compiled.edges
    table = _BOUNDS[order](index)
    probes = [_probes(atom, order, table, index, nodes, keys, pointer) for atom in edges]
    incident: dict[Variable, list[int]] = {variable: [] for variable in compiled.variables}
    for position, atom in enumerate(edges):
        incident[atom.source].append(position)
        incident[atom.target].append(position)

    queue = deque(range(len(edges)))
    queued = [True] * len(edges)
    while queue:
        position = queue.popleft()
        queued[position] = False
        atom = edges[position]
        for variable, supported in zip((atom.source, atom.target), probes[position]):
            column = nodes[variable]
            start = at = pointer[variable]
            while at < len(column) and not supported(column[at]):
                at += 1
            if at == len(column):
                return None
            if at > start:
                pointer[variable] = at
                for neighbour in incident[variable]:
                    if not queued[neighbour]:
                        queued[neighbour] = True
                        queue.append(neighbour)
    return {variable: nodes[variable][pointer[variable] :] for variable in pointer}


def _probes(
    atom: CompiledAtom,
    order: Order,
    table: Mapping[tuple[Axis, bool], Bounds],
    index: AxisIndex,
    nodes: Mapping[Variable, Sequence[int]],
    keys: Mapping[Variable, Sequence[int]],
    pointer: Mapping[Variable, int],
) -> tuple[Probe, Probe]:
    """``(source node has a target partner, target node has a source partner)``.

    Both look only at the partner's candidates at or above its pointer.
    """
    axis, source, target = atom.axis, atom.source, atom.target
    if order is Order.PRE and axis in (Axis.CHILD_PLUS, Axis.CHILD_STAR):
        reflexive = axis is Axis.CHILD_STAR
        return (
            _range_probe(keys[target], target, pointer, table[axis, True]),
            _ancestor_probe(nodes[source], source, pointer, index.subtree_end, reflexive),
        )
    if order is Order.POST and axis is Axis.FOLLOWING:
        return _following_probes(nodes, source, target, pointer, index.subtree_end)
    if (axis, True) in table:
        return (
            _range_probe(keys[target], target, pointer, table[axis, True]),
            _range_probe(keys[source], source, pointer, table[axis, False]),
        )
    # An axis without the X-property w.r.t. a forced order: scan the suffix.
    holds = index.holds
    source_nodes, target_nodes = nodes[source], nodes[target]
    return (
        lambda v: any(holds(axis, v, w) for w in target_nodes[pointer[target] :]),
        lambda w: any(holds(axis, v, w) for v in source_nodes[pointer[source] :]),
    )


def _range_probe(
    keys: Sequence[int],
    partner: Variable,
    pointer: Mapping[Variable, int],
    bounds: Bounds,
) -> Probe:
    """A partner's rank lies in ``bounds(node)`` (inclusive), at or above its pointer."""

    def probe(node: int) -> bool:
        span = bounds(node)
        if span is None:
            return False
        at = bisect_left(keys, span[0], pointer[partner])
        return at < len(keys) and keys[at] <= span[1]

    return probe


def _ancestor_probe(
    nodes: Sequence[int],
    partner: Variable,
    pointer: Mapping[Variable, int],
    end: Sequence[int],
    reflexive: bool,
) -> Probe:
    """A ``Child+`` (``Child*``) partner of a target node: an ancestor above the pointer.

    The candidates that may be ancestors of ``w`` are the pre-sorted ones in
    ``[pointer, first after w)``, an ancestor iff its subtree still covers
    ``w``.  Probes come with rising ``w`` and the pointer only rises, so a
    monotone deque keeps the window's maximum subtree end.
    """
    window: deque[tuple[int, int]] = deque()  # (position, subtree end), ends falling
    cut = bisect_right if reflexive else bisect_left
    pushed = 0

    def probe(w: int) -> bool:
        nonlocal pushed
        for at in range(pushed, cut(nodes, w)):
            reach = end[nodes[at]]
            while window and window[-1][1] <= reach:
                window.pop()
            window.append((at, reach))
            pushed = at + 1
        low = pointer[partner]
        while window and window[0][0] < low:
            window.popleft()
        return bool(window) and window[0][1] >= w

    return probe


def _following_probes(
    nodes: Mapping[Variable, Sequence[int]],
    source: Variable,
    target: Variable,
    pointer: Mapping[Variable, int],
    end: Sequence[int],
) -> tuple[Probe, Probe]:
    """``Following(v, w)`` iff ``w > end(v)``: suffix extrema over the post-sorted lists."""
    latest = list(accumulate(reversed(nodes[target]), max))[::-1]
    earliest_end = list(accumulate(map(end.__getitem__, reversed(nodes[source])), min))[::-1]
    return (
        lambda v: latest[pointer[target]] > end[v],
        lambda w: earliest_end[pointer[source]] < w,
    )


def _pre_table(index: AxisIndex) -> dict[tuple[Axis, bool], Bounds]:
    """Partner ranks as an inclusive range per node, per (axis, node is the source)."""
    end, last = index.subtree_end, index.n - 1
    return {
        (Axis.CHILD_PLUS, True): lambda v: (v + 1, end[v]),
        (Axis.CHILD_STAR, True): lambda v: (v, end[v]),
        (Axis.DOCUMENT_ORDER, True): lambda v: (v + 1, last),
        (Axis.DOCUMENT_ORDER, False): lambda w: (0, w - 1),
        (Axis.SUCC_PRE, True): lambda v: (v + 1, v + 1),
        (Axis.SUCC_PRE, False): lambda w: (w - 1, w - 1),
        (Axis.SELF, True): lambda v: (v, v),
        (Axis.SELF, False): lambda w: (w, w),
    }


def _post_table(index: AxisIndex) -> dict[tuple[Axis, bool], Bounds]:
    post = index.post
    return {
        (Axis.SELF, True): lambda v: (post[v], post[v]),
        (Axis.SELF, False): lambda w: (post[w], post[w]),
    }


def _bflr_table(index: AxisIndex) -> dict[tuple[Axis, bool], Bounds]:
    """Partner bflr ranks: a node's children, and its later siblings, are contiguous runs."""
    bflr, parent, children = index.bflr, index.parent, index.tree.children_of
    next_sibling, prev_sibling = index.next_sibling, index.prev_sibling

    def kids(v: int) -> Optional[tuple[int, int]]:
        run = children[v]
        return (bflr[run[0]], bflr[run[-1]]) if run else None

    def at(node: int) -> Optional[tuple[int, int]]:
        return (bflr[node], bflr[node]) if node >= 0 else None

    def later(v: int, strict: bool) -> Optional[tuple[int, int]]:
        if parent[v] < 0:
            return None if strict else (bflr[v], bflr[v])
        return (bflr[v] + 1 if strict else bflr[v], bflr[children[parent[v]][-1]])

    def earlier(w: int, strict: bool) -> Optional[tuple[int, int]]:
        if parent[w] < 0:
            return None if strict else (bflr[w], bflr[w])
        return (bflr[children[parent[w]][0]], bflr[w] - 1 if strict else bflr[w])

    return {
        (Axis.CHILD, True): kids,
        (Axis.CHILD, False): lambda w: at(parent[w]),
        (Axis.NEXT_SIBLING, True): lambda v: at(next_sibling[v]),
        (Axis.NEXT_SIBLING, False): lambda w: at(prev_sibling[w]),
        (Axis.NEXT_SIBLING_PLUS, True): lambda v: later(v, True),
        (Axis.NEXT_SIBLING_PLUS, False): lambda w: earlier(w, True),
        (Axis.NEXT_SIBLING_STAR, True): lambda v: later(v, False),
        (Axis.NEXT_SIBLING_STAR, False): lambda w: earlier(w, False),
        (Axis.SELF, True): lambda v: at(v),
        (Axis.SELF, False): lambda w: at(w),
    }


_BOUNDS = {Order.PRE: _pre_table, Order.POST: _post_table, Order.BFLR: _bflr_table}


def boolean_query_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    order: Optional[Order] = None,
    pinned: Optional[Mapping[Variable, int]] = None,
    verify: bool = False,
    compiled: Optional[CompiledQuery] = None,
) -> bool:
    """Evaluate a Boolean query using the Theorem 3.5 algorithm.

    Parameters
    ----------
    order:
        The total order to use for the minimum valuation.  When omitted it is
        chosen from the query's signature via the dichotomy (Theorem 4.1); a
        ``ValueError`` is raised if the signature is not tractable, since the
        algorithm's correctness then has no guarantee.
    pinned:
        Optional variable pinning (singleton domains), used to answer k-ary
        queries tuple by tuple.
    verify:
        When True, the walk runs in ``order`` and the valuation under its
        pointers is re-checked against the query; an
        :class:`XPropertyEvaluationError` is raised if it fails.  This is how
        the tests certify Lemma 3.4 empirically.  Off, the plan's propagator
        (:func:`~repro.evaluation.propagation.choose_propagator`) decides.
    compiled:
        The compilation of ``query``, when the caller holds it.
    """
    compiled = compiled or compile_query(query)
    if order is None:
        order = compiled.order
        if order is None:
            raise ValueError(
                f"signature {query.signature()} is not tractable; "
                "use the backtracking evaluator instead"
            )
    if not verify:
        return propagate(compiled, structure, pinned) is not None
    suffixes = least_valuation(compiled, structure, pinned, order)
    if suffixes is None:
        return False
    valuation = {variable: column[0] for variable, column in suffixes.items()}
    if not valuation_satisfies(query, structure, valuation):
        raise XPropertyEvaluationError(
            "the walk's least valuation is not a satisfaction; "
            "the structure/order pair lacks the X-property"
        )
    return True


def witness(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    order: Optional[Order] = None,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Valuation]:
    """Return a satisfying valuation (the least one) or ``None``.

    Only sound for tractable signatures; the returned valuation is always
    verified before being handed back, so a ``None`` result with a satisfiable
    query cannot happen on tractable signatures (Lemma 3.4) and the function
    degrades gracefully (returns ``None``) if misused.
    """
    if order is None:
        order = choose_order(query)
        if order is None:
            return None
    suffixes = least_valuation(compile_query(query), structure, pinned, order)
    if suffixes is None:
        return None
    valuation = {variable: column[0] for variable, column in suffixes.items()}
    if valuation_satisfies(query, structure, valuation):
        return valuation
    return None

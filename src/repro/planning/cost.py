"""Cardinality and cost estimates from pre/post rank characterizations.

Every estimate here comes from two sources the reproduction already has:

* **axis geometry** -- the pre/post rank characterizations of Section 2 bound
  the average partner count of each axis in closed form.  A node has exactly
  one parent, at most one next sibling and one document-order successor
  (partner ``~ 1``); its proper descendants average ``sum(depth) / n =
  depth_avg`` (each node is counted once per proper ancestor); its later
  siblings average about ``fanout_avg / 2``; and ``Following`` /
  ``DocumentOrder`` pair each node with about half the document;
* **label selectivity** -- the registration-time label histogram
  (:class:`~repro.planning.stats.DocumentStats`), giving per-variable domain
  sizes.

These feed an ``n^(width+1)``-style bag cardinality estimator
(:func:`bag_rows_estimate`) that mirrors the greedy cheapest-connection order
the static width-tie DP already uses (:func:`repro.decomposition.decompose._bag_cost`)
but with *measured* quantities in place of fixed axis weights -- the
per-instance, domain-aware half the ROADMAP left open.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional

from ..decomposition.decompose import TreeDecomposition
from ..evaluation.compile import CompiledQuery
from ..trees.axes import Axis
from .stats import DocumentStats


def _partner_estimate(axis: Axis, stats: DocumentStats) -> float:
    """Average ``|{v : axis(u, v)}|`` over nodes ``u`` (forward axes).

    Compiled queries only contain forward axes (inverses are normalized away
    with the endpoints swapped), and each estimate below is symmetric enough
    on average -- e.g. average ancestors per node equals average descendants
    per node, both ``sum(depth) / n`` -- that one number serves both
    directions.
    """
    if axis in (Axis.SELF, Axis.NEXT_SIBLING, Axis.SUCC_PRE, Axis.CHILD):
        # Child averages <1 partner downward but exactly 1 upward; 1 is the
        # safe symmetric figure for all four point-like axes.
        return 1.0
    if axis is Axis.CHILD_PLUS:
        return max(stats.depth_avg, 0.5)
    if axis is Axis.CHILD_STAR:
        return stats.depth_avg + 1.0
    if axis in (Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR):
        return max(stats.fanout_avg / 2.0, 0.5)
    # Following / DocumentOrder (and any enumeration fallback): half the tree.
    return max(stats.nodes / 2.0, 1.0)


def variable_domain_estimate(
    variable: str, compiled: CompiledQuery, stats: DocumentStats
) -> float:
    """Estimated candidate-domain size of ``variable`` before propagation.

    The most selective label wins (initial domains intersect all labels, so
    the minimum is an upper bound that is exact for single-label variables);
    unlabeled variables range over the whole document.  Labels unknown to
    approximate stats fall back to the full domain rather than zero.
    """
    counts = []
    for label in compiled.labels_by_variable.get(variable, ()):
        count = stats.label_count(label)
        if count is not None:
            counts.append(count)
    if not counts:
        return float(stats.nodes)
    return float(max(min(counts), 1))


def bag_rows_estimate(
    bag: frozenset[str], compiled: CompiledQuery, stats: DocumentStats
) -> float:
    """Estimated rows of the bag relation (all satisfying tuples over ``bag``).

    Greedy join-order estimate mirroring ``_bag_cost``'s cheapest-connection
    order: start from each variable in turn, repeatedly add the variable with
    the cheapest extension (the first in sorted order among equals), and take
    the minimum over starts.  Extending by ``v`` through an atom with partner
    estimate ``p`` multiplies rows by ``min(domain(v), p * domain(v) / n)`` --
    the axis fan-out capped by the label filter -- and a fill edge (no atom)
    multiplies by ``domain(v)`` outright, the cartesian ``n^(width+1)`` term
    decompositions are priced by.

    Extending by ``v`` through one atom costs the same whatever the start, so
    each atom's two extension factors are priced once.  Each start then keeps
    every unplaced variable's cheapest extension, lowers it only through the
    atoms of the variable just placed, and pops the next variable from a heap
    keyed ``(candidate, sorted rank)``: O(k (k + m) log k) for ``k`` variables
    and ``m`` atoms, so the flat estimate over a whole long query stays cheap.
    The factor is monotone in ``p``, so the cheapest factor is the factor of
    the cheapest atom, as the rescanning greedy computed it.
    """
    variables = sorted(bag)
    if not variables:
        return 1.0
    domains = [variable_domain_estimate(v, compiled, stats) for v in variables]
    if len(variables) == 1:
        return max(domains[0], 1.0)

    n = float(max(stats.nodes, 1))
    rank = {v: i for i, v in enumerate(variables)}
    # links[i]: (j, factor of extending the prefix by j through an atom on i).
    links: list[list[tuple[int, float]]] = [[] for _ in variables]
    for atom in compiled.edges:
        if atom.source in rank and atom.target in rank:
            source, target = rank[atom.source], rank[atom.target]
            estimate = _partner_estimate(atom.axis, stats)
            links[source].append((target, min(domains[target], estimate * domains[target] / n)))
            links[target].append((source, min(domains[source], estimate * domains[source] / n)))

    if len(variables) == 2:  # one step from either start: no order to choose
        by_start = [
            domains[start] * max(min([domains[1 - start], *(f for _, f in links[start])]), 1e-6)
            for start in (0, 1)
        ]
        return max(min(by_start), 1.0)
    ranks = range(len(variables))
    best_rows: Optional[float] = None
    for start in ranks:
        rows = domains[start]
        # Unconnected variables extend by a fill edge: their whole domain.
        # A placed variable's candidate drops to -1, below every factor.
        candidate = domains[:]
        heap = [(domains[v], v) for v in ranks if v != start]
        heapify(heap)
        step = start
        for _ in ranks[1:]:
            candidate[step] = -1.0
            for other, factor in links[step]:
                if factor < candidate[other]:
                    candidate[other] = factor
                    heappush(heap, (factor, other))
            while True:  # skip placed variables and entries lowered since
                step_rows, step = heappop(heap)
                if step_rows == candidate[step]:
                    break
            rows *= max(step_rows, 1e-6)
        if best_rows is None or rows < best_rows:
            best_rows = rows
    return max(best_rows if best_rows is not None else 1.0, 1.0)


def decomposition_cost_estimate(
    decomposition: TreeDecomposition, compiled: CompiledQuery, stats: DocumentStats
) -> tuple[tuple[float, ...], float]:
    """Per-bag row estimates and their sum (the Yannakakis pass is linear in both)."""
    bag_rows = tuple(bag_rows_estimate(bag, compiled, stats) for bag in decomposition.bags)
    return bag_rows, max(sum(bag_rows), 1.0)


def flat_cost_estimate(compiled: CompiledQuery, stats: DocumentStats) -> float:
    """The flat (single-block) SQL lowering: one join over all variables."""
    return bag_rows_estimate(frozenset(compiled.variables), compiled, stats)

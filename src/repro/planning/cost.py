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

from typing import Optional

from ..decomposition.decompose import TreeDecomposition
from ..evaluation.compile import CompiledAtom, CompiledQuery
from ..evaluation.propagation import Propagator
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


def _cheapest_connection(
    variable: str,
    placed: set[str],
    atoms_by_pair: dict[frozenset[str], list[CompiledAtom]],
    stats: DocumentStats,
) -> Optional[float]:
    """Min partner estimate over atoms connecting ``variable`` to ``placed``."""
    best: Optional[float] = None
    for other in placed:
        for atom in atoms_by_pair.get(frozenset((variable, other)), ()):
            estimate = _partner_estimate(atom.axis, stats)
            if best is None or estimate < best:
                best = estimate
    return best


def bag_rows_estimate(
    bag: frozenset[str], compiled: CompiledQuery, stats: DocumentStats
) -> float:
    """Estimated rows of the bag relation (all satisfying tuples over ``bag``).

    Greedy join-order estimate mirroring ``_bag_cost``'s cheapest-connection
    order: start from each variable in turn, repeatedly add the variable with
    the cheapest extension, and take the minimum over starts.  Extending by
    ``v`` through an atom with partner estimate ``p`` multiplies rows by
    ``min(domain(v), p * domain(v) / n)`` -- the axis fan-out capped by the
    label filter -- and a fill edge (no atom) multiplies by ``domain(v)``
    outright, the cartesian ``n^(width+1)`` term decompositions are priced by.
    """
    variables = sorted(bag)
    if not variables:
        return 1.0
    domains = {v: variable_domain_estimate(v, compiled, stats) for v in variables}
    if len(variables) == 1:
        return max(domains[variables[0]], 1.0)

    atoms_by_pair: dict[frozenset[str], list[CompiledAtom]] = {}
    for atom in compiled.edges:
        if atom.source in bag and atom.target in bag:
            atoms_by_pair.setdefault(frozenset((atom.source, atom.target)), []).append(atom)

    n = float(max(stats.nodes, 1))
    best_rows: Optional[float] = None
    for start in variables:
        rows = domains[start]
        placed = {start}
        remaining = [v for v in variables if v != start]
        while remaining:
            step_rows: Optional[float] = None
            step_variable = remaining[0]
            for v in remaining:
                cheapest = _cheapest_connection(v, placed, atoms_by_pair, stats)
                if cheapest is None:
                    candidate = domains[v]  # fill edge: cartesian extension
                else:
                    candidate = min(domains[v], cheapest * domains[v] / n)
                if step_rows is None or candidate < step_rows:
                    step_rows, step_variable = candidate, v
            rows *= max(step_rows, 1e-6) if step_rows is not None else 1.0
            placed.add(step_variable)
            remaining.remove(step_variable)
        if best_rows is None or rows < best_rows:
            best_rows = rows
    return max(best_rows if best_rows is not None else 1.0, 1.0)


def decomposition_cost_estimate(
    decomposition: TreeDecomposition, compiled: CompiledQuery, stats: DocumentStats
) -> tuple[tuple[float, ...], float]:
    """Per-bag row estimates and their sum (the Yannakakis pass is linear in both)."""
    bag_rows = tuple(bag_rows_estimate(bag, compiled, stats) for bag in decomposition.bags)
    return bag_rows, max(sum(bag_rows), 1.0)


def fixpoint_cost_estimate(
    compiled: CompiledQuery, stats: DocumentStats, propagator: Optional[Propagator] = None
) -> float:
    """One arc-consistency fixpoint: roughly nodes x atoms work.

    The semijoin full reducer never touches a node outside the label columns:
    each edge costs its two endpoint domains (once per sweep), so it is priced
    by their estimated sizes instead.
    """
    if propagator is Propagator.SEMIJOIN:
        touched = sum(
            variable_domain_estimate(atom.source, compiled, stats)
            + variable_domain_estimate(atom.target, compiled, stats)
            for atom in compiled.edges
        )
        return max(touched, 1.0)
    return float(stats.nodes) * max(1, len(compiled.atoms))


def backtracking_cost_estimate(
    compiled: CompiledQuery, stats: DocumentStats, propagator: Optional[Propagator] = None
) -> float:
    """Cost of the backtracking engine as the serving layer actually runs it.

    Boolean queries cost about two fixpoints (propagate, then first-witness
    search over the pruned domains).  Monadic queries over forest-shaped
    constraint graphs project the fixpoint directly.  Everything else pays the
    candidate-product: the product of distinct head-variable domain estimates,
    times a per-candidate satisfiability check priced as one fixpoint.
    """
    fixpoint = fixpoint_cost_estimate(compiled, stats, propagator)
    head = compiled.query.head
    if not head:
        return 2.0 * fixpoint
    if len(head) == 1 and compiled.shadow_is_forest:
        return fixpoint
    product = 1.0
    for variable in dict.fromkeys(head):
        product *= max(variable_domain_estimate(variable, compiled, stats), 1.0)
    return product * fixpoint


def flat_cost_estimate(compiled: CompiledQuery, stats: DocumentStats) -> float:
    """The flat (single-block) SQL lowering: one join over all variables."""
    return bag_rows_estimate(frozenset(compiled.variables), compiled, stats)


def choose_propagator(compiled: CompiledQuery) -> Propagator:
    """Propagator pick for an engine that needs the exact fixpoint.

    A forest-shaped body gets the two semijoin sweeps of
    :mod:`repro.evaluation.reducer` (no worklist; ``benchmarks/e2e``
    ``mixed_10k``).  A cyclic body keeps a worklist engine here -- backtracking
    forward-checks against arc-consistent domains -- while ``plan_query`` gives
    the decomposition engine the same sweeps on any body, as supersets.  Among
    the worklist engines hybrid wins when some edge joins two
    unlabeled (full-domain) variables over a non-global axis -- AC-4's support
    counters are quadratic to seed exactly there, while the interval
    representation stays closed-form.  On global axes (``Following``,
    ``DocumentOrder``) AC-4 keeps a measured 9.4x-vs-3.5x edge over the hybrid
    on deep chains, so those stay AC-4.
    """
    if compiled.shadow_is_forest:
        return Propagator.SEMIJOIN
    for atom in compiled.edges:
        if atom.axis in (Axis.FOLLOWING, Axis.DOCUMENT_ORDER):
            continue
        if not compiled.labels_by_variable.get(
            atom.source
        ) and not compiled.labels_by_variable.get(atom.target):
            return Propagator.HYBRID
    return Propagator.AC4

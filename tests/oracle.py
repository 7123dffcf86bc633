"""Reference implementations the tests hold the product code to.

Each function here is a literal, deliberately slow transcription of a
procedure whose product version was rewritten for speed.  They must return
exactly what the product returns -- the same orders, the same floats, the same
trees -- so a property test can compare the two outright:

* :func:`exact_elimination_order` / :func:`cost_optimal_order` -- the two
  subset dynamic programs of :mod:`repro.decomposition.decompose` over
  ``frozenset`` prefixes, one breadth-first search per (prefix, vertex), each
  step priced by :func:`bag_cost` afresh; :func:`decompose_exact` builds the
  exact path's join tree from them;
* :func:`bag_rows_estimate` -- the greedy cheapest-connection estimator of
  :mod:`repro.planning.cost`, rescanning every placed variable per step;
* :func:`random_tree` -- :func:`repro.trees.random_tree` rebuilding its list
  of non-full nodes before every draw.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence

from repro.decomposition.decompose import (
    FILL_WEIGHT,
    PairCosts,
    TreeDecomposition,
    decomposition_from_order,
    prune_subset_bags,
)
from repro.decomposition.hypergraph import Hypergraph
from repro.evaluation.compile import CompiledAtom, CompiledQuery
from repro.planning.cost import _partner_estimate, variable_domain_estimate
from repro.planning.stats import DocumentStats
from repro.queries.atoms import Variable
from repro.trees import Node, Tree

# ---------------------------------------------------------------------------
# Exact elimination orders.
# ---------------------------------------------------------------------------


def bag_cost(bag: frozenset, pair_costs: PairCosts) -> int:
    """Min over starts of the product of each next variable's cheapest link."""
    members = sorted(bag)
    if len(members) <= 1:
        return 1

    def cheapest_link(variable, assigned: list) -> int:
        return min(pair_costs.get(frozenset({variable, other}), FILL_WEIGHT) for other in assigned)

    best: Optional[int] = None
    for start in members:
        assigned = [start]
        rest = [m for m in members if m != start]
        total = 1
        while rest:
            weights = {v: cheapest_link(v, assigned) for v in rest}
            pick = min(rest, key=lambda v: (weights[v], v))
            total *= weights[pick]
            assigned.append(pick)
            rest.remove(pick)
        best = total if best is None else min(best, total)
    return best if best is not None else 1


def q_neighbours(
    adjacency: Mapping[Variable, set[Variable]],
    eliminated: frozenset[Variable],
    vertex: Variable,
) -> set[Variable]:
    """{w not eliminated, w != vertex, reachable from vertex through eliminated}."""
    seen = {vertex}
    frontier = [vertex]
    reachable: set[Variable] = set()
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency[current]:
            if neighbour in seen:
                continue
            seen.add(neighbour)
            if neighbour in eliminated:
                frontier.append(neighbour)
            else:
                reachable.add(neighbour)
    return reachable


def _order(choice: list[int], vertices: tuple[Variable, ...]) -> tuple[Variable, ...]:
    order_reversed: list[Variable] = []
    mask = (1 << len(vertices)) - 1
    while mask:
        i = choice[mask]
        order_reversed.append(vertices[i])
        mask ^= 1 << i
    return tuple(reversed(order_reversed))


def exact_elimination_order(
    adjacency: Mapping[Variable, set[Variable]],
) -> tuple[tuple[Variable, ...], int]:
    """dp[S] = min over v in S of max(dp[S - v], |q(S - v, v)|); first v wins ties."""
    vertices = tuple(sorted(adjacency))
    n = len(vertices)
    if n == 0:
        return (), -1

    def members(mask: int) -> frozenset[Variable]:
        return frozenset(vertices[i] for i in range(n) if mask & (1 << i))

    dp = [0] * (1 << n)
    choice = [-1] * (1 << n)
    for mask in range(1, 1 << n):
        best, best_vertex = None, -1
        for i in range(n):
            if not mask & (1 << i):
                continue
            previous = mask ^ (1 << i)
            degree = len(q_neighbours(adjacency, members(previous), vertices[i]))
            cost = max(dp[previous], degree)
            if best is None or cost < best:
                best, best_vertex = cost, i
        dp[mask] = best if best is not None else 0
        choice[mask] = best_vertex
    return _order(choice, vertices), dp[(1 << n) - 1]


def cost_optimal_order(
    adjacency: Mapping[Variable, set[Variable]],
    width: int,
    pair_costs: PairCosts,
) -> tuple[Variable, ...]:
    """The cheapest order (sum of bag costs) among steps of degree <= ``width``."""
    vertices = tuple(sorted(adjacency))
    n = len(vertices)
    if n == 0:
        return ()

    def members(mask: int) -> frozenset[Variable]:
        return frozenset(vertices[i] for i in range(n) if mask & (1 << i))

    infinity = float("inf")
    dp: list[float] = [infinity] * (1 << n)
    dp[0] = 0
    choice = [-1] * (1 << n)
    for mask in range(1, 1 << n):
        for i in range(n):
            if not mask & (1 << i):
                continue
            previous = mask ^ (1 << i)
            if dp[previous] == infinity:
                continue
            neighbours = q_neighbours(adjacency, members(previous), vertices[i])
            if len(neighbours) > width:
                continue
            bag = frozenset({vertices[i]}) | neighbours
            cost = dp[previous] + bag_cost(bag, pair_costs)
            if cost < dp[mask]:
                dp[mask] = cost
                choice[mask] = i
    if choice[(1 << n) - 1] < 0:
        raise AssertionError(f"no elimination order of width {width} found")
    return _order(choice, vertices)


def decompose_exact(
    hypergraph: Hypergraph, pair_costs: Optional[PairCosts] = None
) -> TreeDecomposition:
    """The exact path of ``decompose_hypergraph``: width DP, then the cost DP."""
    adjacency = hypergraph.adjacency()
    order, width = exact_elimination_order(adjacency)
    if pair_costs is not None:
        order = cost_optimal_order(adjacency, width, pair_costs)
    decomposition = decomposition_from_order(adjacency, order, "exact", exact=True)
    assert decomposition.width == width
    return prune_subset_bags(decomposition)


# ---------------------------------------------------------------------------
# The greedy bag-rows estimator.
# ---------------------------------------------------------------------------


def _cheapest_connection(
    variable: str,
    placed: set[str],
    atoms_by_pair: dict[frozenset[str], list[CompiledAtom]],
    stats: DocumentStats,
) -> Optional[float]:
    best: Optional[float] = None
    for other in placed:
        for atom in atoms_by_pair.get(frozenset((variable, other)), ()):
            estimate = _partner_estimate(atom.axis, stats)
            if best is None or estimate < best:
                best = estimate
    return best


def bag_rows_estimate(bag: frozenset[str], compiled: CompiledQuery, stats: DocumentStats) -> float:
    """Min over starts of the greedy cheapest-extension product, rescanned per step."""
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
                    candidate = domains[v]
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


# ---------------------------------------------------------------------------
# Seeded random trees.
# ---------------------------------------------------------------------------


def random_tree(
    size: int,
    alphabet: Sequence[str] = ("A", "B", "C"),
    max_children: int = 4,
    multi_label_probability: float = 0.0,
    unlabeled_probability: float = 0.0,
    seed: Optional[int] = None,
) -> Tree:
    """Attach each node under a uniform draw from the non-full nodes, listed afresh."""
    rng = random.Random(seed)

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
    for _ in range(size - 1):
        eligible = [node for node in nodes if len(node.children) < max_children]
        parent = rng.choice(eligible) if eligible else rng.choice(nodes)
        nodes.append(parent.add(draw_labels()))
    return Tree(root)

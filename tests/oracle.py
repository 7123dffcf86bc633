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
  of non-full nodes before every draw;
* :func:`maximal_arc_consistent_horn` -- Proposition 3.1 itself: the
  subset-maximal arc-consistent prevaluation as the least model of a
  propositional Horn program, by unit propagation.  Every propagator and
  engine is held to it: the semijoin reducer equals it on forests, the pointer
  walk's verdict matches it and its valuation is the minimum of it (Lemma
  3.4, :func:`minimum_valuation`), and every pruned column contains it;
  :func:`answers` enumerates every satisfying valuation over its domains by
  brute force -- the answer oracle of the engine tests.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Mapping, Optional, Sequence

from repro.decomposition.decompose import (
    FILL_WEIGHT,
    PairCosts,
    TreeDecomposition,
    decomposition_from_order,
    prune_subset_bags,
)
from repro.decomposition.hypergraph import Hypergraph
from repro.evaluation.compile import CompiledAtom, CompiledQuery, compile_query
from repro.evaluation.domains import Valuation
from repro.planning.cost import _partner_estimate, variable_domain_estimate
from repro.planning.stats import DocumentStats
from repro.queries.atoms import AxisAtom, Variable
from repro.queries.query import ConjunctiveQuery
from repro.trees import Node, Order, Tree, TreeStructure, minimum

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


# ---------------------------------------------------------------------------
# Proposition 3.1: the maximal arc-consistent prevaluation as a Horn program.
# ---------------------------------------------------------------------------

#: A prevaluation in set form: each variable's candidate nodes.
Domains = dict[Variable, set[int]]


def initial_domains(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Domains:
    """The starting prevaluation: each variable's nodes that carry all its labels.

    A pinned variable keeps at most its pinned node.  This is the first clause
    group of the Horn program below; self-loop atoms are not applied.
    """
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    domains: Domains = {}
    for variable in compiled.variables:
        labels = compiled.labels_by_variable.get(variable, ())
        domains[variable] = {
            node
            for node in structure.domain()
            if all(structure.unary_holds(label, node) for label in labels)
        }
    for variable, node in (pinned or {}).items():
        if variable not in domains:
            raise ValueError(f"pinned variable {variable!r} not in the query")
        domains[variable] &= {node}
    return domains


def maximal_arc_consistent_horn(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> Optional[Domains]:
    """Compute the maximal arc-consistent prevaluation via the Horn program.

    The propositional atoms are ``Remove(x, v)``; the program contains

    * a fact ``Remove(x, v)`` for each unary atom ``P(x)`` and node ``v`` with
      ``not P(v)`` (and for pinned variables, each node other than the pin),
    * for each binary atom ``R(x, y)`` and node ``v``:
      ``Remove(x, v) <- AND { Remove(y, w) | R(v, w) }``,
    * for each binary atom ``R(x, y)`` and node ``w``:
      ``Remove(y, w) <- AND { Remove(x, v) | R(v, w) }``.

    Unit propagation (linear in the program size) computes the least model;
    the complement of ``Remove`` is the maximal arc-consistent prevaluation.
    """
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    variables = compiled.variables
    nodes = list(structure.domain())

    # Proposition index: (variable, node) -> proposition id.
    proposition_of: dict[tuple[Variable, int], int] = {}
    for variable in variables:
        for node in nodes:
            proposition_of[(variable, node)] = len(proposition_of)

    facts: list[int] = []
    # clauses: body size countdown + head; body_of maps proposition -> clause ids.
    clause_heads: list[int] = []
    clause_counts: list[int] = []
    watchers: dict[int, list[int]] = {}

    def add_clause(head: int, body: list[int]) -> None:
        if not body:
            facts.append(head)
            return
        clause_id = len(clause_heads)
        clause_heads.append(head)
        clause_counts.append(len(body))
        for proposition in body:
            watchers.setdefault(proposition, []).append(clause_id)

    # Unary facts.
    for variable, labels in compiled.labels_by_variable.items():
        for label_name in labels:
            for node in nodes:
                if not structure.unary_holds(label_name, node):
                    facts.append(proposition_of[(variable, node)])
    if pinned:
        for variable, pin in pinned.items():
            if variable not in compiled.variable_index:
                raise ValueError(f"pinned variable {variable!r} not in the query")
            for node in nodes:
                if node != pin:
                    facts.append(proposition_of[(variable, node)])

    # Binary clauses (normalized atoms; self-loops included).
    for atom in compiled.atoms:
        for v in nodes:
            body = [
                proposition_of[(atom.target, w)]
                for w in structure.axis_successors(atom.axis, v)
            ]
            add_clause(proposition_of[(atom.source, v)], body)
        for w in nodes:
            body = [
                proposition_of[(atom.source, v)]
                for v in structure.axis_predecessors(atom.axis, w)
            ]
            add_clause(proposition_of[(atom.target, w)], body)

    # Unit propagation over the Horn program.
    true_propositions: set[int] = set()
    queue = deque(facts)
    while queue:
        proposition = queue.popleft()
        if proposition in true_propositions:
            continue
        true_propositions.add(proposition)
        for clause_id in watchers.get(proposition, ()):
            clause_counts[clause_id] -= 1
            if clause_counts[clause_id] == 0:
                head = clause_heads[clause_id]
                if head not in true_propositions:
                    queue.append(head)

    # Complement: T = (Vars x A) - Remove.
    domains: Domains = {variable: set() for variable in variables}
    for (variable, node), proposition in proposition_of.items():
        if proposition not in true_propositions:
            domains[variable].add(node)
    if any(not domain for domain in domains.values()):
        return None
    return domains


def domains_of(result, query: ConjunctiveQuery | CompiledQuery) -> Optional[Domains]:
    """A propagation result's ``sorted_domain`` columns as sets (``None`` stays ``None``)."""
    if result is None:
        return None
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    return {variable: set(result.sorted_domain(variable)) for variable in compiled.variables}


def minimum_valuation(structure: TreeStructure, domains: Domains, order: Order) -> Valuation:
    """The minimum valuation of a prevaluation w.r.t. an order (Lemma 3.4)."""
    return {variable: minimum(structure.tree, order, nodes) for variable, nodes in domains.items()}


def answers(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
) -> list[tuple[int, ...]]:
    """The sorted head projections of every satisfying valuation (``pinned`` held).

    Brute force over the Horn program's domains: variables in first-occurrence
    order, each axis atom checked by :meth:`TreeStructure.axis_holds` once its
    later endpoint is assigned.  A Boolean query answers ``[()]`` or ``[]``.
    """
    domains = maximal_arc_consistent_horn(query, structure, pinned)
    if domains is None:
        return []
    variables = list(domains)
    position = {variable: i for i, variable in enumerate(variables)}
    checks: dict[Variable, list[AxisAtom]] = {variable: [] for variable in variables}
    for atom in query.body:
        if isinstance(atom, AxisAtom):
            checks[max(atom.source, atom.target, key=position.__getitem__)].append(atom)
    found: set[tuple[int, ...]] = set()
    valuation: dict[Variable, int] = {}

    def extend(depth: int) -> None:
        if depth == len(variables):
            found.add(tuple(valuation[variable] for variable in query.head))
            return
        variable = variables[depth]
        for node in sorted(domains[variable]):
            valuation[variable] = node
            if all(
                structure.axis_holds(atom.axis, valuation[atom.source], valuation[atom.target])
                for atom in checks[variable]
            ):
                extend(depth + 1)
        del valuation[variable]

    extend(0)
    return sorted(found)

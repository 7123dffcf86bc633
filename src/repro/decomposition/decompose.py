"""Tree-decomposition search over the compiled constraint graph.

A *tree decomposition* of the query's primal graph is a tree of variable bags
such that (i) every variable occurs in some bag, (ii) every constraint's
endpoint pair is contained in some bag, and (iii) each variable's bags form a
connected subtree.  Its *width* is the maximum bag size minus one: forests
have width 1 (bags are the edges), cycles width 2, cliques of size k width
k - 1.  Bounded width is the tractability handle for cyclic queries: the bags
of a width-w decomposition can be searched or materialized in O(n^(w+1)) and
joined along the tree Yannakakis-style (:mod:`repro.decomposition.yannakakis`),
so a cyclic query of width 2 evaluates in polynomial time even over the
NP-hard signatures: the planner's engine for the whole cyclic residue.

Search strategy (:func:`decompose`):

* **exact** for small queries (up to :data:`EXACT_VERTEX_LIMIT` variables) --
  the Held-Karp-style subset dynamic program over elimination prefixes
  (Bodlaender et al., *Treewidth computations I*).  Vertices are bits of an
  int in sorted order; the elimination neighbourhood q(S, v) of every prefix
  S and vertex v goes into one flat table, each entry one O(1) step from the
  prefix without its lowest vertex, and both subset DPs below read that table:
  O(2^n * n) int operations, a few milliseconds at 12 variables;
* **min-fill and min-degree** elimination heuristics otherwise, keeping the
  better of the two orders.

Width alone does not pin down the decomposition: a graph usually admits many
width-optimal trees, and they are *not* evaluation-equivalent.  For the
bench's ``open_auction/bidder/Following`` triangle, one width-2 tree covers
its middle bag with a ``Child`` atom (linear rows) while another covers it
only with ``Following`` (quadratic rows) -- a 100x materialization gap the
canonicalizer used to flip between by alpha-renaming, because ties broke on
variable names.  The search therefore minimizes ``(width, static cost)``: a
rename-invariant estimate of bag materialization expense from axis density
(:data:`AXIS_WEIGHTS` -- point axes cheap, subtree axes medium, the interval
order axes dense, atom-less fill pairs worst).  On the exact path a second
subset DP picks the cheapest order among those achieving the certified width,
pricing each distinct bag once.  A forest needs no width DP: its treewidth is
1 (0 without edges), certified by m = n - components, so with pair costs the
cost DP runs alone.

Either way the result reports the *achieved* width (recomputed from the bags,
never trusted from the search), the method that produced it, and for the exact
path the certified optimum.

The tree is then *reduced* (:func:`prune_subset_bags`: no bag is a subset of
a tree neighbour) and *rooted* at the head (:func:`root_at_head`: each
component hangs from the bag sharing the most head variables).  That rooted
tree is the one join tree of the query: the in-memory decomposition engine
runs it and the SQL lowering prints it as one CTE per bag.  Decompositions
depend only on the query, so the compiled query caches its decomposition
(`CompiledQuery.decomposition`), searched on the first request that needs a
join tree and reused by every later one for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..queries.atoms import Variable
from ..trees.axes import Axis
from .hypergraph import Hypergraph

if TYPE_CHECKING:  # pragma: no cover - type-only import (avoids a cycle)
    from ..evaluation.compile import CompiledQuery

#: Queries with at most this many variables get the exact treewidth DP.
EXACT_VERTEX_LIMIT = 12

#: Relative per-step fan-out of instantiating a bag variable through an atom
#: of the given axis (roughly log-scaled relation density on an n-node tree):
#: point/local axes produce O(1)-O(degree) candidates per anchor, the subtree
#: axes O(depth * fanout), and the document-order interval axes O(n).
AXIS_WEIGHTS: dict[Axis, int] = {
    Axis.SELF: 1,
    Axis.CHILD: 1,
    Axis.PARENT: 1,
    Axis.NEXT_SIBLING: 1,
    Axis.PREVIOUS_SIBLING: 1,
    Axis.SUCC_PRE: 1,
    Axis.CHILD_PLUS: 4,
    Axis.CHILD_STAR: 4,
    Axis.ANCESTOR: 4,
    Axis.ANCESTOR_OR_SELF: 4,
    Axis.NEXT_SIBLING_PLUS: 4,
    Axis.NEXT_SIBLING_STAR: 4,
    Axis.PRECEDING_SIBLING: 4,
    Axis.FOLLOWING: 16,
    Axis.PRECEDING: 16,
    Axis.DOCUMENT_ORDER: 16,
}
#: A bag pair with no covering atom (a fill edge): an unconstrained product.
FILL_WEIGHT = 64

PairCosts = Mapping[frozenset, int]


def atom_pair_costs(compiled: "CompiledQuery") -> dict[frozenset, int]:
    """Cheapest axis weight per variable pair carrying at least one atom."""
    costs: dict[frozenset, int] = {}
    for atom in compiled.atoms:
        if atom.is_loop:
            continue
        pair = frozenset({atom.source, atom.target})
        weight = AXIS_WEIGHTS.get(atom.axis, 4)
        if weight < costs.get(pair, FILL_WEIGHT + 1):
            costs[pair] = weight
    return costs


def _bag_cost(bag: frozenset, pair_costs: PairCosts) -> int:
    """Static materialization-cost estimate of one bag.

    Mirrors :func:`~repro.decomposition.yannakakis._materialize_bag`'s
    strategy: the first variable iterates its domain (a constant factor shared
    by every bag, counted as 1), each subsequent one is driven by its cheapest
    atom into the already-assigned prefix.  The estimate is the product of
    those per-step weights, minimized over the starting variable, so it is
    invariant under variable renaming.
    """
    members = sorted(bag)
    if len(members) <= 1:
        return 1
    if len(members) == 2:
        return pair_costs.get(frozenset(members), FILL_WEIGHT)
    weight = {
        (u, v): pair_costs.get(frozenset((u, v)), FILL_WEIGHT)
        for u in members
        for v in members
        if u != v
    }
    best: Optional[int] = None
    for start in members:
        # Each unassigned variable's cheapest link into the assigned prefix.
        link = {v: weight[start, v] for v in members if v != start}
        total = 1
        while link:
            pick = min(link, key=lambda v: (link[v], v))
            total *= link.pop(pick)
            for v in link:
                if weight[pick, v] < link[v]:
                    link[v] = weight[pick, v]
        best = total if best is None else min(best, total)
    return best if best is not None else 1


def decomposition_cost(decomposition: "TreeDecomposition", pair_costs: PairCosts) -> int:
    """Total static cost of a decomposition: the sum of its bag costs."""
    return sum(_bag_cost(bag, pair_costs) for bag in decomposition.bags)


@dataclass(frozen=True)
class TreeDecomposition:
    """A rooted forest of variable bags.

    ``bags[i]`` is the i-th bag; ``parent[i]`` the index of its parent bag
    (``-1`` for roots).  Bags are topologically ordered: a bag's parent always
    has a smaller index, so iterating ``bags`` in reverse visits children
    before parents (the bottom-up order the semijoin passes want).  As
    :func:`decompose` returns it, each root holds the most head variables of
    its component (:func:`root_at_head`).
    """

    bags: tuple[frozenset[Variable], ...]
    parent: tuple[int, ...]
    width: int
    method: str
    #: True when the search certified ``width`` as the true treewidth.
    exact: bool

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p < 0)

    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child bag indices per bag."""
        kids: list[list[int]] = [[] for _ in self.bags]
        for index, parent_index in enumerate(self.parent):
            if parent_index >= 0:
                kids[parent_index].append(index)
        return tuple(tuple(k) for k in kids)

    def covering_bag(self, variables: frozenset[Variable]) -> Optional[int]:
        """The index of some bag containing all of ``variables``."""
        for index, bag in enumerate(self.bags):
            if variables <= bag:
                return index
        return None

    def validate(self, hypergraph: Hypergraph) -> None:
        """Assert the three decomposition properties; raises ``ValueError``.

        Used by the tests and by :func:`decompose` in its own sanity path --
        an invalid decomposition would silently corrupt answers downstream, so
        failing loudly here is worth the O(bags * vertices) pass.
        """
        covered: set[Variable] = set()
        for bag in self.bags:
            covered |= bag
        missing = set(hypergraph.vertices) - covered
        if missing:
            raise ValueError(f"vertices not covered by any bag: {sorted(missing)}")
        for edge in hypergraph.edges:
            if self.covering_bag(frozenset(edge)) is None:
                raise ValueError(f"hyperedge not covered by any bag: {sorted(edge)}")
        for vertex in hypergraph.vertices:
            occurrences = [i for i, bag in enumerate(self.bags) if vertex in bag]
            # Connectivity: walking from every occurrence towards the root,
            # the occurrences must form one subtree -- equivalently all but
            # one occurrence must have a parent that also contains the vertex.
            without_parent = [
                i
                for i in occurrences
                if self.parent[i] < 0 or vertex not in self.bags[self.parent[i]]
            ]
            if len(without_parent) > 1:
                raise ValueError(f"occurrences of {vertex!r} are not connected")
        if self.bags and self.width != max(len(bag) for bag in self.bags) - 1:
            raise ValueError("recorded width does not match the bags")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TreeDecomposition(bags={len(self.bags)}, width={self.width}, "
            f"method={self.method!r}, exact={self.exact})"
        )


# ---------------------------------------------------------------------------
# Elimination orders -> decompositions.
# ---------------------------------------------------------------------------


def _copy_adjacency(
    adjacency: Mapping[Variable, set[Variable]],
) -> dict[Variable, set[Variable]]:
    return {vertex: set(neighbours) for vertex, neighbours in adjacency.items()}


def _eliminate(graph: dict[Variable, set[Variable]], vertex: Variable) -> set[Variable]:
    """Remove ``vertex``, connecting its neighbours into a clique; returns them."""
    neighbours = graph.pop(vertex)
    for u in neighbours:
        graph[u].discard(vertex)
    members = sorted(neighbours)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            graph[u].add(v)
            graph[v].add(u)
    return neighbours


def min_degree_order(adjacency: Mapping[Variable, set[Variable]]) -> tuple[Variable, ...]:
    """Eliminate a minimum-degree vertex first (ties by name, deterministic)."""
    graph = _copy_adjacency(adjacency)
    order: list[Variable] = []
    while graph:
        vertex = min(graph, key=lambda v: (len(graph[v]), v))
        _eliminate(graph, vertex)
        order.append(vertex)
    return tuple(order)


def min_fill_order(adjacency: Mapping[Variable, set[Variable]]) -> tuple[Variable, ...]:
    """Eliminate the vertex whose elimination adds the fewest fill edges."""
    graph = _copy_adjacency(adjacency)
    order: list[Variable] = []

    def fill_cost(vertex: Variable) -> int:
        neighbours = sorted(graph[vertex])
        cost = 0
        for i, u in enumerate(neighbours):
            for v in neighbours[i + 1 :]:
                if v not in graph[u]:
                    cost += 1
        return cost

    while graph:
        vertex = min(graph, key=lambda v: (fill_cost(v), len(graph[v]), v))
        _eliminate(graph, vertex)
        order.append(vertex)
    return tuple(order)


def decomposition_from_order(
    adjacency: Mapping[Variable, set[Variable]],
    order: Sequence[Variable],
    method: str,
    exact: bool = False,
) -> TreeDecomposition:
    """The standard bag construction from an elimination order.

    Eliminating ``v`` creates the bag ``{v} U N(v)`` (neighbours in the
    current fill graph); the bag's parent is the bag of the first-eliminated
    remaining neighbour, which yields the connectivity property by
    construction.  Bags are emitted in *reverse* elimination order so parents
    precede children (the class invariant).
    """
    graph = _copy_adjacency(adjacency)
    position = {vertex: i for i, vertex in enumerate(order)}
    raw_bags: list[frozenset[Variable]] = []
    attach_to: list[Optional[Variable]] = []
    for vertex in order:
        neighbours = _eliminate(graph, vertex)
        raw_bags.append(frozenset({vertex}) | frozenset(neighbours))
        attach_to.append(
            min(neighbours, key=position.__getitem__) if neighbours else None
        )
    # Re-index: bag of order[i] gets final index (n - 1 - i), so roots (the
    # last-eliminated vertices) come first and parents precede children.
    n = len(order)
    final_index = {order[i]: n - 1 - i for i in range(n)}
    bags: list[frozenset[Variable]] = [frozenset()] * n
    parent: list[int] = [-1] * n
    for i, vertex in enumerate(order):
        index = final_index[vertex]
        bags[index] = raw_bags[i]
        anchor = attach_to[i]
        parent[index] = final_index[anchor] if anchor is not None else -1
    width = max((len(bag) for bag in bags), default=1) - 1
    return TreeDecomposition(
        bags=tuple(bags),
        parent=tuple(parent),
        width=width,
        method=method,
        exact=exact,
    )


def prune_subset_bags(decomposition: TreeDecomposition) -> TreeDecomposition:
    """Merge every bag contained in a tree neighbour into that neighbour.

    Elimination orders routinely emit redundant bags (eliminating a degree-1
    vertex of a path yields the chain ``{a} - {a,b} - {a,b,c}``).  They are
    harmless for width but poisonous for evaluation: a subset bag turns its
    variables into *separators* of the adjacent bag, forcing the materializer
    to keep (and the semijoin passes to carry) columns that are really local
    existentials.  For the four-cycle this is the difference between
    materializing all O(n^2) ``(a, b, c)`` triples and a first-witness /
    union-of-ranges search over ``b``.  Merging a bag into a neighbour that
    contains it preserves all three decomposition properties and never
    increases the width.
    """
    bags = list(decomposition.bags)
    parent = list(decomposition.parent)
    alive = [True] * len(bags)
    changed = True
    while changed:
        changed = False
        for i in range(len(bags)):
            if not alive[i]:
                continue
            p = parent[i]
            if p < 0:
                continue
            if bags[i] <= bags[p]:
                # Drop the child; its children reattach to the parent.
                for j in range(len(bags)):
                    if alive[j] and parent[j] == i:
                        parent[j] = p
                alive[i] = False
                changed = True
            elif bags[p] <= bags[i]:
                # Drop the parent; this bag takes its place in the tree.
                grandparent = parent[p]
                for j in range(len(bags)):
                    if alive[j] and parent[j] == p:
                        parent[j] = i
                parent[i] = grandparent
                alive[p] = False
                changed = True
    if all(alive):
        return decomposition
    return _renumbered(decomposition, bags, parent, alive)


def root_at_head(decomposition: TreeDecomposition, head: Sequence[Variable]) -> TreeDecomposition:
    """Re-root each component at the bag sharing the most head variables.

    Both engines keep a bag's separators and head variables and eliminate the
    rest as witnesses, and the kept columns grow along the path from the head
    bags to the root: a tree rooted at the far end of an acyclic tail drags
    every tail variable into materialized separators, while the same tree
    rooted at the head reduces that tail bottom-up to semijoins.  Ties go to
    the lowest index and headless components keep their root.  When every
    root already qualifies the decomposition itself is returned, so its
    numbering (and the SQL text printed from it) does not move.
    """
    head_set = frozenset(head)
    bags, parent = decomposition.bags, list(decomposition.parent)
    children = decomposition.children()
    moved = False
    for root in decomposition.roots:
        component = [root]
        for index in component:  # grows during iteration: the root's subtree
            component.extend(children[index])
        # A root has the lowest index of its component, so it wins every tie.
        best = min(component, key=lambda i: (-len(bags[i] & head_set), i))
        if best == root:
            continue
        moved = True
        # Reverse the parent links on the path from the new root to the old.
        previous, index = -1, best
        while index >= 0:
            following = parent[index]
            parent[index] = previous
            previous, index = index, following
    if not moved:
        return decomposition
    return _renumbered(decomposition, bags, parent, [True] * len(bags))


def _renumbered(
    decomposition: TreeDecomposition,
    bags: Sequence[frozenset[Variable]],
    parent: Sequence[int],
    alive: Sequence[bool],
) -> TreeDecomposition:
    """The live ``bags`` under the forest ``parent``, numbered parents-first.

    BFS from the roots, roots and children in ascending old index, so a bag's
    parent always precedes it (the class invariant the semijoin passes rely on).
    """
    order = [i for i in range(len(bags)) if alive[i] and parent[i] < 0]
    for index in order:  # grows during iteration: a BFS over the forest
        order.extend(j for j in range(len(bags)) if alive[j] and parent[j] == index)
    final_index = {old: new for new, old in enumerate(order)}
    return TreeDecomposition(
        bags=tuple(bags[old] for old in order),
        parent=tuple(
            final_index[parent[old]] if parent[old] >= 0 else -1 for old in order
        ),
        width=max(len(bags[old]) for old in order) - 1,
        method=decomposition.method,
        exact=decomposition.exact,
    )


# ---------------------------------------------------------------------------
# Exact treewidth (subset dynamic program over elimination prefixes).
# ---------------------------------------------------------------------------


def _bit_graph(
    adjacency: Mapping[Variable, set[Variable]],
) -> tuple[tuple[Variable, ...], list[int]]:
    """The vertices in sorted order and each one's neighbours as a bitmask over them."""
    vertices = tuple(sorted(adjacency))
    position = {vertex: i for i, vertex in enumerate(vertices)}
    neighbours = [0] * len(vertices)
    for vertex, adjacent in adjacency.items():
        bits = 0
        for other in adjacent:
            bits |= 1 << position[other]
        neighbours[position[vertex]] = bits & ~(1 << position[vertex])
    return vertices, neighbours


def _neighbourhood_table(neighbours: Sequence[int]) -> list[int]:
    """``table[S * n + v]`` = q(S, v) as a bitmask, for every prefix S and v not in S.

    q(S, v) is the set of vertices outside ``S | {v}`` reachable from ``v``
    through ``S``: exactly ``v``'s neighbours, fill edges included, when it is
    eliminated right after the set ``S``; its bag is ``q(S, v) | {v}``.  Row S
    follows from row ``S' = S - u`` (u the lowest bit of S): a path from v
    through S either avoids u, or reaches u through S' and leaves it through S',
    so q(S, v) = q(S', v) when u is not in q(S', v), and otherwise
    (q(S', v) | q(S', u)) - {u, v}.  One O(1) step per entry, where a search
    through S would cost O(n + m).
    """
    n = len(neighbours)
    table = [0] * (n << n)
    table[:n] = neighbours
    for prefix in range(1, 1 << n):
        low = prefix & -prefix
        base, below = prefix * n, (prefix ^ low) * n
        via_low = table[below + low.bit_length() - 1]
        for v in range(n):
            if not prefix >> v & 1:
                reach = table[below + v]
                if reach & low:
                    reach = (reach | via_low) & ~(low | 1 << v)
                table[base + v] = reach
    return table


def _order_from_choices(
    choice: Sequence[int], vertices: Sequence[Variable]
) -> tuple[Variable, ...]:
    """Walk the DP's per-prefix last vertex back from the full set."""
    order_reversed: list[Variable] = []
    mask = (1 << len(vertices)) - 1
    while mask:
        i = choice[mask]
        order_reversed.append(vertices[i])
        mask ^= 1 << i
    return tuple(reversed(order_reversed))


def _min_width_choices(n: int, table: Sequence[int]) -> tuple[list[int], int]:
    """The width DP over ``table``: per-prefix last vertex and the treewidth."""
    dp = [0] * (1 << n)
    choice = [-1] * (1 << n)
    for mask in range(1, 1 << n):
        best, best_vertex = n, -1  # every degree is < n
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            previous = mask ^ bit
            cost = table[previous * n + i].bit_count()
            if dp[previous] > cost:
                cost = dp[previous]
            if cost < best:
                best, best_vertex = cost, i
        dp[mask] = best
        choice[mask] = best_vertex
    return choice, dp[(1 << n) - 1]


def _min_cost_choices(
    vertices: Sequence[Variable], table: Sequence[int], width: int, pair_costs: PairCosts
) -> list[int]:
    """The cost DP over ``table``: per-prefix last vertex of the cheapest width-``width`` order."""
    n = len(vertices)
    bag_limit = width + 1
    bag_costs: dict[int, int] = {}
    infinity = float("inf")
    dp: list[float] = [infinity] * (1 << n)
    dp[0] = 0
    choice = [-1] * (1 << n)
    for mask in range(1, 1 << n):
        best, best_vertex = infinity, -1
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            previous = mask ^ bit
            if dp[previous] == infinity:
                continue
            i = bit.bit_length() - 1
            bag = table[previous * n + i] | bit
            if bag.bit_count() > bag_limit:
                continue
            bag_cost = bag_costs.get(bag)
            if bag_cost is None:
                members = frozenset(vertices[j] for j in range(n) if bag >> j & 1)
                bag_cost = bag_costs[bag] = _bag_cost(members, pair_costs)
            cost = dp[previous] + bag_cost
            if cost < best:
                best, best_vertex = cost, i
        dp[mask] = best
        choice[mask] = best_vertex
    if choice[-1] < 0:  # pragma: no cover - exact width is always feasible
        raise AssertionError(f"no elimination order of width {width} found")
    return choice


def _is_forest(neighbours: Sequence[int]) -> bool:
    """Whether the graph is acyclic: m = n - (number of components)."""
    edges = sum(bits.bit_count() for bits in neighbours) // 2
    components, unseen = 0, (1 << len(neighbours)) - 1
    while unseen:
        components += 1
        reached = frontier = unseen & -unseen
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            fresh = neighbours[bit.bit_length() - 1] & ~reached
            reached |= fresh
            frontier |= fresh
        unseen &= ~reached
    return edges == len(neighbours) - components


def exact_elimination_order(
    adjacency: Mapping[Variable, set[Variable]],
) -> tuple[tuple[Variable, ...], int]:
    """An elimination order achieving the exact treewidth, plus that width.

    ``dp[S]`` is the best achievable maximum elimination degree over orders
    that eliminate exactly the vertices of ``S`` first:

        dp[S] = min over v in S of  max(dp[S - v], |q(S - v, v)|)

    the first ``v`` (ascending) winning ties.  O(2^n * n) over the
    neighbourhood table; callers gate on :data:`EXACT_VERTEX_LIMIT`.
    """
    vertices, neighbours = _bit_graph(adjacency)
    if not vertices:
        return (), -1
    choice, width = _min_width_choices(len(vertices), _neighbourhood_table(neighbours))
    return _order_from_choices(choice, vertices), width


def cost_optimal_order(
    adjacency: Mapping[Variable, set[Variable]],
    width: int,
    pair_costs: PairCosts,
) -> tuple[Variable, ...]:
    """The cheapest elimination order among those achieving ``width``.

    A second subset DP over elimination prefixes, now constrained to steps of
    elimination degree at most ``width`` (so the certified treewidth is kept)
    and minimizing the *sum* of static bag costs instead of the maximum
    degree, each distinct bag priced once.  Always feasible when ``width``
    comes from :func:`exact_elimination_order` -- that order itself satisfies
    the constraint -- and the same O(2^n * n) as the width DP.
    """
    vertices, neighbours = _bit_graph(adjacency)
    if not vertices:
        return ()
    table = _neighbourhood_table(neighbours)
    return _order_from_choices(_min_cost_choices(vertices, table, width, pair_costs), vertices)


def _exact_order(
    adjacency: Mapping[Variable, set[Variable]], pair_costs: Optional[PairCosts]
) -> tuple[tuple[Variable, ...], int]:
    """The exact path's order and certified width; both DPs read one table.

    With pair costs on a forest the width DP is skipped: a forest's treewidth
    is 1, or 0 without edges, and the cost DP fixes the order anyway.
    """
    vertices, neighbours = _bit_graph(adjacency)
    table = _neighbourhood_table(neighbours)
    if pair_costs is None:
        choice, width = _min_width_choices(len(vertices), table)
        return _order_from_choices(choice, vertices), width
    if _is_forest(neighbours):
        width = 1 if any(neighbours) else 0
    else:
        width = _min_width_choices(len(vertices), table)[1]
    choice = _min_cost_choices(vertices, table, width, pair_costs)
    return _order_from_choices(choice, vertices), width


# ---------------------------------------------------------------------------
# The search entry point.
# ---------------------------------------------------------------------------


def decompose_hypergraph(
    hypergraph: Hypergraph,
    pair_costs: Optional[PairCosts] = None,
) -> TreeDecomposition:
    """Best tree decomposition we can find for the hypergraph's primal graph.

    ``pair_costs`` (cheapest axis weight per constrained variable pair, see
    :func:`atom_pair_costs`) turns the search cost-aware: among width-optimal
    decompositions it picks one minimizing the static bag-materialization
    estimate, so the choice no longer depends on variable names.  Without it
    the search minimizes width only (ties broken by name, the legacy order).
    """
    adjacency = hypergraph.adjacency()
    if not adjacency:
        return TreeDecomposition(
            bags=(), parent=(), width=-1, method="empty", exact=True
        )
    if len(adjacency) <= EXACT_VERTEX_LIMIT:
        order, width = _exact_order(adjacency, pair_costs)
        decomposition = decomposition_from_order(adjacency, order, "exact", exact=True)
        # The bag-derived width is authoritative; the DP value cross-checks it.
        if decomposition.width != width:  # pragma: no cover - internal invariant
            raise AssertionError(
                f"exact DP width {width} != bag width {decomposition.width}"
            )
        decomposition = prune_subset_bags(decomposition)
        decomposition.validate(hypergraph)
        return decomposition
    candidates = [
        decomposition_from_order(adjacency, min_fill_order(adjacency), "min-fill"),
        decomposition_from_order(adjacency, min_degree_order(adjacency), "min-degree"),
    ]
    if pair_costs is None:
        decomposition = min(candidates, key=lambda d: d.width)
    else:
        decomposition = min(
            candidates,
            key=lambda d: (d.width, decomposition_cost(d, pair_costs), d.method),
        )
    decomposition = prune_subset_bags(decomposition)
    decomposition.validate(hypergraph)
    return decomposition


def decompose(compiled: "CompiledQuery") -> TreeDecomposition:
    """The join tree of a compiled query: both engines run this one tree.

    Cost-aware: the compiled atoms supply per-pair axis weights, so among
    width-optimal trees the one with the cheapest estimated bag
    materialization wins -- invariant under the canonicalizer's renaming.
    The reduced tree is then rooted at the query head (:func:`root_at_head`).
    """
    decomposition = decompose_hypergraph(
        Hypergraph.of_compiled(compiled), pair_costs=atom_pair_costs(compiled)
    )
    return root_at_head(decomposition, compiled.query.head)

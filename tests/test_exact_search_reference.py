"""The bitmask join-tree search and the incremental estimator vs their references.

:mod:`repro.decomposition.decompose` runs both exact subset DPs over int
bitmasks and one shared elimination-neighbourhood table, prices each distinct
bag once, and skips the width DP on forests; :func:`repro.planning.bag_rows_estimate`
keeps each variable's cheapest connection incrementally behind a heap.  Both
must return exactly what the literal procedures in ``tests/oracle.py`` return
-- the same orders, the same join trees, the same floats -- on seeded random
graphs of up to 12 vertices, churn-style random queries, the grid queries up
to 3x4, and long chains.
"""

from __future__ import annotations

import importlib
import random

import pytest

import oracle
from repro.decomposition import Hypergraph, decompose_hypergraph
from repro.decomposition.decompose import (
    AXIS_WEIGHTS,
    EXACT_VERTEX_LIMIT,
    _bag_cost,
    atom_pair_costs,
    cost_optimal_order,
    exact_elimination_order,
    root_at_head,
)
from repro.evaluation.compile import compile_query
from repro.hardness import grid_query
from repro.planning import DocumentStats, bag_rows_estimate
from repro.queries import parse_query
from repro.service.cache import QueryCache
from repro.trees import Axis, random_tree

decompose_module = importlib.import_module("repro.decomposition.decompose")

LABELS = ("A", "B", "C", "D")
#: The axes of the churn workload's random queries.
CHURN_AXES = (
    "Child",
    "Child+",
    "Child*",
    "NextSibling",
    "NextSibling+",
    "NextSibling*",
    "Following",
    "DocumentOrder",
    "SuccPre",
)


def _shape(decomposition):
    return (
        decomposition.bags,
        decomposition.parent,
        decomposition.width,
        decomposition.method,
        decomposition.exact,
    )


def _random_hypergraph(rng: random.Random, n: int) -> Hypergraph:
    """``n`` shuffled vertices, random pairs (repeats kept) and a few loops."""
    vertices = [f"x{i}" for i in range(n)]
    rng.shuffle(vertices)
    density = rng.random() * 0.7
    edges = [
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :] if rng.random() < density
    ]
    edges += [rng.choice(edges) for _ in range(rng.randint(0, 2)) if edges]
    edges += [(v,) for v in vertices if rng.random() < 0.1]
    return Hypergraph.of_edges(vertices, edges)


def _random_pair_costs(rng: random.Random, hypergraph: Hypergraph) -> dict:
    weights = sorted(set(AXIS_WEIGHTS.values()))
    return {pair: rng.choice(weights) for pair in hypergraph.primal_edges()}


# -- random graphs -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_width_dp_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    for n in [rng.randint(0, 8) for _ in range(40)]:
        adjacency = _random_hypergraph(rng, n).adjacency()
        assert exact_elimination_order(adjacency) == oracle.exact_elimination_order(adjacency)


@pytest.mark.parametrize("seed", range(4))
def test_bag_costs_and_cost_dp_match_reference_on_random_graphs(seed):
    rng = random.Random(100 + seed)
    for n in [rng.randint(0, 8) for _ in range(40)]:
        hypergraph = _random_hypergraph(rng, n)
        adjacency = hypergraph.adjacency()
        pair_costs = _random_pair_costs(rng, hypergraph)
        for bag in {frozenset(rng.sample(hypergraph.vertices, k)) for k in range(n + 1)}:
            assert _bag_cost(bag, pair_costs) == oracle.bag_cost(bag, pair_costs)
        _order, width = oracle.exact_elimination_order(adjacency)
        # Any feasible width is a fair input, not only the certified one.
        for bound in {width, width + 1} if n else {width}:
            expected = oracle.cost_optimal_order(adjacency, bound, pair_costs)
            assert cost_optimal_order(adjacency, bound, pair_costs) == expected


@pytest.mark.parametrize(
    "seed, sizes",
    [(200 + seed, range(1, 9)) for seed in range(4)] + [(300, range(9, EXACT_VERTEX_LIMIT + 1))],
)
def test_exact_decompositions_match_reference_with_and_without_pair_costs(seed, sizes):
    rng = random.Random(seed)
    for n in [rng.choice(sizes) for _ in range(40 if len(sizes) > 4 else 4)]:
        hypergraph = _random_hypergraph(rng, n)
        pair_costs = _random_pair_costs(rng, hypergraph)
        for costs in (None, pair_costs):
            assert _shape(decompose_hypergraph(hypergraph, costs)) == _shape(
                oracle.decompose_exact(hypergraph, costs)
            )


def test_forests_with_pair_costs_skip_the_width_dp(monkeypatch):
    widths = []
    original = decompose_module._min_width_choices
    monkeypatch.setattr(
        decompose_module,
        "_min_width_choices",
        lambda *args: widths.append(args) or original(*args),
    )
    rng = random.Random(7)
    for n in range(1, EXACT_VERTEX_LIMIT + 1):
        vertices = [f"t{i}" for i in range(n)]
        rng.shuffle(vertices)
        # A random forest: each vertex but the first may hang under an earlier one.
        edges = [(rng.choice(vertices[:i]), vertices[i]) for i in range(1, n) if rng.random() < 0.8]
        hypergraph = Hypergraph.of_edges(vertices, edges)
        pair_costs = _random_pair_costs(rng, hypergraph)
        got = decompose_hypergraph(hypergraph, pair_costs)
        assert got.width == (1 if edges else 0)
        assert _shape(got) == _shape(oracle.decompose_exact(hypergraph, pair_costs))
    assert widths == []
    # A cycle still runs it, and so does every search without pair costs.
    decompose_hypergraph(Hypergraph.of_edges("abc", ["ab", "bc", "ca"]), {})
    decompose_hypergraph(Hypergraph.of_edges("ab", ["ab"]))
    assert len(widths) == 2


# -- queries: churn-style, grids, chains ----------------------------------------


def _churn_text(rng: random.Random) -> str:
    """A random query shaped like the churn workload's novel queries."""
    variables = [f"v{i}" for i in range(rng.randint(2, 6))]
    atoms = [f"{rng.choice(LABELS)}({v})" for v in variables]
    for i in range(1, len(variables)):
        pair = [variables[rng.randrange(i)], variables[i]]
        if rng.random() < 0.3:
            pair.reverse()
        atoms.append(f"{rng.choice(CHURN_AXES)}({pair[0]}, {pair[1]})")
    if len(variables) >= 3 and rng.random() < 0.3:
        source, target = rng.sample(variables, 2)
        atoms.append(f"{rng.choice(CHURN_AXES)}({source}, {target})")
    head = variables[0] if rng.random() < 0.5 else ""
    return f"Q({head}) <- {', '.join(atoms)}" if head else f"Q <- {', '.join(atoms)}"


def _stats() -> tuple[DocumentStats, ...]:
    tree = random_tree(300, alphabet=LABELS[:3], seed=42)  # "D" stays unseen
    return DocumentStats.of_tree(tree), DocumentStats.approximate_from_nodes(1000)


def _assert_matches_reference(compiled, stats_kinds, extra_bags=()) -> None:
    reference = root_at_head(
        oracle.decompose_exact(Hypergraph.of_compiled(compiled), atom_pair_costs(compiled)),
        compiled.query.head,
    )
    assert _shape(compiled.decomposition) == _shape(reference)
    compiled.decomposition.validate(Hypergraph.of_compiled(compiled))
    bags = (*reference.bags, frozenset(compiled.variables), *extra_bags)
    for stats in stats_kinds:
        for bag in bags:
            assert bag_rows_estimate(bag, compiled, stats) == oracle.bag_rows_estimate(
                bag, compiled, stats
            )


def test_churn_style_queries_match_reference():
    rng, cache, stats_kinds = random.Random(11), QueryCache(), _stats()
    for _ in range(300):
        entry, _hit = cache.resolve_text(_churn_text(rng))
        _assert_matches_reference(entry.compiled, stats_kinds)


@pytest.mark.parametrize("rows, columns", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_grid_queries_match_reference(rows, columns):
    stats_kinds = _stats()
    for vertical, horizontal, seed in [
        (Axis.CHILD_PLUS, Axis.FOLLOWING, 1),
        (Axis.CHILD, Axis.NEXT_SIBLING_PLUS, 2),
    ]:
        query = grid_query(vertical, horizontal, rows, columns, alphabet=LABELS, seed=seed)
        compiled = compile_query(query)
        rng = random.Random(seed)
        subsets = [
            frozenset(rng.sample(compiled.variables, k)) for k in range(2, len(compiled.variables))
        ]
        _assert_matches_reference(compiled, stats_kinds, subsets)


def test_estimator_matches_reference_on_long_and_dense_bags():
    rng, stats_kinds = random.Random(5), _stats()
    for _ in range(40):
        k = rng.randint(2, 24)
        variables = [f"w{i}" for i in range(k)]
        atoms = [f"{rng.choice(LABELS)}({v})" for v in variables if rng.random() < 0.5]
        atoms += [
            f"{rng.choice(CHURN_AXES)}({variables[rng.randrange(i)]}, {variables[i]})"
            for i in range(1, k)
            if rng.random() < 0.9
        ]
        for _ in range(rng.randint(0, 2 * k)):
            source, target = rng.sample(variables, 2)
            atoms.append(f"{rng.choice(CHURN_AXES)}({source}, {target})")
        if not atoms:
            continue
        compiled = compile_query(parse_query(f"Q <- {', '.join(atoms)}"))
        for stats in stats_kinds:
            for bag in (
                frozenset(compiled.variables),
                frozenset(rng.sample(compiled.variables, rng.randint(1, len(compiled.variables)))),
            ):
                assert bag_rows_estimate(bag, compiled, stats) == oracle.bag_rows_estimate(
                    bag, compiled, stats
                )

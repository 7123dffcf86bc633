"""The memoised join-tree search that answers the cyclic residue.

Outside the paper's tractable axis sets every cyclic query the fixpoints
cannot answer goes to the decomposition engine, whose Boolean and multi-bag
monadic heads run one depth-first search along the join tree, memoised per
(bag, separator assignment).  Covered here:

* a seeded differential suite against backtracking (and the Horn per-tuple
  oracle on the small trees): ``hard_workload`` queries over four NP-hard
  signatures x {Boolean, monadic} x {no pin, one pin}, plus 3x3 grid queries;
* the probes the search exists for: a 400-bag chain answered at the default
  recursion limit, and the monadic 3x3 grid under a ``limit`` through
  ``run_request``.
"""

from __future__ import annotations

import sys
import time

import pytest

import oracle
from repro.decomposition import yannakakis
from repro.evaluation import Engine, compile_query, evaluate, is_satisfied
from repro.hardness import grid_query, hard_workload
from repro.planning import DocumentStats, plan_query
from repro.queries import ConjunctiveQuery
from repro.queries.atoms import AxisAtom
from repro.service.cache import QueryCache
from repro.service.core import Request, run_request
from repro.service.store import DocumentStore
from repro.trees import Axis, TreeStructure, random_tree

#: NP-hard signatures (Table 1): the cyclic residue of each.
SIGNATURES = {
    "child_following": (Axis.CHILD, Axis.FOLLOWING),
    "childplus_following": (Axis.CHILD_PLUS, Axis.FOLLOWING),
    "child_nextsiblingplus": (Axis.CHILD, Axis.NEXT_SIBLING_PLUS),
    "childplus_childstar_nextsibling": (Axis.CHILD_PLUS, Axis.CHILD_STAR, Axis.NEXT_SIBLING),
}

#: Per signature: (tree size, workload seed).  Horn joins the oracle up to 40 nodes.
WORKLOADS = [(40, 0), (40, 1), (90, 2)]
HORN_LIMIT = 40


def _heads(query: ConjunctiveQuery) -> list[ConjunctiveQuery]:
    return [query.with_head(()), query.with_head((query.variables()[0],))]


@pytest.mark.parametrize("signature", sorted(SIGNATURES))
@pytest.mark.parametrize("size, seed", WORKLOADS)
def test_search_matches_backtracking_and_horn(signature, size, seed):
    workload = hard_workload(SIGNATURES[signature], tree_size=size, num_queries=6, seed=seed)
    structure = workload.structure
    searched = 0
    for body in workload.queries:
        for query in _heads(body):
            expected = evaluate(query, structure, engine=Engine.BACKTRACKING)
            if size <= HORN_LIMIT:
                assert oracle.answers(query, structure) == sorted(expected), query
            for propagator in (None, "semijoin"):
                got = evaluate(query, structure, engine=Engine.DECOMPOSITION, propagator=propagator)
                assert got == expected, (query, propagator)
            # One pin, on a variable the head does not bind.
            variable = query.variables()[-1]
            for node in range(0, size, 9):
                pinned = {variable: node}
                got = is_satisfied(query, structure, Engine.DECOMPOSITION, pinned, "semijoin")
                assert got == is_satisfied(query, structure, Engine.BACKTRACKING, pinned), node
            searched += query.is_boolean or len(compile_query(query).decomposition.bags) > 1
    assert searched  # the suite reaches the search, not only the level kernel


@pytest.mark.parametrize(
    "vertical, horizontal",
    [
        (Axis.CHILD_PLUS, Axis.FOLLOWING),
        (Axis.CHILD, Axis.FOLLOWING),
        (Axis.CHILD, Axis.NEXT_SIBLING_PLUS),
        (Axis.CHILD_PLUS, Axis.NEXT_SIBLING),
    ],
)
def test_monadic_grids_match_backtracking(vertical, horizontal):
    structure = TreeStructure(random_tree(150, alphabet=("A", "B", "C"), seed=3))
    for seed in (None, 0, 1):  # unlabeled, then two labelings
        alphabet = () if seed is None else ("A", "B", "C")
        grid = grid_query(vertical, horizontal, 3, 3, alphabet=alphabet, seed=seed)
        query = grid.with_head(("g0_0",))
        assert len(compile_query(query).decomposition.bags) > 1
        expected = evaluate(query, structure, engine=Engine.BACKTRACKING)
        got = evaluate(query, structure, engine=Engine.DECOMPOSITION, propagator="semijoin")
        assert got == expected, (vertical, horizontal, seed)


def test_monadic_answers_come_out_in_wire_order_with_a_shared_memo(monkeypatch):
    """One search per head candidate, ascending, all of them sharing one memo."""
    structure = TreeStructure(random_tree(150, alphabet=("A", "B", "C"), seed=3))
    query = grid_query(Axis.CHILD_PLUS, Axis.FOLLOWING, 3, 3).with_head(("g0_0",))
    searches = []
    answers = yannakakis._JoinTreeSearch.answers
    monkeypatch.setattr(
        yannakakis._JoinTreeSearch, "answers", lambda self: searches.append(self) or answers(self)
    )
    rows, count = yannakakis.answer_page(query, structure, propagator="semijoin", limit=5)
    (search,) = searches
    everything = sorted(evaluate(query, structure, Engine.BACKTRACKING))
    assert rows == everything[:5] and count == len(everything) > 5
    # Searched one candidate at a time from scratch, the subtrees below the
    # root are searched again for every candidate that reaches them.
    (root,) = search.decomposition.roots
    compiled, alone = compile_query(query), 0
    for node in search.candidates.sorted_domain("g0_0"):
        fresh = yannakakis._JoinTreeSearch(
            search.decomposition, compiled, search.candidates, structure.index, ("g0_0",)
        )
        fresh.holds(root, (node,))
        alone += len(fresh.memo)
    assert len(search.memo) < alone


def test_400_bag_chain_is_answered_at_the_default_recursion_limit():
    """The search keeps its own stack: join-tree depth costs no interpreter frames."""
    atoms = []
    for i in range(400):
        atoms += [
            AxisAtom(Axis.FOLLOWING, f"x{i}", f"x{i + 1}"),
            AxisAtom(Axis.CHILD_STAR, f"y{i}", f"x{i}"),
            AxisAtom(Axis.CHILD_STAR, f"y{i}", f"x{i + 1}"),
        ]
    query = ConjunctiveQuery((), tuple(atoms), "Chain")
    tree = random_tree(3000, ("A", "B"), seed=1)
    decomposition = compile_query(query).decomposition
    depth = [0] * len(decomposition.bags)
    for bag, parent in enumerate(decomposition.parent):
        if parent >= 0:
            depth[bag] = depth[parent] + 1
    assert len(decomposition.bags) == 400 and max(depth) > 300
    plan = plan_query(query, DocumentStats.of_tree(tree))
    assert plan.engine is Engine.DECOMPOSITION
    assert sys.getrecursionlimit() <= 1000
    structure = TreeStructure(tree)
    assert evaluate(query, structure) == frozenset({()})


def test_monadic_grid_probe_answers_within_two_seconds():
    """The monadic 3x3 grid under ``limit: 10``, through the serving core at 1k."""
    store = DocumentStore()
    labels = tuple(f"L{i:02d}" for i in range(16))
    store.register_tree("doc", random_tree(1000, alphabet=labels, seed=42))
    grid = grid_query(Axis.CHILD_PLUS, Axis.FOLLOWING, 3, 3).with_head(("g0_0",))
    started = time.perf_counter()
    result = run_request(store, QueryCache(), Request(doc="doc", query=grid, limit=10))
    seconds = time.perf_counter() - started
    assert result.ok and result.truncated and result.engine == "decomposition"
    assert len(result.answers) == 10 and result.count > 10
    assert result.answers == sorted(result.answers)
    assert seconds < 2.0

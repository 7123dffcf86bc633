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
  ``run_request``;
* a Boolean head's search before the sweeps: Hypothesis against Horn with
  the allowance forced to sweep first, at its default, running out mid-search
  and unbounded; the resident label-column views it reads, dropped with their
  document; the ``swept`` attribute of the ``search`` span.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.decomposition import yannakakis
from repro.evaluation import Engine, compile_query, evaluate, is_satisfied
from repro.hardness import grid_query, hard_workload, random_cyclic_query
from repro.observability import tracing
from repro.planning import DocumentStats, plan_query
from repro.queries import ConjunctiveQuery, parse_query
from repro.queries.atoms import AxisAtom
from repro.service.cache import QueryCache
from repro.service.core import Request, run_request
from repro.service.store import DocumentStore
from repro.trees import Axis, TreeStructure, random_tree
from repro.workloads import auction_document

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
            assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == expected, query
            # One pin, on a variable the head does not bind.
            variable = query.variables()[-1]
            for node in range(0, size, 9):
                pinned = {variable: node}
                got = is_satisfied(query, structure, Engine.DECOMPOSITION, pinned)
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
        got = evaluate(query, structure, engine=Engine.DECOMPOSITION)
        assert got == expected, (vertical, horizontal, seed)


def test_monadic_answers_come_out_in_wire_order_with_a_shared_memo(monkeypatch):
    """One search per head candidate, ascending, all of them sharing one memo."""
    structure = TreeStructure(random_tree(150, alphabet=("A", "B", "C"), seed=3))
    query = grid_query(Axis.CHILD_PLUS, Axis.FOLLOWING, 3, 3).with_head(("g0_0",))
    searches = []
    answers = yannakakis._JoinTreeSearch.answers
    monkeypatch.setattr(
        yannakakis._JoinTreeSearch,
        "answers",
        lambda self, column: searches.append(self) or answers(self, column),
    )
    rows, count = yannakakis.answer_page(query, structure, limit=5)
    (search,) = searches
    everything = sorted(evaluate(query, structure, Engine.BACKTRACKING))
    assert rows == everything[:5] and count == len(everything) > 5
    # Searched one candidate at a time from scratch, the subtrees below the
    # root are searched again for every candidate that reaches them.
    (root,) = search.decomposition.roots
    compiled, alone = compile_query(query), 0
    candidates = yannakakis._candidates(compiled, structure, None)
    for node in candidates.sorted_domain("g0_0"):
        fresh = yannakakis._JoinTreeSearch(
            compiled, ("g0_0",), candidates.views, candidates.domain_sizes(), structure.index
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


#: The allowance of the search before the sweeps: always sweep, the default,
#: one that runs out in the middle of a search, never sweep.
ALLOWANCES = (0, yannakakis.SEARCH_TOUCHES_PER_CANDIDATE, 1 / 8, float("inf"))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    signature=st.sampled_from(sorted(SIGNATURES)),
    size=st.integers(min_value=2, max_value=HORN_LIMIT),
    seed=st.integers(min_value=0, max_value=10_000),
    variables=st.integers(min_value=3, max_value=6),
    pin=st.one_of(st.none(), st.integers(min_value=0, max_value=HORN_LIMIT - 1)),
)
def test_boolean_search_first_matches_horn(signature, size, seed, variables, pin):
    """Every allowance, pinned or not, gives Horn's verdict on random trees."""
    tree = random_tree(size, alphabet=("A", "B", "C"), max_children=3, seed=seed)
    structure = TreeStructure(tree)
    query = random_cyclic_query(
        SIGNATURES[signature], num_variables=variables, num_extra_atoms=2, seed=seed
    )
    pinned = None if pin is None else {query.variables()[-1]: pin % size}
    expected = oracle.answers(query, structure, pinned) != []
    compiled = compile_query(query)
    for allowance in ALLOWANCES:
        with mock.patch.object(yannakakis, "SEARCH_TOUCHES_PER_CANDIDATE", allowance):
            got = yannakakis.boolean_query_holds(query, structure, pinned, compiled)
        assert got == expected, (allowance, query, pinned)


def _bidder_triangle():
    return parse_query(
        "Q <- open_auction(a), Child(a, b1), bidder(b1), Child(a, b2), bidder(b2), "
        "Following(b1, b2)"
    )


def test_search_span_records_whether_the_sweeps_ran():
    """The bidder triangle at 10k finds its witness before its allowance runs out."""
    auction = auction_document(seed=42, num_items=560, num_people=300, num_bids=850)
    structure = TreeStructure(auction)
    query = _bidder_triangle()
    for allowance, swept in ((yannakakis.SEARCH_TOUCHES_PER_CANDIDATE, False), (0, True)):
        with mock.patch.object(yannakakis, "SEARCH_TOUCHES_PER_CANDIDATE", allowance):
            with tracing.trace("request") as root:
                assert is_satisfied(query, structure, Engine.DECOMPOSITION)
        search = root.find("search")
        assert search.attributes["swept"] is swept and search.attributes["answers"] == 1
        assert (root.find("propagate") is not None) is swept


def test_resident_views_are_dropped_with_their_document():
    """Evicting drops the views; re-registering a different tree under the id rebuilds them."""
    store = DocumentStore()
    store.register_tree("doc", auction_document(seed=42, num_items=8, num_people=4, num_bids=12))
    query = _bidder_triangle()

    def served() -> bool:
        result = run_request(store, QueryCache(), Request(doc="doc", query=query))
        assert result.ok, result.error
        return result.answers == [()]

    with mock.patch.object(yannakakis, "SEARCH_TOUCHES_PER_CANDIDATE", float("inf")):
        assert served()
        structure = store.get("doc").structure
        view = structure.resident_view("bidder")
        assert structure.resident_view("bidder") is view
        assert list(view.array) == list(structure.tree.nodes_with_label("bidder"))
        gone = weakref.ref(structure)
        del structure, view
        assert store.evict("doc")
        gc.collect()
        assert gone() is None
        # Same id, a tree whose one auction has a single bidder: the triangle fails.
        store.register_sexpr("doc", "(site (open_auction (bidder) (seller)) (bidder))")
        assert not served()
        assert list(store.get("doc").structure.resident_view("bidder").array) == [2, 4]


def test_threads_share_the_resident_set_ups_and_views():
    """Searches on one compiled query and one structure from many threads agree."""
    workload = hard_workload(SIGNATURES["child_following"], tree_size=40, num_queries=4, seed=2)
    structure = workload.structure
    cases = [
        (query, pin)
        for query in workload.queries
        for pin in (None, {query.variables()[-1]: 3}, {query.variables()[-1]: 17})
    ]
    expected = [oracle.answers(query, structure, pin) != [] for query, pin in cases]
    mismatches: list = []

    def worker(offset: int) -> None:
        for i in range(len(cases)):
            query, pin = cases[(i + offset) % len(cases)]
            got = yannakakis.boolean_query_holds(query, structure, pin, compile_query(query))
            if got != expected[(i + offset) % len(cases)]:
                mismatches.append((query, pin))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(yannakakis, "SEARCH_TOUCHES_PER_CANDIDATE", 1 / 8):
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches

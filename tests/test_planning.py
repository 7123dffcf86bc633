"""The cost-model planning subsystem (``repro.planning``).

Covers the :class:`QueryPlan` contract end to end:

* document statistics: exact at registration, approximate for accel-only
  documents, stable stats buckets;
* the estimators: domains bounded by label histograms, bag rows >= 1,
  the propagator rule;
* ``plan_query``, the one routing rule: the dichotomy tiers, the cyclic
  residue on the decomposition engine, estimates (and the decomposition they
  read) only where SQL can run, overrides always win;
* the serving layer: resident plans cached per canonical query, SQL plans
  per stats bucket too and invalidated by re-registration through it,
  EXPLAIN reporting the lowering that actually runs, and every attribution
  surface naming the engine that actually ran a k-ary head;
* the property suite: answers byte-identical between the default plan and
  every forced engine across cyclic and acyclic shapes,
  unsafe heads included; plan choice invariant under alpha-renaming.
"""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.decomposition import Hypergraph, decompose_hypergraph
from repro.decomposition.decompose import atom_pair_costs, prune_subset_bags
from repro.evaluation import Engine, backtracking, evaluate, planner
from repro.evaluation.propagation import Propagator
from repro.planning import (
    DocumentStats,
    QueryPlan,
    bag_rows_estimate,
    choose_propagator,
    plan_query,
    variable_domain_estimate,
)
from repro.evaluation.compile import CompiledQuery, compile_query
from repro.hardness import theorem51_workload
from repro.observability.accounting import ACCOUNTING
from repro.observability.metrics import SLOW_LOG
from repro.queries import ConjunctiveQuery, parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.service import BatchExecutor, ShardedExecutor
from repro.service.cache import QueryCache
from repro.service.core import PLAN_CHOICES, Request, run_request
from repro.service.store import DocumentNotFound, DocumentStore
from repro.trees import Axis, Tree, TreeStructure, random_tree, to_xml
from repro.workloads import random_corpus

ALPHABET = ("A", "B", "C")

FOUR_CYCLE = (
    "Q(a) <- A(a), Child+(a, b), B(b), Following(b, c), C(c), "
    "Child+(d, c), A(d), Following(a, d)"
)
ACYCLIC_CHAIN = "Q(a) <- A(a), Child+(a, b), B(b), Following(b, c), C(c)"
TRIANGLE = "Q(a) <- A(a), Child+(a, b), B(b), Following(a, c), Following(b, c), C(c)"
#: A binary head over a tractable signature: the per-tuple reduction's home turf.
KARY_HEAD = "Q(x, y) <- NP(x), Child(x, y), NN(y)"


def _tree(size: int = 60, seed: int = 7) -> Tree:
    return random_tree(size, alphabet=ALPHABET, max_children=3, seed=seed)


# -- document statistics -------------------------------------------------------


def test_of_tree_counts_labels_exactly():
    tree = _tree(40, seed=3)
    stats = DocumentStats.of_tree(tree)
    assert stats.nodes == len(tree)
    assert not stats.approximate
    for label in tree.alphabet():
        assert stats.label_count(label) == len(tree.nodes_with_label(label))
    assert stats.label_count("unseen-label") == 0


def test_approximate_stats_are_flagged_and_conservative():
    stats = DocumentStats.approximate_from_nodes(50_000)
    assert stats.approximate
    assert stats.nodes == 50_000
    # Unknown labels must not pretend to be empty: the estimators fall back
    # to the full domain instead of pruning to zero.
    assert stats.label_count("A") is None
    assert stats.bucket().startswith("~")


def test_bucket_stable_and_content_sensitive():
    tree = _tree(60, seed=7)
    assert DocumentStats.of_tree(tree).bucket() == DocumentStats.of_tree(tree).bucket()
    other = random_tree(900, alphabet=ALPHABET, max_children=3, seed=8)
    assert DocumentStats.of_tree(tree).bucket() != DocumentStats.of_tree(other).bucket()


# -- estimators ----------------------------------------------------------------


def test_domain_estimate_uses_most_selective_label():
    tree = _tree(60, seed=7)
    stats = DocumentStats.of_tree(tree)
    query = parse_query("Q(x) <- A(x), Child(x, y)")
    compiled = compile_query(query)
    assert variable_domain_estimate("x", compiled, stats) == float(
        len(tree.nodes_with_label("A"))
    )
    assert variable_domain_estimate("y", compiled, stats) == float(len(tree))


def test_bag_rows_at_least_one_and_label_sensitive():
    tree = _tree(60, seed=7)
    stats = DocumentStats.of_tree(tree)
    compiled = compile_query(parse_query(FOUR_CYCLE))
    for bag in compiled.decomposition.bags:
        assert bag_rows_estimate(bag, compiled, stats) >= 1.0
    # An unlabeled clique over Following must estimate more rows than the
    # label-filtered cycle over the same variable count.
    loose = compile_query(
        parse_query("Q(a) <- Following(a, b), Following(b, c), Following(a, c)")
    )
    tight = compile_query(
        parse_query("Q(a) <- A(a), Child(a, b), B(b), Child(b, c), C(c), Child(a, c)")
    )
    bag = frozenset({"a", "b", "c"})
    assert bag_rows_estimate(bag, loose, stats) > bag_rows_estimate(bag, tight, stats)


def test_choose_propagator_rule():
    # A forest-shaped body gets the two semijoin sweeps, labeled or not, on
    # local and global axes alike.
    for text in ("Q() <- Child+(x, y)", ACYCLIC_CHAIN, "Q() <- Following(x, y)"):
        assert choose_propagator(compile_query(parse_query(text))) is Propagator.SEMIJOIN
    # A cyclic body over one of Theorem 4.1's axis groups walks, labeled or
    # not, whichever group.
    for text in (
        "Q() <- Child+(x, y), Child+(y, z), Child*(x, z)",
        "Q() <- A(x), Following(x, y), Following(y, z), Following(x, z)",
        "Q() <- Child(x, y), Child(x, z), NextSibling+(y, z), B(z)",
        "Q() <- Child+(x, y), Ancestor(z, y), Child*(x, z)",  # through an inverse axis
    ):
        assert choose_propagator(compile_query(parse_query(text))) is Propagator.WALK, text
    # A cyclic body with no X-property order keeps the sweeps: only the
    # engines that take candidate supersets can run it.
    for text in (
        FOUR_CYCLE,
        "Q() <- Child+(x, y), Child+(y, z), Following(x, z)",
        "Q() <- Following(x, y), Following(y, z), DocumentOrder(x, z)",
    ):
        assert choose_propagator(compile_query(parse_query(text))) is Propagator.SEMIJOIN, text


def test_decomposition_plans_sweep_and_forced_fixpoint_plans_keep_the_rules_pick():
    """The bags enforce every atom: supersets in front of them, on any body."""
    stats = DocumentStats.of_tree(_tree())
    unlabeled = "Q() <- Child+(x, y), Child+(y, z), Following(x, z)"
    for text in (FOUR_CYCLE, TRIANGLE, KARY_HEAD, unlabeled):
        query = parse_query(text)
        forced = plan_query(query, stats, engine=Engine.DECOMPOSITION)
        assert forced.propagator is Propagator.SEMIJOIN, text
        routed = plan_query(query, stats)
        assert routed.engine is Engine.DECOMPOSITION, text
        assert routed.propagator is Propagator.SEMIJOIN, text
        # A forced fixpoint plan records the rule's pick where one fixpoint
        # answers the query, and is refused where evaluation would refuse it.
        if planner.fixpoint_answers(query, compile_query(query)):
            forced = plan_query(query, stats, engine=Engine.FIXPOINT)
            assert forced.propagator is choose_propagator(compile_query(query)), text
        else:
            with pytest.raises(ValueError, match="use the decomposition engine"):
                plan_query(query, stats, engine=Engine.FIXPOINT)


def test_fixpoint_plans_price_nothing_and_force_no_decomposition():
    """Only the plans whose decision needs them read stats or a join tree."""
    stats = DocumentStats.of_tree(_tree(size=400))
    for text, engine in (
        (ACYCLIC_CHAIN, Engine.FIXPOINT),
        ("Q <- A(a), Child+(a, b), Child+(b, c), Child+(a, c)", Engine.FIXPOINT),
    ):
        query = parse_query(text)
        compiled = compile_query.__wrapped__(query)  # fresh: no shared cached property
        plan = plan_query(query, compiled=compiled)
        assert plan.engine is engine, text
        assert "decomposition" not in compiled.__dict__, text
        assert (plan.stats_bucket, plan.bag_rows, plan.estimated_cost) == (None, (), None)
        assert plan.describe()["estimates"] is None
        # Given stats or not, the plan is the same: it never reads them.
        assert plan_query(query, stats, compiled=compiled).describe() == plan.describe()
        assert "decomposition" not in compiled.__dict__, text
    with pytest.raises(ValueError, match="stats"):
        plan_query(parse_query(TRIANGLE), engine=Engine.SQL)


# -- plan_query ----------------------------------------------------------------


def _assert_residue(plan: QueryPlan) -> None:
    """The cyclic residue runs on the decomposition engine, priced by nothing."""
    assert plan.engine is Engine.DECOMPOSITION
    assert plan.estimated_cost is None


def test_resident_plans_price_no_flat_join():
    """The flat SQL join is priced only where SQL can run."""
    stats = DocumentStats.of_tree(_tree())
    for text in (FOUR_CYCLE, ACYCLIC_CHAIN, TRIANGLE, KARY_HEAD):
        query = parse_query(text)
        plan = plan_query(query, stats)
        assert (plan.lowering, plan.flat_cost) == ("tree", None)
        assert plan.describe()["estimates"] is None
        for sql in (
            plan_query(query, stats, engine=Engine.SQL),
            plan_query(query, stats, accel_only=True),
        ):
            assert sql.engine is Engine.SQL
            assert sql.flat_cost is not None
            assert sql.lowering == ("flat" if sql.flat_cost < sql.decomposition_cost else "tree")


def test_plan_keeps_the_dichotomy_tiers():
    # Three engines, one per tractable case, and the planner's choice.
    assert [engine.value for engine in Engine] == ["auto", "fixpoint", "decomposition", "sql"]
    stats = DocumentStats.of_tree(_tree())
    assert plan_query(parse_query(ACYCLIC_CHAIN), stats).engine is Engine.FIXPOINT
    for text in (TRIANGLE, FOUR_CYCLE):  # monadic heads over cyclic bodies
        _assert_residue(plan_query(parse_query(text), stats))


def test_forest_heads_take_the_join_tree_tier_statically():
    stats = DocumentStats.of_tree(_tree())
    for text in (
        "Q(a, b) <- A(a), Child+(a, b), B(b)",  # tractable signature
        "Q(a, c) <- A(a), Child+(a, b), B(b), Following(b, c), C(c)",  # NP-hard one
        "Q(a, c) <- A(a), C(c)",  # two components, no axis atom
    ):
        _assert_residue(plan_query(parse_query(text), stats))


def test_cyclic_heads_over_tractable_signatures_join_the_residue():
    stats = DocumentStats.of_tree(_tree())
    text = "Q(a, c) <- A(a), Child+(a, b), Child*(b, c), Child+(a, c), C(c)"
    for head in ("a", "a, c"):  # monadic over a cyclic shadow, and binary
        _assert_residue(plan_query(parse_query(text.replace("a, c", head, 1)), stats))
    # The Boolean head over the same body stays with the fixpoint (the walk).
    boolean = plan_query(parse_query(text.replace("Q(a, c)", "Q")), stats)
    assert (boolean.engine, boolean.propagator) == (Engine.FIXPOINT, Propagator.WALK)


def test_forced_fixpoint_engine_is_not_priced():
    """A forced fixpoint engine decides nothing by cost: it carries no estimate."""
    stats = DocumentStats.of_tree(_tree())
    monadic = parse_query("Q(a) <- A(a), Child+(a, b), B(b)")
    forced = plan_query(monadic, stats, engine=Engine.FIXPOINT)
    assert forced.engine is Engine.FIXPOINT
    assert forced.estimated_cost is None and forced.describe()["estimates"] is None
    # A binary head is no fixpoint's to answer: nothing is planned, priced or not.
    with pytest.raises(ValueError, match="use the decomposition engine"):
        plan_query(parse_query("Q(a, b) <- A(a), B(b)"), stats, engine=Engine.FIXPOINT)


def test_overrides_always_win():
    stats = DocumentStats.of_tree(_tree())
    query = parse_query(ACYCLIC_CHAIN)
    assert plan_query(query, stats).engine is Engine.FIXPOINT
    plan = plan_query(query, stats, engine=Engine.DECOMPOSITION)
    assert plan.engine is Engine.DECOMPOSITION
    # The propagator is no override: the plan records what that engine runs.
    runs = choose_propagator(compile_query(query), decomposition=True)
    assert plan.propagator is runs is Propagator.SEMIJOIN
    with pytest.raises(TypeError):
        plan_query(query, stats, propagator=Propagator.WALK)


@pytest.mark.parametrize(
    "text, engine, planned",
    [
        # The loop is a static filter: the edges are {Following}, a tractable signature.
        ("Q <- A(x), Child*(x, x), Following(x, y)", None, "fixpoint"),
        ("Q(x) <- A(x), Child(x, y), Parent(y, x), Following(y, z)", None, "fixpoint"),
        ("Q <- A(x), Child(x, x)", "fixpoint", "fixpoint"),
    ],
)
def test_forest_bodies_with_loops_or_inverse_duplicates_plan_on_compiled_edges(
    text, engine, planned
):
    """The dichotomy table judges forests and tractability as the sweep and walk do:
    on the compiled edges."""
    tree = _tree(size=80)
    structure = TreeStructure(tree)
    query = parse_query(text)
    assert compile_query(query).shadow_is_forest
    forced = None if engine is None else Engine(engine)
    plan = plan_query(query, DocumentStats.of_tree(tree), engine=forced)
    assert plan.engine is Engine(planned)
    expected = oracle.answers(query, structure)
    assert sorted(evaluate(query, structure, forced or Engine.AUTO)) == expected
    store = DocumentStore()
    store.register_tree("doc", tree)
    served = run_request(store, QueryCache(), Request(doc="doc", query=text, engine=engine))
    assert served.ok, served.error
    assert (served.engine, served.answers) == (planned, expected)


@pytest.mark.parametrize(
    "text",
    [
        "Q <- Parent(x, y), Parent(y, z), Parent(x, z)",
        "Q <- PreviousSibling(x, y), Parent(y, z), Parent(x, z)",
    ],
)
def test_inverse_axes_route_like_their_forward_mirrors(text):
    """Tractability is judged on the normalized edges: ``Parent`` is ``Child`` reversed."""
    tree = _tree(size=60)
    structure = TreeStructure(tree)
    query = parse_query(text)
    mirror = compile_query(query)
    forward = ConjunctiveQuery(
        query.head,
        tuple(AxisAtom(atom.axis, atom.source, atom.target) for atom in mirror.atoms),
        query.name,
    )
    stats = DocumentStats.of_tree(tree)
    assert plan_query(query, stats).engine is plan_query(forward, stats).engine
    assert planner.tier(query, mirror) is Engine.FIXPOINT
    expected = oracle.answers(query, structure)
    assert sorted(evaluate(query, structure, Engine.FIXPOINT)) == expected
    assert sorted(evaluate(query, structure)) == expected


def test_accel_only_pins_sql():
    small = plan_query(
        parse_query(FOUR_CYCLE), DocumentStats.of_tree(_tree()), accel_only=True
    )
    assert small.engine is Engine.SQL
    big = plan_query(
        parse_query(FOUR_CYCLE),
        DocumentStats.approximate_from_nodes(50_000),
        accel_only=True,
    )
    assert big.engine is Engine.SQL
    assert big.lowering == "tree"


def test_estimated_cost_is_the_sql_lowering_chosen():
    stats = DocumentStats.of_tree(_tree())
    _assert_residue(plan_query(parse_query(FOUR_CYCLE), stats))
    forced = plan_query(parse_query(FOUR_CYCLE), stats, engine=Engine.DECOMPOSITION)
    assert forced.estimated_cost is None  # no lowering to choose
    for sql in (
        plan_query(parse_query(FOUR_CYCLE), stats, accel_only=True),
        plan_query(parse_query(FOUR_CYCLE), stats, engine=Engine.SQL),
    ):
        assert sql.estimated_cost == (
            sql.flat_cost if sql.lowering == "flat" else sql.decomposition_cost
        )
        assert len(sql.bag_rows) == len(compile_query(parse_query(FOUR_CYCLE)).decomposition.bags)


def test_describe_is_json_friendly():
    stats = DocumentStats.of_tree(_tree())
    resident = plan_query(parse_query(FOUR_CYCLE), stats)
    assert isinstance(resident, QueryPlan)
    assert json.loads(json.dumps(resident.describe()))["estimates"] is None
    described = plan_query(parse_query(FOUR_CYCLE), stats, accel_only=True).describe()
    json.dumps(described)
    assert set(described["estimates"]) == {
        "bag_rows",
        "decomposition_cost",
        "flat_cost",
        "estimated_cost",
    }


# -- ROADMAP item 1, probe rows 1-2: a cold plan is bounded --------------------


def _cold_plan(query: ConjunctiveQuery) -> tuple[QueryPlan, CompiledQuery, float]:
    """Simplify, canonicalize, compile and plan on a resident 1k tree, and
    decompose when the plan's engine runs a join tree."""
    store, cache = DocumentStore(), QueryCache()
    store.register_tree("doc", random_tree(1000, alphabet=ALPHABET, seed=42))
    started = time.perf_counter()
    entry, cache_hit = cache.resolve_query(query)
    plan = cache.plan_for(entry, store.stats_for("doc"))
    if plan.engine is Engine.DECOMPOSITION:
        entry.compiled.decomposition  # noqa: B018 - forces the lazy property
    seconds = time.perf_counter() - started
    assert not cache_hit
    return plan, entry.compiled, seconds


def test_cold_200_variable_chain_plans_in_under_a_second():
    names = [f"x{i}" for i in range(200)]
    atoms = tuple(AxisAtom(Axis.CHILD_PLUS, a, b) for a, b in zip(names, names[1:]))
    plan, _compiled, seconds = _cold_plan(ConjunctiveQuery(("x0",), atoms, "Chain"))
    assert plan.engine is Engine.FIXPOINT and plan.flat_cost is None
    assert seconds < 1.0


def test_cold_200_variable_chain_plans_accel_only_in_under_two_seconds():
    """The flat SQL estimate over all 200 variables is priced incrementally."""
    from repro.backends.sqlite import SQLiteBackend

    names = [f"x{i}" for i in range(200)]
    atoms = tuple(AxisAtom(Axis.CHILD_PLUS, a, b) for a, b in zip(names, names[1:]))
    with SQLiteBackend() as backend:
        store, cache = DocumentStore(accel_backend=backend), QueryCache()
        store.register_tree_accel_only("doc", random_tree(1000, alphabet=ALPHABET, seed=42))
        assert store.accel_only("doc")
        started = time.perf_counter()
        entry, cache_hit = cache.resolve_query(ConjunctiveQuery(("x0",), atoms, "Chain"))
        plan = cache.plan_for(entry, store.stats_for("doc"), accel_only=True)
        seconds = time.perf_counter() - started
    assert not cache_hit
    assert plan.engine is Engine.SQL and plan.flat_cost is not None
    assert seconds < 2.0


def test_cold_theorem51_reduction_reaches_an_engine_in_under_five_seconds():
    reduction = theorem51_workload(8)
    plan, compiled, seconds = _cold_plan(reduction.query)
    assert len(set().union(*compiled.decomposition.bags)) == 624
    assert plan.engine is Engine.DECOMPOSITION
    assert plan.flat_cost is None
    assert seconds < 5.0


def test_library_evaluate_takes_the_plans_engine_on_route_bool_cycle4(monkeypatch):
    """``evaluate(engine=AUTO)`` runs ``plan_query``'s engine: the memoised search."""
    from repro.decomposition import yannakakis
    from repro.evaluation import planner

    tree = random_tree(1000, alphabet=tuple(f"L{i:02d}" for i in range(16)), seed=42)
    query = parse_query("Q <- Child+(a, b), Following(b, c), Child+(d, c), Following(a, d)")
    plan = plan_query(query, DocumentStats.of_tree(tree))
    assert plan.engine is Engine.DECOMPOSITION
    searched = []
    search = yannakakis._JoinTreeSearch.satisfiable
    monkeypatch.setattr(
        yannakakis._JoinTreeSearch,
        "satisfiable",
        lambda self: searched.append(self) or search(self),
    )
    monkeypatch.setattr(planner.backtracking, "boolean_query_holds", None)  # must not run
    assert planner.evaluate(query, TreeStructure(tree)) == frozenset({()})
    # The capped attempt over the label columns, then the search over the
    # swept ones, which carries its memo on.
    assert searched and searched[-1].memo and searched[0].memo is searched[-1].memo


def test_the_cyclic_residue_takes_the_sweeps_on_decomposition():
    """The sweeps are exact on forests only; decomposition is the engine that takes them."""
    tree = random_tree(1000, alphabet=tuple(f"L{i:02d}" for i in range(16)), seed=42)
    structure = TreeStructure(tree)
    stats = DocumentStats.of_tree(tree)
    body = "Child+(a, b), Following(b, c), Child+(d, c), Following(a, d)"  # width 2
    for text in (f"Q <- {body}", f"Q(a) <- {body}, L03(a)"):
        query = parse_query(text)
        routed = plan_query(query, stats)
        assert (routed.engine, routed.propagator) == (Engine.DECOMPOSITION, Propagator.SEMIJOIN)
        expected = backtracking.answers(query, structure)
        assert evaluate(query, structure) == expected, text


# -- decomposition pruning (union-of-ranges prerequisite) ----------------------


def test_prune_subset_bags_no_redundant_neighbours():
    compiled = compile_query(parse_query(FOUR_CYCLE))
    decomposition = compiled.decomposition
    pruned = prune_subset_bags(decomposition)
    assert pruned.width == decomposition.width
    for i, bag in enumerate(pruned.bags):
        parent = pruned.parent[i]
        assert parent < i  # parents before children
        if parent >= 0:
            # The invariant union-of-ranges pruning relies on: no bag is
            # contained in its tree neighbour (it would make every variable
            # of the smaller bag a separator).
            assert not bag <= pruned.bags[parent]
            assert not pruned.bags[parent] <= bag


# -- the serving layer ---------------------------------------------------------


def _service(seed: int = 11):
    from repro.backends.sqlite import SQLiteBackend

    backend = SQLiteBackend()
    store = DocumentStore(accel_backend=backend)
    cache = QueryCache()
    store.register_tree("doc", _tree(80, seed=seed))
    accel_tree = random_tree(400, alphabet=ALPHABET, max_children=3, seed=seed + 1)
    store.register_tree_accel_only("accel", accel_tree)
    return store, cache


def test_stats_for_resident_exact_and_accel_approximate():
    store, _cache = _service()
    resident = store.stats_for("doc")
    assert not resident.approximate
    assert resident.nodes == 80
    accel = store.stats_for("accel")
    assert accel.approximate
    assert accel.nodes == 400
    with pytest.raises(DocumentNotFound):
        store.stats_for("missing")


def test_sql_plans_cached_per_bucket_and_invalidated_by_reregistration():
    store, cache = _service()
    entry, _ = cache.resolve_text(FOUR_CYCLE)
    first = cache.plan_for(entry, store.stats_for("doc"), engine=Engine.SQL)
    again = cache.plan_for(entry, store.stats_for("doc"), engine=Engine.SQL)
    assert first is again  # memoized per (canonical query, stats bucket)
    resident = cache.plan_for(entry, None)
    assert cache.stats()["plan_entries"] == 2
    # Re-registration with different contents moves the document to another
    # stats bucket, so the stale estimates can never be served again.
    store.register_tree("doc", random_tree(2000, alphabet=ALPHABET, max_children=3, seed=99))
    replanned = cache.plan_for(entry, store.stats_for("doc"), engine=Engine.SQL)
    assert replanned is not first
    assert replanned.stats_bucket != first.stats_bucket
    # The resident plan read no stats: it stays.
    assert cache.plan_for(entry, store.stats_for("doc")) is resident


def test_plan_cache_keeps_one_plan_per_bucket_engine_and_residency():
    store, cache = _service()
    entry, _ = cache.resolve_text(ACYCLIC_CHAIN)
    stats = store.stats_for("doc")
    automatic = cache.plan_for(entry, stats)
    assert automatic.propagator is Propagator.SEMIJOIN
    forced = cache.plan_for(entry, stats, engine=Engine.DECOMPOSITION)
    accel = cache.plan_for(entry, stats, accel_only=True)
    assert len({id(automatic), id(forced), id(accel)}) == 3
    assert cache.plan_for(entry, stats) is automatic
    assert cache.plan_for(entry, stats, engine=Engine.DECOMPOSITION) is forced
    assert cache.plan_for(entry, stats, accel_only=True) is accel
    assert set(entry.plans) == {
        (None, None, False),
        (None, "decomposition", False),
        (stats.bucket(), None, True),
    }
    with pytest.raises(TypeError):
        cache.plan_for(entry, stats, propagator=Propagator.WALK)


def test_explain_reports_chosen_lowering_and_estimates():
    store, cache = _service()
    result = run_request(store, cache, Request(doc="accel", query=FOUR_CYCLE, explain=True))
    assert result.ok
    explain = result.explain
    assert explain["engine"] == "sql"
    assert explain["lowering"] in ("tree", "flat")
    assert "materialize" not in explain
    assert explain["stats_bucket"].startswith("~")
    assert explain["estimates"]["estimated_cost"] == (
        explain["estimates"]["flat_cost"]
        if explain["lowering"] == "flat"
        else explain["estimates"]["decomposition_cost"]
    )
    assert "decomposition_static_cost" in explain
    # The satellite bugfix: the SQL text matches the lowering that runs.
    if explain["lowering"] == "flat":
        assert "bag_0" not in explain["sql"]
    else:
        assert "bag_0" in explain["sql"]


#: A chain past the exact-search limit: the min-degree heuristic eliminates its
#: head end first, so the searched join tree hangs from the far side.
FAR_HEAD_CHAIN = "Q(x0) <- A(x0), " + ", ".join(f"Child+(x{i}, x{i + 1})" for i in range(12))


def test_explain_reports_the_tree_that_runs():
    """Explain's root bag holds the head: the tree both engines run."""
    store, cache = _service()
    entry, _ = cache.resolve_text(FAR_HEAD_CHAIN)
    (head,) = entry.query.head
    compiled = entry.compiled
    searched = decompose_hypergraph(
        Hypergraph.of_compiled(compiled), pair_costs=atom_pair_costs(compiled)
    )
    assert all(head not in searched.bags[root] for root in searched.roots)  # it re-roots
    for doc in ("doc", "accel"):
        result = run_request(store, cache, Request(doc=doc, query=FAR_HEAD_CHAIN, explain=True))
        assert result.ok, result.error
        explain = result.explain
        (root,) = [i for i, parent in enumerate(explain["bag_parents"]) if parent == -1]
        assert head in explain["bags"][root]


def _stable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("elapsed_ms", "cache_hit")}


def _plan_choices(engine: str) -> float:
    return sum(
        PLAN_CHOICES.value(engine=engine, lowering=lowering)
        for lowering in ("tree", "flat")
    )


def test_kary_head_is_attributed_to_the_engine_that_ran():
    """Response, explain, plan counter and slow log all say ``decomposition``,
    identically on both backends; no estimate prices it and the drift ledger,
    which holds SQL requests only, stays empty."""
    corpus_xml = to_xml(random_corpus(seed=5, num_sentences=12))
    requests = [
        Request(doc="corpus", query=KARY_HEAD),
        Request(doc="corpus", query=KARY_HEAD, explain=True),
    ]
    threaded, sharded = BatchExecutor(), ShardedExecutor(shards=2)
    threshold = SLOW_LOG.threshold_ms
    SLOW_LOG.threshold_ms = 0.0  # record everything for the duration
    ACCOUNTING.clear()
    try:
        threaded.register_payload({"doc": "corpus", "xml": corpus_xml})
        sharded.register_payload({"doc": "corpus", "xml": corpus_xml})
        before = {engine: _plan_choices(engine) for engine in ("decomposition", "fixpoint")}
        ours = threaded.execute_batch(requests)
        slow_entry = SLOW_LOG.entries()[-1]  # explain requests are not metered
        after = {engine: _plan_choices(engine) for engine in before}
        theirs = sharded.execute_batch(requests)
        ledgers = [executor.stats()["plan_accounting"] for executor in (threaded, sharded)]
    finally:
        SLOW_LOG.threshold_ms = threshold
        threaded.close()
        sharded.close()
    result, explained = ours
    assert result.ok and result.count > 0
    assert result.engine == "decomposition"
    assert explained.explain["engine"] == "decomposition"
    assert explained.explain["estimates"] is None
    for mine, other in zip(ours, theirs):
        assert json.dumps(_stable(mine.to_json_dict())) == json.dumps(
            _stable(other.to_json_dict())
        )
    assert after["decomposition"] - before["decomposition"] == len(requests)
    assert after["fixpoint"] == before["fixpoint"]
    assert slow_entry["engine"] == "decomposition"
    assert "estimated_cost" not in slow_entry and "drift" not in slow_entry
    for ledger in ledgers:
        assert (ledger["requests"], ledger["engines"], ledger["top_drift"]) == (0, {}, [])


def test_routing_is_an_unknown_wire_field():
    with pytest.raises(ValueError, match="unknown request field"):
        Request.from_json_dict({"doc": "doc", "query": FOUR_CYCLE, "routing": "cost"})


# -- property suite ------------------------------------------------------------

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

QUERY_AXES = (Axis.CHILD, Axis.CHILD_PLUS, Axis.NEXT_SIBLING, Axis.FOLLOWING)


@st.composite
def small_queries(draw) -> ConjunctiveQuery:
    num_variables = draw(st.integers(min_value=2, max_value=4))
    variables = [f"v{i}" for i in range(num_variables)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    num_atoms = draw(st.integers(min_value=1, max_value=num_variables + 2))
    atoms: list = []
    for _ in range(num_atoms):
        source, target = rng.sample(variables, 2)
        atoms.append(AxisAtom(rng.choice(QUERY_AXES), source, target))
    for variable in variables:
        if rng.random() < 0.6:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    arity = draw(st.integers(min_value=0, max_value=min(2, num_variables)))
    return ConjunctiveQuery(tuple(variables[:arity]), tuple(atoms), "Q")


@given(
    query=small_queries(),
    size=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
)
@SETTINGS
def test_default_plan_and_forced_variants_are_byte_identical(query, size, seed):
    """The acceptance invariant: no engine choice changes answers.

    Exercised through ``run_request`` (the full serving path: cache, plan,
    evaluate, sort) for the default plan against the engine overrides that
    accept every query shape -- unsafe heads (a head variable no atom
    mentions) included -- each running the propagator the rule picks for it,
    and against a forced ``fixpoint``, which answers alike or refuses.
    """
    store = DocumentStore()
    cache = QueryCache()
    store.register_tree("doc", random_tree(size, alphabet=ALPHABET, max_children=3, seed=seed))
    default = run_request(store, cache, Request(doc="doc", query=query))
    assert default.ok, default.error
    compiled = cache.resolve_query(query)[0].compiled
    for engine in (None, "decomposition", "sql", "fixpoint"):
        result = run_request(store, cache, Request(doc="doc", query=query, engine=engine))
        if engine == "fixpoint" and not planner.fixpoint_answers(query, compiled):
            assert not result.ok and "use the decomposition engine" in result.error
            continue
        assert result.ok, (engine, result.error)
        assert result.answers == default.answers, engine
        assert result.count == default.count
        runs = choose_propagator(compiled, decomposition=result.engine == "decomposition")
        assert result.propagator == runs.value, engine


@given(
    query=small_queries(),
    size=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
@SETTINGS
def test_plan_choice_invariant_under_alpha_renaming(query, size, seed):
    """Alpha-equivalent submissions share one cache entry and one plan."""
    renamed = ConjunctiveQuery(
        tuple(f"w{v[1:]}" for v in query.head),
        tuple(
            atom.__class__(atom.axis, f"w{atom.source[1:]}", f"w{atom.target[1:]}")
            if isinstance(atom, AxisAtom)
            else atom.__class__(atom.label, f"w{atom.variable[1:]}")
            for atom in query.body
        ),
        "R",
    )
    store = DocumentStore()
    cache = QueryCache()
    store.register_tree("doc", random_tree(size, alphabet=ALPHABET, max_children=3, seed=seed))
    stats = store.stats_for("doc")
    entry_a, _ = cache.resolve_query(query)
    entry_b, _ = cache.resolve_query(renamed)
    assert entry_a is entry_b
    plan_a = cache.plan_for(entry_a, stats)
    plan_b = cache.plan_for(entry_b, stats)
    assert plan_a is plan_b
    assert plan_a.engine is plan_b.engine
    assert plan_a.lowering == plan_b.lowering

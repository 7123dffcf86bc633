"""The join-tree SQL lowering and the out-of-core serving path.

The concern groups:

* **Window/threshold formulations**: the order-statistic axes (``Following``,
  ``NextSibling+``, ``DocumentOrder`` and their inverses) lower to aggregate
  thresholds / window CTEs instead of quadratic range predicates; each is
  property-tested against :class:`~repro.trees.index.AxisIndex` ground truth
  (``index.holds`` over the label-filtered candidate pairs) with the dropped
  variable on both sides of the atom.
* **IN-list boundary**: extra unary relations switch from an inline ``IN``
  list to a temp-table join at exactly 500 members; both sides of the
  boundary, the empty relation and the single-node document are checked
  byte-identical to the in-memory planner on both lowerings.
* **Streaming**: ``stream_answers`` equals the sorted answer set for every
  batch size, ``limit`` is applied after the deterministic ``ORDER BY``, and
  ``count_answers`` reports the exact total.
* **Routing**: the serving layer auto-routes accel-only documents to
  ``Engine.SQL``, explicit engine overrides win, and responses are
  byte-identical across the routing paths (including ``limit``/``truncated``
  and boolean semantics).
* **Access paths**: no labelled variable is reached through a document-wide
  scan -- measured in SQLite VM steps (``set_progress_handler``), never by
  ``EXPLAIN QUERY PLAN`` wording, which differs between SQLite versions.
* **Witness access paths**: a labelled ``Child`` witness costs one pass over
  its label, not the fan-out of every outer row (unless its parent is
  pinned), a headless ``Following`` pair stops at its first witness, and the
  benchmark entries' SQL text stays byte-identical.
* **Stale rows**: accel rows are reused by content digest, never by node
  count.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import (
    SQLiteBackend,
    evaluate_structure,
    explain_sql,
    structure_is_satisfied,
)
from repro.decomposition.yannakakis import boolean_query_holds, evaluate_answers
from repro.evaluation import Engine, evaluate
from repro.planning import plan_query
from repro.queries import parse_query, xpath_to_cq
from repro.service import DocumentStore, QueryCache, Request, run_request
from repro.trees import Axis, Tree, TreeStructure, parse_sexpr, random_tree
from repro.trees.node import Node
from repro.workloads import auction_document, random_corpus

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The order-statistic axes the tree lowering turns into aggregate-threshold
#: or window-function witnesses, forward and inverse forms both included (the
#: compiler normalises inverses away, so ``Preceding(x, y)`` exercises the
#: source-dropped branch of the ``Following`` formulation and vice versa).
WINDOW_AXES = (
    Axis.FOLLOWING,
    Axis.PRECEDING,
    Axis.NEXT_SIBLING_PLUS,
    Axis.NEXT_SIBLING_STAR,
    Axis.PRECEDING_SIBLING,
    Axis.DOCUMENT_ORDER,
)


@st.composite
def window_trees(draw, max_size: int = 250):
    size = draw(st.integers(min_value=20, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_tree(
        size,
        alphabet=("A", "B"),
        max_children=4,
        multi_label_probability=0.2,
        seed=seed,
    )


def _axis_ground_truth(structure, axis):
    """Expected ``A x B`` pairs straight off the AxisIndex rank predicates."""
    index = structure.index
    a_nodes = structure.unary_member_set("A")
    b_nodes = structure.unary_member_set("B")
    return frozenset(
        (u, v) for u in a_nodes for v in b_nodes if index.holds(axis, u, v)
    )


# ---------------------------------------------------------------------------
# Window/threshold formulations vs AxisIndex ground truth.
# ---------------------------------------------------------------------------


def _assert_axis_lowering_matches(tree, axis):
    structure = TreeStructure(tree)
    expected = _axis_ground_truth(structure, axis)
    pair_query = parse_query(f"Q(x, y) <- A(x), {axis.value}(x, y), B(y)")
    # Projecting either endpoint out makes it witness-only: the source-dropped
    # and target-dropped threshold/window branches are both exercised.
    source_query = parse_query(f"Q(x) <- A(x), {axis.value}(x, y), B(y)")
    target_query = parse_query(f"Q(y) <- A(x), {axis.value}(x, y), B(y)")
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        assert backend.evaluate("doc", pair_query) == expected
        assert backend.evaluate("doc", source_query) == frozenset(
            (u,) for u, _ in expected
        )
        assert backend.evaluate("doc", target_query) == frozenset(
            (v,) for _, v in expected
        )


@pytest.mark.parametrize("axis", WINDOW_AXES, ids=lambda a: a.value)
@given(tree=window_trees())
@SETTINGS
def test_window_lowering_matches_axis_index(axis, tree):
    _assert_axis_lowering_matches(tree, axis)


@pytest.mark.parametrize("axis", WINDOW_AXES, ids=lambda a: a.value)
def test_window_lowering_matches_axis_index_at_1k(axis):
    """One fixed 1000-node document per axis (the ISSUE's stated scale)."""
    tree = random_tree(
        1_000, alphabet=("A", "B"), max_children=4, multi_label_probability=0.2, seed=1234
    )
    _assert_axis_lowering_matches(tree, axis)


@given(tree=window_trees())
@SETTINGS
def test_window_chain_matches_in_memory(tree):
    """A Following chain: thresholds compose across eliminated variables."""
    structure = TreeStructure(tree)
    query = parse_query("Q(x, z) <- A(x), Following(x, y), B(y), Following(y, z), A(z)")
    expected = evaluate(query, structure)
    assert evaluate_structure(query, structure) == expected
    assert evaluate_structure(query, structure, lowering="flat") == expected


# ---------------------------------------------------------------------------
# IN-list boundary, empty relations, single-node documents.
# ---------------------------------------------------------------------------

IN_LIST_QUERY = "Q(x, y) <- Hot(x), Child+(x, y), A(y)"


@pytest.mark.parametrize("members", [500, 501], ids=["inline-in-list", "temp-table"])
def test_extra_unary_in_list_boundary(members):
    """Exactly at and just past the 500-member IN-list cutover."""
    tree = random_tree(600, alphabet=("A",), max_children=3, seed=7)
    structure = TreeStructure(tree)
    structure.add_unary("Hot", range(members))
    query = parse_query(IN_LIST_QUERY)
    expected = evaluate(query, structure)
    assert len(expected) > 0
    assert evaluate_structure(query, structure) == expected
    assert evaluate_structure(query, structure, lowering="flat") == expected


def test_extra_unary_empty_relation():
    tree = random_tree(60, alphabet=("A",), max_children=3, seed=9)
    structure = TreeStructure(tree)
    structure.add_unary("Hot", ())
    query = parse_query(IN_LIST_QUERY)
    assert evaluate(query, structure) == frozenset()
    assert evaluate_structure(query, structure) == frozenset()
    assert evaluate_structure(query, structure, lowering="flat") == frozenset()
    assert not structure_is_satisfied(parse_query("Q() <- Hot(x)"), structure)


def test_single_node_document():
    structure = TreeStructure(parse_sexpr("(A)"))
    cases = {
        "Q(x) <- A(x)": frozenset({(0,)}),
        "Q(x) <- A(x), Child+(x, y)": frozenset(),
        "Q(x) <- A(x), Following(x, y)": frozenset(),
        "Q(x, y) <- A(x), Self(x, y)": frozenset({(0, 0)}),
        "Q() <- A(x)": frozenset({()}),
        "Q() <- B(x)": frozenset(),
    }
    for text, expected in cases.items():
        query = parse_query(text)
        assert evaluate(query, structure) == expected, text
        assert evaluate_structure(query, structure) == expected, text
        assert evaluate_structure(query, structure, lowering="flat") == expected, text


# ---------------------------------------------------------------------------
# Streaming: sorted order, limit pushdown, exact counts.
# ---------------------------------------------------------------------------


def test_stream_answers_sorted_and_limited():
    tree = random_tree(400, alphabet=("A", "B"), max_children=4, seed=11)
    query = parse_query("Q(x, y) <- A(x), Child+(x, y), B(y)")
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        expected = sorted(backend.evaluate("doc", query))
        assert len(expected) > 3
        assert list(backend.stream_answers("doc", query)) == expected
        assert list(backend.stream_answers("doc", query, batch_size=1)) == expected
        for limit in (0, 1, 3, len(expected), len(expected) + 5):
            assert list(backend.stream_answers("doc", query, limit=limit)) == (
                expected[:limit]
            ), limit
        assert backend.count_answers("doc", query) == len(expected)


def test_stream_answers_boolean_query():
    with SQLiteBackend() as backend:
        backend.register_tree("doc", parse_sexpr("(A (B))"))
        satisfied = parse_query("Q() <- A(x), Child(x, y), B(y)")
        unsatisfied = parse_query("Q() <- B(x), Child(x, y), A(y)")
        assert list(backend.stream_answers("doc", satisfied)) == [()]
        assert list(backend.stream_answers("doc", satisfied, limit=0)) == []
        assert list(backend.stream_answers("doc", unsatisfied)) == []
        assert backend.count_answers("doc", satisfied) == 1
        assert backend.count_answers("doc", unsatisfied) == 0


# ---------------------------------------------------------------------------
# Serving-layer routing: residency, overrides, byte-identity.
# ---------------------------------------------------------------------------

ROUTING_QUERY = "Q(x, y) <- A(x), Child+(x, y), B(y)"


@pytest.fixture()
def routed():
    backend = SQLiteBackend()
    store = DocumentStore(accel_backend=backend)
    tree = random_tree(300, alphabet=("A", "B"), max_children=4, seed=5)
    store.register_tree("resident", tree)
    store.register_tree_accel_only("cold", tree)
    yield store, QueryCache()
    backend.close()


def test_residency_and_containment(routed):
    store, _cache = routed
    assert store.residency("resident") == "resident"
    assert store.residency("cold") == "accel"
    assert store.residency("absent") is None
    assert store.accel_only("cold") and not store.accel_only("resident")
    assert "cold" in store and "resident" in store and "absent" not in store
    described = {entry["doc"]: entry for entry in store.describe()}
    assert described["cold"]["accel_only"] and described["cold"]["nodes"] == 300
    assert store.stats()["accel_only_documents"] == 1


def test_plan_consults_residency(routed):
    store, _cache = routed
    query = parse_query(ROUTING_QUERY)
    stats = store.stats_for("resident")
    resident = plan_query(query, stats)
    assert resident.engine is not Engine.SQL
    assert (resident.lowering, resident.flat_cost) == ("tree", None)
    assert plan_query(query, stats, accel_only=True).engine is Engine.SQL


def test_accel_only_auto_routes_to_sql(routed):
    store, cache = routed
    resident = run_request(store, cache, Request(doc="resident", query=ROUTING_QUERY))
    cold = run_request(store, cache, Request(doc="cold", query=ROUTING_QUERY))
    assert resident.ok and cold.ok
    assert resident.engine != "sql"
    assert cold.engine == "sql"
    assert resident.to_json_dict()["answers"] == cold.to_json_dict()["answers"]
    assert resident.count == cold.count


def test_explicit_engine_override_wins(routed):
    store, cache = routed
    baseline = run_request(store, cache, Request(doc="resident", query=ROUTING_QUERY))
    forced = run_request(
        store, cache, Request(doc="resident", query=ROUTING_QUERY, engine="sql")
    )
    assert forced.ok and forced.engine == "sql"
    assert forced.answers == baseline.answers
    # A non-SQL engine cannot see an accel-only document: a client error, not
    # a silent wrong answer and not a batch abort.
    wrong = run_request(
        store, cache, Request(doc="cold", query=ROUTING_QUERY, engine="decomposition")
    )
    assert not wrong.ok and "accel-only" in wrong.error


def test_limit_semantics_identical_across_paths(routed):
    store, cache = routed
    full = run_request(store, cache, Request(doc="resident", query=ROUTING_QUERY))
    for limit in (0, 1, 2, full.count, full.count + 10):
        resident = run_request(
            store, cache, Request(doc="resident", query=ROUTING_QUERY, limit=limit)
        )
        cold = run_request(
            store, cache, Request(doc="cold", query=ROUTING_QUERY, limit=limit)
        )
        assert (resident.answers, resident.count, resident.truncated) == (
            cold.answers,
            cold.count,
            cold.truncated,
        ), limit


def test_boolean_semantics_identical_across_paths(routed):
    store, cache = routed
    text = "Q() <- A(x), Following(x, y), B(y)"
    for limit in (None, 0, 1):
        resident = run_request(
            store, cache, Request(doc="resident", query=text, limit=limit)
        )
        cold = run_request(store, cache, Request(doc="cold", query=text, limit=limit))
        assert resident.ok and cold.ok
        assert (resident.answers, resident.count, resident.truncated, resident.satisfied) == (
            cold.answers,
            cold.count,
            cold.truncated,
            cold.satisfied,
        ), limit


def test_unknown_engine_and_document_are_client_errors(routed):
    store, cache = routed
    bad_engine = run_request(
        store, cache, Request(doc="resident", query=ROUTING_QUERY, engine="warp")
    )
    assert not bad_engine.ok and "unknown engine" in bad_engine.error
    with pytest.raises(ValueError, match="unknown engine"):
        Request.from_json_dict({"doc": "resident", "query": ROUTING_QUERY, "engine": "warp"})
    missing = run_request(store, cache, Request(doc="absent", query=ROUTING_QUERY))
    assert not missing.ok and "unknown document" in missing.error


def test_lazy_residency_attach_from_shared_file(tmp_path):
    """A second store over the same accel file sees the document accel-only."""
    path = str(tmp_path / "accel.db")
    tree = random_tree(120, alphabet=("A", "B"), max_children=3, seed=3)
    with SQLiteBackend(path) as writer:
        DocumentStore(accel_backend=writer).register_tree_accel_only("shared", tree)
    with SQLiteBackend(path) as reader:
        store = DocumentStore(accel_backend=reader)
        cache = QueryCache()
        assert store.residency("shared") == "accel"
        result = run_request(store, cache, Request(doc="shared", query=ROUTING_QUERY))
        assert result.ok and result.engine == "sql"
        expected = sorted(evaluate(parse_query(ROUTING_QUERY), TreeStructure(tree)))
        assert result.answers == expected


@given(
    tree=window_trees(max_size=60),
    seed=st.integers(min_value=0, max_value=10_000),
    limit=st.sampled_from([None, 0, 1, 3]),
)
@SETTINGS
def test_run_request_identical_on_accel_only_documents(tree, seed, limit):
    """Boolean, ``limit 0`` and truncated requests: one statement, same bytes."""
    rng = random.Random(seed)
    head = rng.choice(["", "x", "y", "x, y", "z, x"])
    axes = [rng.choice(["Child", "Child+", "Following", "NextSibling+"]) for _ in range(2)]
    labels = ", ".join(f"{rng.choice('ABZ')}({v})" for v in "xyz" if rng.random() < 0.7)
    text = f"Q({head}) <- {axes[0]}(x, y), {axes[1]}(y, z)" + (f", {labels}" if labels else "")
    with SQLiteBackend() as backend:
        store = DocumentStore(accel_backend=backend)
        store.register_tree("resident", tree)
        store.register_tree_accel_only("cold", tree)
        cache = QueryCache()
        resident = run_request(store, cache, Request(doc="resident", query=text, limit=limit))
        cold = run_request(store, cache, Request(doc="cold", query=text, limit=limit))
    assert resident.ok and cold.ok and cold.engine == "sql", (resident.error, cold.error)
    assert (resident.answers, resident.count, resident.truncated, resident.satisfied) == (
        cold.answers,
        cold.count,
        cold.truncated,
        cold.satisfied,
    ), text


# ---------------------------------------------------------------------------
# Access paths: VM steps must not grow with nodes the query's labels never name.
# ---------------------------------------------------------------------------

#: The 13 request shapes of the end-to-end ``accel_10k`` workload
#: (``benchmarks/e2e/workloads.py``: the mixed batch plus the two k-ary extras).
BIDDER_TRIANGLE = (
    "open_auction(a), Child(a, b1), bidder(b1), Child(a, b2), bidder(b2), Following(b1, b2)"
)
ACCEL_SHAPES = (
    ("auction", "query", "Q(i) <- item(i), Child(i, p), payment(p)"),
    ("auction", "query", "R(it) <- payment(pay), item(it), Child(it, pay)"),
    ("auction", "xpath", "//description//listitem"),
    ("auction", "xpath", "//person[profile/interest]"),
    ("auction", "query", f"Q <- {BIDDER_TRIANGLE}"),
    (
        "auction",
        "query",
        "Q(i) <- item(i), Child(i, d), description(d), Child+(d, l), listitem(l)",
    ),
    ("corpus", "query", "Q(x) <- NP(x), Child(x, y), NN(y)"),
    ("corpus", "xpath", "//NP[NN]"),
    ("corpus", "query", "Q(v) <- VP(v), Child(v, w), VB(w)"),
    ("corpus", "query", "Q <- NP(x), Following(x, y), PP(y)"),
    ("corpus", "xpath", "//VP[VB]/NP"),
    (
        "auction",
        "query",
        "Q(i, l) <- item(i), Child(i, d), description(d), Child+(d, l), listitem(l)",
    ),
    ("auction", "query", "Q(d, l) <- description(d), Child+(d, l), listitem(l)"),
)


def _padded(tree: Tree, factor: int = 10) -> Tree:
    """``tree`` grown to ``factor`` times its size with ``pad``-labelled nodes.

    The padding hangs off the root as its last subtree, so every original
    node keeps its id and the answers of a query that never names ``pad``
    stay the same -- only a scan of the whole document gets longer.
    """
    extra = (factor - 1) * len(tree)
    pad = Node(("pad",))
    frontier = [pad]
    for count in range(extra - 1):
        frontier.append(frontier[count // 8].add_child(Node(("pad",))))
    tree.root.add_child(pad)
    return Tree(tree.root)


@pytest.fixture(scope="module")
def padded_backend():
    documents = {
        "auction": lambda: auction_document(num_items=55, num_people=30, num_bids=85, seed=42),
        "corpus": lambda: random_corpus(num_sentences=45, seed=42),
    }
    with SQLiteBackend() as backend:
        for doc, build in documents.items():
            backend.register_tree(doc, build())
            backend.register_tree(f"{doc}_padded", _padded(build()))
            assert backend.document_nodes(f"{doc}_padded") == 10 * backend.document_nodes(doc)
        yield backend


def _vm_steps(backend, doc, query, **knobs):
    """``(SQLite VM instructions, answers)`` of one evaluation."""
    steps = 0

    def tick() -> int:
        nonlocal steps
        steps += 1
        return 0

    backend._connection.set_progress_handler(tick, 1)
    try:
        answers = backend.evaluate(doc, query, **knobs)
    finally:
        backend._connection.set_progress_handler(None, 1)
    return steps, answers


@pytest.mark.parametrize("lowering", ["tree", "flat"])
@pytest.mark.parametrize("doc, kind, text", ACCEL_SHAPES, ids=[s[2] for s in ACCEL_SHAPES])
def test_no_labelled_variable_is_reached_by_a_document_scan(
    padded_backend, doc, kind, text, lowering
):
    query = xpath_to_cq(text) if kind == "xpath" else parse_query(text)
    steps, answers = _vm_steps(padded_backend, doc, query, lowering=lowering)
    padded_steps, padded_answers = _vm_steps(
        padded_backend, f"{doc}_padded", query, lowering=lowering
    )
    assert answers == padded_answers and answers
    assert padded_steps <= 2 * steps, (steps, padded_steps)


# ---------------------------------------------------------------------------
# Witness access paths: one pass over the witness label, never per-row fan-out.
# ---------------------------------------------------------------------------

CHILD_WITNESS = "Q(i) <- item(i), Child(i, p), payment(p)"


def _auction(extra_item_children: int = 0, extra_payments: int = 0) -> Tree:
    """The fixture's auction with unlabelled children added to every ``item``
    and ``payment`` nodes added in a last root subtree."""
    tree = auction_document(num_items=55, num_people=30, num_bids=85, seed=42)
    for node in list(tree.nodes):
        if "item" in node.labels:
            for _ in range(extra_item_children):
                node.add_child(Node(()))
    if extra_payments:
        pad = tree.root.add_child(Node(("pad",)))
        for _ in range(extra_payments):
            pad.add_child(Node(("payment",)))
    return Tree(tree.root)


def test_child_witness_steps_do_not_grow_with_fan_out():
    """A labelled ``Child`` witness is the parents of its label, not a walk of
    every child of every outer row."""
    query = parse_query(CHILD_WITNESS)
    with SQLiteBackend() as backend:
        backend.register_tree("plain", _auction())
        backend.register_tree("fanned", _auction(extra_item_children=20))
        steps, answers = _vm_steps(backend, "plain", query)
        fanned_steps, fanned_answers = _vm_steps(backend, "fanned", query)
    assert answers and len(fanned_answers) == len(answers)
    assert fanned_steps <= steps * 1.1, (steps, fanned_steps)


def test_pinned_child_witness_keeps_the_correlated_probe():
    """One outer row: walking its children beats a pass over the label."""
    query = parse_query(CHILD_WITNESS)
    plain, padded = _auction(), _auction(extra_payments=2_000)
    expected = evaluate(query, TreeStructure(plain))
    items = [node for node, labels in enumerate(plain.labels_of) if "item" in labels]
    pins = [min(expected)[0], next(node for node in items if (node,) not in expected)]
    with SQLiteBackend() as backend:
        backend.register_tree("plain", plain)
        backend.register_tree("padded", padded)
        for node in pins:
            pinned = {"i": node}
            steps, answers = _vm_steps(backend, "plain", query, pinned=pinned)
            padded_steps, padded_answers = _vm_steps(backend, "padded", query, pinned=pinned)
            assert answers == padded_answers == expected & {(node,)}, node
            assert padded_steps <= steps * 1.1, (node, steps, padded_steps)


def _sentence(noun_phrases: int) -> Tree:
    return parse_sexpr("(S " + "(NP (NN)) " * noun_phrases + "(PP))")


def test_boolean_following_witness_stops_at_the_first_witness():
    """Headless ``Following``: ``subtree_end < MAX(id)`` is an index seek and
    the scan of the source label stops at its first row below it."""
    query = parse_query("Q <- NP(x), Following(x, y), PP(y)")
    with SQLiteBackend() as backend:
        backend.register_tree("short", _sentence(50))
        backend.register_tree("long", _sentence(500))
        steps, answers = _vm_steps(backend, "short", query)
        long_steps, long_answers = _vm_steps(backend, "long", query)
    assert answers == long_answers == frozenset({()})
    assert long_steps <= steps * 1.1, (steps, long_steps)


def test_unsatisfiable_following_witness_twin_is_refuted():
    """No ``NP`` follows the ``PP``; a descendant ``NP`` does not count."""
    twin = parse_query("Q <- PP(x), Following(x, y), NP(y)")
    cases = (
        (_sentence(50), False),
        (parse_sexpr("(S (PP (NP)))"), False),
        (parse_sexpr("(S (PP (NP)) (NP))"), True),
    )
    for tree, satisfied in cases:
        expected = frozenset({()}) if satisfied else frozenset()
        assert evaluate(twin, TreeStructure(tree)) == expected
        with SQLiteBackend() as backend:
            backend.register_tree("doc", tree)
            assert backend.evaluate("doc", twin) == expected, satisfied
            assert backend.evaluate("doc", twin, lowering="flat") == expected, satisfied


def _bench_queries(monkeypatch) -> dict[str, str]:
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    bench_sqlite = importlib.import_module("bench_sqlite")
    bench_planner = importlib.import_module("bench_planner")
    return {
        **bench_sqlite.PAIN_QUERIES,
        **bench_sqlite.ABLATION_QUERIES,
        "route_sql_chain": bench_planner.GATING_ENTRIES["route_sql_chain"],
    }


#: ``sha256(explain_sql(...))[:16]`` per lowering of the benchmark entries:
#: the witness rules above rewrite none of them, so their headlines measure
#: the same statements as before.
BENCH_SQL_DIGESTS = {
    "pain_following_chain3": ("12c80e89344e0327", "c843e14400592b79"),
    "pain_mixed_chain4": ("8df8124f437db49c", "98d2c5eed8c21382"),
    "pain_triangle_w2": ("be775548d06cca60", "5c11b4ac5945fc74"),
    "pain_triangle_fan": ("297135eaf9492047", "60ab24931ed3a3c4"),
    "ablation_cycle4": ("60dc30e877ce822e", "992a76f6de846a42"),
    "ablation_pair_child": ("87f03e644ab5aff1", "7c8aca360ed84d35"),
    "route_sql_chain": ("8df8124f437db49c", "98d2c5eed8c21382"),
}


def test_witness_rules_leave_the_benchmark_sql_byte_identical(monkeypatch):
    queries = _bench_queries(monkeypatch)
    assert queries.keys() == BENCH_SQL_DIGESTS.keys()
    for name, text in queries.items():
        texts = (explain_sql(parse_query(text), lowering=lowering) for lowering in ("tree", "flat"))
        digests = tuple(hashlib.sha256(sql.encode()).hexdigest()[:16] for sql in texts)
        assert digests == BENCH_SQL_DIGESTS[name], name


# ---------------------------------------------------------------------------
# Stale rows: reuse by content digest, never by node count.
# ---------------------------------------------------------------------------


def test_stale_rows_same_size_reregistration_is_rewritten(tmp_path):
    path = str(tmp_path / "accel.db")
    query = parse_query("Q(x) <- B(x)")
    with SQLiteBackend(path) as backend:
        store = DocumentStore(accel_backend=backend)
        store.register_tree_accel_only("d", parse_sexpr("(A (B) (C))"))
        assert backend.evaluate("d", query) == frozenset({(1,)})
        store.register_tree_accel_only("d", parse_sexpr("(A (C) (C))"))
        assert backend.evaluate("d", query) == frozenset()
        assert backend.ensure_document("d", parse_sexpr("(A (C) (C))")) is False


def test_stale_rows_database_without_digests_rematerialises_once(tmp_path):
    path = str(tmp_path / "accel.db")
    tree = parse_sexpr("(A (B) (C))")
    with SQLiteBackend(path) as backend:
        backend.register_tree("d", tree)
        # A database written before digests were stored has none.
        backend._connection.execute("DELETE FROM digests")
        backend._connection.commit()
    with SQLiteBackend(path) as backend:
        assert backend.ensure_document("d", tree) is True
        assert backend.ensure_document("d", tree) is False
        assert backend.evaluate("d", parse_query("Q(x) <- B(x)")) == frozenset({(1,)})


# ---------------------------------------------------------------------------
# Decomposition engine: Boolean first-witness short-circuit regression.
# ---------------------------------------------------------------------------

CYCLIC_BOOLEAN_QUERIES = (
    "Q() <- A(x), Child+(x, y), Child+(x, z), Following(y, z), B(y), A(z)",
    "Q() <- A(x), Following(x, y), B(y), Following(y, z), A(z)",
    "Q() <- A(x), Child+(x, y), B(y), NextSibling+(y, z), A(z), Child+(x, z)",
)


@pytest.mark.parametrize("text", CYCLIC_BOOLEAN_QUERIES)
def test_boolean_short_circuit_matches_full_enumeration(text):
    query = parse_query(text)
    for seed in range(12):
        tree = random_tree(
            25, alphabet=("A", "B"), max_children=3, unlabeled_probability=0.3, seed=seed
        )
        structure = TreeStructure(tree)
        assert boolean_query_holds(query, structure) == bool(
            evaluate_answers(query, structure)
        ), seed

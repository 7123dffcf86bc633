"""Cross-backend byte-identity: in-memory vs SQLite accel vs the Horn oracle.

Every query must produce byte-identical answers through

* the in-memory planner (the default routes),
* the SQLite accel-table backend (``Engine.SQL``),
* the Horn per-tuple oracle (backtracking over the literal Horn program),

across boolean/monadic/k-ary heads (including repeated head variables),
labels, pinning, cyclic shapes, and extra unary relations.  The CI
``backend-equivalence`` job runs exactly this suite on every push.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.backends.sqlite import SQLiteBackend, evaluate_structure
from repro.decomposition.yannakakis import evaluate_answers
from repro.evaluation import Engine, backtracking, evaluate, is_satisfied
from repro.queries import parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.queries.query import ConjunctiveQuery, QueryBuilder
from repro.trees import Axis, Tree, TreeStructure, parse_sexpr, random_tree

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALPHABET = ("A", "B", "C")

AXES = (
    Axis.CHILD,
    Axis.CHILD_PLUS,
    Axis.CHILD_STAR,
    Axis.NEXT_SIBLING,
    Axis.NEXT_SIBLING_PLUS,
    Axis.NEXT_SIBLING_STAR,
    Axis.FOLLOWING,
)


@st.composite
def trees(draw, min_size: int = 1, max_size: int = 14) -> Tree:
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_tree(
        size,
        alphabet=ALPHABET,
        max_children=3,
        multi_label_probability=draw(st.sampled_from([0.0, 0.3])),
        unlabeled_probability=draw(st.sampled_from([0.0, 0.2])),
        seed=seed,
    )


@st.composite
def head_queries(draw, axes=AXES, max_variables: int = 4, max_arity: int = 2):
    num_variables = draw(st.integers(min_value=2, max_value=max_variables))
    variables = [f"v{i}" for i in range(num_variables)]
    num_atoms = draw(st.integers(min_value=1, max_value=num_variables + 2))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    atoms: list = []
    for _ in range(num_atoms):
        source, target = rng.sample(variables, 2)
        atoms.append(AxisAtom(rng.choice(list(axes)), source, target))
    for variable in variables:
        if rng.random() < 0.5:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    body_variables = sorted({v for atom in atoms for v in atom.variables()})
    arity = draw(st.integers(min_value=0, max_value=max_arity))
    head = tuple(rng.choice(body_variables) for _ in range(arity))
    return ConjunctiveQuery(head, tuple(atoms), "H")


def _answer_bytes(query, structure, engine, **kwargs) -> str:
    return repr(sorted(evaluate(query, structure, engine=engine, **kwargs)))


class TestCrossBackendIdentity:
    @SETTINGS
    @given(trees(), head_queries())
    def test_three_backends_agree(self, tree, query):
        structure = TreeStructure(tree)
        in_memory = repr(sorted(evaluate(query, structure)))
        sql = _answer_bytes(query, structure, Engine.SQL)
        horn = repr(oracle.answers(query, structure))
        assert in_memory == sql == horn

    @SETTINGS
    @given(trees(), head_queries(max_arity=0), st.integers(min_value=0, max_value=10_000))
    def test_boolean_with_pinning_agrees(self, tree, query, seed):
        structure = TreeStructure(tree)
        rng = random.Random(seed)
        variable = rng.choice(query.variables())
        pinned = {variable: rng.randrange(len(tree))}
        expected = backtracking.boolean_query_holds(query, structure, pinned=pinned)
        assert is_satisfied(query, structure, Engine.SQL, pinned) == expected

    @SETTINGS
    @given(trees(), head_queries((Axis.CHILD_PLUS, Axis.CHILD_STAR, Axis.FOLLOWING)))
    def test_cyclic_shapes_agree(self, tree, query):
        # The random atom soup over transitive axes is frequently cyclic; the
        # SQL join handles cycles natively and must match the decomposition
        # engine's answers exactly.
        structure = TreeStructure(tree)
        assert _answer_bytes(query, structure, Engine.SQL) == repr(
            sorted(evaluate_answers(query, structure))
        )

    @SETTINGS
    @given(trees(), st.integers(min_value=0, max_value=10_000))
    def test_extra_unary_relations_agree(self, tree, seed):
        rng = random.Random(seed)
        members = frozenset(rng.sample(range(len(tree)), rng.randint(0, len(tree))))
        structure = TreeStructure(tree)
        structure.add_unary("X", members)
        query = (
            QueryBuilder("Q")
            .label("X", "x")
            .descendant_or_self("x", "y")
            .select("x", "y")
            .build()
        )
        assert _answer_bytes(query, structure, Engine.SQL) == repr(
            sorted(backtracking.answers(query, structure))
        )


#: Every way the SQL backend can lower a query.
SQL_VARIANTS = (
    {"lowering": "tree"},
    {"lowering": "flat"},
)


@st.composite
def labelled_queries(draw, max_variables: int = 4):
    """Queries that stress the label-driven row sources.

    Per variable: no label (an unlabelled variable beside labelled ones), one
    label, several labels, a label absent from every document (``Z``), the
    extra-unary relation ``X``, or a label *and* ``X`` on the same variable.
    Axes cover the whole forward and inverse vocabulary, self-loops included.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    variables = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=max_variables)))]
    atoms: list = []
    for _ in range(rng.randint(0 if len(variables) == 1 else 1, len(variables) + 1)):
        if len(variables) == 1 or rng.random() < 0.1:
            source = target = rng.choice(variables)
        else:
            source, target = rng.sample(variables, 2)
        atoms.append(AxisAtom(rng.choice(list(Axis)), source, target))
    for variable in variables:
        for label in rng.choice(
            [(), ("A",), ("B",), ("A", "B"), ("A", "B", "C"), ("Z",), ("X",), ("A", "X")]
        ):
            atoms.append(LabelAtom(label, variable))
    if not atoms:
        atoms.append(LabelAtom("A", variables[0]))
    body_variables = sorted({v for atom in atoms for v in atom.variables()})
    head = tuple(rng.choice(body_variables) for _ in range(rng.randint(0, 3)))
    return ConjunctiveQuery(head, tuple(atoms), "H")


class TestLabelAccessPaths:
    """Label-driven row sources: every lowering against the in-memory oracle."""

    @staticmethod
    def _setting(tree, seed):
        rng = random.Random(seed)
        members = frozenset(rng.sample(range(len(tree)), rng.randint(0, len(tree))))
        structure = TreeStructure(tree)
        structure.add_unary("X", members)
        backend = SQLiteBackend()
        backend.register_tree("doc", tree)
        return structure, backend, {"X": members}

    @SETTINGS
    @given(trees(max_size=30), labelled_queries(), st.integers(min_value=0, max_value=10_000))
    def test_every_lowering_matches_in_memory(self, tree, query, seed):
        structure, backend, extras = self._setting(tree, seed)
        expected = backtracking.answers(query, structure)
        with backend:
            for variant in SQL_VARIANTS:
                assert backend.evaluate("doc", query, None, extras, **variant) == expected, variant
                assert list(backend.stream_answers("doc", query, None, extras, **variant)) == (
                    sorted(expected)
                ), variant
                assert backend.count_answers("doc", query, None, extras, **variant) == (
                    len(expected)
                ), variant

    @SETTINGS
    @given(trees(max_size=30), labelled_queries(), st.integers(min_value=0, max_value=10_000))
    def test_pinned_labelled_variable_agrees(self, tree, query, seed):
        structure, backend, extras = self._setting(tree, seed)
        rng = random.Random(seed)
        pinned = {rng.choice(query.variables()): rng.randrange(len(tree))}
        expected = backtracking.boolean_query_holds(query, structure, pinned=pinned)
        with backend:
            for variant in SQL_VARIANTS:
                assert backend.is_satisfied("doc", query, pinned, extras, **variant) == (
                    expected
                ), variant

    @SETTINGS
    @given(trees(max_size=30), labelled_queries(), st.integers(min_value=0, max_value=4))
    def test_page_is_the_sorted_prefix_plus_exact_total(self, tree, query, limit):
        backend = SQLiteBackend()
        backend.register_tree("doc", tree)
        no_extras = {"X": frozenset()}
        with backend:
            for variant in SQL_VARIANTS:
                answers = sorted(backend.evaluate("doc", query, None, no_extras, **variant))
                page = backend.page_answers("doc", query, None, no_extras, limit=limit, **variant)
                assert page == (answers[:limit], len(answers)), variant


class TestSQLiteBackendDirect:
    def tree(self) -> Tree:
        return parse_sexpr("(A (B (C) (A)) (B) (C (B (A))))")

    def test_boolean_and_kary_results(self):
        tree = self.tree()
        backend = SQLiteBackend()
        backend.register_tree("doc", tree)
        query = parse_query("Q(x, y) <- A(x), Child+(x, y), B(y)")
        expected = evaluate(query, TreeStructure(tree))
        assert backend.evaluate("doc", query) == expected
        assert backend.is_satisfied("doc", query)
        assert backend.evaluate("doc", query.as_boolean()) == frozenset({()})
        unsat = parse_query("Q <- C(x), Child(x, y), A(y), B(y)")
        assert backend.evaluate("doc", unsat) == frozenset()
        assert not backend.is_satisfied("doc", unsat)

    def test_empty_query_is_trivially_true(self):
        backend = SQLiteBackend()
        backend.register_tree("doc", self.tree())
        assert backend.evaluate("doc", ConjunctiveQuery((), ())) == frozenset({()})

    def test_unknown_label_yields_no_answers(self):
        backend = SQLiteBackend()
        backend.register_tree("doc", self.tree())
        assert backend.evaluate("doc", parse_query("Q(x) <- Z(x)")) == frozenset()

    def test_file_backed_round_trip(self, tmp_path):
        tree = self.tree()
        path = str(tmp_path / "accel.db")
        query = parse_query("Q(x) <- B(x), Following(x, y), A(y)")
        expected = evaluate(query, TreeStructure(tree))
        with SQLiteBackend(path) as backend:
            assert backend.ensure_document("doc", tree) is True
            assert backend.evaluate("doc", query) == expected
        # A fresh process re-opens the database and reuses the accel rows.
        with SQLiteBackend(path) as backend:
            assert backend.ensure_document("doc", tree) is False
            assert backend.has_document("doc")
            assert backend.document_ids() == ["doc"]
            assert backend.evaluate("doc", query) == expected

    def test_large_extra_unary_goes_through_temp_table(self):
        tree = random_tree(1200, alphabet=("A",), seed=3)
        structure = TreeStructure(tree)
        members = frozenset(range(0, len(tree), 2))
        structure.add_unary("X", members)
        query = QueryBuilder("Q").label("X", "x").select("x").build()
        answers = evaluate_structure(query, structure)
        assert answers == frozenset((node,) for node in members)

    def test_missing_document_raises_nothing_but_returns_empty(self):
        backend = SQLiteBackend()
        assert backend.evaluate("ghost", parse_query("Q(x) <- A(x)")) == frozenset()


class TestStoreMirror:
    def test_document_store_mirrors_into_accel_backend(self, tmp_path):
        from repro.service import DocumentStore

        path = str(tmp_path / "mirror.db")
        backend = SQLiteBackend(path)
        store = DocumentStore(accel_backend=backend)
        store.register_sexpr("doc", "(A (B) (C (B)))")
        assert backend.has_document("doc")
        query = parse_query("Q(x) <- B(x)")
        assert backend.evaluate("doc", query) == evaluate(
            query, store.get("doc").structure
        )
        # Eviction from the in-memory store keeps the accel rows.
        store.evict("doc")
        assert backend.has_document("doc")


@pytest.mark.parametrize("engine", [Engine.SQL])
def test_planner_sql_engine_never_auto_chosen(engine):
    from repro.planning import DocumentStats, plan_query

    query = parse_query("Q(x) <- A(x), Child(x, y), B(y)")
    stats = DocumentStats.of_tree(parse_sexpr("(A (B) (C (B)))"))
    assert plan_query(query, stats).engine is not engine
    assert plan_query(query, stats, accel_only=True).engine is engine

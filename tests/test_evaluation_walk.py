"""Tests for the pointer walk and the two propagators the plan picks between.

The key invariants, held to Proposition 3.1's Horn program
(``tests/oracle.py``): on a forest-shaped body the semijoin reducer computes
exactly the subset-maximal arc-consistent prevaluation; on a tractable
signature the pointer walk refutes exactly when Horn does, its first nodes
are Lemma 3.4's minimum valuation of the Horn fixpoint, and its columns
contain the fixpoint; every engine answers the same under its own pick.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.evaluation import (
    Engine,
    Propagator,
    answer_page,
    backtracking,
    compile_query,
    evaluate,
    is_satisfied,
    least_valuation,
    propagate,
    valuation_satisfies,
)
from repro.evaluation.propagation import candidate_supersets
from repro.queries import parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.queries.query import ConjunctiveQuery
from repro.trees import Tree, TreeStructure, random_tree
from repro.trees.axes import AX, Axis
from repro.trees.orders import rank

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALPHABET = ("A", "B", "C")

#: Every axis the compiler can emit, plus the inverse axes it normalises away.
ALL_AXES = tuple(AX) + (
    Axis.DOCUMENT_ORDER,
    Axis.SUCC_PRE,
    Axis.SELF,
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.ANCESTOR_OR_SELF,
    Axis.PREVIOUS_SIBLING,
    Axis.PRECEDING_SIBLING,
    Axis.PRECEDING,
)


def _assert_walk_matches_horn(query, structure, pinned=None):
    """The walk's verdict, least valuation and columns against the Horn fixpoint."""
    compiled = compile_query(query)
    horn = oracle.maximal_arc_consistent_horn(query, structure, pinned)
    walk = least_valuation(compiled, structure, pinned)
    assert (walk is None) == (horn is None)
    if horn is None:
        return
    least = {variable: column[0] for variable, column in walk.items()}
    assert least == oracle.minimum_valuation(structure, horn, compiled.order)
    assert valuation_satisfies(query, structure, least)
    for variable, nodes in horn.items():
        assert nodes <= set(walk[variable])


# ---------------------------------------------------------------------------
# The walk: deterministic cases.
# ---------------------------------------------------------------------------


class TestWalk:
    def test_simple_child_query(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        walk = least_valuation(compile_query(query), sentence_structure)
        assert walk == {"x": [1, 6], "y": [3, 7]}

    def test_unsatisfiable_returns_none(self, sentence_structure):
        for text in ("Q <- PP(x), Child(x, y), NN(y)", "Q <- Child+(x, x)"):
            query = parse_query(text)
            assert least_valuation(compile_query(query), sentence_structure) is None
            assert propagate(query, sentence_structure, propagator=Propagator.WALK) is None

    def test_self_loop_filter(self, sentence_structure):
        query = parse_query("Q <- Child*(x, x), NP(x)")
        assert least_valuation(compile_query(query), sentence_structure) == {"x": [1, 6]}

    def test_pinned(self, sentence_structure):
        compiled = compile_query(parse_query("Q <- NP(x), Child(x, y), NN(y)"))
        assert least_valuation(compiled, sentence_structure, {"x": 6}) == {"x": [6], "y": [7]}
        assert least_valuation(compiled, sentence_structure, {"x": 8}) is None

    def test_columns_are_sorted_by_the_order(self, medium_random_tree):
        """The walk's columns ascend in its order; ``propagate`` re-sorts them by node."""
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q <- A(x), Child(x, y), NextSibling+(y, z), Child(x, z), B(z)")
        compiled = compile_query(query)
        assert not compiled.shadow_is_forest
        walk = least_valuation(compiled, structure)
        assert walk is not None
        ranks = rank(medium_random_tree, compiled.order)
        for column in walk.values():
            assert [ranks[node] for node in column] == sorted(ranks[node] for node in column)
        result = propagate(query, structure, propagator=Propagator.WALK)
        for variable, column in walk.items():
            assert list(result.sorted_domain(variable)) == sorted(column)
        _assert_walk_matches_horn(query, structure)

    def test_intractable_signature_is_refused(self, sentence_structure):
        query = parse_query("Q <- Child(x, y), Following(x, y)")
        with pytest.raises(ValueError, match="tractable signature"):
            least_valuation(compile_query(query), sentence_structure)
        with pytest.raises(ValueError, match="tractable signature"):
            propagate(query, sentence_structure, propagator=Propagator.WALK)

    @pytest.mark.parametrize("axis", sorted(axis.value for axis in AX))
    def test_single_atom_every_ax_axis(self, medium_random_tree, axis):
        structure = TreeStructure(medium_random_tree)
        query = parse_query(f"Q <- A(x), {axis}(x, y), B(y)")
        _assert_walk_matches_horn(query, structure)

    @pytest.mark.parametrize("axis", [axis.value for axis in ALL_AXES])
    def test_single_atom_every_axis_semijoin_equals_horn(self, medium_random_tree, axis):
        structure = TreeStructure(medium_random_tree)
        query = parse_query(f"Q <- A(x), {axis}(x, y), B(y)")
        result = propagate(query, structure, propagator=Propagator.SEMIJOIN)
        expected = oracle.maximal_arc_consistent_horn(query, structure)
        assert oracle.domains_of(result, query) == expected

    @pytest.mark.parametrize("axis", [axis.value for axis in ALL_AXES])
    def test_triangle_every_axis(self, medium_random_tree, axis):
        """A transitive triangle over one axis is cyclic, and every axis alone is tractable."""
        structure = TreeStructure(medium_random_tree)
        query = parse_query(f"Q <- A(x), {axis}(x, y), {axis}(y, z), {axis}(x, z), B(z)")
        assert compile_query(query).order is not None
        _assert_walk_matches_horn(query, structure)
        expected = bool(oracle.answers(query, structure))
        # The plan's pick on this cyclic body is the walk.
        assert (propagate(query, structure) is not None) == expected
        for engine in (Engine.AUTO, Engine.FIXPOINT, Engine.DECOMPOSITION):
            assert is_satisfied(query, structure, engine=engine) == expected, engine
        assert backtracking.boolean_query_holds(query, structure) == expected


# ---------------------------------------------------------------------------
# Property test: every propagator is held to the Horn fixpoint.
# ---------------------------------------------------------------------------


@st.composite
def trees(draw, max_size: int = 16) -> Tree:
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_tree(
        size,
        alphabet=ALPHABET,
        max_children=draw(st.sampled_from([2, 4])),
        unlabeled_probability=draw(st.sampled_from([0.0, 0.3])),
        seed=seed,
    )


@st.composite
def queries(draw, axes=ALL_AXES, max_variables: int = 4) -> ConjunctiveQuery:
    num_variables = draw(st.integers(min_value=1, max_value=max_variables))
    variables = [f"v{i}" for i in range(num_variables)]
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    atoms: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=num_variables + 2))):
        atoms.append(
            AxisAtom(rng.choice(list(axes)), rng.choice(variables), rng.choice(variables))
        )
    for variable in variables:
        if rng.random() < 0.4:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    return ConjunctiveQuery((), tuple(atoms), "H")


class TestFixpointEquality:
    @SETTINGS
    @given(trees(), queries(), st.data())
    def test_all_engines_agree(self, tree: Tree, query: ConjunctiveQuery, data):
        """Semijoin is Horn on forests, the walk matches Horn, every superset contains it."""
        structure = TreeStructure(tree)
        pinned = None
        if data.draw(st.booleans(), label="pin a variable"):
            variables = query.variables()
            pinned = {
                data.draw(st.sampled_from(variables), label="pinned variable"): data.draw(
                    st.integers(min_value=0, max_value=len(tree) - 1), label="pinned node"
                )
            }
        compiled = compile_query(query)
        horn = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        supersets = candidate_supersets(compiled, structure, pinned)
        if horn is not None:
            assert supersets is not None
            for variable, nodes in horn.items():
                assert nodes <= set(supersets.sorted_domain(variable))
        if compiled.shadow_is_forest:
            semijoin = propagate(query, structure, pinned, Propagator.SEMIJOIN)
            assert oracle.domains_of(semijoin, compiled) == horn
        if compiled.order is not None:
            _assert_walk_matches_horn(query, structure, pinned)

    @SETTINGS
    @given(trees(max_size=12), queries(axes=(Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING)))
    def test_planner_answers_agree_across_engines(self, tree, query):
        structure = TreeStructure(tree)
        expected = bool(oracle.answers(query, structure))
        assert is_satisfied(query, structure) == expected
        assert is_satisfied(query, structure, engine=Engine.DECOMPOSITION) == expected
        assert backtracking.boolean_query_holds(query, structure) == expected
        compiled = compile_query(query)
        if compiled.order is not None or compiled.shadow_is_forest:
            assert is_satisfied(query, structure, engine=Engine.FIXPOINT) == expected
        else:
            with pytest.raises(ValueError, match="use the decomposition engine"):
                is_satisfied(query, structure, engine=Engine.FIXPOINT)


# ---------------------------------------------------------------------------
# The two propagators at propagate(), and deterministic enumeration.
# ---------------------------------------------------------------------------


class TestPropagatorDimension:
    def test_propagate_accepts_strings(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y)")
        for propagator in ("semijoin", "walk"):
            result = propagate(query, sentence_structure, propagator=propagator)
            assert result is not None
            assert result.sorted_domain("x") == [1, 6]
        with pytest.raises(ValueError, match="unknown propagator"):
            propagate(query, sentence_structure, propagator="ac5")

    @pytest.mark.parametrize("retired", ["ac4", "ac3", "horn", "hybrid"])
    def test_retired_propagators_are_unknown(self, sentence_structure, retired):
        query = parse_query("Q(x) <- NP(x), Child(x, y)")
        with pytest.raises(ValueError, match="unknown propagator .*semijoin, walk"):
            propagate(query, sentence_structure, propagator=retired)
        with pytest.raises(ValueError, match="unknown propagator"):
            evaluate(query, sentence_structure, propagator=retired)

    def test_evaluate_same_answers_across_engines(self, sentence_structure):
        query = parse_query("Q(x, y) <- NP(x), Child+(x, y)")
        reference = evaluate(query, sentence_structure)
        assert reference  # non-trivial
        assert sorted(reference) == oracle.answers(query, sentence_structure)
        assert reference == evaluate(query, sentence_structure, engine=Engine.DECOMPOSITION)
        assert reference == backtracking.answers(query, sentence_structure)
        with pytest.raises(ValueError, match="use the decomposition engine"):
            evaluate(query, sentence_structure, engine=Engine.FIXPOINT)


class TestMonadicAcyclicFastPath:
    """evaluate() reads monadic acyclic answers off the semijoin columns directly."""

    def test_normalized_duplicates_still_take_the_fast_path_correctly(self, medium_random_tree):
        """Parent(y, x) normalizes to Child(x, y): one constraint, forest."""
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q(x) <- A(x), Child(x, y), Parent(y, x), B(y)")
        assert compile_query(query).shadow_is_forest
        expected = frozenset(
            (node,)
            for node in medium_random_tree.node_ids()
            if is_satisfied(query, structure, pinned={"x": node})
        )
        assert evaluate(query, structure) == expected

    def test_genuine_parallel_constraints_are_not_a_forest(self, medium_random_tree):
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q(x) <- Child(x, y), Following(x, y)")
        assert not compile_query(query).shadow_is_forest
        expected = frozenset(
            (node,)
            for node in medium_random_tree.node_ids()
            if is_satisfied(query, structure, pinned={"x": node})
        )
        assert evaluate(query, structure) == expected

    @SETTINGS
    @given(
        trees(max_size=14),
        queries(
            axes=(Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING, Axis.PARENT),
            max_variables=3,
        ),
    )
    def test_matches_per_candidate_boolean_reduction(self, tree, query):
        structure = TreeStructure(tree)
        body_variables = sorted({v for atom in query.body for v in atom.variables()})
        if not body_variables:
            return
        monadic = query.with_head((body_variables[0],))
        expected = frozenset(
            (node,)
            for node in tree.node_ids()
            if is_satisfied(monadic, structure, pinned={body_variables[0]: node})
        )
        assert evaluate(monadic, structure) == expected
        if compile_query(monadic).shadow_is_forest:
            assert evaluate(monadic, structure, engine=Engine.FIXPOINT) == expected
        else:
            # Cyclic: one fixpoint is no projection there, on any signature.
            with pytest.raises(ValueError, match="use the decomposition engine"):
                evaluate(monadic, structure, engine=Engine.FIXPOINT)
        # The per-tuple reduction takes candidate supersets on any body.
        assert backtracking.answers(monadic, structure) == expected


class TestDeterministicEnumeration:
    def test_enumeration_order_independent_of_engine(self, medium_random_tree):
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q(x, y, z) <- A(x), Child(x, y), NextSibling+(y, z)")
        sequences = {
            engine: answer_page(query, structure, engine)[0]
            for engine in (Engine.AUTO, Engine.DECOMPOSITION, Engine.SQL)
        }
        assert sequences[Engine.AUTO] == sequences[Engine.DECOMPOSITION]
        assert sequences[Engine.AUTO] == sequences[Engine.SQL]
        assert sequences[Engine.AUTO] == sorted(backtracking.answers(query, structure))
        assert list(sequences[Engine.AUTO]) == oracle.answers(query, structure)
        assert sequences[Engine.AUTO]  # non-empty on this tree

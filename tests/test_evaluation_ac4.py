"""Tests for the AC-4 support-counting engine and the propagator dimension.

The key invariant: all propagation engines (AC-4 support counting, the AC-3
worklist with either revise step, and the Horn-SAT transcription) compute the
same unique subset-maximal arc-consistent prevaluation.  The hypothesis
property test below asserts fixpoint equality on random trees x random
signatures, including pinned-variable instances.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    Engine,
    Propagator,
    compile_query,
    evaluate,
    is_satisfied,
    maximal_arc_consistent,
    maximal_arc_consistent_ac4,
    maximal_arc_consistent_horn,
    maximal_arc_consistent_hybrid,
    propagate,
)
from repro.evaluation.ac4 import ac4_fixpoint
from repro.evaluation.acyclic import iter_satisfactions
from repro.queries import parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.queries.query import ConjunctiveQuery
from repro.trees import Tree, TreeStructure, random_tree
from repro.trees.axes import AX, Axis
from repro.trees.index import MutableDomainView

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


def _as_sets(domains):
    return None if domains is None else {v: set(nodes) for v, nodes in domains.items()}


# ---------------------------------------------------------------------------
# MutableDomainView.
# ---------------------------------------------------------------------------


class TestMutableDomainView:
    def _view(self, tree: Tree, nodes) -> MutableDomainView:
        return tree.index.mutable_view(nodes)

    def test_discard_and_liveness(self, sentence_tree):
        view = self._view(sentence_tree, range(9))
        assert len(view) == 9
        assert view.discard(4)
        assert not view.discard(4)  # already gone
        assert 4 not in view
        assert len(view) == 8
        assert list(view.array) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_compaction_keeps_dead_fraction_bounded(self, sentence_tree):
        view = self._view(sentence_tree, range(9))
        for node in range(0, 9, 2):
            view.discard(node)
        # At most half of the backing array may be dead.
        assert len(view.unpruned_array) <= 2 * len(view)
        assert list(view.array) == [1, 3, 5, 7]

    def test_iter_live_range_skips_dead(self, sentence_tree):
        view = self._view(sentence_tree, range(9))
        view.discard(3)
        assert list(view.iter_live_range(2, 6)) == [2, 4, 5]

    def test_aggregates_invalidate_on_discard(self, sentence_tree):
        view = self._view(sentence_tree, range(9))
        before = view.min_end
        # Node 8 (the PP leaf) has the largest subtree_end contribution via
        # prefix_max_end; dropping low-end members must refresh min_end.
        assert view.prefix_max_end[-1] == 8
        view.discard(2)  # a leaf: subtree_end == 2, the current minimum
        assert view.min_end != before or view.min_end == min(
            sentence_tree.subtree_end[node] for node in view.members
        )
        assert view.min_end == min(
            sentence_tree.subtree_end[node] for node in view.members
        )

    def test_implements_domain_view_protocol(self, sentence_tree):
        """The index witness primitives accept maintained views directly."""
        index = sentence_tree.index
        view = self._view(sentence_tree, range(9))
        view.discard(3)
        view.discard(7)
        frozen = index.view(view.members)
        for axis in (Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING, Axis.NEXT_SIBLING_PLUS):
            for node in sentence_tree.node_ids():
                assert index.has_successor_in(axis, node, view) == index.has_successor_in(
                    axis, node, frozen
                )
                assert index.has_predecessor_in(
                    axis, node, view
                ) == index.has_predecessor_in(axis, node, frozen)


# ---------------------------------------------------------------------------
# AC-4 engine: deterministic cases.
# ---------------------------------------------------------------------------


class TestAc4Engine:
    def test_simple_child_query(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        domains = maximal_arc_consistent_ac4(query, sentence_structure)
        assert _as_sets(domains) == {"x": {1, 6}, "y": {3, 7}}

    def test_unsatisfiable_returns_none(self, sentence_structure):
        assert maximal_arc_consistent_ac4(
            parse_query("Q <- PP(x), Child(x, y), NN(y)"), sentence_structure
        ) is None
        assert maximal_arc_consistent_ac4(
            parse_query("Q <- Child+(x, x)"), sentence_structure
        ) is None

    def test_self_loop_filter(self, sentence_structure):
        query = parse_query("Q <- Child*(x, x), NP(x)")
        domains = maximal_arc_consistent_ac4(query, sentence_structure)
        assert _as_sets(domains) == {"x": {1, 6}}

    def test_pinned(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        domains = maximal_arc_consistent_ac4(query, sentence_structure, pinned={"x": 6})
        assert _as_sets(domains) == {"x": {6}, "y": {7}}
        assert (
            maximal_arc_consistent_ac4(query, sentence_structure, pinned={"x": 8}) is None
        )

    def test_pinned_rejected_with_seeded_domains(self, sentence_structure):
        """A seed is expected to embody the pin; the combination is an error."""
        query = parse_query("Q <- NP(x), Child(x, y)")
        with pytest.raises(ValueError, match="pinned cannot be combined"):
            ac4_fixpoint(
                query,
                sentence_structure,
                pinned={"x": 1},
                initial_domains={"x": {1, 6}, "y": {2, 3, 7}},
            )

    def test_fixpoint_views_stay_consistent(self, medium_random_tree):
        """The maintained views equal a fresh view of the final domains."""
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q <- A(x), Child+(x, y), Following(y, z), B(z)")
        views = ac4_fixpoint(query, structure)
        assert views is not None
        for variable, view in views.items():
            assert sorted(view.members) == list(view.array)
            fresh = structure.index.view(view.members)
            assert list(view.array) == list(fresh.array)
            assert view.min_end == fresh.min_end
            assert view.prefix_max_end == fresh.prefix_max_end

    @pytest.mark.parametrize("axis", sorted(axis.value for axis in AX))
    def test_single_atom_every_ax_axis(self, medium_random_tree, axis):
        structure = TreeStructure(medium_random_tree)
        query = parse_query(f"Q <- A(x), {axis}(x, y), B(y)")
        assert _as_sets(maximal_arc_consistent_ac4(query, structure)) == _as_sets(
            maximal_arc_consistent(query, structure)
        )


# ---------------------------------------------------------------------------
# Property test: all engines reach the same fixpoint.
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
        structure = TreeStructure(tree)
        pinned = None
        if data.draw(st.booleans(), label="pin a variable"):
            variables = query.variables()
            pinned = {
                data.draw(st.sampled_from(variables), label="pinned variable"): data.draw(
                    st.integers(min_value=0, max_value=len(tree) - 1), label="pinned node"
                )
            }
        ac4 = _as_sets(maximal_arc_consistent_ac4(query, structure, pinned))
        ac3_interval = _as_sets(maximal_arc_consistent(query, structure, pinned))
        ac3_enumeration = _as_sets(
            maximal_arc_consistent(query, structure, pinned, use_index=False)
        )
        horn = _as_sets(maximal_arc_consistent_horn(query, structure, pinned))
        hybrid = _as_sets(maximal_arc_consistent_hybrid(query, structure, pinned))
        assert ac4 == ac3_interval == ac3_enumeration == horn == hybrid

    @SETTINGS
    @given(trees(max_size=12), queries(axes=(Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING)))
    def test_planner_answers_agree_across_propagators(self, tree, query):
        structure = TreeStructure(tree)
        expected = is_satisfied(query, structure, propagator=Propagator.AC4)
        assert expected == is_satisfied(query, structure, propagator=Propagator.AC3)
        assert expected == is_satisfied(query, structure, propagator=Propagator.HORN)
        assert expected == is_satisfied(query, structure, propagator=Propagator.HYBRID)


# ---------------------------------------------------------------------------
# The propagator dimension and deterministic enumeration.
# ---------------------------------------------------------------------------


class TestPropagatorDimension:
    def test_propagate_accepts_strings(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y)")
        for propagator in ("ac4", "ac3", "horn", "hybrid"):
            result = propagate(query, sentence_structure, propagator=propagator)
            assert result is not None
            assert result.domains["x"] == {1, 6}
        with pytest.raises(ValueError):
            propagate(query, sentence_structure, propagator="ac5")

    def test_hybrid_result_reuses_maintained_views(self, sentence_structure):
        """The hybrid path ends in AC-4, so it hands over maintained views too."""
        query = parse_query("Q <- NP(x), Child(x, y)")
        result = propagate(query, sentence_structure, propagator=Propagator.HYBRID)
        assert isinstance(result.views["x"], MutableDomainView)
        assert result.sorted_domain("x") == [1, 6]

    def test_ac4_result_reuses_maintained_views(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y)")
        result = propagate(query, sentence_structure, propagator=Propagator.AC4)
        assert isinstance(result.views["x"], MutableDomainView)
        assert result.views["x"].members is result.domains["x"]
        assert result.sorted_domain("x") == [1, 6]

    def test_evaluate_same_answers_across_propagators(self, sentence_structure):
        query = parse_query("Q(x, y) <- NP(x), Child+(x, y)")
        reference = evaluate(query, sentence_structure, propagator=Propagator.AC4)
        assert reference == evaluate(query, sentence_structure, propagator=Propagator.AC3)
        assert reference == evaluate(
            query, sentence_structure, propagator=Propagator.HORN
        )
        assert reference == evaluate(
            query, sentence_structure, propagator=Propagator.HYBRID
        )
        assert reference  # non-trivial


class TestMonadicAcyclicFastPath:
    """evaluate() reads monadic acyclic answers off the fixpoint directly."""

    def test_normalized_duplicates_still_take_the_fast_path_correctly(
        self, medium_random_tree
    ):
        """Parent(y, x) normalizes to Child(x, y): one constraint, forest."""
        from repro.evaluation import compile_query

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
        from repro.evaluation import compile_query

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
        forest = compile_query(monadic).shadow_is_forest
        for propagator in Propagator:
            assert evaluate(monadic, structure, propagator=propagator) == expected
        if not forest:
            # On a cyclic body ``semijoin`` is a superset sweep: enough for the
            # decomposition engine (the route above), refused by the engines
            # that need the exact fixpoint.
            with pytest.raises(ValueError, match="forest-shaped"):
                evaluate(
                    monadic, structure, engine=Engine.BACKTRACKING, propagator=Propagator.SEMIJOIN
                )


class TestDeterministicEnumeration:
    def test_iter_satisfactions_sorted_and_repeatable(self, medium_random_tree):
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q <- A(x), Child+(x, y), B(y)")
        first = [tuple(sorted(v.items())) for v in iter_satisfactions(query, structure)]
        second = [tuple(sorted(v.items())) for v in iter_satisfactions(query, structure)]
        assert first == second
        # Root variable candidates appear in ascending node order.
        roots = [dict(v)["x"] for v in (dict(items) for items in first)]
        assert roots == sorted(roots)

    def test_enumeration_order_independent_of_propagator(self, medium_random_tree):
        structure = TreeStructure(medium_random_tree)
        query = parse_query("Q <- A(x), Child(x, y), Following(y, z)")
        sequences = {
            propagator: [
                tuple(sorted(v.items()))
                for v in iter_satisfactions(query, structure, propagator=propagator)
            ]
            for propagator in Propagator
        }
        assert sequences[Propagator.AC4] == sequences[Propagator.AC3]
        assert sequences[Propagator.AC4] == sequences[Propagator.HORN]
        assert sequences[Propagator.AC4]  # non-empty on this tree

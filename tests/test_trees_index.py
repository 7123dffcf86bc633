"""Tests for the pre/post interval index (:mod:`repro.trees.index`).

The index must agree *exactly* with the traversal-based reference
implementation in :mod:`repro.trees.axes` -- on ``holds`` for every axis and
on witness existence against arbitrary candidate sets -- and the propagators
built on it must agree with the literal Horn program of Proposition 3.1.
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
    compile_query,
    initial_domains,
    is_satisfied,
    least_valuation,
    propagate,
)
from repro.evaluation.propagation import candidate_supersets
from repro.hardness import random_cyclic_query
from repro.queries import parse_query
from repro.trees import (
    Axis,
    TreeStructure,
    chain,
    from_nested,
    nodes_in_pre_range,
    random_tree,
    range_any,
    range_count,
)
from repro.trees.axes import holds as naive_holds
from repro.trees.axes import predecessors as naive_predecessors
from repro.trees.axes import successors as naive_successors

ALL_AXES = tuple(Axis)
ALPHABET = ("A", "B", "C")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def sample_trees():
    """A deterministic mix of shapes: chains, stars, and random trees."""
    trees = [
        chain(["A"]),
        chain(["A", "B", "A", "C", "B"]),
        from_nested(("R", [("A", []), ("B", []), ("C", []), ("A", []), ("B", [])])),
    ]
    for size, seed in [(9, 0), (17, 1), (30, 2), (45, 3)]:
        trees.append(random_tree(size, alphabet=ALPHABET, seed=seed))
    for size, seed in [(20, 4), (35, 5)]:
        trees.append(random_tree(size, alphabet=ALPHABET, max_children=2, seed=seed))
    return trees


TREES = sample_trees()


@st.composite
def trees(draw, max_size: int = 16):
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_tree(size, alphabet=ALPHABET, max_children=3, seed=seed)


# ---------------------------------------------------------------------------
# Bisect primitives.
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_against_bruteforce(self):
        rng = random.Random(11)
        for _ in range(200):
            array = sorted(rng.sample(range(60), rng.randint(0, 25)))
            lo = rng.randint(-5, 65)
            hi = rng.randint(-5, 65)
            expected = [x for x in array if lo <= x < hi]
            assert range_count(array, lo, hi) == len(expected)
            assert range_any(array, lo, hi) == bool(expected)
            assert list(nodes_in_pre_range(array, lo, hi)) == expected

    def test_empty_array(self):
        assert range_count([], 0, 10) == 0
        assert not range_any([], 0, 10)
        assert list(nodes_in_pre_range([], 0, 10)) == []


# ---------------------------------------------------------------------------
# Rank arrays and per-label lists.
# ---------------------------------------------------------------------------


class TestRankArrays:
    @pytest.mark.parametrize("tree_index", range(len(TREES)))
    def test_arrays_consistent_with_tree(self, tree_index):
        tree = TREES[tree_index]
        index = tree.index
        n = len(tree)
        assert index.pre == list(range(n))
        assert sorted(index.post) == list(range(n))
        for node in tree.node_ids():
            expected_next = tree.next_sibling(node)
            assert index.next_sibling[node] == (expected_next if expected_next is not None else -1)
            if index.prev_sibling[node] >= 0:
                assert tree.next_sibling(index.prev_sibling[node]) == node

    @pytest.mark.parametrize("tree_index", range(len(TREES)))
    def test_label_nodes_sorted_and_complete(self, tree_index):
        """The per-label lists the initial columns are read from."""
        tree = TREES[tree_index]
        for label in tree.alphabet():
            nodes = list(tree.nodes_with_label(label))
            assert nodes == sorted(nodes)
            assert nodes == [v for v in tree.node_ids() if tree.has_label(v, label)]
        assert list(tree.nodes_with_label("no-such-label")) == []

    def test_index_is_cached_and_shared(self):
        tree = TREES[3]
        assert tree.index is tree.index
        structure = TreeStructure(tree)
        assert structure.index is tree.index


# ---------------------------------------------------------------------------
# holds: rank-comparison vs traversal reference, every axis, all pairs.
# ---------------------------------------------------------------------------


class TestHolds:
    @pytest.mark.parametrize("axis", ALL_AXES, ids=lambda axis: axis.value)
    def test_holds_matches_naive_on_all_pairs(self, axis):
        for tree in TREES:
            index = tree.index
            for u in tree.node_ids():
                for v in tree.node_ids():
                    assert index.holds(axis, u, v) == naive_holds(tree, axis, u, v), (
                        f"{axis.value}({u}, {v}) disagrees on {tree!r}"
                    )

    @SETTINGS
    @given(trees())
    def test_holds_matches_naive_hypothesis(self, tree):
        index = tree.index
        for axis in ALL_AXES:
            for u in tree.node_ids():
                for v in tree.node_ids():
                    assert index.holds(axis, u, v) == naive_holds(tree, axis, u, v)


# ---------------------------------------------------------------------------
# Witness tests against candidate sets, every axis.
# ---------------------------------------------------------------------------


def candidate_sets(tree, rng, count=6):
    n = len(tree)
    sets = [set(), set(tree.node_ids())]
    for _ in range(count):
        sets.append(set(rng.sample(range(n), rng.randint(0, n))))
    return sets


class TestWitnesses:
    @pytest.mark.parametrize("axis", ALL_AXES, ids=lambda axis: axis.value)
    def test_witnesses_match_naive_enumeration(self, axis):
        rng = random.Random(99)
        for tree in TREES:
            index = tree.index
            for nodes in candidate_sets(tree, rng):
                view = index.view(nodes)
                for u in tree.node_ids():
                    expected = any(w in nodes for w in naive_successors(tree, axis, u))
                    assert index.has_successor_in(axis, u, view) == expected
                    expected = any(w in nodes for w in naive_predecessors(tree, axis, u))
                    assert index.has_predecessor_in(axis, u, view) == expected

    @SETTINGS
    @given(trees(), st.integers(min_value=0, max_value=10_000))
    def test_witnesses_match_naive_hypothesis(self, tree, seed):
        rng = random.Random(seed)
        index = tree.index
        nodes = set(rng.sample(range(len(tree)), rng.randint(0, len(tree))))
        view = index.view(nodes)
        for axis in ALL_AXES:
            for u in tree.node_ids():
                expected = any(w in nodes for w in naive_successors(tree, axis, u))
                assert index.has_successor_in(axis, u, view) == expected
                expected = any(w in nodes for w in naive_predecessors(tree, axis, u))
                assert index.has_predecessor_in(axis, u, view) == expected

    def test_structure_passthrough(self, sentence_structure):
        view = sentence_structure.domain_view({3, 7})
        assert sentence_structure.axis_has_predecessor_in(Axis.CHILD, 3, view) is False
        view = sentence_structure.domain_view({1, 6})
        assert sentence_structure.axis_has_predecessor_in(Axis.CHILD, 3, view) is True
        assert sentence_structure.axis_has_successor_in(Axis.CHILD_PLUS, 0, view) is True


# ---------------------------------------------------------------------------
# Per-atom witness tests vs enumeration, propagators vs Horn program.
# ---------------------------------------------------------------------------


def random_queries(rng):
    queries = [
        parse_query("Q <- A(x), Child+(x, y), B(y)"),
        parse_query("Q <- A(x), Child(x, y), Following(y, z), C(z)"),
        parse_query("Q <- NextSibling+(x, y), Child*(y, z), NextSibling*(z, w)"),
        parse_query("Q <- Child*(x, x), Following(x, y)"),
    ]
    for seed in range(6):
        queries.append(
            random_cyclic_query(
                (
                    Axis.CHILD,
                    Axis.CHILD_PLUS,
                    Axis.CHILD_STAR,
                    Axis.NEXT_SIBLING,
                    Axis.NEXT_SIBLING_PLUS,
                    Axis.NEXT_SIBLING_STAR,
                    Axis.FOLLOWING,
                ),
                num_variables=rng.randint(3, 5),
                num_extra_atoms=rng.randint(0, 3),
                seed=seed,
            )
        )
    return queries


class TestReviseAgreement:
    def test_per_atom_witness_tests_match_axis_successors(self):
        """Every candidate keeps its witness verdict against the materialized relation."""
        rng = random.Random(5)
        for tree in TREES:
            structure = TreeStructure(tree)
            index = structure.index
            successors, predecessors = structure.axis_successors, structure.axis_predecessors
            for query in random_queries(rng):
                domains = initial_domains(query, structure)
                for atom in query.axis_atoms():
                    source, target = domains[atom.source], domains[atom.target]
                    target_view, source_view = index.view(target), index.view(source)
                    for v in source:
                        expected = bool(target.intersection(successors(atom.axis, v)))
                        assert index.has_successor_in(atom.axis, v, target_view) == expected
                    for w in target:
                        expected = bool(source.intersection(predecessors(atom.axis, w)))
                        assert index.has_predecessor_in(atom.axis, w, source_view) == expected

    def test_propagators_match_horn(self):
        rng = random.Random(6)
        for tree in TREES:
            structure = TreeStructure(tree)
            for query in random_queries(rng):
                _assert_propagators_match_horn(query, structure)

    def test_propagators_match_horn_with_pinning(self):
        tree = TREES[5]
        structure = TreeStructure(tree)
        for text in (
            "Q(x) <- A(x), Child+(x, y), B(y)",
            "Q(x) <- A(x), Child+(x, y), Child*(y, z), Child+(x, z), B(z)",
        ):
            query = parse_query(text)
            for pin in range(len(tree)):
                _assert_propagators_match_horn(query, structure, pinned={"x": pin})

    @SETTINGS
    @given(trees(), st.integers(min_value=0, max_value=10_000))
    def test_propagator_equality_hypothesis(self, tree, seed):
        rng = random.Random(seed)
        structure = TreeStructure(tree)
        query = random_cyclic_query(
            tuple(Axis(a) for a in ("Child", "Child+", "Child*", "Following")),
            num_variables=rng.randint(3, 4),
            num_extra_atoms=rng.randint(0, 2),
            seed=seed,
        )
        _assert_propagators_match_horn(query, structure)


def _assert_propagators_match_horn(query, structure, pinned=None):
    """Semijoin is Horn on forests; the walk decides like Horn; supersets contain it."""
    compiled = compile_query(query)
    horn = oracle.maximal_arc_consistent_horn(query, structure, pinned)
    if compiled.shadow_is_forest:
        result = propagate(query, structure, pinned, Propagator.SEMIJOIN)
        assert (None if result is None else result.domains) == horn
    if compiled.order is not None:
        walk = least_valuation(compiled, structure, pinned)
        assert (walk is None) == (horn is None)
        if horn is not None:
            least = {variable: column[0] for variable, column in walk.items()}
            assert least == oracle.minimum_valuation(structure, horn, compiled.order)
    supersets = candidate_supersets(compiled, structure, pinned)
    if horn is not None:
        assert supersets is not None
        assert all(nodes <= supersets.domains[v] for v, nodes in horn.items())
    expected = bool(oracle.answers(query, structure, pinned))
    assert is_satisfied(query, structure, pinned=pinned, engine=Engine.BACKTRACKING) == expected

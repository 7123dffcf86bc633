"""Tests for tree generators and the relational-structure view."""

from __future__ import annotations

import pytest

import oracle
from repro.trees import (
    Axis,
    Signature,
    TAU,
    TreeStructure,
    all_trees,
    is_scattered,
    path_structure,
    random_binary_tree,
    random_path,
    random_tree,
    scattered_path_structure,
    structure,
)


class TestRandomTree:
    def test_size_and_alphabet(self):
        tree = random_tree(25, alphabet=("A", "B"), seed=1)
        assert len(tree) == 25
        assert tree.alphabet() <= {"A", "B"}

    def test_deterministic_with_seed(self):
        first = random_tree(30, seed=42)
        second = random_tree(30, seed=42)
        assert first.to_nested() == second.to_nested()

    def test_max_children_respected(self):
        tree = random_tree(40, max_children=2, seed=3)
        assert all(len(tree.children(v)) <= 2 for v in tree.node_ids())

    def test_multi_label_and_unlabelled_probabilities(self):
        tree = random_tree(
            60, multi_label_probability=1.0, unlabeled_probability=0.0, seed=5
        )
        assert any(len(tree.labels(v)) == 2 for v in tree.node_ids())
        bare = random_tree(60, unlabeled_probability=1.0, seed=5)
        assert all(not bare.labels(v) for v in bare.node_ids())

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            random_tree(0)

    @pytest.mark.parametrize("size", [1, 2, 7, 60, 500])
    @pytest.mark.parametrize("max_children", [0, 1, 2, 4])
    def test_seeded_trees_match_the_rebuilding_construction(self, size, max_children):
        """Nodes leave the eligible list in place: every draw, and so every tree, is kept."""
        for seed in (0, 1, 42):
            for multi, unlabeled in ((0.0, 0.0), (0.3, 0.2)):
                options = dict(
                    alphabet=("A", "B", "C"),
                    max_children=max_children,
                    multi_label_probability=multi,
                    unlabeled_probability=unlabeled,
                    seed=seed,
                )
                got, expected = random_tree(size, **options), oracle.random_tree(size, **options)
                assert got.labels_of == expected.labels_of
                assert got.children_of == expected.children_of

    def test_binary_and_path_shapes(self):
        binary = random_binary_tree(20, seed=2)
        assert all(len(binary.children(v)) <= 2 for v in binary.node_ids())
        path = random_path(10, seed=2)
        assert all(len(path.children(v)) <= 1 for v in path.node_ids())
        assert len(path) == 10


class TestPathStructures:
    def test_path_structure_shape(self):
        tree = path_structure([("A",), (), ("B",)])
        assert len(tree) == 3
        assert all(len(tree.children(v)) <= 1 for v in tree.node_ids())
        assert tree.labels(1) == frozenset()

    def test_scattered_structure_is_scattered(self):
        tree = scattered_path_structure(3, ["A", "B", "C"])
        assert is_scattered(tree, 3)
        # It is not (k+gap)-scattered for a much larger k.
        assert not is_scattered(tree, 50)

    def test_scattered_requires_distinct_labels(self):
        with pytest.raises(ValueError):
            scattered_path_structure(2, ["A", "A"])

    def test_scattered_gap_validation(self):
        with pytest.raises(ValueError):
            scattered_path_structure(3, ["A"], gap=1)

    def test_is_scattered_rejects_branches_and_duplicates(self):
        from repro.trees import from_nested

        branching = from_nested(("A", [("B", []), ("C", [])]))
        assert not is_scattered(branching, 1)
        duplicate = path_structure([("A",), (), (), ("A",)])
        assert not is_scattered(duplicate, 2)


class TestAllTrees:
    def test_counts_small(self):
        # 1 shape of size 1, 1 of size 2, 2 of size 3; alphabet of 2 labels.
        trees = list(all_trees(3, ("A", "B")))
        expected = 1 * 2 + 1 * 4 + 2 * 8
        assert len(trees) == expected

    def test_all_have_single_labels(self):
        for tree in all_trees(3, ("A",)):
            assert all(len(tree.labels(v)) == 1 for v in tree.node_ids())


class TestSignatureAndStructure:
    def test_signature_membership_and_union(self):
        signature = Signature.of(Axis.CHILD, Axis.FOLLOWING)
        assert Axis.CHILD in signature
        assert Axis.CHILD_PLUS not in signature
        merged = signature.union(Signature.of(Axis.CHILD_PLUS))
        assert Axis.CHILD_PLUS in merged
        assert len(merged) == 3
        assert str(signature) == "{Child, Following}"

    def test_named_taus(self):
        assert TAU["tau1"].axes == frozenset({Axis.CHILD_PLUS, Axis.CHILD_STAR})
        assert TAU["tau6"].axes == frozenset({Axis.CHILD, Axis.FOLLOWING})
        assert len(TAU["ax"]) == 7

    def test_structure_unary_relations(self, sentence_tree):
        ts = TreeStructure(sentence_tree)
        assert list(ts.unary_members("NP")) == [1, 6]
        assert ts.unary_holds("S", 0)
        assert not ts.unary_holds("S", 1)
        assert "NP" in ts.unary_names()

    def test_structure_extra_unary_and_singletons(self, sentence_tree):
        ts = TreeStructure(sentence_tree, extra_unary={"Pinned": [3]})
        assert ts.unary_holds("Pinned", 3)
        assert not ts.unary_holds("Pinned", 4)
        pinned = ts.with_singletons({"X0": 5})
        assert pinned.unary_holds("X0", 5)
        assert list(pinned.unary_members("X0")) == [5]
        # Original structure unaffected.
        assert not ts.unary_holds("X0", 5)

    def test_structure_rejects_bad_node_ids(self, sentence_tree):
        ts = TreeStructure(sentence_tree)
        with pytest.raises(ValueError):
            ts.add_unary("Bad", [999])

    def test_structure_axis_access_and_sizes(self, sentence_tree):
        ts = structure(sentence_tree, Axis.CHILD, Axis.CHILD_PLUS)
        assert ts.signature.axes == frozenset({Axis.CHILD, Axis.CHILD_PLUS})
        assert ts.axis_holds(Axis.CHILD, 0, 1)
        assert set(ts.axis_successors(Axis.CHILD, 0)) == {1, 4, 8}
        assert set(ts.axis_predecessors(Axis.CHILD, 1)) == {0}
        assert ts.domain_size == len(sentence_tree)
        assert ts.size() >= sentence_tree.structure_size()

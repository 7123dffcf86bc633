"""Tests for the starting prevaluation and for Proposition 3.1's Horn program.

The Horn program (``tests/oracle.py``) is the ground truth every propagator
and engine is held to, so its own answers on the sentence tree are pinned
here, and the pointer walk is held to it on random cyclic queries.
"""

from __future__ import annotations

import pytest

from oracle import maximal_arc_consistent_horn, minimum_valuation
from repro.evaluation import (
    compile_query,
    initial_domains,
    least_valuation,
    valuation_satisfies,
)
from repro.evaluation.propagation import candidate_supersets
from repro.hardness import random_cyclic_query
from repro.queries import parse_query
from repro.trees import Order, TreeStructure, random_tree
from repro.xproperty import X_PROPERTY_AXES


class TestInitialDomains:
    def test_label_restriction(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y)")
        domains = initial_domains(query, sentence_structure)
        assert domains["x"] == {1, 6}
        assert domains["y"] == set(sentence_structure.domain())

    def test_multiple_labels_intersect(self, sentence_structure):
        query = parse_query("Q <- NP(x), VP(x)")
        domains = initial_domains(query, sentence_structure)
        assert domains["x"] == set()

    def test_pinning(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y)")
        domains = initial_domains(query, sentence_structure, pinned={"x": 6})
        assert domains["x"] == {6}
        with pytest.raises(ValueError):
            initial_domains(query, sentence_structure, pinned={"zzz": 0})


class TestHornProgram:
    def test_simple_child_query(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        domains = maximal_arc_consistent_horn(query, sentence_structure)
        assert domains is not None
        assert domains["x"] == {1, 6}
        assert domains["y"] == {3, 7}

    def test_unsatisfiable_by_labels(self, sentence_structure):
        query = parse_query("Q <- Missing(x), Child(x, y)")
        assert maximal_arc_consistent_horn(query, sentence_structure) is None

    def test_unsatisfiable_by_structure(self, sentence_structure):
        # A PP with an NN child does not exist in the sentence tree.
        query = parse_query("Q <- PP(x), Child(x, y), NN(y)")
        assert maximal_arc_consistent_horn(query, sentence_structure) is None

    def test_maximality(self, sentence_structure):
        """Every arc-consistent prevaluation is contained in the computed one."""
        query = parse_query("Q <- NP(x), Child(x, y)")
        maximal = maximal_arc_consistent_horn(query, sentence_structure)
        assert maximal is not None
        # A satisfying valuation is a (singleton) arc-consistent prevaluation,
        # so each satisfying value must appear in the maximal domains.
        from repro.evaluation import iter_solutions

        for solution in iter_solutions(query, sentence_structure):
            for variable, node in solution.items():
                assert node in maximal[variable]

    def test_self_loop_atom(self, sentence_structure):
        query = parse_query("Q <- Child*(x, x), NP(x)")
        domains = maximal_arc_consistent_horn(query, sentence_structure)
        assert domains is not None
        assert domains["x"] == {1, 6}
        hard = parse_query("Q <- Child+(x, x)")
        assert maximal_arc_consistent_horn(hard, sentence_structure) is None

    def test_pinned_consistency(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        domains = maximal_arc_consistent_horn(query, sentence_structure, pinned={"x": 6})
        assert domains is not None
        assert domains["y"] == {7}
        assert maximal_arc_consistent_horn(query, sentence_structure, pinned={"x": 8}) is None

    def test_arc_consistency_no_false_negative_on_satisfiable(self, sentence_structure):
        """If a query is satisfiable, arc consistency must not report failure."""
        from repro.evaluation import iter_solutions

        queries = [
            parse_query("Q <- S(x), Child(x, y), VP(y), Child(y, z), VB(z)"),
            parse_query("Q <- NP(x), Following(x, y), PP(y)"),
            parse_query("Q <- DT(x), NextSibling(x, y), NN(y)"),
        ]
        for query in queries:
            has_solution = any(True for _ in iter_solutions(query, sentence_structure))
            assert has_solution
            assert maximal_arc_consistent_horn(query, sentence_structure) is not None


def _walk_agrees_with_horn(query, structure, pinned=None):
    """Same verdict; the walk's first nodes are the minimum of Horn's fixpoint."""
    compiled = compile_query(query)
    walk = least_valuation(compiled, structure, pinned)
    horn = maximal_arc_consistent_horn(query, structure, pinned)
    assert (walk is None) == (horn is None)
    if horn is not None:
        least = {variable: column[0] for variable, column in walk.items()}
        assert least == minimum_valuation(structure, horn, compiled.order)
        assert all(nodes <= set(walk[variable]) for variable, nodes in horn.items())
    return horn


class TestWalkAgreesWithHorn:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_verdict_on_random_inputs(self, seed):
        tree = random_tree(18, alphabet=("A", "B", "C"), seed=seed, unlabeled_probability=0.2)
        structure = TreeStructure(tree)
        for order in (Order.PRE, Order.POST, Order.BFLR):
            query = random_cyclic_query(
                tuple(sorted(X_PROPERTY_AXES[order], key=str)),
                num_variables=5,
                num_extra_atoms=2,
                seed=seed,
            )
            horn = _walk_agrees_with_horn(query, structure)
            # The sweeps an engine takes on a cyclic body contain the fixpoint too.
            supersets = candidate_supersets(compile_query(query), structure, None, "semijoin")
            if horn is not None:
                assert all(nodes <= supersets.domains[v] for v, nodes in horn.items())

    def test_same_verdict_on_sentence(self, sentence_structure):
        for text in (
            "Q <- S(x), Child+(x, y), NP(y), Child*(y, z), NN(z), Child+(x, z)",
            "Q <- NP(x), Child(x, y), NextSibling(y, z), Child(x, z), NN(z)",
            "Q <- NP(x), Following(x, y), Following(y, z), Following(x, z), PP(z)",
            "Q <- PP(x), Child+(x, y), Child+(y, z), Child+(x, z)",
        ):
            _walk_agrees_with_horn(parse_query(text), sentence_structure)

    def test_walk_with_pinning(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y), NextSibling+(z, y), Child(x, z)")
        for pin in range(9):
            _walk_agrees_with_horn(query, sentence_structure, pinned={"x": pin})
        assert _walk_agrees_with_horn(query, sentence_structure, pinned={"x": 1}) == {
            "x": {1},
            "y": {3},
            "z": {2},
        }


class TestValuationSatisfies:
    def test_satisfying_and_violating_valuations(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        assert valuation_satisfies(query, sentence_structure, {"x": 1, "y": 3})
        assert not valuation_satisfies(query, sentence_structure, {"x": 1, "y": 7})
        assert not valuation_satisfies(query, sentence_structure, {"x": 0, "y": 3})

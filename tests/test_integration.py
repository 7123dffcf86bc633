"""End-to-end integration tests across the whole stack.

Each test exercises several subsystems together, the way a downstream user
would: parse or build data, pose queries (textual / XPath / builder), evaluate
with the planner, rewrite, and cross-check the different routes against each
other.
"""

from __future__ import annotations


import repro
from repro import (
    evaluate_on_tree,
    from_xml,
    parse_query,
    to_apq,
    xpath_to_cq,
)
from repro.evaluation import Engine, backtracking, evaluate, evaluate_union, is_satisfied
from repro.hardness import OneInThreeInstance, is_satisfiable, reduce_instance, decide_by_selection
from repro.queries import cq_to_xpath, equivalent_on_samples
from repro.rewriting import rewrite_child_nextsibling_apq
from repro.trees import TreeStructure, random_tree
from repro.trees.axes import Axis
from repro.workloads import (
    auction_document,
    busy_auction_query,
    figure1_query,
    parse_dominance_constraints,
    random_corpus,
    solved_forms,
)
from repro.xproperty import Complexity, classify


class TestPublicApiSurface:
    def test_version_and_reexports(self):
        assert repro.__version__
        assert repro.Axis.CHILD.value == "Child"
        assert callable(repro.evaluate_on_tree)

    def test_quickstart_snippet(self):
        tree = repro.from_nested(
            ("S", [("NP", []), ("VP", [("V", []), ("NP", [])])])
        )
        query = repro.parse_query(
            "Q(z) <- S(x), Child(x, y), NP(y), Following(y, z), NP(z)"
        )
        assert repro.evaluate_on_tree(query, tree) == frozenset({(4,)})


class TestXmlPipeline:
    def test_xml_to_answers(self):
        document_tree = from_xml(
            "<site><regions><europe><item><payment/></item><item/></europe>"
            "</regions></site>"
        )
        query = xpath_to_cq("//item[payment]")
        answers = evaluate_on_tree(query, document_tree)
        assert len(answers) == 1
        textual = parse_query("Q(i) <- item(i), Child(i, p), payment(p)")
        assert evaluate_on_tree(textual, document_tree) == answers

    def test_cyclic_xml_query_vs_rewriting(self):
        document = auction_document(num_bids=15, seed=3)
        query = busy_auction_query()
        direct = evaluate_on_tree(query, document)
        apq = to_apq(query)
        via_apq = evaluate_union(apq, TreeStructure(document))
        assert direct == via_apq


class TestLinguisticsPipeline:
    def test_figure1_query_three_routes(self):
        corpus = random_corpus(6, seed=12)
        query = figure1_query()
        structure = TreeStructure(corpus)
        planner_answers = evaluate(query, structure)
        backtracking_answers = backtracking.answers(query, structure)
        assert planner_answers == backtracking_answers
        apq = to_apq(query)
        assert evaluate_union(apq, structure) == planner_answers
        # The APQ route also corresponds to an XPath union (Remark 6.1) as
        # long as the disjuncts stay within the XPath axes.
        for disjunct in apq:
            if disjunct.signature().axes <= {
                Axis.CHILD,
                Axis.CHILD_PLUS,
                Axis.CHILD_STAR,
                Axis.NEXT_SIBLING_PLUS,
                Axis.FOLLOWING,
            }:
                expression = cq_to_xpath(disjunct)
                back = xpath_to_cq(expression)
                assert (
                    equivalent_on_samples(disjunct, back, samples=4, size=12, seed=5)
                    is None
                )


class TestDominancePipeline:
    def test_constraints_to_solved_forms_to_answers(self, sentence_tree):
        constraints = parse_dominance_constraints(
            """
            s : S
            s <+ left
            s <+ right
            left : NP
            right : NP
            left << right
            """
        )
        forms = solved_forms(constraints)
        assert not forms.is_empty()
        assert forms.is_acyclic()
        structure = TreeStructure(sentence_tree)
        assert bool(evaluate_union(forms, structure)) == is_satisfied(constraints, structure)


class TestDichotomyPipeline:
    def test_classifier_guides_engine_and_results_agree(self):
        tree = random_tree(30, alphabet=("A", "B"), seed=21, unlabeled_probability=0.1)
        structure = TreeStructure(tree)
        tractable = parse_query("Q <- A(x), Child+(x, y), B(y), Child*(y, z), A(z), Child+(x, z)")
        hard_shape = parse_query("Q <- A(x), Child(x, y), B(y), Child+(x, z), A(z), Child(y, z)")
        assert classify(tractable.signature()) is Complexity.PTIME
        assert classify(hard_shape.signature()) is Complexity.NP_COMPLETE
        for query in (tractable, hard_shape):
            expected = backtracking.boolean_query_holds(query, structure)
            assert is_satisfied(query, structure) == expected

    def test_theorem51_reduction_end_to_end(self):
        instance = OneInThreeInstance.of(("a", "b", "c"), ("b", "c", "d"))
        reduction = reduce_instance(instance, "tau4")
        assert (decide_by_selection(reduction) is not None) == is_satisfiable(instance)


class TestChildNextSiblingPipeline:
    def test_linear_rewriting_matches_general_rewriting(self):
        query = parse_query(
            "Q <- A(p), Child(p, a), Child(p, b), NextSibling(a, b), B(b)"
        )
        linear = rewrite_child_nextsibling_apq(query)
        general = to_apq(query)
        tree = random_tree(25, alphabet=("A", "B"), seed=5, unlabeled_probability=0.2)
        structure = TreeStructure(tree)
        assert evaluate_union(linear, structure) == evaluate_union(general, structure)

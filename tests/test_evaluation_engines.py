"""Tests for the evaluation engines: X-property, acyclic, backtracking, planner.

The central correctness property exercised here is *engine agreement*: on
queries where several engines apply, they must produce identical results (the
backtracking engine is the ground truth).
"""

from __future__ import annotations

from itertools import product

import pytest

import oracle
from repro.evaluation import (
    Engine,
    Propagator,
    SearchStatistics,
    boolean_query_holds,
    check_answer,
    choose_order,
    count_solutions,
    evaluate,
    evaluate_on_tree,
    evaluate_union,
    find_solution,
    is_satisfied,
    iter_solutions,
    satisfying_assignment,
    witness,
)
from repro.evaluation.backtracking import boolean_query_holds as bt_holds
from repro.evaluation.propagation import PROPAGATE_SECONDS
from repro.evaluation.xprop_evaluator import XPropertyEvaluationError
from repro.hardness import random_cyclic_query
from repro.observability import tracing
from repro.planning import DocumentStats, plan_query
from repro.queries import ConjunctiveQuery, as_union, parse_query
from repro.trees import Order, TreeStructure, from_nested, parse_sexpr, random_tree
from repro.trees.axes import Axis
from repro.workloads import auction_document


def _enumerate_strategies(root) -> list[str]:
    """The ``strategy`` of every ``enumerate`` span under ``root``."""
    found = [root.attributes["strategy"]] if root.name == "enumerate" else []
    for child in root.children:
        found.extend(_enumerate_strategies(child))
    return found


def _plan(text: str, tree):
    """The plan library ``evaluate(engine=AUTO)`` runs."""
    return plan_query(parse_query(text), DocumentStats.of_tree(tree))


def _assert_residue(plan) -> None:
    """The cyclic residue goes to the decomposition engine, whatever the estimates."""
    assert plan.engine is Engine.DECOMPOSITION


class TestXPropertyEvaluator:
    def test_tractable_signature_positive(self, sentence_structure):
        query = parse_query("Q <- S(x), Child+(x, y), NP(y), Child+(y, z), NN(z)")
        assert boolean_query_holds(query, sentence_structure, verify=True)

    def test_tractable_signature_negative(self, sentence_structure):
        query = parse_query("Q <- PP(x), Child+(x, y), NN(y)")
        assert not boolean_query_holds(query, sentence_structure)

    def test_following_signature(self, sentence_structure):
        query = parse_query("Q <- Following(x, y), Following(y, z), PP(z)")
        assert boolean_query_holds(query, sentence_structure, verify=True)

    def test_bflr_signature(self, sentence_structure):
        query = parse_query(
            "Q <- NP(x), NextSibling(x, y), VP(y), NextSibling+(y, z), PP(z), Child(y, w), VB(w)"
        )
        assert boolean_query_holds(query, sentence_structure, verify=True)

    def test_rejects_intractable_signature_without_order(self, sentence_structure):
        query = parse_query("Q <- Child(x, y), Child+(y, z)")
        with pytest.raises(ValueError):
            boolean_query_holds(query, sentence_structure)

    def test_choose_order(self):
        assert choose_order(parse_query("Q <- Child+(x, y)")) is Order.PRE
        assert choose_order(parse_query("Q <- Following(x, y)")) is Order.POST
        assert choose_order(parse_query("Q <- Child(x, y), NextSibling(y, z)")) is Order.BFLR
        assert choose_order(parse_query("Q <- Child(x, y), Following(y, z)")) is None

    def test_witness_is_a_satisfaction(self, sentence_structure):
        query = parse_query("Q <- Child+(x, y), NP(y), Child+(y, z), NN(z)")
        valuation = witness(query, sentence_structure)
        assert valuation is not None
        from repro.evaluation import valuation_satisfies

        assert valuation_satisfies(query, sentence_structure, valuation)

    def test_minimum_valuation_failure_detected_off_frontier(self):
        """Forcing a wrong order can break Lemma 3.4 -- the verifier notices.

        The {Child, Child+} signature has no common order; with <pre the
        minimum valuation of this satisfiable query picks inconsistent nodes
        on a suitably crafted tree, demonstrating why the frontier matters.
        """
        tree = from_nested(
            ("R", [("A", [("B", [("C", [])])]), ("A", [("D", [])])])
        )
        structure = TreeStructure(tree)
        query = parse_query("Q <- A(x), Child(x, y), D(y), Child+(z, y), R(z)")
        # The query is satisfiable (second A branch).
        assert bt_holds(query, structure)
        # With the pre-order forced, the minimum valuation may be inconsistent;
        # the evaluator either still answers True (if it happens to work) or
        # the verification raises -- it must never silently answer False.
        try:
            result = boolean_query_holds(query, structure, order=Order.PRE, verify=True)
            assert result is True
        except XPropertyEvaluationError:
            pass

    def test_agreement_with_backtracking_on_random_tractable_queries(self):
        for seed in range(6):
            tree = random_tree(25, alphabet=("A", "B"), seed=seed, unlabeled_probability=0.2)
            structure = TreeStructure(tree)
            query = random_cyclic_query(
                (Axis.CHILD_PLUS, Axis.CHILD_STAR),
                num_variables=5,
                num_extra_atoms=2,
                seed=seed,
            )
            assert boolean_query_holds(query, structure, verify=True) == bt_holds(
                query, structure
            )

    def test_agreement_following_signature(self):
        for seed in range(6):
            tree = random_tree(20, alphabet=("A", "B"), seed=100 + seed)
            structure = TreeStructure(tree)
            query = random_cyclic_query(
                (Axis.FOLLOWING,), num_variables=4, num_extra_atoms=2, seed=seed
            )
            assert boolean_query_holds(query, structure, verify=True) == bt_holds(
                query, structure
            )

    def test_agreement_bflr_signature(self):
        for seed in range(6):
            tree = random_tree(20, alphabet=("A", "B"), seed=200 + seed)
            structure = TreeStructure(tree)
            query = random_cyclic_query(
                (Axis.CHILD, Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR),
                num_variables=5,
                num_extra_atoms=2,
                seed=seed,
            )
            assert boolean_query_holds(query, structure, verify=True) == bt_holds(
                query, structure
            )

    def test_minimum_valuation_helper(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child+(x, y)")
        domains = oracle.maximal_arc_consistent_horn(query, sentence_structure)
        assert domains is not None
        valuation = oracle.minimum_valuation(sentence_structure, domains, Order.PRE)
        assert valuation["x"] == min(domains["x"])


def _valuations(query, structure):
    """Every satisfying valuation of the body: ``evaluate`` with the body's variables as head."""
    variables = query.variables()
    answers = evaluate(query.with_head(variables), structure)
    return {frozenset(zip(variables, answer)) for answer in answers}


class TestAcyclicEvaluator:
    def test_boolean_and_enumeration(self, sentence_structure):
        query = parse_query("Q <- S(x), Child(x, y), NP(y), Child(y, z), NN(z)")
        assert is_satisfied(query, sentence_structure, engine=Engine.ACYCLIC)
        assert _valuations(query, sentence_structure) == {
            frozenset({("x", 0), ("y", 1), ("z", 3)})
        }

    def test_rejects_cyclic_queries(self, sentence_structure):
        query = parse_query("Q <- Child(x, y), Child+(x, y)")
        with pytest.raises(ValueError):
            is_satisfied(query, sentence_structure, engine=Engine.ACYCLIC)

    def test_unsatisfiable(self, sentence_structure):
        query = parse_query("Q <- PP(x), Child(x, y)")
        assert not is_satisfied(query, sentence_structure, engine=Engine.ACYCLIC)
        assert _valuations(query, sentence_structure) == set()

    def test_agreement_with_backtracking(self, sentence_structure):
        queries = [
            "Q <- NP(x), Following(x, y)",
            "Q <- S(x), Child+(x, y), NP(y), Child(y, z)",
            "Q <- DT(a), NextSibling(a, b), NN(b), Following(b, c)",
            "Q <- VP(x), Child(x, y), VB(y), NextSibling(y, z), NP(z)",
        ]
        for text in queries:
            query = parse_query(text)
            assert is_satisfied(query, sentence_structure, engine=Engine.ACYCLIC) == bt_holds(
                query, sentence_structure
            )
            rhs = {
                frozenset(s.items())
                for s in iter_solutions(query, sentence_structure)
            }
            assert _valuations(query, sentence_structure) == rhs

    def test_multi_component_query(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), PP(z)")
        # Two NPs with two/one children times one PP.
        assert len(_valuations(query, sentence_structure)) == 3


class TestBacktrackingEvaluator:
    def test_cyclic_query(self, sentence_structure):
        query = parse_query("Q <- S(x), Child(x, y), NP(y), Child+(x, z), NN(z), Child(y, z)")
        assert bt_holds(query, sentence_structure)
        solution = find_solution(query, sentence_structure)
        assert solution is not None and solution["y"] == 1

    def test_count_solutions(self, sentence_structure):
        query = parse_query("Q <- NP(x)")
        assert count_solutions(query, sentence_structure) == 2

    def test_without_arc_consistency(self, sentence_structure):
        query = parse_query("Q <- NP(x), Child(x, y), NN(y)")
        fast = set(
            frozenset(s.items()) for s in iter_solutions(query, sentence_structure)
        )
        slow = set(
            frozenset(s.items())
            for s in iter_solutions(query, sentence_structure, use_arc_consistency=False)
        )
        assert fast == slow

    def test_statistics_collected(self, sentence_structure):
        statistics = SearchStatistics()
        query = parse_query("Q <- Child(x, y), Child(y, z)")
        bt_holds(query, sentence_structure, statistics=statistics)
        assert statistics.nodes_expanded > 0

    def test_empty_body_query(self, sentence_structure):
        query = parse_query("Q <- true")
        assert bt_holds(query, sentence_structure)
        assert count_solutions(query, sentence_structure) == 1


class TestPlanner:
    def test_engine_choice(self, sentence_tree):
        tractable = "Q <- Child+(x, y), Child*(y, z), Child+(z, x)"
        assert _plan(tractable, sentence_tree).engine is Engine.XPROPERTY
        assert _plan("Q <- Child(x, y), Following(y, z)", sentence_tree).engine is Engine.ACYCLIC
        # Cyclic (parallel edges / triangles) and, width 3, a K4 over an
        # NP-hard signature: the cyclic residue, searched over the join tree.
        for text in (
            "Q <- Child(x, y), Child+(x, y)",
            "Q <- Child(x, y), Following(y, z), Child+(x, z)",
            "Q <- Child(a, b), Child+(a, c), Following(a, d), "
            "Child+(b, c), Child(b, d), Following(c, d)",
        ):
            _assert_residue(_plan(text, sentence_tree))

    def test_engine_choice_depends_on_the_head(self, sentence_tree):
        """Boolean and monadic-forest heads read one fixpoint; every other
        head is enumerated over the join tree, whatever the signature."""
        body = "NP(x), Child(x, y), NN(y)"  # tractable signature, forest
        assert _plan(f"Q <- {body}", sentence_tree).engine is Engine.XPROPERTY
        assert _plan(f"Q(x) <- {body}", sentence_tree).engine is Engine.XPROPERTY
        assert _plan(f"Q(x, y) <- {body}", sentence_tree).engine is Engine.DECOMPOSITION
        assert _plan(f"Q(x, x) <- {body}", sentence_tree).engine is Engine.DECOMPOSITION
        mixed = "Child(x, y), Following(y, z)"  # NP-hard signature, forest
        assert _plan(f"Q(z) <- {mixed}", sentence_tree).engine is Engine.ACYCLIC
        assert _plan(f"Q(x, z) <- {mixed}", sentence_tree).engine is Engine.DECOMPOSITION
        # A monadic head over a cyclic shadow is no fixpoint projection: it
        # joins the cyclic residue even on a tractable signature.
        cyclic = "Child+(x, y), Child*(y, z), Child+(x, z)"
        assert _plan(f"Q <- {cyclic}", sentence_tree).engine is Engine.XPROPERTY
        _assert_residue(_plan(f"Q(x) <- {cyclic}", sentence_tree))
        k4 = (
            "Child+(a, b), Child+(a, c), Child+(a, d), "
            "Child+(b, c), Child+(b, d), Child+(c, d)"
        )
        assert _plan(f"Q <- {k4}", sentence_tree).engine is Engine.XPROPERTY
        _assert_residue(_plan(f"Q(a, d) <- {k4}", sentence_tree))

    @pytest.mark.parametrize(
        "text",
        [
            "Q(x) <- Child+(x, y), Child+(y, z), Child+(x, z)",  # decomposition
            "Q <- Child+(x, y), Child+(y, z), Child+(x, z)",  # xproperty
            "Q(x, z) <- NP(x), Child+(x, y), Child*(y, z), Child+(x, z)",  # decomposition
            "Q(x) <- NP(x), Child(x, y), Following(y, z), Child+(x, z)",  # decomposition
        ],
    )
    def test_library_default_propagator_is_the_plans(self, sentence_structure, text):
        """``evaluate(q, s)`` prunes with ``plan_query(q, stats).propagator``, and only with it."""
        plan = _plan(text, sentence_structure.tree)

        def propagations() -> dict:
            return {p: PROPAGATE_SECONDS.totals(propagator=p.value)[0] for p in Propagator}

        before = propagations()
        answers = evaluate(parse_query(text), sentence_structure)
        after = propagations()
        ran = {p for p in Propagator if after[p] > before[p]}
        assert ran == {plan.propagator}, (text, plan.engine, ran)
        assert sorted(answers) == oracle.answers(parse_query(text), sentence_structure)

    def test_default_kary_evaluation_runs_one_fixpoint(self):
        """A count, not a timing: one propagation per request, no per-tuple loop."""
        # The 1k auction document of the end-to-end benchmark's kary_1k mix.
        structure = TreeStructure(
            auction_document(seed=42, num_items=55, num_people=30, num_bids=85)
        )
        query = parse_query("Q(d, l) <- description(d), Child+(d, l), listitem(l)")

        def propagations() -> int:
            return PROPAGATE_SECONDS.totals(propagator="semijoin")[0]

        before = propagations()
        with tracing.trace("default") as root:
            answers = evaluate(query, structure)
        assert propagations() - before == 1
        assert len(answers) > 50  # the reduction pays a fixpoint per candidate tuple
        assert root.find("enumerate").attributes["strategy"] == "join_tree"

        # The reduction is still there, behind an explicit engine only.
        before = propagations()
        with tracing.trace("forced") as root:
            forced = evaluate(query, structure, engine=Engine.XPROPERTY)
        assert forced == answers
        assert propagations() - before > len(answers)
        assert root.find("enumerate").attributes["strategy"] == "candidate_product"

    def test_default_routing_never_enumerates_per_tuple(self, sentence_structure):
        """Forest heads take the join tree; a cyclic monadic head is searched over it."""
        forest = (
            "Q(x, y) <- NP(x), Child(x, y), NN(y)",
            "Q(x, y, x) <- NP(x), Following(x, y), PP(y)",
            "Q(x, y) <- NP(x), PP(y)",
        )
        cyclic = (
            "Q(x) <- NP(x), Child+(x, y), Child*(x, y)",
            "Q(x, z) <- Child(x, y), Following(y, z), Child+(x, z)",
        )
        for text in forest + cyclic:
            plan = _plan(text, sentence_structure.tree)
            if text in forest:
                assert plan.engine is Engine.DECOMPOSITION, text
            else:
                _assert_residue(plan)
            with tracing.trace("request") as root:
                evaluate(parse_query(text), sentence_structure)
            strategies = _enumerate_strategies(root)
            assert strategies == ["join_tree"], (text, strategies)
        # Over a multi-bag cyclic body a monadic head is searched, not enumerated.
        text = "Q(a) <- NP(a), Child+(a, b), Following(b, c), Child+(d, c), Following(a, d)"
        _assert_residue(_plan(text, sentence_structure.tree))
        with tracing.trace("request") as root:
            evaluate(parse_query(text), sentence_structure)
        assert _enumerate_strategies(root) == [] and root.find("search") is not None

    def test_is_satisfied_all_engines_agree(self, sentence_structure):
        query = parse_query("Q <- S(x), Child+(x, y), NP(y), Child+(x, z), PP(z)")
        results = {
            engine: is_satisfied(query, sentence_structure, engine)
            for engine in (
                Engine.AUTO,
                Engine.XPROPERTY,
                Engine.ACYCLIC,
                Engine.DECOMPOSITION,
                Engine.BACKTRACKING,
            )
        }
        assert set(results.values()) == {True}

    def test_evaluate_monadic(self, sentence_tree):
        query = parse_query("Q(z) <- S(x), Child(x, y), NP(y), Following(y, z), NP(z)")
        assert evaluate_on_tree(query, sentence_tree) == frozenset({(6,)})

    def test_evaluate_binary(self, sentence_tree):
        query = parse_query("Q(x, y) <- NP(x), Child(x, y), NN(y)")
        assert evaluate_on_tree(query, sentence_tree) == frozenset({(1, 3), (6, 7)})

    def test_evaluate_boolean(self, sentence_structure):
        positive = parse_query("Q <- VB(x), Following(x, y), PP(y)")
        negative = parse_query("Q <- PP(x), Following(x, y)")
        assert evaluate(positive, sentence_structure) == frozenset({()})
        assert evaluate(negative, sentence_structure) == frozenset()

    def test_evaluate_repeated_head_variable(self, sentence_tree):
        query = parse_query("Q(x, x) <- NP(x)")
        assert evaluate_on_tree(query, sentence_tree) == frozenset({(1, 1), (6, 6)})

    @pytest.mark.parametrize("engine", list(Engine))
    def test_unsafe_head_variable_ranges_over_every_node(self, engine):
        """A head variable no atom mentions pairs with every node, on every engine."""
        structure = TreeStructure(parse_sexpr("(A (B) (A (B)))"))
        body = parse_query("Q(x) <- A(x), Child(x, z)").body
        query = ConjunctiveQuery(("x", "y"), body, "Q")
        expected = frozenset((x, y) for x in (0, 2) for y in range(4))
        assert evaluate(query, structure, engine=engine) == expected
        for answer in product(range(4), repeat=2):
            assert check_answer(query, structure, answer, engine) == (answer in expected)

    def test_check_answer(self, sentence_structure):
        query = parse_query("Q(x) <- NP(x), Child(x, y), NN(y)")
        assert check_answer(query, sentence_structure, (1,))
        assert check_answer(query, sentence_structure, (6,))
        assert not check_answer(query, sentence_structure, (4,))
        with pytest.raises(ValueError):
            check_answer(query, sentence_structure, (1, 2))

    def test_evaluate_union(self, sentence_structure):
        union = as_union(parse_query("Q(x) <- DT(x)")).union(
            as_union(parse_query("Q(x) <- VB(x)"))
        )
        assert evaluate_union(union, sentence_structure) == frozenset({(2,), (5,)})

    def test_satisfying_assignment(self, sentence_structure):
        tractable = parse_query("Q <- Child+(x, y), NP(y)")
        assignment = satisfying_assignment(tractable, sentence_structure)
        assert assignment is not None
        cyclic = parse_query("Q <- Child(x, y), Child+(x, y)")
        assert satisfying_assignment(cyclic, sentence_structure) is not None
        impossible = parse_query("Q <- PP(x), Child(x, y)")
        assert satisfying_assignment(impossible, sentence_structure) is None

    def test_engines_agree_on_random_acyclic_and_cyclic_queries(self):
        for seed in range(5):
            tree = random_tree(18, alphabet=("A", "B"), seed=300 + seed, unlabeled_probability=0.2)
            structure = TreeStructure(tree)
            query = random_cyclic_query(
                (Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING),
                num_variables=4,
                num_extra_atoms=1,
                seed=seed,
            )
            expected = bt_holds(query, structure)
            assert is_satisfied(query, structure) == expected

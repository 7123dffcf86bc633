"""Property-based tests (hypothesis) for the core invariants.

These cover the invariants the paper's machinery relies on:

* tree numberings are consistent permutations and characterise the axes,
* pruning is sound (never discards satisfying values) under both
  propagators,
* the pointer walk decides exactly what Proposition 3.1's Horn program
  decides, and its valuation is Lemma 3.4's minimum valuation of the Horn
  fixpoint, on every axis group of Theorem 4.1,
* the X-property evaluator agrees with backtracking on tractable signatures
  (Lemma 3.4 / Theorem 3.5),
* default routing (one fixpoint + one join-tree traversal for every k-ary
  head) answers exactly like the paper's per-tuple reduction and like the
  Horn-SAT oracle, and the engine set is the dichotomy: the table names
  ``fixpoint``, ``decomposition`` or ``sql`` only, and a forced ``fixpoint``
  answers exactly or refuses,
* the answer contract of the serving core -- ``answer_page``: the first
  ``limit`` answers in ascending order plus the exact count -- holds for every
  plan the planner can emit and every forced engine, and the join-tree
  engine's level-at-a-time bag kernel returns the very pages of the per-prefix
  recursion it replaced,
* the CQ -> APQ rewriting preserves semantics and produces acyclic disjuncts
  (Lemma 6.5 / Theorem 6.6),
* Theorem 4.1's positive X-property claims hold on arbitrary generated trees.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.decomposition import yannakakis
from repro.evaluation import (
    Engine,
    Propagator,
    answer_page,
    backtracking,
    compile_query,
    evaluate,
    evaluate_on_tree,
    is_satisfied,
    iter_solutions,
    least_valuation,
    propagate,
)
from repro.evaluation.backtracking import boolean_query_holds as bt_holds
from repro.evaluation.planner import fixpoint_answers, tier
from repro.evaluation.propagation import candidate_supersets
from repro.evaluation.xprop_evaluator import boolean_query_holds as xp_holds
from repro.hardness import random_cyclic_query
from repro.planning import DocumentStats, plan_query
from repro.queries import ConjunctiveQuery, is_acyclic, parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.rewriting import to_apq
from repro.trees import Axis, Order, Tree, TreeStructure, chain, random_tree
from repro.trees.axes import AX, INVERSE, holds
from repro.trees.orders import rank
from repro.xproperty import X_PROPERTY_AXES, has_x_property

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALPHABET = ("A", "B", "C")


@st.composite
def trees(draw, min_size: int = 1, max_size: int = 16) -> Tree:
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    unlabeled = draw(st.sampled_from([0.0, 0.2]))
    return random_tree(
        size,
        alphabet=ALPHABET,
        max_children=3,
        unlabeled_probability=unlabeled,
        seed=seed,
    )


@st.composite
def queries(draw, axes: tuple[Axis, ...], max_variables: int = 4) -> ConjunctiveQuery:
    num_variables = draw(st.integers(min_value=2, max_value=max_variables))
    variables = [f"v{i}" for i in range(num_variables)]
    num_atoms = draw(st.integers(min_value=1, max_value=num_variables + 2))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    atoms: list = []
    for _ in range(num_atoms):
        if num_variables >= 2:
            source, target = rng.sample(variables, 2)
        else:
            source, target = variables[0], variables[0]
        atoms.append(AxisAtom(rng.choice(list(axes)), source, target))
    for variable in variables:
        if rng.random() < 0.5:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    return ConjunctiveQuery((), tuple(atoms), "H")


@st.composite
def head_queries(
    draw, axes: tuple[Axis, ...], max_variables: int = 4, max_arity: int = 2
) -> ConjunctiveQuery:
    """Like :func:`queries`, but with a random (possibly repeating) head."""
    query = draw(queries(axes, max_variables))
    body_variables = sorted({v for atom in query.body for v in atom.variables()})
    arity = draw(st.integers(min_value=0, max_value=max_arity))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    head = tuple(rng.choice(body_variables) for _ in range(arity))
    return query.with_head(head)


class TestTreeInvariants:
    @SETTINGS
    @given(trees())
    def test_numberings_are_permutations(self, tree: Tree):
        n = len(tree)
        assert sorted(tree.pre) == list(range(n))
        assert sorted(tree.post) == list(range(n))
        assert sorted(tree.bflr) == list(range(n))

    @SETTINGS
    @given(trees())
    def test_descendant_interval_characterisation(self, tree: Tree):
        for u in tree.node_ids():
            for v in tree.node_ids():
                if u == v:
                    continue
                interval = tree.pre[u] < tree.pre[v] and tree.post[v] < tree.post[u]
                assert interval == holds(tree, Axis.CHILD_PLUS, u, v)

    @SETTINGS
    @given(trees())
    def test_each_non_root_has_exactly_one_parent(self, tree: Tree):
        for v in tree.node_ids():
            parents = [u for u in tree.node_ids() if holds(tree, Axis.CHILD, u, v)]
            if v == 0:
                assert parents == []
            else:
                assert len(parents) == 1

    @SETTINGS
    @given(trees())
    def test_following_partitions_disjoint_pairs(self, tree: Tree):
        """For distinct u, v exactly one of: u anc v, v anc u, F(u,v), F(v,u)."""
        for u in tree.node_ids():
            for v in tree.node_ids():
                if u == v:
                    continue
                relations = [
                    holds(tree, Axis.CHILD_PLUS, u, v),
                    holds(tree, Axis.CHILD_PLUS, v, u),
                    holds(tree, Axis.FOLLOWING, u, v),
                    holds(tree, Axis.FOLLOWING, v, u),
                ]
                assert sum(relations) == 1


class TestTheorem41Property:
    @SETTINGS
    @given(trees(max_size=12))
    def test_positive_x_property_claims(self, tree: Tree):
        for order in (Order.PRE, Order.POST, Order.BFLR):
            for axis in X_PROPERTY_AXES[order] & AX:
                assert has_x_property(tree, axis, order)


#: Theorem 4.1's axis groups, by the order they have the X-property for.
_ORDERS = (Order.PRE, Order.POST, Order.BFLR)


def _pin(query: ConjunctiveQuery, tree: Tree, data) -> dict:
    """Pin each variable with probability 1/4 (to a random node)."""
    pinned = {}
    for variable in query.variables():
        if data.draw(st.integers(min_value=0, max_value=3), label=f"pin {variable}?") == 0:
            pinned[variable] = data.draw(
                st.integers(min_value=0, max_value=len(tree) - 1), label=f"{variable} ="
            )
    return pinned


def _propagators(query: ConjunctiveQuery) -> list[Propagator]:
    """Every propagator that can prune ``query``: the walk needs an X-property order."""
    if compile_query(query).order is None:
        return [Propagator.SEMIJOIN]
    return [Propagator.SEMIJOIN, Propagator.WALK]


class TestPruningProperties:
    @SETTINGS
    @given(trees(max_size=12), queries((Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING)))
    def test_soundness_every_solution_survives(self, tree: Tree, query: ConjunctiveQuery):
        structure = TreeStructure(tree)
        compiled = compile_query(query)
        solutions = list(iter_solutions(query, structure, use_arc_consistency=False))
        for propagator in _propagators(query):
            result = candidate_supersets(compiled, structure, None, propagator)
            if solutions:
                assert result is not None
                for solution in solutions:
                    for variable, node in solution.items():
                        assert node in result.sorted_domain(variable)


class TestWalkProperties:
    """The pointer walk vs Proposition 3.1's Horn program (``tests/oracle.py``)."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees(), st.sampled_from(_ORDERS), st.data())
    def test_walk_matches_horn_on_every_axis_group(self, tree, order, data):
        axes = tuple(sorted(X_PROPERTY_AXES[order], key=str))
        query = data.draw(queries(axes, max_variables=5), label="query")
        structure = TreeStructure(tree)
        pinned = _pin(query, tree, data)
        horn = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        walk = least_valuation(compile_query(query), structure, pinned, order)
        assert (walk is None) == (horn is None)
        if horn is None:
            return
        least = {variable: column[0] for variable, column in walk.items()}
        assert least == oracle.minimum_valuation(structure, horn, order)
        ranks = rank(tree, order)
        for variable, column in walk.items():
            assert horn[variable] <= set(column)
            assert [ranks[node] for node in column] == sorted(ranks[node] for node in column)

    @SETTINGS
    @given(trees(), st.sampled_from(_ORDERS), st.data())
    def test_walk_propagator_verdict_and_columns_match_horn(self, tree, order, data):
        axes = tuple(sorted(X_PROPERTY_AXES[order] - {Axis.SELF}, key=str))
        query = data.draw(queries(axes, max_variables=5), label="query")
        structure = TreeStructure(tree)
        pinned = _pin(query, tree, data)
        horn = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        result = propagate(query, structure, pinned, Propagator.WALK)
        assert (result is None) == (horn is None)
        if result is not None:
            for variable, nodes in horn.items():
                column = list(result.sorted_domain(variable))
                assert column == sorted(column) and nodes <= set(column)

    def test_unsatisfiable_child_plus_triangle_on_a_long_path(self):
        """The walk refutes a directed ``Child+`` 3-cycle on a 2 000-node path in < 1 s."""
        structure = TreeStructure(chain(["A"] * 2000))
        query = parse_query("Q <- Child+(x, y), Child+(y, z), Child+(z, x)")
        started = time.perf_counter()
        assert propagate(query, structure, propagator=Propagator.WALK) is None
        assert time.perf_counter() - started < 1.0


class TestEvaluatorAgreementProperties:
    @SETTINGS
    @given(trees(max_size=14), queries((Axis.CHILD_PLUS, Axis.CHILD_STAR)))
    def test_xproperty_agrees_with_backtracking_pre_group(self, tree, query):
        structure = TreeStructure(tree)
        assert xp_holds(query, structure) == bt_holds(query, structure)

    @SETTINGS
    @given(trees(max_size=14), queries((Axis.FOLLOWING,)))
    def test_xproperty_agrees_with_backtracking_following(self, tree, query):
        structure = TreeStructure(tree)
        assert xp_holds(query, structure) == bt_holds(query, structure)

    @SETTINGS
    @given(
        trees(max_size=14),
        queries((Axis.CHILD, Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR)),
    )
    def test_xproperty_agrees_with_backtracking_bflr_group(self, tree, query):
        structure = TreeStructure(tree)
        assert xp_holds(query, structure) == bt_holds(query, structure)

    @SETTINGS
    @given(trees(max_size=12), queries((Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING)))
    def test_planner_agrees_with_backtracking_everywhere(self, tree, query):
        structure = TreeStructure(tree)
        assert is_satisfied(query, structure) == bt_holds(query, structure)


#: The tractable axis sets of Theorem 4.1 (one witnessing order each), plus an
#: NP-hard mix with inverse axes that only ever gets forest-shaped bodies.
_TRACTABLE_GROUPS = (
    (Axis.CHILD_PLUS, Axis.CHILD_STAR, Axis.DOCUMENT_ORDER, Axis.SUCC_PRE),
    (Axis.FOLLOWING,),
    (Axis.CHILD, Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR),
)
_MIXED_GROUP = (Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING, Axis.PARENT, Axis.PRECEDING_SIBLING)


class TestDecompositionEngineProperties:
    """The structural engine must agree with backtracking *exactly*.

    The matrix covers cyclic and acyclic shapes (the random atom soup produces
    both), each engine under the propagator the plan picks for it, random k-ary
    heads (including repeated head variables) and pinning; answers are
    compared as byte-identical sorted lists, which is what the serving layer
    ultimately emits.
    """

    @SETTINGS
    @given(
        trees(max_size=12),
        st.sampled_from(((Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING), *_TRACTABLE_GROUPS)),
        st.data(),
    )
    def test_answers_match_backtracking(self, tree, axes, data):
        query = data.draw(head_queries(axes), label="query")
        structure = TreeStructure(tree)
        expected = repr(oracle.answers(query, structure))
        assert repr(sorted(evaluate(query, structure, engine=Engine.DECOMPOSITION))) == expected
        assert repr(sorted(backtracking.answers(query, structure))) == expected

    @SETTINGS
    @given(
        trees(max_size=12),
        st.sampled_from(((Axis.CHILD, Axis.NEXT_SIBLING_PLUS, Axis.FOLLOWING), *_TRACTABLE_GROUPS)),
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    def test_boolean_with_pinning_matches_backtracking(self, tree, axes, seed, data):
        query = data.draw(queries(axes), label="query")
        structure = TreeStructure(tree)
        rng = random.Random(seed)
        variable = rng.choice(query.variables())
        pinned = {variable: rng.randrange(len(tree))}
        expected = bool(oracle.answers(query, structure, pinned))
        assert is_satisfied(query, structure, Engine.DECOMPOSITION, pinned) == expected
        assert bt_holds(query, structure, pinned=pinned) == expected

    @SETTINGS
    @given(trees(max_size=12), head_queries((Axis.CHILD_STAR, Axis.NEXT_SIBLING_STAR)))
    def test_reflexive_axes_match_backtracking(self, tree, query):
        structure = TreeStructure(tree)
        assert sorted(
            evaluate(query, structure, engine=Engine.DECOMPOSITION)
        ) == sorted(backtracking.answers(query, structure))

    @SETTINGS
    @given(trees(max_size=12), head_queries((Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING)))
    def test_planner_auto_matches_backtracking_with_heads(self, tree, query):
        # Whatever engine the planner picks (fixpoint / decomposition), the
        # answer list is the per-tuple reduction's.
        structure = TreeStructure(tree)
        assert sorted(evaluate(query, structure)) == sorted(
            backtracking.answers(query, structure)
        )


@st.composite
def edge_head_queries(draw) -> ConjunctiveQuery:
    """Acyclic and tractable-signature bodies with awkward k-ary heads.

    Forest-shaped bodies over any axis group (several components likely),
    cyclic atom soups over the tractable groups only; on top, verbatim
    duplicate atoms, the same constraint restated through the inverse axis
    (which takes the signature off the tractable side, not the answers),
    and self-loop atoms (possibly on a variable no other atom touches).  The
    head has arity 1-3 with repetition allowed, so ``Q(x, y, x)``, heads
    spanning components, heads on loop-only variables and monadic heads over
    a cyclic shadow all occur.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    group = draw(st.sampled_from(_TRACTABLE_GROUPS + (_MIXED_GROUP,)))
    forest = group is _MIXED_GROUP or draw(st.booleans())
    variables = [f"v{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    atoms: list = []
    if forest:
        for i in range(1, len(variables)):
            if rng.random() < 0.8:  # else: a new connected component
                pair = [variables[rng.randrange(i)], variables[i]]
                rng.shuffle(pair)
                atoms.append(AxisAtom(rng.choice(group), *pair))
    elif len(variables) >= 2:
        for _ in range(rng.randint(1, len(variables) + 2)):
            atoms.append(AxisAtom(rng.choice(group), *rng.sample(variables, 2)))
    if atoms and rng.random() < 0.3:
        atoms.append(rng.choice(atoms))
    if atoms and rng.random() < 0.2:  # restated through the inverse axis
        atom = rng.choice(atoms)
        if atom.axis in INVERSE:
            atoms.append(AxisAtom(INVERSE[atom.axis], atom.target, atom.source))
    if rng.random() < 0.3:
        loop_variable = rng.choice(variables)
        atoms.append(AxisAtom(rng.choice(group), loop_variable, loop_variable))
    for variable in variables:
        if rng.random() < 0.5 or not any(variable in atom.variables() for atom in atoms):
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    arity = draw(st.integers(min_value=1, max_value=3))
    head = tuple(rng.choice(variables) for _ in range(arity))
    return ConjunctiveQuery(head, tuple(atoms), "Q")


def _assert_fixpoint_refuses(query: ConjunctiveQuery, structure: TreeStructure) -> None:
    """A forced ``fixpoint`` on a query one fixpoint cannot answer: the one error."""
    with pytest.raises(ValueError, match="use the decomposition engine"):
        evaluate(query, structure, engine=Engine.FIXPOINT)


class TestDefaultEnumerationProperties:
    """Default routing vs the paper's per-tuple reduction vs the Horn oracle.

    ``evaluate()`` without an engine enumerates every non-projection head over
    the join tree; :func:`repro.evaluation.backtracking.answers` runs one
    pinned Boolean search per candidate head tuple.  The two must emit
    byte-identical sorted answers.
    """

    @staticmethod
    def _assert_all_agree(query: ConjunctiveQuery, structure: TreeStructure) -> None:
        default = repr(sorted(evaluate(query, structure)))
        assert repr(sorted(backtracking.answers(query, structure))) == default
        if fixpoint_answers(query, compile_query(query)):
            assert repr(sorted(evaluate(query, structure, engine=Engine.FIXPOINT))) == default
        else:
            _assert_fixpoint_refuses(query, structure)
        assert repr(oracle.answers(query, structure)) == default

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees(max_size=10), edge_head_queries())
    def test_default_matches_per_tuple_reduction_and_horn_oracle(self, tree, query):
        self._assert_all_agree(query, TreeStructure(tree))

    def test_named_edge_heads(self):
        shapes = [
            "Q(x, y, x) <- A(x), Child+(x, y), B(y)",  # repeated head variable
            "Q(x, y) <- A(x), B(y)",  # head across components, no axis atom
            "Q(x, y) <- A(x), Child(x, z), B(y), Following(y, w)",
            "Q(x, y) <- Child*(x, x), B(y)",  # head on a loop-only variable
            "Q(x, x) <- Child(x, x)",  # unsatisfiable loop
            "Q(x, y) <- A(x), Child(x, y), Parent(y, x), Child(x, y)",  # inverse + duplicate
            "Q(x) <- A(x), Child+(x, y), Child*(x, y)",  # monadic over a cyclic shadow
            "Q(y) <- Child+(x, y), Child*(y, z), Ancestor(x, z)",
            "Q(x, z) <- Child+(x, y), Child*(y, z), Child+(x, z)",  # cyclic, tractable, binary
        ]
        for seed in range(6):
            structure = TreeStructure(
                random_tree(9 + seed, alphabet=ALPHABET, max_children=3, seed=seed)
            )
            for text in shapes:
                self._assert_all_agree(parse_query(text), structure)


class TestEngineSetIsTheDichotomy:
    """Over cyclic bodies on every axis: three engines, and a fixpoint never lies."""

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trees(max_size=10),
        st.lists(st.sampled_from(tuple(Axis)), min_size=1, max_size=3, unique=True),
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_forced_fixpoint_answers_or_refuses(
        self, tree, axes, num_variables, extra_atoms, arity, seed
    ):
        body = random_cyclic_query(axes, num_variables, extra_atoms, alphabet=ALPHABET, seed=seed)
        rng = random.Random(seed)
        query = body.with_head(tuple(rng.choice(body.variables()) for _ in range(arity)))
        compiled = compile_query(query)
        assert tier(query, compiled, accel_only=True) is Engine.SQL
        routed = tier(query, compiled)
        assert routed in (Engine.FIXPOINT, Engine.DECOMPOSITION)
        structure = TreeStructure(tree)
        if routed is Engine.DECOMPOSITION:
            _assert_fixpoint_refuses(query, structure)
            return
        forced = sorted(evaluate(query, structure, engine=Engine.FIXPOINT))
        assert forced == oracle.answers(query, structure)


def _limits(count: int) -> list:
    return [None, 0, 1, 3, count, count + 1]


class TestAnswerPageContract:
    """``answer_page == (sorted(oracle)[:limit], len(oracle))`` on every route.

    What the serving core relies on instead of sorting and slicing itself:
    whatever engine a plan names, the rows come back ascending,
    cut at ``limit``, with the exact total.
    """

    @staticmethod
    def _plans(query: ConjunctiveQuery, tree: Tree):
        """Every plan ``plan_query`` can emit for ``query``, forced engines included."""
        stats = DocumentStats.of_tree(tree)
        for engine in (None, Engine.DECOMPOSITION, Engine.SQL, Engine.FIXPOINT):
            yield plan_query(query, stats, engine=engine)

    def _assert_contract(self, query: ConjunctiveQuery, tree: Tree) -> None:
        structure = TreeStructure(tree)
        expected = oracle.answers(query, structure)
        compiled = compile_query(query)
        seen = set()
        for plan in self._plans(query, tree):
            knobs = (plan.engine, plan.propagator, plan.lowering)
            if knobs in seen:
                continue
            seen.add(knobs)
            if plan.engine is Engine.FIXPOINT and not fixpoint_answers(query, compiled):
                _assert_fixpoint_refuses(query, structure)
                continue
            for limit in _limits(len(expected)):
                page = answer_page(query, structure, plan.engine, compiled, limit, plan.lowering)
                assert page == (expected[:limit], len(expected)), (knobs, limit)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trees(max_size=10),
        head_queries((Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING), max_arity=3),
    )
    def test_every_plan_on_random_atom_soups(self, tree, query):
        self._assert_contract(query, tree)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees(max_size=10), edge_head_queries())
    def test_every_plan_on_awkward_heads(self, tree, query):
        self._assert_contract(query, tree)

    def test_named_shapes(self):
        shapes = [
            "Q(x, x) <- A(x), Child+(x, y)",  # repeated head variable
            "Q <- A(x), Child+(x, y), Child+(x, z), Following(y, z)",  # Boolean, cyclic
            "Q(z, y, x) <- Child+(x, y), Child+(x, z), Following(y, z)",  # head against body order
            "Q(x, y) <- Child+(x, y), Child*(x, y)",  # one bag, two parallel atoms
            "Q(x, y) <- Child(z, x), Child(z, y), Following(x, y)",  # cyclic, existential apex
            "Q(x, w) <- Child+(x, y), Following(y, z), Child+(z, w)",  # multi-bag chain
            "Q(x, y) <- A(x), B(y)",  # two roots
            "Q(a, c) <- Child+(a, b), Child+(b, c), Following(c, d), Child+(a, d)",  # 4-cycle
        ]
        for seed in range(4):
            tree = random_tree(11 + seed, alphabet=ALPHABET, max_children=3, seed=seed)
            for text in shapes:
                self._assert_contract(parse_query(text), tree)

    @SETTINGS
    @given(
        trees(max_size=12),
        head_queries((Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING), max_arity=3),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_join_tree_pages_under_pinning(self, tree, query, seed):
        structure = TreeStructure(tree)
        rng = random.Random(seed)
        pinned = {rng.choice(query.variables()): rng.randrange(len(tree))}
        expected = oracle.answers(query, structure, pinned)
        for limit in _limits(len(expected)):
            page = yannakakis.answer_page(query, structure, pinned, limit=limit)
            assert page == (expected[:limit], len(expected)), limit


    # -- the level kernel vs the oracle --------------------------------------------

    @staticmethod
    def _assert_kernel_identity(query, structure, pinned) -> None:
        """The level kernel's page is the oracle page, for every limit."""
        expected = oracle.answers(query, structure, pinned)
        for limit in _limits(len(expected)):
            page = yannakakis.answer_page(query, structure, pinned, limit=limit)
            assert page == (expected[:limit], len(expected)), limit

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        trees(max_size=10),
        head_queries(tuple(Axis), max_arity=3),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_level_kernel_on_random_atom_soups_over_every_axis(self, tree, query, seed):
        structure = TreeStructure(tree)
        rng = random.Random(seed)
        pinned = None
        if rng.random() < 0.4:
            pinned = {rng.choice(query.variables()): rng.randrange(len(tree))}
        self._assert_kernel_identity(query, structure, pinned)

    def test_level_kernel_named_shapes(self):
        triangle = "A(a), Child(a, b1), Child(a, b2), Following(b1, b2)"
        pair = "A(s), Child+(s, x), B(x), Child+(s, y), Following(x, y)"
        shapes = [
            f"Q(a, b1, b2) <- {triangle}",  # walk driver cut by a range atom
            f"Q(s, x, y) <- {pair}",  # two range atoms on one level
            f"Q(a, b1) <- {triangle}",  # one trailing witness level: tested
            f"Q(a) <- {triangle}",  # a witness suffix two deep: searched
            f"Q <- {triangle}",  # a Boolean bag
            f"Q(b2, a, a) <- {triangle}",  # head against the body, repeated
            "Q(p, x, y) <- Child(p, x), Child(p, y), NextSibling(x, y)",  # residual check
            "Q(x, y) <- NextSibling+(x, y), NextSibling*(z, x), A(z)",  # sibling windows
            "Q(y, x) <- B(x), PrecedingSibling(x, y)",  # earlier siblings
            "Q(a, c) <- Child+(a, b), Child+(b, c), Following(c, d), Child+(a, d)",  # 4-cycle
            "Q(x, w) <- Child+(x, y), Following(y, z), Child+(z, w)",  # multi-bag chain
            "Q(x, y, z) <- Child*(y, x), DocumentOrder(x, z), DocumentOrder(z, y)",  # no window
            "Q(x, y) <- Child(z, x), Child(z, y)",  # a projection that needs the dedupe
            "Q(x, y) <- A(x), B(y), SuccPre(y, z)",  # cross product, point witness
        ]
        for seed in range(4):
            tree = random_tree(10 + seed, alphabet=ALPHABET, max_children=3, seed=seed)
            structure = TreeStructure(tree)
            for text in shapes:
                query = parse_query(text)
                self._assert_kernel_identity(query, structure, None)
                pinned = {query.variables()[0]: seed + 1}
                self._assert_kernel_identity(query, structure, pinned)


class TestRewritingProperties:
    @SETTINGS
    @given(trees(max_size=10), queries((Axis.CHILD, Axis.CHILD_PLUS, Axis.CHILD_STAR), 3))
    def test_to_apq_preserves_boolean_semantics(self, tree, query):
        apq = to_apq(query)
        assert all(is_acyclic(disjunct) for disjunct in apq)
        expected = bool(evaluate_on_tree(query, tree))
        rewritten = any(bool(evaluate_on_tree(disjunct, tree)) for disjunct in apq)
        assert expected == rewritten

    @SETTINGS
    @given(
        trees(max_size=10),
        queries((Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS, Axis.CHILD), 3),
    )
    def test_to_apq_preserves_semantics_sibling_family(self, tree, query):
        apq = to_apq(query)
        expected = bool(evaluate_on_tree(query, tree))
        rewritten = any(bool(evaluate_on_tree(disjunct, tree)) for disjunct in apq)
        assert expected == rewritten

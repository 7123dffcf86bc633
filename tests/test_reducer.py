"""The semijoin full reducer (``Propagator.SEMIJOIN``) against Proposition 3.1.

Over a forest-shaped body two directional semijoin sweeps must land on exactly
the subset-maximal arc-consistent prevaluation of the Horn program
(``tests/oracle.py``):

* ``propagate(..., "semijoin")``'s columns equal the Horn-SAT ground truth,
  set for set, on random forest-shaped queries over all nine churn axes plus
  the inverse axes -- multi-label variables, self-loops, several components,
  pinning, unsatisfiable instances;
* sorted answers through ``evaluate`` are the same under every engine;
* ``propagate(..., "semijoin")`` sweeps leaves to root only: the component
  roots are exact before anything else is read, one non-root read runs the
  root-to-leaves sweep once, and a default-routed monadic or Boolean request
  (traced or not) makes one semijoin per edge;
* every read of the ``Child+``/``Child*`` semijoin -- one window per stair
  of the support's staircase, the ancestor walk, a bisection per candidate --
  agrees with a brute-force semijoin on random trees, deep paths, nested and
  full supports and the identity column, and a full support costs one
  window (backward) or a closed form (forward);
* on a cyclic body the sweeps run along a spanning forest and land between
  the initial domains and the exact fixpoint (sound supersets -- all the
  decomposition engine and the backtracking search need), while
  ``propagate`` refuses them naming the walk, and the fixpoint engine refuses
  the body with a typed client error that names the decomposition engine,
  end to end.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from repro.evaluation import (
    Engine,
    Propagator,
    answer_page,
    backtracking,
    compile_query,
    evaluate,
    propagate,
    xprop_evaluator,
)
from repro.evaluation import reducer
from repro.evaluation.planner import fixpoint_answers
from repro.queries import ConjunctiveQuery, parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.service.cache import QueryCache
from repro.service.core import Request, run_request
from repro.service.store import DocumentStore
from repro.trees import Axis, Node, Tree, TreeStructure, random_path, random_tree
from repro.trees.axes import INVERSE
from repro.trees.columnar import expand_windows

SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ALPHABET = ("A", "B", "C")
#: An extra (non-label) unary relation, so multi-label variables intersect
#: a label column with something that is not a label column.
EXTRA = "X"

#: The nine axes of the e2e churn generator (``benchmarks/e2e/workloads.py``).
CHURN_AXES = (
    Axis.CHILD,
    Axis.CHILD_PLUS,
    Axis.CHILD_STAR,
    Axis.NEXT_SIBLING,
    Axis.NEXT_SIBLING_PLUS,
    Axis.NEXT_SIBLING_STAR,
    Axis.FOLLOWING,
    Axis.DOCUMENT_ORDER,
    Axis.SUCC_PRE,
)
INVERSE_AXES = (
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.ANCESTOR_OR_SELF,
    Axis.PREVIOUS_SIBLING,
    Axis.PRECEDING_SIBLING,
    Axis.PRECEDING,
)
ALL_AXES = CHURN_AXES + INVERSE_AXES + (Axis.SELF,)

TRIANGLE = "Q(a) <- A(a), Child+(a, b), B(b), Following(a, c), Following(b, c), C(c)"
#: A cyclic Boolean body over the pre-order group (Theorem 4.1): the walk's.
TRACTABLE_CYCLE = "Q <- A(a), Child+(a, b), B(b), Child*(b, c), Child+(a, c), C(c)"


@st.composite
def structures(draw, max_size: int = 18) -> TreeStructure:
    size = draw(st.integers(min_value=1, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    tree = random_tree(
        size,
        alphabet=ALPHABET,
        max_children=draw(st.sampled_from([2, 4])),
        multi_label_probability=0.3,
        unlabeled_probability=draw(st.sampled_from([0.0, 0.3])),
        seed=seed,
    )
    rng = random.Random(seed)
    extra = [node for node in range(size) if rng.random() < 0.6]
    return TreeStructure(tree, extra_unary={EXTRA: extra})


@st.composite
def forest_queries(
    draw, min_variables: int = 1, label_counts: tuple[int, ...] = (0, 1, 1, 2, 3)
) -> ConjunctiveQuery:
    """Forest-shaped bodies: several components, loops, restated atoms, 0-3 labels."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    count = draw(st.integers(min_value=min_variables, max_value=5))
    variables = [f"v{i}" for i in range(count)]
    atoms: list = []
    for i in range(1, len(variables)):
        if rng.random() < 0.8:  # else: a new connected component
            pair = [variables[rng.randrange(i)], variables[i]]
            rng.shuffle(pair)
            atoms.append(AxisAtom(rng.choice(ALL_AXES), *pair))
    if atoms and rng.random() < 0.2:
        atoms.append(rng.choice(atoms))
    if atoms and rng.random() < 0.2:  # the same constraint through the inverse axis
        atom = rng.choice(atoms)
        if atom.axis in INVERSE:
            atoms.append(AxisAtom(INVERSE[atom.axis], atom.target, atom.source))
    if rng.random() < 0.3:
        loop_variable = rng.choice(variables)
        atoms.append(AxisAtom(rng.choice(ALL_AXES), loop_variable, loop_variable))
    for variable in variables:
        touched = any(variable in atom.variables() for atom in atoms)
        for label in rng.sample(ALPHABET + (EXTRA,), rng.choice(label_counts)):
            atoms.append(LabelAtom(label, variable))
            touched = True
        if not touched:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    head = tuple(rng.choice(variables) for _ in range(draw(st.integers(0, 2))))
    query = ConjunctiveQuery(head, tuple(atoms), "Q")
    assume(compile_query(query).shadow_is_forest)
    return query


def _pin(data, query: ConjunctiveQuery, structure: TreeStructure):
    if not data.draw(st.booleans(), label="pin a variable"):
        return None
    variable = data.draw(st.sampled_from(query.variables()), label="pinned variable")
    node = data.draw(st.integers(0, structure.domain_size - 1), label="pinned node")
    return {variable: node}


class TestFixpointEquality:
    @SETTINGS
    @given(structures(), forest_queries(), st.data())
    def test_domains_equal_horn(self, structure, query, data):
        pinned = _pin(data, query, structure)
        result = propagate(query, structure, pinned, Propagator.SEMIJOIN)
        reference = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        assert (result is None) == (reference is None)
        if result is not None:
            assert oracle.domains_of(result, query) == reference
            for variable, nodes in reference.items():
                assert result.sorted_domain(variable) == sorted(nodes)
                assert list(result.views[variable].array) == sorted(nodes)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(structures(max_size=10), forest_queries())
    def test_answers_equal_under_every_engine(self, structure, query):
        expected = oracle.answers(query, structure)
        engines = [Engine.AUTO, Engine.DECOMPOSITION]
        if fixpoint_answers(query, compile_query(query)):
            engines.append(Engine.FIXPOINT)
        for engine in engines:
            found = evaluate(query, structure, engine=engine)
            assert repr(sorted(found)) == repr(expected), engine
        assert repr(sorted(backtracking.answers(query, structure))) == repr(expected)


@st.composite
def atom_soups(draw) -> ConjunctiveQuery:
    """Cyclic and forest-shaped bodies alike: random atoms over 2-4 variables."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    variables = [f"v{i}" for i in range(draw(st.integers(min_value=2, max_value=4)))]
    atoms: list = [
        AxisAtom(rng.choice(ALL_AXES), *rng.sample(variables, 2))
        for _ in range(draw(st.integers(min_value=1, max_value=len(variables) + 2)))
    ]
    if rng.random() < 0.3:
        loop_variable = rng.choice(variables)
        atoms.append(AxisAtom(rng.choice(ALL_AXES), loop_variable, loop_variable))
    for variable in variables:
        if rng.random() < 0.5 or not any(variable in atom.variables() for atom in atoms):
            atoms.append(LabelAtom(rng.choice(ALPHABET + (EXTRA,)), variable))
    head = tuple(rng.choice(variables) for _ in range(draw(st.integers(0, 2))))
    return ConjunctiveQuery(head, tuple(atoms), "Q")


def _counting_semijoins():
    return mock.patch.object(reducer, "_semijoin", wraps=reducer._semijoin)


class TestOneSweepContract:
    """The root-to-leaves sweep runs at most once, and only for a non-root read."""

    # Three or more variables with at most one label each: enough satisfiable
    # bodies with non-root variables that the upward sweep leaves inexact.
    @SETTINGS
    @given(structures(), forest_queries(min_variables=3, label_counts=(0, 0, 1)), st.data())
    def test_roots_first_then_every_column_equal_horn(self, structure, query, data):
        pinned = _pin(data, query, structure)
        compiled = compile_query(query)
        horn = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        with _counting_semijoins() as semijoin:
            result = propagate(compiled, structure, pinned, Propagator.SEMIJOIN)
            assert (result is None) == (horn is None)
            if result is None:
                return
            roots = sorted(compiled.sweep_roots)
            for root in roots:
                assert result.sorted_domain(root) == sorted(horn[root]), root
            assert semijoin.call_count == len(compiled.sweep_order)
            others = [variable for variable in compiled.variables if variable not in roots]
            if others:
                first = data.draw(st.sampled_from(others), label="first non-root read")
                assert result.sorted_domain(first) == sorted(horn[first])
        for variable in compiled.variables:
            assert result.sorted_domain(variable) == sorted(horn[variable]), variable
        assert oracle.domains_of(result, compiled) == horn

    @pytest.mark.parametrize(
        "text, answers",
        [
            ("Q(x) <- Child+(r, x)", [(node,) for node in range(1, 9)]),
            ("Q <- NP(x), Following(x, y), PP(y)", [()]),
        ],
    )
    def test_default_routed_monadic_and_boolean_requests_sweep_once(
        self, sentence_tree, text, answers
    ):
        store, cache = DocumentStore(), QueryCache()
        store.register_tree("doc", sentence_tree)
        edges = len(compile_query(parse_query(text)).sweep_order)
        for debug in (False, True):
            with _counting_semijoins() as semijoin, mock.patch.object(
                xprop_evaluator, "least_valuation", side_effect=AssertionError
            ):
                served = run_request(store, cache, Request(doc="doc", query=text, debug=debug))
            assert served.ok and served.propagator == "semijoin", debug
            assert served.answers == answers, debug
            assert semijoin.call_count == edges, debug
        # The trace reports what ran: one sweep, the sizes it settled.
        propagated = served.trace["children"]
        while propagated[0]["name"] != "propagate":
            propagated = [child for node in propagated for child in node.get("children", ())]
        attributes = propagated[0]["attributes"]
        assert attributes["sweeps"] == ["leaves_to_root"]
        assert len(attributes["domains_after"]) == len(compile_query(parse_query(text)).sweep_roots)

    def test_a_non_root_read_sweeps_down_once(self, sentence_structure):
        compiled = compile_query(
            parse_query("Q(x) <- NP(x), Child(x, y), NN(y), Following(x, z), PP(z)")
        )
        edges = len(compiled.sweep_order)
        with _counting_semijoins() as semijoin:
            result = propagate(compiled, sentence_structure, propagator="semijoin")
            assert semijoin.call_count == edges
            assert result.sorted_domain("x") == [1, 6] and semijoin.call_count == edges
            assert result.sorted_domain("y") == [3, 7] and semijoin.call_count == 2 * edges
            assert result.sorted_domain("z") == [8]
            assert list(result.views["y"].array) == [3, 7]
            assert result.domain_sizes() == {"x": 2, "y": 2, "z": 1}
            assert semijoin.call_count == 2 * edges

    def test_views_are_built_one_variable_at_a_time(self, sentence_structure):
        compiled = compile_query(
            parse_query("Q(x) <- NP(x), Child(x, y), NN(y), Following(x, z), PP(z)")
        )
        index = sentence_structure.index
        result = propagate(compiled, sentence_structure, propagator="semijoin")
        with mock.patch.object(index, "view", wraps=index.view) as view:
            views = result.views
            assert view.call_count == 0
            first = views["y"]
            assert view.call_count == 1 and views["y"] is first
            assert sorted(views) == sorted(compiled.variables) and len(views) == 3
        # Each view is the one the whole mapping used to be built of at once.
        for variable in compiled.variables:
            eager = index.view(result.sorted_domain(variable), presorted=True)
            assert views[variable].array == eager.array


class TestSweepsAreSoundSupersets:
    @SETTINGS
    @given(structures(), atom_soups(), st.data())
    def test_initial_domains_contain_sweeps_contain_the_fixpoint(self, structure, query, data):
        pinned = _pin(data, query, structure)
        compiled = compile_query(query)
        swept = reducer.semijoin_sweeps(compiled, structure, pinned)
        exact = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        if swept is None:
            assert exact is None  # an empty superset refutes the query
            return
        initial = oracle.initial_domains(compiled, structure, pinned)
        for variable, column in swept.items():
            assert column == sorted(set(column)) and set(column) <= initial[variable]
            if exact is not None:
                assert exact[variable] <= set(column), variable
                if compiled.shadow_is_forest:
                    assert exact[variable] == set(column), variable
        if compiled.shadow_is_forest:
            assert exact is not None


#: The size rules forced to either read, or left as they are (``rule``): at 0
#: every ``Child+``/``Child*`` semijoin reads in bulk (one window per stair
#: backward, the ancestor walk forward), at an unreachable ratio each candidate
#: bisects.
READS = {"bulk": 0, "per_candidate": 10**9, "rule": None}
#: Each direction's crossover: backward per stair, forward per support node.
CROSSOVERS = {False: "WATCHED_PER_STAIR", True: "WATCHED_PER_SUPPORT"}


@st.composite
def subtree_cases(draw):
    """A random tree or a deep path, then a watched and a support column.

    Supports are random, nested (every node on one root path, with some of
    their subtrees), full or all nodes but one; watched columns random, or the
    identity column itself (which the backward read cuts into ranges without
    a bisection).
    """
    size = draw(st.integers(min_value=1, max_value=40), label="size")
    seed = draw(st.integers(min_value=0, max_value=10_000), label="seed")
    if draw(st.booleans(), label="deep path"):
        tree = random_path(size, alphabet=ALPHABET, seed=seed)
    else:
        tree = random_tree(size, alphabet=ALPHABET, max_children=3, seed=seed)
    structure = TreeStructure(tree)
    index, rng = structure.index, random.Random(seed)
    nodes = range(structure.domain_size)
    kind = draw(st.sampled_from(["random", "nested", "full", "all but one"]), label="support")
    if kind == "full":
        support = index.pre
    elif kind == "all but one" and len(nodes) > 1:
        missing = rng.choice(nodes)
        support = [node for node in nodes if node != missing]
    elif kind == "nested":
        bottom = rng.choice(nodes)
        chain = set(tree.path_to_root(bottom))
        below = [u for u in nodes if any(tree.is_descendant(a, u) for a in chain)]
        support = sorted(chain.union(u for u in below if rng.random() < 0.3))
    else:
        support = sorted(rng.sample(nodes, rng.randint(1, len(nodes))))
    if draw(st.booleans(), label="identity watched"):
        watched = index.pre
    else:
        watched = sorted(rng.sample(nodes, rng.randint(1, len(nodes))))
    return structure, watched, support


def _brute_semijoin(tree, watched, support, forward, reflexive):
    """The watched nodes with a ``Child+`` (``Child*``) partner in the support, by parent chains."""

    def ancestors(node):
        found = {node} if reflexive else set()
        node = tree.parent[node]
        while node >= 0:
            found.add(node)
            node = tree.parent[node]
        return found

    if forward:  # u needs a descendant: u is an ancestor of a support node
        above = set().union(*map(ancestors, support))
        return [u for u in watched if u in above]
    members = set(support)
    return [w for w in watched if ancestors(w) & members]


class TestSubtreeKernel:
    """Every read of the ``Child+``/``Child*`` semijoin vs brute force."""

    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("reflexive", [False, True], ids=["strict", "reflexive"])
    @pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
    @SETTINGS
    @given(case=subtree_cases())
    def test_each_read_equals_brute_force(self, forward, reflexive, read, case):
        structure, watched, support = case
        expected = _brute_semijoin(structure.tree, watched, support, forward, reflexive)
        crossover = CROSSOVERS[forward]
        forced = getattr(reducer, crossover) if READS[read] is None else READS[read]
        # The other direction's crossover is forced the other way: it must not matter.
        other = 10**9 if READS[read] == 0 else 0
        with mock.patch.multiple(reducer, **{crossover: forced, CROSSOVERS[not forward]: other}):
            found = reducer._subtree_semijoin(watched, support, forward, reflexive, structure.index)
            # The same column as a plain list, not the identity column itself.
            copied = reducer._subtree_semijoin(
                list(watched), support, forward, reflexive, structure.index
            )
        assert list(found) == list(copied) == expected

    @pytest.mark.parametrize("forward", [False, True], ids=["backward", "forward"])
    def test_each_direction_reads_by_its_own_crossover(self, forward):
        """Forward walks from one watched candidate per support node, backward
        reads windows from two per stair; each rule moves its own read only."""
        index = TreeStructure(random_tree(200, alphabet=ALPHABET, max_children=3, seed=4)).index
        # Ten leaves: ten support nodes, and as many stairs.
        support = [u for u in range(100, 200) if index.subtree_end[u] == u][:10]
        bisections, windows = [], _recorded_windows()

        def counted(*arguments):
            bisections.append(arguments)
            return bisect_right(*arguments)

        other = CROSSOVERS[not forward]

        def read(size, forced_other=None):
            bisections.clear()
            windows.calls.clear()
            if forced_other is None:
                forced_other = getattr(reducer, other)
            with mock.patch.multiple(
                reducer, bisect_right=counted, expand_windows=windows, **{other: forced_other}
            ):
                reducer._subtree_semijoin(list(range(size)), support, forward, False, index)
            # Forward bisects only per candidate; backward cuts windows only in bulk.
            bulk = not bisections if forward else bool(windows.calls)
            return "bulk" if bulk else "per_candidate"

        assert len(support) == 10
        at = 10 * (reducer.WATCHED_PER_SUPPORT if forward else reducer.WATCHED_PER_STAIR)
        assert (read(at), read(at - 1)) == ("bulk", "per_candidate")
        # Forcing the other direction's crossover either way changes nothing here.
        for forced in (0, 10**9):
            assert (read(at, forced), read(at - 1, forced)) == ("bulk", "per_candidate")
        assert (reducer.WATCHED_PER_SUPPORT, reducer.WATCHED_PER_STAIR) == (1, 2)

    def test_the_ancestor_walk_climbs_each_ancestor_once(self):
        # A broom: 60 leaves below one 300-node handle.  Walking up from every
        # leaf would read the handle's parents 60 times over; the walk stops
        # at the first node already marked.
        root = handle = Node(("A",))
        for _ in range(299):
            handle = handle.add(("A",))
        for _ in range(60):
            handle.add(("B",))
        index = TreeStructure(Tree(root)).index
        reads = []

        class CountingParents(list):
            def __getitem__(self, node):
                reads.append(node)
                return list.__getitem__(self, node)

        counted = SimpleNamespace(
            n=index.n,
            pre=index.pre,
            subtree_end=index.subtree_end,
            parent=CountingParents(index.parent),
        )
        leaves = list(range(300, 360))
        found = reducer._subtree_semijoin(index.pre, leaves, True, False, counted)
        assert found == list(range(300))
        assert len(reads) <= 300 + len(leaves)


class TestFullDomainSupport:
    """A support column holding every node: a closed form forward, the root's stair backward."""

    @SETTINGS
    @given(structures(max_size=30), st.data())
    def test_forward_closed_form_equals_the_subtree_kernel(self, structure, data):
        index = structure.index
        nodes = st.lists(st.integers(0, index.n - 1), min_size=1, unique=True).map(sorted)
        watched = data.draw(nodes, label="watched")
        for axis in (Axis.CHILD_PLUS, Axis.CHILD_STAR):
            expected = reducer._subtree_semijoin(
                watched, list(index.pre), True, axis is Axis.CHILD_STAR, index
            )
            with mock.patch.object(reducer, "_subtree_semijoin", side_effect=AssertionError):
                found = reducer._semijoin(axis, watched, index.pre, True, structure)
            assert list(found) == expected, axis

    @SETTINGS
    @given(structures(max_size=30), st.data())
    def test_backward_reads_one_window_below_the_root(self, structure, data):
        index = structure.index
        nodes = st.lists(st.integers(0, index.n - 1), min_size=1, unique=True).map(sorted)
        watched = data.draw(st.one_of(nodes, st.just(index.pre)), label="watched")
        for axis in (Axis.CHILD_PLUS, Axis.CHILD_STAR):
            windows = _recorded_windows()
            with mock.patch.object(reducer, "expand_windows", windows):
                found = reducer._semijoin(axis, watched, index.pre, False, structure)
            strict = axis is Axis.CHILD_PLUS and watched[0] == 0
            assert list(found) == list(watched[1:] if strict else watched), axis
            # The staircase is the root alone: one window, or one stair to bisect.
            bulk = watched is index.pre or len(watched) >= reducer.WATCHED_PER_STAIR
            assert [len(lo) for _, lo, _ in windows.calls] == ([1] if bulk else []), axis

    @SETTINGS
    @given(structures(), st.data())
    def test_unlabeled_endpoints_match_horn(self, structure, data):
        text = data.draw(
            st.sampled_from(
                [
                    "Q(x) <- Child+(r, x)",  # the e2e `answers_10k` slot
                    "Q(r) <- Child+(r, x)",
                    "Q(x) <- Child*(r, x)",
                    "Q(r) <- Child*(r, x), A(x)",
                    "Q(x) <- A(x), Child+(x, y)",
                    "Q(x) <- B(x), Ancestor(x, y), Child+(y, z)",
                ]
            )
        )
        query = parse_query(text)
        pinned = _pin(data, query, structure)
        result = propagate(query, structure, pinned, Propagator.SEMIJOIN)
        reference = oracle.maximal_arc_consistent_horn(query, structure, pinned)
        assert (result is None) == (reference is None)
        if result is not None:
            assert oracle.domains_of(result, query) == reference

    def test_the_upward_semijoin_of_the_answers_slot_reads_one_range(self):
        structure = TreeStructure(random_tree(200, alphabet=ALPHABET, max_children=3, seed=9))
        query = parse_query("Q(x) <- Child+(r, x)")
        windows = _recorded_windows()
        with mock.patch.object(reducer, "expand_windows", windows):
            result = propagate(query, structure, propagator="semijoin")
        # Both columns are the identity: one stair (the root), cut unbisected.
        assert windows.calls == [(structure.index.pre, [1], [200])]
        assert result.sorted_domain("x") == list(range(1, 200))
        assert oracle.domains_of(result, query) == oracle.maximal_arc_consistent_horn(
            query, structure
        )


def _recorded_windows():
    """A stand-in for ``reducer.expand_windows`` that records its windows."""

    def windows(base, lo, hi):
        lo, hi = list(lo), list(hi)
        windows.calls.append((base, lo, hi))
        return expand_windows(base, lo, hi)

    windows.calls = []
    return windows


class TestNamedCases:
    def test_sweep_order_is_head_rooted_and_parents_first(self):
        compiled = compile_query(
            parse_query("Q(c) <- Child(a, b), Child+(b, c), Following(c, d), A(e), Child(e, f)")
        )
        order = compiled.sweep_order
        placed: set = set()
        roots = []
        for child, atom in order:
            parent = atom.other(child)
            if parent not in placed:  # only a component root has no edge above it
                roots.append(parent)
                placed.add(parent)
            assert child not in placed
            placed.add(child)
        assert roots == ["c", "e"]  # the head variable, then the first one left
        assert placed == set(compiled.variables)
        assert compiled.sweep_order is order  # memoized on the compiled artifact

    def test_unsatisfiable_and_empty_domains(self, sentence_structure):
        for text, pinned in (
            ("Q(x) <- ZZ(x)", None),  # a label the tree does not have
            ("Q(x) <- NP(x), PP(x)", None),  # an empty multi-label intersection
            ("Q(x) <- NP(x), Child(x, x)", None),  # an unsatisfiable loop
            ("Q(x) <- PP(x), Child(x, y)", None),  # the only PP is a leaf
            ("Q(x) <- NP(x), Child(x, y), NN(y)", {"x": 4}),  # pinned off the label
            ("Q(x) <- NP(x), Child(x, y), NN(y)", {"y": 99}),  # pinned off the document
        ):
            query = parse_query(text)
            assert propagate(query, sentence_structure, pinned, "semijoin") is None, text
            assert oracle.maximal_arc_consistent_horn(query, sentence_structure, pinned) is None
        with pytest.raises(ValueError, match="not in the query"):
            propagate(parse_query("Q(x) <- NP(x)"), sentence_structure, {"z": 1}, "semijoin")

    def test_roots_hand_over_resident_columns_and_swept_ones_are_fresh(
        self, sentence_structure
    ):
        # An isolated variable's column goes through no semijoin at all: read
        # as a sweep root, it is the resident label column itself.
        query = parse_query("Q(x, y) <- NP(x), NN(y), Child*(y, y)")
        resident = sentence_structure.unary_members("NP")
        before = list(resident)
        result = propagate(query, sentence_structure, propagator="semijoin")
        assert result.sorted_domain("x") is resident
        # Once the root-to-leaves sweep has run, every column is a fresh list.
        result.domain_sizes()
        column = result.sorted_domain("x")
        assert column == before and column is not resident
        column.append(-1)
        assert resident == before
        assert sentence_structure.tree.nodes_with_label("NP") == before
        unlabeled = propagate(
            parse_query("Q(x) <- Self(x, x)"), sentence_structure, propagator="semijoin"
        )
        unlabeled.sorted_domain("x").clear()
        assert sentence_structure.index.pre == list(range(9))
        # A monadic head without edges is a root the upward sweep never
        # narrowed: its page is the resident column, which reading leaves as it was.
        monadic = parse_query("Q(x) <- NP(x), NN(y), Child*(y, y)")
        page, count = answer_page(monadic, sentence_structure)
        assert (page, count) == ([(node,) for node in before], len(before))
        assert page.columns[0] is resident
        assert resident == before

    def test_planner_picks_it_for_forests_and_decomposition(self):
        tree = random_tree(60, alphabet=ALPHABET, max_children=3, seed=3)
        store, cache = DocumentStore(), QueryCache()
        store.register_tree("doc", tree)
        forest = "Q(a) <- A(a), Child+(a, b), B(b)"
        served = run_request(store, cache, Request(doc="doc", query=forest))
        assert served.ok and served.propagator == "semijoin"
        joined = run_request(store, cache, Request(doc="doc", query=forest, engine="decomposition"))
        assert joined.propagator == "semijoin" and joined.answers == served.answers
        # A cyclic body gets the sweeps too, as candidate supersets in front
        # of the decomposition engine; the fixpoint engine on a tractable
        # cyclic body walks.
        cyclic = run_request(store, cache, Request(doc="doc", query=TRIANGLE))
        assert cyclic.ok and (cyclic.engine, cyclic.propagator) == ("decomposition", "semijoin")
        walked = run_request(store, cache, Request(doc="doc", query=TRACTABLE_CYCLE))
        assert walked.ok and (walked.engine, walked.propagator) == ("fixpoint", "walk")


class TestCyclicBodiesAreRefused:
    def test_library_call_raises_a_value_error_naming_the_walk(self, sentence_structure):
        with pytest.raises(ValueError, match="forest-shaped body; use walk on cyclic queries"):
            propagate(parse_query(TRIANGLE), sentence_structure, propagator="semijoin")

    @pytest.mark.parametrize(
        "text", [TRIANGLE, TRIANGLE.replace("Q(a)", "Q")], ids=["monadic", "boolean"]
    )
    def test_run_request_reports_a_client_error_with_attribution(self, text):
        """The fixpoint engine refuses a cyclic NP-hard body; the decomposition engine serves it."""
        tree = random_tree(60, alphabet=ALPHABET, max_children=3, seed=3)
        store, cache = DocumentStore(), QueryCache()
        store.register_tree("doc", tree)
        result = run_request(store, cache, Request(doc="doc", query=text, engine="fixpoint"))
        assert not result.ok
        assert "use the decomposition engine" in result.error
        assert not result.error.startswith("internal:")
        assert (result.engine, result.propagator) == ("fixpoint", "semijoin")
        body = result.to_json_dict()
        assert body["propagator"] == "semijoin" and body["engine"] == result.engine
        # The next request on the same store is unaffected, and the engine
        # that takes the sweeps as supersets serves the same body.
        plain = run_request(store, cache, Request(doc="doc", query=text))
        assert plain.ok and (plain.engine, plain.propagator) == ("decomposition", "semijoin")
        swept = run_request(store, cache, Request(doc="doc", query=text, engine="decomposition"))
        assert swept.ok and swept.propagator == "semijoin"
        assert swept.answers == plain.answers

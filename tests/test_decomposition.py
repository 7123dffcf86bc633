"""Tests for the structural decomposition engine.

Covers the three layers of ``repro.decomposition`` -- the hypergraph/GYO
acyclicity test, the tree-decomposition search, the Yannakakis evaluator --
plus the planner routing, the compiled-query caching and the index's witness
enumeration primitives the evaluator is built on.
"""

from __future__ import annotations

import functools
import random
import sys

import pytest

import oracle
from repro.decomposition import (
    Hypergraph,
    TreeDecomposition,
    decompose_hypergraph,
    evaluate_answers,
    exact_elimination_order,
    gyo_reduction,
    is_alpha_acyclic,
    min_degree_order,
    min_fill_order,
    query_hypergraph,
)
from repro.decomposition.decompose import (
    EXACT_VERTEX_LIMIT,
    atom_pair_costs,
    decomposition_from_order,
    root_at_head,
)
from repro.evaluation import (
    Engine,
    PropagationResult,
    compile_query,
    evaluate,
    is_satisfied,
)
from repro.planning import DocumentStats, plan_query
from repro.queries import ConjunctiveQuery, is_acyclic, parse_query
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.trees import Axis, TreeStructure, random_tree
from repro.trees.axes import predecessors as reference_predecessors
from repro.trees.axes import successors as reference_successors

TRIANGLE = "Q <- A(x), Child+(x, y), Child+(x, z), Following(y, z)"
DIAMOND = (
    "Q <- Child+(x, y), Child+(x, z), Following(y, z), Child+(y, w), Child+(z, w)"
)
K4 = (
    "Q <- Child(a, b), Child+(a, c), Following(a, d), "
    "Child+(b, c), Child(b, d), Following(c, d)"
)


def _graph(edges):
    vertices = sorted({v for edge in edges for v in edge})
    return Hypergraph.of_edges(vertices, edges)


class TestHypergraphGYO:
    def test_path_is_alpha_acyclic(self):
        assert is_alpha_acyclic(_graph([("a", "b"), ("b", "c"), ("c", "d")]))

    def test_triangle_is_not_alpha_acyclic(self):
        assert not is_alpha_acyclic(_graph([("a", "b"), ("b", "c"), ("c", "a")]))

    def test_triangle_plus_covering_edge_is_alpha_acyclic(self):
        # The classical example: adding the 3-ary edge {a,b,c} makes the
        # triangle alpha-acyclic (the big edge absorbs the small ones).
        hypergraph = Hypergraph.of_edges(
            ("a", "b", "c"),
            [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b", "c")],
        )
        assert is_alpha_acyclic(hypergraph)

    def test_parallel_binary_edges_are_absorbed(self):
        # Unlike the paper's shadow-multigraph notion, duplicated vertex sets
        # do not make a hypergraph cyclic.
        assert is_alpha_acyclic(_graph([("a", "b"), ("a", "b")]))

    def test_join_forest_children_precede_parents(self):
        hypergraph = _graph([("a", "b"), ("b", "c"), ("c", "d")])
        result = gyo_reduction(hypergraph)
        assert result.acyclic
        seen = set()
        for index in result.elimination_order:
            parent = result.parent[index]
            assert parent == -1 or parent not in seen
            seen.add(index)

    def test_gyo_matches_query_graph_acyclicity_on_random_queries(self):
        # On binary-edge hypergraphs *without* parallel atoms, GYO acyclicity
        # coincides with the paper's shadow-forest notion.
        rng = random.Random(7)
        axes = [Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING, Axis.NEXT_SIBLING_PLUS]
        for _ in range(100):
            variables = [f"v{i}" for i in range(rng.randint(2, 6))]
            pairs = set()
            while len(pairs) < rng.randint(1, len(variables) + 2):
                pair = tuple(sorted(rng.sample(variables, 2)))
                pairs.add(pair)
            atoms = tuple(AxisAtom(rng.choice(axes), a, b) for a, b in sorted(pairs))
            query = ConjunctiveQuery((), atoms, "G")
            compiled = compile_query(query)
            assert is_alpha_acyclic(query_hypergraph(compiled)) == is_acyclic(query)

    def test_primal_edges(self):
        hypergraph = Hypergraph.of_edges(("a", "b", "c"), [("a", "b", "c")])
        assert hypergraph.primal_edges() == frozenset(
            {
                frozenset({"a", "b"}),
                frozenset({"a", "c"}),
                frozenset({"b", "c"}),
            }
        )


class TestDecompose:
    @pytest.mark.parametrize(
        "edges, width",
        [
            ([("a", "b"), ("b", "c"), ("c", "d")], 1),  # path
            ([("a", "b"), ("b", "c"), ("c", "a")], 2),  # triangle
            ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 2),  # C4
            (
                [
                    ("a", "b"),
                    ("a", "c"),
                    ("a", "d"),
                    ("b", "c"),
                    ("b", "d"),
                    ("c", "d"),
                ],
                3,
            ),  # K4
        ],
    )
    def test_exact_treewidth_on_known_graphs(self, edges, width):
        hypergraph = _graph(edges)
        decomposition = decompose_hypergraph(hypergraph)
        assert decomposition.exact
        assert decomposition.width == width
        decomposition.validate(hypergraph)

    def test_exact_dp_matches_heuristics_at_most(self):
        # Heuristic orders can only over-estimate the exact width.
        rng = random.Random(3)
        for _ in range(40):
            vertices = [f"v{i}" for i in range(rng.randint(2, 8))]
            edges = set()
            for _ in range(rng.randint(1, 2 * len(vertices))):
                edges.add(tuple(sorted(rng.sample(vertices, 2))))
            hypergraph = Hypergraph.of_edges(vertices, sorted(edges))
            adjacency = hypergraph.adjacency()
            _, exact_width = exact_elimination_order(adjacency)
            for order_fn, name in (
                (min_fill_order, "min-fill"),
                (min_degree_order, "min-degree"),
            ):
                decomposition = decomposition_from_order(
                    adjacency, order_fn(adjacency), name
                )
                decomposition.validate(hypergraph)
                assert decomposition.width >= exact_width

    def test_heuristic_path_used_above_exact_limit(self):
        variables = [f"v{i}" for i in range(20)]
        atoms = tuple(
            AxisAtom(Axis.CHILD_PLUS, variables[i], variables[i + 1])
            for i in range(19)
        )
        compiled = compile_query(ConjunctiveQuery((), atoms, "Long"))
        decomposition = compiled.decomposition
        assert not decomposition.exact
        assert decomposition.method in ("min-fill", "min-degree")
        assert decomposition.width == 1

    def test_isolated_variables_get_bags(self):
        query = ConjunctiveQuery((), (LabelAtom("A", "x"), LabelAtom("B", "y")), "Iso")
        decomposition = compile_query(query).decomposition
        covered = set().union(*decomposition.bags) if decomposition.bags else set()
        assert covered == {"x", "y"}

    def test_decomposition_cached_on_compiled_query(self):
        compiled = compile_query(parse_query(TRIANGLE))
        assert compiled.decomposition is compiled.decomposition

    def test_no_bag_is_a_subset_of_a_tree_neighbour(self):
        """``decompose`` returns the reduced decomposition; the SQL lowering relies on it."""
        rng = random.Random(7)
        axes = list(Axis)
        for trial in range(240):
            size = rng.randint(2, 9) if trial < 200 else rng.randint(13, 18)
            variables = [f"v{i}" for i in range(size)]
            # A spanning tree keeps every variable in the body, then chords.
            pairs = [(variables[rng.randrange(i)], variables[i]) for i in range(1, size)]
            pairs += [tuple(rng.sample(variables, 2)) for _ in range(rng.randint(0, size))]
            atoms = tuple(AxisAtom(rng.choice(axes), *rng.sample(pair, 2)) for pair in pairs)
            decomposition = compile_query(ConjunctiveQuery((), atoms, "Q")).decomposition
            assert decomposition.exact == (size <= EXACT_VERTEX_LIMIT)
            bags = decomposition.bags
            for child, parent in enumerate(decomposition.parent):
                if parent >= 0:
                    assert not bags[child] <= bags[parent], (atoms, decomposition)
                    assert not bags[parent] <= bags[child], (atoms, decomposition)

    def test_roots_hold_the_most_head_variables(self):
        """``decompose`` roots each component at its head: the one tree both engines run."""
        rng = random.Random(29)
        axes = list(Axis)
        rerooted = 0
        for trial in range(240):
            size = rng.randint(2, 9) if trial < 200 else rng.randint(13, 18)
            variables = [f"v{i}" for i in range(size)]
            pairs = [(variables[rng.randrange(i)], variables[i]) for i in range(1, size)]
            # Few chords, and some dropped tree edges: several components.
            pairs = [pair for pair in pairs if rng.random() < 0.85]
            pairs += [tuple(rng.sample(variables, 2)) for _ in range(rng.randint(0, size // 2))]
            atoms = tuple(AxisAtom(rng.choice(axes), *rng.sample(pair, 2)) for pair in pairs)
            body = atoms + tuple(LabelAtom("A", v) for v in variables)
            head = tuple(rng.sample(variables, rng.randint(0, min(4, size))))
            compiled = compile_query(ConjunctiveQuery(head, body, "Q"))
            hypergraph = Hypergraph.of_compiled(compiled)
            decomposition = compiled.decomposition
            bags, parent = decomposition.bags, decomposition.parent
            decomposition.validate(hypergraph)
            for child, up in enumerate(parent):
                assert up < child, (head, atoms, decomposition)
                if up >= 0:
                    assert not bags[child] <= bags[up] and not bags[up] <= bags[child]
            children = decomposition.children()
            for root in decomposition.roots:
                component = [root]
                for index in component:
                    component.extend(children[index])
                most = max(len(bags[i] & set(head)) for i in component)
                assert len(bags[root] & set(head)) == most, (head, atoms, decomposition)
            # Rooted already: returned as the same object, numbering untouched.
            assert root_at_head(decomposition, head) is decomposition
            searched = decompose_hypergraph(hypergraph, pair_costs=atom_pair_costs(compiled))
            if searched.bags == bags and searched.parent == parent:
                assert root_at_head(searched, head) is searched
            else:
                rerooted += 1
        assert rerooted >= 20  # the property is not vacuous

    def test_parents_precede_children(self):
        decomposition = compile_query(parse_query(DIAMOND)).decomposition
        for index, parent in enumerate(decomposition.parent):
            assert parent < index

    def test_validate_rejects_uncovered_edge(self):
        bad = TreeDecomposition(
            bags=(frozenset({"a", "b"}),),
            parent=(-1,),
            width=1,
            method="bogus",
            exact=False,
        )
        with pytest.raises(ValueError):
            bad.validate(_graph([("a", "b"), ("b", "c")]))


class TestPlannerRouting:
    STATS = DocumentStats.of_tree(random_tree(60, alphabet=("A", "B", "C"), seed=7))

    def test_tractable_signature_still_wins(self):
        # A cyclic query over {Child+, Child*} stays with the X-property
        # evaluator: the dichotomy routing is unchanged.
        query = parse_query("Q <- Child+(x, y), Child*(y, z), Child+(z, x)")
        assert plan_query(query, self.STATS).engine is Engine.XPROPERTY

    def test_acyclic_still_wins(self):
        query = parse_query("Q <- Child(x, y), Following(y, z)")
        assert plan_query(query, self.STATS).engine is Engine.ACYCLIC


class TestYannakakisEvaluation:
    @pytest.fixture(scope="class")
    def structure(self):
        return TreeStructure(random_tree(160, alphabet=("A", "B", "C"), seed=11))

    @pytest.mark.parametrize("propagator", [None, "semijoin"])
    def test_triangle_matches_backtracking(self, structure, propagator):
        query = parse_query("Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)")
        assert sorted(
            evaluate(query, structure, engine=Engine.DECOMPOSITION, propagator=propagator)
        ) == sorted(
            evaluate(query, structure, engine=Engine.BACKTRACKING, propagator=propagator)
        )

    def test_unsatisfiable_diamond_is_empty(self, structure):
        # Following(y, z) contradicts y and z sharing the descendant w.
        query = parse_query(DIAMOND)
        assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == frozenset()

    def test_binary_head(self, structure):
        query = parse_query(
            "Q(x, y) <- A(x), B(y), Child+(x, y), Child+(x, z), Following(y, z)"
        )
        assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == evaluate(
            query, structure, engine=Engine.BACKTRACKING
        )

    def test_repeated_head_variable(self, structure):
        query = parse_query("Q(x, x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)")
        assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == evaluate(
            query, structure, engine=Engine.BACKTRACKING
        )

    def test_forced_on_acyclic_query(self, structure):
        query = parse_query("Q(x) <- A(x), Child(x, y), B(y)")
        assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == evaluate(
            query, structure
        )

    def test_boolean_and_pinned(self, structure):
        query = parse_query(TRIANGLE)
        assert is_satisfied(query, structure, Engine.DECOMPOSITION) == is_satisfied(
            query, structure, Engine.BACKTRACKING
        )
        for node in (0, 1, 5, 17):
            assert is_satisfied(
                query, structure, Engine.DECOMPOSITION, pinned={"x": node}
            ) == is_satisfied(
                query, structure, Engine.BACKTRACKING, pinned={"x": node}
            )

    def test_high_width_query_still_exact(self, structure):
        # Width 3: forcing the engine must still give exact answers (width
        # prices a plan, it does not limit the engine).
        query = parse_query(K4)
        assert is_satisfied(query, structure, Engine.DECOMPOSITION) == is_satisfied(
            query, structure, Engine.BACKTRACKING
        )

    def test_empty_body(self, structure):
        query = parse_query("Q <- true")
        assert evaluate_answers(query, structure) == frozenset({()})

    def test_disconnected_components(self, structure):
        query = parse_query(
            "Q(x, u) <- A(x), Child+(x, y), Child+(x, z), Following(y, z), "
            "B(u), Child(u, v), C(v)"
        )
        assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == evaluate(
            query, structure, engine=Engine.BACKTRACKING
        )

    def test_self_loop_atoms(self, structure):
        query = ConjunctiveQuery(
            ("x",),
            (
                AxisAtom(Axis.CHILD_STAR, "x", "x"),
                AxisAtom(Axis.CHILD, "x", "y"),
                AxisAtom(Axis.CHILD_PLUS, "x", "y"),
                LabelAtom("A", "x"),
            ),
            "Loop",
        )
        assert evaluate(query, structure, engine=Engine.DECOMPOSITION) == evaluate(
            query, structure, engine=Engine.BACKTRACKING
        )


@functools.lru_cache(maxsize=None)
def _small_structure(seed):
    return TreeStructure(
        random_tree(8 + 3 * seed, alphabet=("A", "B", "C"), max_children=3, seed=seed)
    )


@functools.lru_cache(maxsize=None)
def _horn_oracle(structure, text):
    """Sorted answers by brute force over the Horn domains: never the kernel against itself."""
    return oracle.answers(parse_query(text), structure)


def _reference_rows(search, limit):
    """Every row of a ``_DepthFirst`` walk from the empty prefix; past ``limit`` only counted."""
    rows, count = [], 0
    for _ in search.prefixes(0):
        count += 1
        if count <= limit:
            rows.append(tuple(search.current[p] for p in search.plan.keep_positions))
    return rows, count


class TestBagEmission:
    """``_materialize_bag``: wire order where the atoms allow, honest counts.

    The exact decomposition search never builds a one-bag tree with two
    non-adjacent variables, so the shapes the order cannot follow are driven
    through the kernel directly: columns are the head variables in head
    order, rows come out sorted (and ``limit`` is honoured) exactly when the
    enumeration could follow them, and the count is exact either way.  The
    level-at-a-time kernel is pinned, shape by shape and on random bags over
    every axis, to the per-prefix recursion (a ``_DepthFirst`` walk, reached
    directly) and to the Horn per-tuple oracle.
    """

    @pytest.fixture(scope="class")
    def structure(self):
        return TreeStructure(random_tree(60, alphabet=("A", "B", "C"), max_children=3, seed=5))

    @staticmethod
    def _bag(structure, body, needed, head, limit=None, reference=False, horn=False):
        """The bag by the level kernel, or (``reference``) by the per-prefix recursion."""
        from repro.decomposition.yannakakis import (
            _BagRelation,
            _DepthFirst,
            _materialize_bag,
            _plan_bag,
        )

        compiled = compile_query(parse_query(f"Q <- {body}"))
        # Label columns as the candidates: what the reducer starts from.
        candidates = PropagationResult(
            structure,
            columns={
                variable: sorted(nodes)
                for variable, nodes in compiled.initial_domains(structure).items()
            },
        )
        bag, needed, head = frozenset(compiled.variables), frozenset(needed), tuple(head)
        if reference:
            plan = _plan_bag(
                bag,
                compiled.atoms,
                candidates.domain_sizes(),
                compiled.variable_index,
                needed,
                head,
                merge_unions=False,
            )
            keep = list(plan.keep_positions)
            in_order = limit is not None and not plan.must_deduplicate and keep == sorted(keep)
            search = _DepthFirst(plan, candidates.views, structure.index)
            rows, count = _reference_rows(search, limit if in_order else sys.maxsize)
            if plan.must_deduplicate:
                rows = list(set(rows))
                count = len(rows)
            relation = _BagRelation(plan.columns, rows)
        else:
            relation, count = _materialize_bag(
                bag,
                compiled.atoms,
                candidates,
                structure,
                compiled.variable_index,
                needed,
                head=head,
                limit=limit,
            )
        text = f"Q({', '.join(relation.columns)}) <- {body}"
        # Per-tuple Horn on the small trees; the 60-node fixture cannot afford it.
        if horn:
            return relation, count, _horn_oracle(structure, text)
        return relation, count, sorted(evaluate(parse_query(text), structure))

    @pytest.mark.parametrize("head", [("x", "y"), ("y", "x")])
    def test_head_order_is_followed_and_the_limit_stops_the_rows(self, structure, head):
        relation, count, expected = self._bag(structure, "Following(x, y)", "xy", head, limit=3)
        assert relation.columns == head
        assert relation.rows == expected[:3] and count == len(expected) > 3

    def test_trailing_witness_is_tested_not_built_past_the_limit(self, structure):
        relation, count, expected = self._bag(
            structure, "Child+(x, y), Child(y, z), Child+(x, z)", "xy", ("x", "y"), limit=2
        )
        assert relation.columns == ("x", "y")
        assert relation.rows == expected[:2] and count == len(expected) > 2

    def test_union_of_ranges_keeps_the_order(self, structure):
        # ``b`` sits between the two columns but only anchors c's window: its
        # witnesses are merged, nothing repeats, and the limit still holds.
        relation, count, expected = self._bag(
            structure, "Child+(a, b), Following(b, c)", "ac", ("a", "c"), limit=4
        )
        assert relation.columns == ("a", "c")
        assert relation.rows == expected[:4] and count == len(expected) > 4

    def test_existential_before_the_cut_deduplicates_and_ignores_the_limit(self, structure):
        # y does not connect to x except through z, which no window absorbs:
        # projected rows repeat, so every row is built, then deduplicated.
        relation, count, expected = self._bag(
            structure, "Child(z, x), Child(z, y)", "xy", ("x", "y"), limit=2
        )
        assert relation.columns == ("x", "y")
        assert sorted(relation.rows) == expected and count == len(expected) > 2

    def test_columns_the_enumeration_cannot_follow_are_sorted_later(self, structure):
        # Columns (x, y, z), enumeration x, z, y: rows are complete and
        # distinct but not in column order; ``_collect_answers`` sorts once.
        relation, count, expected = self._bag(
            structure, "Following(z, x), Following(z, y)", "xyz", ("x", "y"), limit=2
        )
        assert relation.columns == ("x", "y", "z")
        assert relation.rows != expected and sorted(relation.rows) == expected
        assert count == len(expected) > 2

    #: ``name: (how the plan ends, body, needed, head)`` -- one per kind of level.
    KERNEL_SHAPES = {
        "walk driver cut by a range atom (the triangle)": (
            "expanded", "A(a), Child(a, b1), Child(a, b2), Following(b1, b2)", "a b1 b2", "a b1 b2"
        ),
        "two range atoms on one level (the sentence pair)": (
            "expanded", "Child+(s, x), B(x), Child+(s, y), Following(x, y)", "s x y", "s x y"
        ),
        "one trailing witness level": (
            "tested", "Child(a, b1), Child(a, b2), Following(b1, b2)", "a b1", "a b1"
        ),
        "a witness suffix two deep": (
            "searched", "Child(a, b1), Child(a, b2), Following(b1, b2)", "a", "a"
        ),
        "a trailing witness level with a residual check": (
            "searched", "Child(p, x), Child(p, y), NextSibling(x, y)", "p x", "p x"
        ),
        "a Boolean bag": ("searched", "Child(a, b1), Child(a, b2), Following(b1, b2)", "", ""),
        "a level with a residual check": (
            "expanded", "Child(p, x), Child(p, y), NextSibling(x, y)", "p x y", "p x y"
        ),
        "a backward Following window keeps its check": (
            "expanded", "Following(y, x), A(y)", "x y", "x y"
        ),
        "later siblings are a run of the column grouped by parent": (
            "expanded", "NextSibling+(x, y), B(y)", "x y", "x y"
        ),
        "earlier siblings, reflexive": ("expanded", "NextSibling*(x, y), A(x)", "x y", "y x"),
        "siblings cut by a range atom": (
            "expanded", "Child(p, x), NextSibling+(x, y), Child+(p, y)", "p x y", "p x y"
        ),
        "point drivers either way": (
            "expanded", "NextSibling(x, y), SuccPre(y, z), Child(w, z)", "x y z w", "y x z w"
        ),
        "self and document order": (
            "expanded", "Self(x, y), DocumentOrder(y, z), C(z)", "x y z", "x y z"
        ),
        "ancestor paths": ("expanded", "Child+(y, x), Child*(z, y), A(z)", "x y z", "x y z"),
        "nested windows merged": ("union", "Child+(a, b), Child+(b, c)", "a c", "a c"),
        "one suffix per prefix": ("union", "Child+(a, b), Following(b, c)", "a c", "a c"),
        "a union whose witnesses pass a check": (
            "union",
            "Child(a, x), Child(a, b), NextSibling+(x, b), Following(b, c)",
            "a x c",
            "a x c",
        ),
        "windows that are empty or contradictory": (
            "expanded", "Child*(y, x), DocumentOrder(x, z), DocumentOrder(z, y)", "x y z", "x y z"
        ),
        "empty windows between full ones": (
            "expanded", "Child+(x, y), DocumentOrder(x, z), DocumentOrder(z, y)", "x y z", "x y z"
        ),
        "a projection that needs the dedupe": (
            "deduplicated", "Child(z, x), Child(z, y)", "x y", "x y"
        ),
        "an unconnected variable (cross product)": (
            "tested", "A(x), B(y), Child(y, z)", "x y", "x y"
        ),
    }

    @staticmethod
    def _ending(body, needed, head):
        """How the kernel finishes this bag, read off its plan."""
        from repro.decomposition.yannakakis import _plan_bag

        compiled = compile_query(parse_query(f"Q <- {body}"))
        plan = _plan_bag(
            frozenset(compiled.variables),
            compiled.atoms,
            dict.fromkeys(compiled.variables, 1),
            compiled.variable_index,
            frozenset(needed),
            tuple(head),
            merge_unions=True,
        )
        if plan.must_deduplicate:
            return "deduplicated"
        if plan.skip:
            return "union"
        if plan.cut == len(plan.order):
            return "expanded"
        return "searched" if len(plan.order) - plan.cut > 1 or plan.checks[plan.cut] else "tested"

    @pytest.mark.parametrize("shape", sorted(KERNEL_SHAPES))
    def test_level_kernel_equals_recursion_and_oracle(self, shape):
        ending, body, needed, head = self.KERNEL_SHAPES[shape]
        needed, head = needed.split(), head.split()
        assert self._ending(body, needed, head) == ending  # the shape is what its name says
        for seed in range(4):
            structure = _small_structure(seed)
            for limit in (None, 0, 1, 3, 1000):
                for reference in (False, True):
                    relation, count, expected = self._bag(
                        structure, body, needed, head, limit, reference, horn=True
                    )
                    assert relation.columns == tuple(head)
                    assert count == len(expected), (seed, limit, reference)
                    # Sorted and cut at the limit, or every row in any order.
                    assert relation.rows == expected[:limit] or (
                        sorted(relation.rows) == expected
                    ), (seed, limit, reference)
                    if not reference and limit is not None and ending != "deduplicated":
                        assert len(relation.rows) <= limit, (seed, limit)

    def test_random_bags_over_every_axis(self):
        """One bag over a random body: random needed set, head order and limit."""
        for seed in range(150):
            rng = random.Random(seed)
            structure = TreeStructure(
                random_tree(rng.randint(1, 12), alphabet=("A", "B", "C"), max_children=3, seed=seed)
            )
            variables = [f"v{i}" for i in range(rng.randint(1, 5))]
            axes = rng.sample(list(Axis), 3)
            atoms = [f"{rng.choice('ABC')}({variables[0]})"]
            for i in range(1, len(variables)):
                pair = [variables[rng.randrange(i)], variables[i]]
                rng.shuffle(pair)
                atoms.append(f"{rng.choice(axes).value}({pair[0]}, {pair[1]})")
            for _ in range(rng.randint(0, 2) if len(variables) > 1 else 0):
                source, target = rng.sample(variables, 2)
                atoms.append(f"{rng.choice(axes).value}({source}, {target})")
            needed = [v for v in variables if rng.random() < 0.6]
            head = [v for v in needed if rng.random() < 0.7]
            rng.shuffle(head)
            limit = rng.choice([None, 0, 1, 2, 5])
            fast, fast_count, expected = self._bag(
                structure, ", ".join(atoms), needed, head, limit, horn=True
            )
            slow, slow_count, _ = self._bag(
                structure, ", ".join(atoms), needed, head, limit, reference=True, horn=True
            )
            assert fast.columns == slow.columns
            assert fast_count == slow_count == len(expected), (seed, atoms)
            for relation in (fast, slow):
                assert relation.rows == expected[:limit] or sorted(relation.rows) == expected, (
                    seed,
                    atoms,
                    needed,
                    head,
                    limit,
                )

    def test_default_route_builds_no_domain_view(self, monkeypatch):
        """The level kernel reads the reducer's sorted columns, nothing else."""
        from repro.decomposition import yannakakis
        from repro.trees import index as index_module

        def refuse(*args, **kwargs):
            raise AssertionError("a DomainView was built on the default route")

        tree = random_tree(120, alphabet=("A", "B", "C"), seed=11)
        structure = TreeStructure(tree)
        triangle = "A(a), Child(a, b1), Child(a, b2), Following(b1, b2)"
        # Brute force over the tree itself, for both heads.
        triples = sorted(
            (a, b1, b2)
            for a in tree.node_ids()
            if tree.has_label(a, "A")
            for b1 in tree.children_of[a]
            for b2 in tree.children_of[a]
            if tree.index.holds(Axis.FOLLOWING, b1, b2)
        )
        brute = {"a, b1, b2": triples, "a, b1": sorted({(a, b1) for a, b1, _ in triples})}
        pages = {}
        for head in ("a, b1, b2", "a, b1"):
            query = parse_query(f"Q({head}) <- {triangle}")
            for limit in (None, 2):
                with monkeypatch.context() as patched:
                    patched.setattr(index_module.DomainView, "__init__", refuse)
                    pages[head, limit] = yannakakis.answer_page(
                        query, structure, propagator="semijoin", limit=limit
                    )
                assert pages[head, limit] == (brute[head][:limit], len(brute[head]))
        assert pages["a, b1, b2", None][1] > pages["a, b1", None][1] > 2

    def test_limit_ten_of_173942_answers_builds_ten_rows(self, monkeypatch):
        """The ``kary`` cliff of the e2e README: count everything, build a page."""
        from repro.decomposition import yannakakis
        from repro.workloads import random_corpus

        built = []
        relation_type = yannakakis._BagRelation

        def counting(columns, rows):
            built.append(len(rows))
            return relation_type(columns, rows)

        monkeypatch.setattr(yannakakis, "_BagRelation", counting)
        structure = TreeStructure(random_corpus(seed=42, num_sentences=440))
        query = parse_query("Q(x, y) <- NP(x), Following(x, y), VB(y)")
        rows, count = yannakakis.answer_page(query, structure, propagator="semijoin", limit=10)
        assert count == 173_942 and len(rows) == 10 and rows == sorted(rows)
        assert built and max(built) <= 10
        # The page is the head of the full list, which builds every row.
        full, _ = yannakakis.answer_page(query, structure, propagator="semijoin", limit=10_000)
        assert full[:10] == rows and max(built) == 10_000


class TestWitnessEnumeration:
    @pytest.mark.parametrize(
        "axis",
        [
            Axis.CHILD,
            Axis.CHILD_PLUS,
            Axis.CHILD_STAR,
            Axis.NEXT_SIBLING,
            Axis.NEXT_SIBLING_PLUS,
            Axis.NEXT_SIBLING_STAR,
            Axis.FOLLOWING,
            Axis.DOCUMENT_ORDER,
            Axis.SUCC_PRE,
            Axis.SELF,
            Axis.PARENT,
            Axis.ANCESTOR,
            Axis.PRECEDING,
            Axis.PRECEDING_SIBLING,
        ],
    )
    def test_matches_reference_enumeration(self, axis):
        rng = random.Random(13)
        for seed in range(5):
            tree = random_tree(30, alphabet=("A", "B"), max_children=3, seed=seed)
            structure = TreeStructure(tree)
            index = structure.index
            candidates = sorted(rng.sample(range(len(tree)), 12))
            view = index.view(candidates)
            member_set = set(candidates)
            for node in range(len(tree)):
                expected_succ = sorted(
                    v for v in reference_successors(tree, axis, node) if v in member_set
                )
                assert list(index.successors_in(axis, node, view)) == expected_succ
                expected_pred = sorted(
                    u for u in reference_predecessors(tree, axis, node) if u in member_set
                )
                assert list(index.predecessors_in(axis, node, view)) == expected_pred


class TestServingIntegration:
    def test_planned_cache_entry_reports_width(self):
        from repro.service import QueryCache

        cache = QueryCache()
        entry, _ = cache.resolve_text(TRIANGLE)
        cache.plan_for(entry, TestPlannerRouting.STATS)
        assert entry.describe()["width"] == 2
        # The decomposition is resident on the shared compiled artifact.
        assert "decomposition" in entry.compiled.__dict__

    def test_batch_executor_uses_decomposition_engine(self):
        from repro.service import BatchExecutor, DocumentStore, QueryCache, Request

        store = DocumentStore()
        store.register_tree("doc", random_tree(80, alphabet=("A", "B", "C"), seed=3))
        executor = BatchExecutor(store, QueryCache())
        try:
            [result] = executor.execute_batch(
                [
                    Request(
                        doc="doc",
                        query="Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)",
                    )
                ]
            )
        finally:
            executor.close()
        assert result.ok
        assert result.engine == "decomposition"
        structure = TreeStructure(random_tree(80, alphabet=("A", "B", "C"), seed=3))
        expected = sorted(
            evaluate(
                parse_query("Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z)"),
                structure,
                engine=Engine.BACKTRACKING,
            )
        )
        assert result.answers == [tuple(answer) for answer in expected]

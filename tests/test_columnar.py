"""Property tests pinning the columnar kernels to brute force.

The window kernels of :mod:`repro.trees.columnar` are pure performance
refactors, so any divergence from a brute-force reading is a bug: each is
pinned one by one.  One level up, the full reducer's semijoin must equal a
brute-force witness search on every axis (its ``Child+``/``Child*`` reads one
by one in ``tests/test_reducer.py``), and the level-at-a-time bag
materialization the Horn oracle (``tests/oracle.py``).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.decomposition.yannakakis import evaluate_answers
from repro.evaluation import reducer
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.queries.query import ConjunctiveQuery
from repro.trees import Axis, Tree, TreeStructure, random_tree
from repro.trees.axes import holds
from repro.trees.columnar import (
    ancestor_paths,
    expand_windows,
    group_by_parent,
    holds_column,
    repeat_each,
    window_bounds,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALPHABET = ("A", "B", "C")

#: Every axis a semijoin may see (interval, local, sibling, extras).
KERNEL_AXES = (
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


@st.composite
def trees(draw, min_size: int = 1, max_size: int = 16) -> Tree:
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_tree(
        size,
        alphabet=ALPHABET,
        max_children=3,
        unlabeled_probability=draw(st.sampled_from([0.0, 0.2])),
        seed=seed,
    )


@st.composite
def tree_and_subsets(draw):
    """A tree plus two random node subsets (watched candidates, support)."""
    tree = draw(trees())
    n = len(tree)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    watched = sorted(rng.sample(range(n), rng.randint(0, n)))
    support = sorted(rng.sample(range(n), rng.randint(0, n)))
    return tree, watched, support


@st.composite
def queries(draw, axes, max_variables: int = 4) -> ConjunctiveQuery:
    num_variables = draw(st.integers(min_value=2, max_value=max_variables))
    variables = [f"v{i}" for i in range(num_variables)]
    num_atoms = draw(st.integers(min_value=1, max_value=num_variables + 2))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    atoms: list = []
    for _ in range(num_atoms):
        source, target = rng.sample(variables, 2)
        atoms.append(AxisAtom(rng.choice(list(axes)), source, target))
    for variable in variables:
        if rng.random() < 0.5:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    return ConjunctiveQuery((), tuple(atoms), "H")


class TestLevelKernels:
    """The window kernels of the level-at-a-time bag materialization vs brute force."""

    @SETTINGS
    @given(tree_and_subsets(), st.integers(0, 10_000), st.integers(0, 2), st.integers(0, 2))
    def test_window_bounds_cut_what_the_keys_say(self, data, seed, num_lows, num_highs):
        tree, _, base = data
        rng = random.Random(seed)
        n, rows = len(tree), rng.randint(0, 6)
        # Keys beyond either end and contradictory bounds (low > high) included.
        lows = [[rng.randint(-2, n + 1) for _ in range(rows)] for _ in range(num_lows)]
        highs = [[rng.randint(-2, n + 1) for _ in range(rows)] for _ in range(num_highs)]
        lo, hi = window_bounds(base, [iter(low) for low in lows], highs, rows)
        assert len(lo) == len(hi) == rows
        for i in range(rows):
            low = max((column[i] for column in lows), default=-1)
            high = min((column[i] for column in highs), default=n)
            assert base[lo[i] : hi[i]] == [node for node in base if low <= node < high]
            assert 0 <= lo[i] <= hi[i] <= len(base)  # empty, never negative
        sizes = [h - l for l, h in zip(lo, hi)]
        expanded = expand_windows(base, lo, hi)
        assert expanded == [node for l, h in zip(lo, hi) for node in base[l:h]]
        owners = [i for i, size in enumerate(sizes) for _ in range(size)]
        assert repeat_each(range(rows), sizes) == owners
        assert len(expanded) == sum(sizes)

    @SETTINGS
    @given(tree_and_subsets())
    def test_group_by_parent_runs_are_children_and_siblings(self, data):
        tree, anchors, column = data
        grouped, start_of, stop_of = group_by_parent(column, tree.parent)
        assert sorted(grouped) == column
        for u in range(len(tree)):
            run = grouped[start_of.get(u, 0) : stop_of.get(u, 0)]
            assert run == [v for v in column if tree.parent[v] == u]
        # Windows inside a run: bounded by the anchor's run, cut by a key.
        parents = [tree.parent[v] for v in anchors]
        starts = [start_of.get(p, 0) for p in parents]
        stops = [stop_of.get(p, 0) for p in parents]
        later = window_bounds(grouped, [[v + 1 for v in anchors]], [], len(anchors), starts, stops)
        earlier = window_bounds(grouped, [], [anchors], len(anchors), starts, stops)
        for v, lo, hi in zip(anchors, *later):
            assert grouped[lo:hi] == [
                w for w in column if holds(tree, Axis.NEXT_SIBLING_PLUS, v, w)
            ]
        for v, lo, hi in zip(anchors, *earlier):
            assert grouped[lo:hi] == [
                w for w in column if holds(tree, Axis.NEXT_SIBLING_PLUS, w, v)
            ]

    @SETTINGS
    @given(tree_and_subsets(), st.booleans())
    def test_ancestor_paths_are_the_ancestors_in_the_column(self, data, reflexive):
        tree, anchors, column = data
        anchors = anchors + anchors[:2]  # repeated anchors share one walk
        axis = Axis.CHILD_STAR if reflexive else Axis.CHILD_PLUS
        base, starts, stops = ancestor_paths(column, anchors, tree.parent, reflexive)
        assert len(starts) == len(stops) == len(anchors)
        for v, start, stop in zip(anchors, starts, stops):
            assert base[start:stop] == [u for u in column if holds(tree, axis, u, v)]

    @SETTINGS
    @given(tree_and_subsets(), st.sampled_from(KERNEL_AXES + (Axis.SELF,)))
    def test_holds_column_is_holds_row_by_row(self, data, axis):
        tree, sources, targets = data
        pairs = [(u, v) for u in sources for v in targets]
        found = holds_column(tree.index, axis, [u for u, _ in pairs], [v for _, v in pairs])
        assert [bool(flag) for flag in found] == [tree.index.holds(axis, u, v) for u, v in pairs]
        assert [tree.index.holds(axis, u, v) for u, v in pairs] == [
            holds(tree, axis, u, v) for u, v in pairs
        ]


class TestSemijoinKernels:
    """The full reducer's semijoin vs brute-force witness search, on every axis."""

    @SETTINGS
    @given(tree_and_subsets(), st.sampled_from(KERNEL_AXES), st.booleans())
    def test_semijoin_matches_brute_force(self, data, axis, forward):
        tree, watched, support = data
        if not watched or not support:
            return
        structure = TreeStructure(tree)
        kept = reducer._semijoin(axis, watched, support, forward, structure)

        def related(node, partner):
            pair = (node, partner) if forward else (partner, node)
            return structure.axis_holds(axis, *pair)

        assert list(kept) == [u for u in watched if any(related(u, v) for v in support)]


class TestDecompositionColumnar:
    @SETTINGS
    @given(trees(), queries(KERNEL_AXES + (Axis.SELF, Axis.ANCESTOR, Axis.PRECEDING_SIBLING)))
    def test_bag_materialization_levels_match_the_horn_oracle(self, tree, query):
        rng = random.Random(len(tree) + len(query.body))
        body_variables = sorted({v for atom in query.body for v in atom.variables()})
        head = tuple(rng.sample(body_variables, rng.randint(0, min(2, len(body_variables)))))
        kary = query.with_head(head)
        structure = TreeStructure(tree)
        levels = evaluate_answers(kary, structure)
        assert repr(sorted(levels)) == repr(oracle.answers(kary, structure))

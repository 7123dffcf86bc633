"""Tests for renaming-invariant query canonicalization (service cache keys)."""

from __future__ import annotations

import random
from itertools import permutations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.evaluation import compile_query, evaluate
from repro.queries import (
    canonical_key,
    canonicalize,
    parse_query,
    simplify_query,
    xpath_to_cq,
)
from repro.queries.atoms import AxisAtom, LabelAtom
from repro.queries.query import ConjunctiveQuery
from repro.trees import TreeStructure, random_tree
from repro.trees.axes import Axis

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCanonicalKeyInvariance:
    def test_textually_different_alpha_equivalent_queries_share_a_key(self):
        first = parse_query("Q(x) <- A(x), Child(x, y), B(y)")
        second = parse_query("Result(item) <- B(w), A(item), Child(item, w)")
        assert canonical_key(first) == canonical_key(second)
        assert canonicalize(first) == canonicalize(second)

    def test_name_is_ignored(self):
        assert canonical_key(parse_query("Q <- A(x)")) == canonical_key(
            parse_query("SomethingElse <- A(x)")
        )

    def test_body_order_is_ignored(self):
        first = parse_query("Q <- A(x), Child(x, y), Following(y, z)")
        second = parse_query("Q <- Following(y, z), Child(x, y), A(x)")
        assert canonical_key(first) == canonical_key(second)

    def test_symmetric_cycle_rotations_share_a_key(self):
        first = parse_query("Q <- Following(x, y), Following(y, z), Following(z, x)")
        second = parse_query("Q <- Following(b, c), Following(c, a), Following(a, b)")
        assert canonical_key(first) == canonical_key(second)

    def test_head_positions_are_semantic(self):
        straight = parse_query("Q(x, y) <- Child(x, y)")
        swapped = parse_query("Q(y, x) <- Child(x, y)")
        renamed = parse_query("Q(a, b) <- Child(a, b)")
        assert canonical_key(straight) != canonical_key(swapped)
        assert canonical_key(straight) == canonical_key(renamed)

    def test_repeated_head_variable_is_not_conflated_with_distinct_ones(self):
        repeated = parse_query("Q(x, x) <- A(x)")
        renamed = parse_query("Q(y, y) <- A(y)")
        distinct = parse_query("Q(x, y) <- A(x), A(y)")
        assert canonical_key(repeated) == canonical_key(renamed)
        assert canonical_key(repeated) != canonical_key(distinct)

    def test_inequivalent_queries_get_distinct_keys(self):
        assert canonical_key(parse_query("Q <- Child(x, y)")) != canonical_key(
            parse_query("Q <- Child+(x, y)")
        )
        assert canonical_key(parse_query("Q <- A(x)")) != canonical_key(
            parse_query("Q <- B(x)")
        )
        # Boolean Child(x, y) and Child(y, x) ARE alpha-equivalent (swap the
        # variables); with a head the direction becomes observable.
        assert canonical_key(parse_query("Q <- Child(x, y)")) == canonical_key(
            parse_query("Q <- Child(y, x)")
        )
        assert canonical_key(parse_query("Q(x) <- Child(x, y)")) != canonical_key(
            parse_query("Q(x) <- Child(y, x)")
        )

    def test_xpath_translations_canonicalize_like_their_datalog_twins(self):
        from_xpath = xpath_to_cq("//A[B]")
        # The translator emits Child*(root, hit) for the leading `//`.
        twin = parse_query("Q(sel) <- Child*(start, sel), A(sel), Child(sel, b), B(b)")
        assert canonical_key(from_xpath) == canonical_key(twin)

    def test_compile_cache_shared_by_alpha_equivalent_queries(self):
        first = canonicalize(parse_query("Q(x) <- A(x), Child+(x, y)"))
        second = canonicalize(parse_query("P(u) <- Child+(u, w), A(u)"))
        assert compile_query(first) is compile_query(second)


# ---------------------------------------------------------------------------
# Property: canonicalization is invariant under renaming + shuffling, and the
# representative evaluates identically.
# ---------------------------------------------------------------------------

ALPHABET = ("A", "B", "C")
AXES = (
    Axis.CHILD,
    Axis.CHILD_PLUS,
    Axis.CHILD_STAR,
    Axis.FOLLOWING,
    Axis.NEXT_SIBLING_PLUS,
    Axis.PARENT,
)


@st.composite
def random_queries(draw, max_variables: int = 5) -> ConjunctiveQuery:
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    num_variables = draw(st.integers(min_value=1, max_value=max_variables))
    variables = [f"q{i}" for i in range(num_variables)]
    atoms: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=num_variables + 2))):
        atoms.append(
            AxisAtom(rng.choice(AXES), rng.choice(variables), rng.choice(variables))
        )
    for variable in variables:
        if rng.random() < 0.4:
            atoms.append(LabelAtom(rng.choice(ALPHABET), variable))
    # Only safe heads: evaluate()'s pinning reduction requires head variables
    # to occur in the body (the textual parser rejects unsafe queries too).
    body_variables = sorted({v for atom in atoms for v in atom.variables()})
    arity = draw(st.integers(min_value=0, max_value=min(2, len(body_variables))))
    head = tuple(rng.choice(body_variables) for _ in range(arity))
    return ConjunctiveQuery(head, tuple(atoms), "R")


class TestCanonicalProperties:
    @SETTINGS
    @given(random_queries(), st.integers(min_value=0, max_value=100_000))
    def test_invariant_under_renaming_and_shuffling(self, query, seed):
        rng = random.Random(seed)
        variables = list(query.variables())
        targets = [f"renamed_{i}" for i in range(len(variables))]
        rng.shuffle(targets)
        renamed = query.rename(dict(zip(variables, targets)))
        shuffled_body = list(renamed.body)
        rng.shuffle(shuffled_body)
        twin = ConjunctiveQuery(renamed.head, tuple(shuffled_body), "S")
        assert canonical_key(query) == canonical_key(twin)
        assert canonicalize(query) == canonicalize(twin)

    @SETTINGS
    @given(random_queries())
    def test_idempotent_and_answer_preserving(self, query):
        representative = canonicalize(query)
        assert canonicalize(representative) == representative
        structure = TreeStructure(random_tree(18, alphabet=ALPHABET, seed=11))
        assert evaluate(query, structure) == evaluate(representative, structure)


class TestSimplifyQuery:
    def test_xpath_root_step_and_joint_collapse(self):
        query = xpath_to_cq("//description//listitem")
        simplified = simplify_query(query)
        # Child*(x0, x1) is dropped (x0 is a vacuous dangler) and
        # Child*(x1, x2), Child(x2, x3) composes into Child+(x1, x3).
        axes = sorted(a.axis for a in simplified.body if isinstance(a, AxisAtom))
        assert axes == [Axis.CHILD_PLUS]
        labels = sorted(a.label for a in simplified.body if isinstance(a, LabelAtom))
        assert labels == ["description", "listitem"]
        assert simplified.head == query.head

    def test_reflexive_dangler_is_dropped(self):
        query = parse_query("Q(y) <- A(y), Child*(x, y)")
        simplified = simplify_query(query)
        assert simplified.body == (LabelAtom("A", "y"),)

    def test_unsafe_drop_is_refused(self):
        # Removing the only atom would leave the head variable without a body
        # occurrence; the rewrite must keep the query safe for evaluate().
        query = ConjunctiveQuery(("y",), (AxisAtom(Axis.CHILD_STAR, "x", "y"),), "Q")
        assert simplify_query(query) == query

    def test_labeled_and_head_variables_are_never_projected(self):
        query = parse_query("Q(m) <- A(a), Child*(a, m), M(m), Child(m, b), B(b)")
        simplified = simplify_query(query)
        assert set(simplified.variables()) == {"a", "m", "b"}
        assert simplified == query

    def test_child_plus_chains_are_not_composed(self):
        # Child+ . Child+ (grandchild-or-deeper) has no single-axis equivalent.
        query = parse_query("Q <- A(a), Child+(a, m), Child+(m, b), B(b)")
        assert simplify_query(query) == query

    def test_idempotent(self):
        for text in ("//description//listitem", "//NP[NN]", "//VP[VB]/NP"):
            simplified = simplify_query(xpath_to_cq(text))
            assert simplify_query(simplified) == simplified

    @SETTINGS
    @given(random_queries())
    def test_answer_preserving_on_random_queries(self, query):
        simplified = simplify_query(query)
        structure = TreeStructure(random_tree(18, alphabet=ALPHABET, seed=23))
        assert evaluate(query, structure) == evaluate(simplified, structure)

    @SETTINGS
    @given(random_queries(), st.integers(min_value=0, max_value=119))
    # Drop-dangling vs compose-chain: under two of the six renamings the name
    # order used to compose ``q2`` away before ``q1`` was dropped (``Child+``
    # instead of ``Child``).  All six, spelled out.
    @example(parse_query("R <- Child*(q1, q2), Child(q2, q3)"), 0)
    @example(parse_query("R <- Child*(q1, q2), Child(q2, q3)"), 1)
    @example(parse_query("R <- Child*(q1, q2), Child(q2, q3)"), 2)
    @example(parse_query("R <- Child*(q1, q2), Child(q2, q3)"), 3)
    @example(parse_query("R <- Child*(q1, q2), Child(q2, q3)"), 4)
    @example(parse_query("R <- Child*(q1, q2), Child(q2, q3)"), 5)
    # Compose-chain vs itself: either neighbour can absorb the ``Child*``.
    @example(parse_query("R <- Child+(q1, q2), Child*(q2, q3), Child(q3, q4)"), 0)
    @example(parse_query("R <- Child+(q1, q2), Child*(q2, q3), Child(q3, q4)"), 23)
    def test_commutes_with_renaming_up_to_alpha(self, query, index):
        variables = list(query.variables())
        renamings = list(permutations(f"renamed_{i}" for i in range(len(variables))))
        twin = query.rename(dict(zip(variables, renamings[index % len(renamings)])))
        assert canonical_key(simplify_query(query)) == canonical_key(
            simplify_query(twin)
        )

#!/usr/bin/env python3
"""Quickstart: build a tree, pose conjunctive queries, evaluate, rewrite.

Run with::

    python examples/quickstart.py

Covers the core public API in a few minutes of reading:

1. building trees (nested tuples, s-expressions, XML),
2. writing queries (datalog syntax, the fluent builder, XPath),
3. evaluating them with the dichotomy-aware planner,
4. classifying signatures (Table I) and rewriting cyclic queries into
   acyclic positive queries (Section 6).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (
    QueryBuilder,
    classify,
    evaluate_on_tree,
    from_nested,
    parse_query,
    parse_sexpr,
    to_apq,
    xpath_to_cq,
)
from repro.planning import DocumentStats, plan_query
from repro.queries import cq_to_xpath


def main() -> None:
    # ------------------------------------------------------------------ trees
    # A small parse tree; nodes are identified by pre-order ids (0 = root).
    sentence = from_nested(
        (
            "S",
            [
                ("NP", [("DT", []), ("NN", [])]),
                ("VP", [("VB", []), ("NP", [("NN", [])])]),
                ("PP", [("IN", []), ("NP", [("NN", [])])]),
            ],
        )
    )
    same_sentence = parse_sexpr(
        "(S (NP (DT) (NN)) (VP (VB) (NP (NN))) (PP (IN) (NP (NN))))"
    )
    assert len(sentence) == len(same_sentence)
    print(f"tree with {len(sentence)} nodes over alphabet {sorted(sentence.alphabet())}")

    # ---------------------------------------------------------------- queries
    # Datalog-style rule notation (the paper's notation).
    figure1 = parse_query(
        "Q(z) <- S(x), Child+(x, y), NP(y), Child+(x, z), PP(z), Following(y, z)"
    )
    # The same query via the fluent builder.
    built = (
        QueryBuilder("Q")
        .label("S", "x")
        .descendant("x", "y")
        .label("NP", "y")
        .descendant("x", "z")
        .label("PP", "z")
        .following("y", "z")
        .select("z")
        .build()
    )
    assert str(built) == str(figure1)
    # And an XPath expression, translated into an acyclic conjunctive query.
    xpath_query = xpath_to_cq("//NP[NN]")

    # ------------------------------------------------------------- evaluation
    print("\nFigure 1 query:", figure1)
    print("  planner engine:", plan_query(figure1, DocumentStats.of_tree(sentence)).engine.value)
    print("  answers (node ids):", sorted(evaluate_on_tree(figure1, sentence)))

    print("\nXPath //NP[NN] as a conjunctive query:", xpath_query)
    print("  answers:", sorted(evaluate_on_tree(xpath_query, sentence)))

    # -------------------------------------------------------------- dichotomy
    print("\nComplexity of the query's signature (Theorem 1.1 / Table I):")
    print("  Figure 1 uses", figure1.signature(), "->", classify(figure1.signature()).value)
    cyclic = parse_query("Q <- A(x), Child(x, y), B(y), Child+(x, z), Child(y, z)")
    print("  ", cyclic.signature(), "->", classify(cyclic.signature()).value)

    # -------------------------------------------------------------- rewriting
    apq = to_apq(figure1)
    print(f"\nCQ -> APQ rewriting (Section 6): {len(apq)} acyclic disjunct(s)")
    for disjunct in apq:
        print("   ", disjunct)
    # Acyclic monadic disjuncts over XPath axes can be rendered back as XPath.
    print("\nAs XPath (Remark 6.1):")
    for disjunct in apq:
        print("   ", cq_to_xpath(disjunct))


if __name__ == "__main__":
    main()

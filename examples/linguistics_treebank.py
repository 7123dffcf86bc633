#!/usr/bin/env python3
"""Querying a (synthetic) treebank corpus -- the Figure 1 scenario.

The paper motivates conjunctive queries over trees with searches over parsed
natural-language corpora (Penn Treebank).  The Treebank itself is proprietary,
so this example generates a synthetic corpus with the same label inventory and
runs the paper's Figure 1 query plus a few more linguistically flavoured ones,
including a *cyclic* coordination query that exercises the rewriting.

Run with::

    python examples/linguistics_treebank.py [num_sentences]
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import evaluate_on_tree, to_apq
from repro.evaluation import evaluate, is_satisfied
from repro.queries.graph import is_acyclic
from repro.trees import TreeStructure
from repro.workloads import (
    coordinated_sentences_query,
    figure1_query,
    np_with_pp_modifier_query,
    random_corpus,
    verb_with_object_query,
)


def main(num_sentences: int = 40) -> None:
    corpus = random_corpus(num_sentences, max_depth=6, seed=2024)
    structure = TreeStructure(corpus)
    print(
        f"synthetic corpus: {num_sentences} sentences, {len(corpus)} nodes, "
        f"labels {sorted(corpus.alphabet())[:8]}..."
    )

    queries = {
        "Figure 1 (PP following NP in the same sentence)": figure1_query(),
        "NP directly dominating a PP": np_with_pp_modifier_query(),
        "verb with a following NP object": verb_with_object_query(),
        "sentence with coordinated NPs (cyclic)": coordinated_sentences_query(),
    }

    for description, query in queries.items():
        answers = evaluate(query, structure)
        acyclic = "acyclic" if is_acyclic(query) else "CYCLIC"
        print(f"\n{description}")
        print(f"  query ({acyclic}): {query}")
        print(f"  matches: {len(answers)} node(s)")
        if answers:
            sample = sorted(answers)[:5]
            print(f"  first answers (node ids): {sample}")

    # The cyclic coordination query can also be answered by first rewriting it
    # into an acyclic positive query (Section 6) -- same answers, and each
    # disjunct is an XPath-style navigational query.
    cyclic = coordinated_sentences_query()
    apq = to_apq(cyclic)
    direct = evaluate(cyclic, structure)
    via_apq = frozenset().union(*(evaluate(disjunct, structure) for disjunct in apq)) if len(apq) else frozenset()
    print("\nrewriting the coordination query:")
    print(f"  {len(apq)} acyclic disjuncts, answers agree with direct evaluation: {direct == via_apq}")

    # Boolean view: is there any coordinated sentence at all?
    print(
        "  corpus contains a coordinated sentence:",
        is_satisfied(cyclic, structure),
    )


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    main(count)

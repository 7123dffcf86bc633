#!/usr/bin/env python3
"""Regenerate Table I and demonstrate the dichotomy experimentally.

Prints the classification of every one- and two-axis signature (Theorem 1.1 /
Table I) and then shows the practical consequence: the same cyclic query
shape is answered instantly on a tractable signature and requires exponential
search on an NP-hard one.

Run with::

    python examples/dichotomy_table.py
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.evaluation import Engine, SearchStatistics, is_satisfied
from repro.evaluation.backtracking import boolean_query_holds
from repro.hardness import random_cyclic_query, theorem51_workload
from repro.trees import TreeStructure, random_tree
from repro.trees.axes import Axis
from repro.xproperty import maximal_tractable_sets, render_table1


def main() -> None:
    print("Table I, regenerated from the dichotomy classifier:\n")
    print(render_table1())
    print("\nsubset-maximal tractable axis sets:")
    for tractable_set in maximal_tractable_sets():
        print("  {" + ", ".join(sorted(a.value for a in tractable_set)) + "}")

    # The practical gap: identical query shapes, different signatures.
    tree = random_tree(200, alphabet=("A", "B", "C"), seed=1)
    structure = TreeStructure(tree)
    print("\nsame cyclic query shape, both sides of the frontier "
          f"(random tree with {len(tree)} nodes):")
    for axes, label in (
        ((Axis.CHILD_PLUS, Axis.CHILD_STAR), "tractable {Child+, Child*}"),
        ((Axis.CHILD, Axis.CHILD_PLUS), "NP-hard   {Child, Child+}"),
    ):
        query = random_cyclic_query(axes, num_variables=14, num_extra_atoms=7, seed=9)
        start = time.perf_counter()
        if label.startswith("tractable"):
            result = is_satisfied(query, structure, engine=Engine.FIXPOINT)
        else:
            result = boolean_query_holds(query, structure)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"  {label}: answer={result}  time={elapsed:8.1f} ms")

    # Query complexity on the NP-hard side: Theorem 5.1 reduction queries.
    # Unrestricted backtracking blows up quickly (that is the point), so it is
    # shown for small instances only; larger ones use the exact
    # selection-enumeration decision procedure.
    print("\nTheorem 5.1 reduction queries (fixed 33-node tree, growing query):")
    for clauses in (2, 3):
        reduction = theorem51_workload(clauses, seed=0)
        statistics = SearchStatistics()
        start = time.perf_counter()
        boolean_query_holds(reduction.query, reduction.structure(), statistics=statistics)
        elapsed = (time.perf_counter() - start) * 1000
        print(
            f"  clauses={clauses}  query atoms={reduction.query.size():4d}  "
            f"backtracking time={elapsed:8.1f} ms  search nodes={statistics.nodes_expanded}"
        )
    from repro.hardness import decide_by_selection

    for clauses in (4, 5):
        reduction = theorem51_workload(clauses, seed=0)
        start = time.perf_counter()
        selection = decide_by_selection(reduction)
        elapsed = (time.perf_counter() - start) * 1000
        print(
            f"  clauses={clauses}  query atoms={reduction.query.size():4d}  "
            f"selection-enumeration time={elapsed:8.1f} ms  satisfiable={selection is not None}"
        )


if __name__ == "__main__":
    main()

"""Benchmark ``thm3.5``: near-linear scaling of the X-property evaluator.

Measures the Theorem 3.5 pointer walk
(:func:`~repro.evaluation.xprop_evaluator.least_valuation`) while scaling (a)
the tree and (b) the query, plus one ablation: lazy axis access vs
materialised axis relations.
"""

from __future__ import annotations

import pytest
from bench_config import scaled

from repro.evaluation import compile_query, least_valuation
from repro.hardness import random_cyclic_query
from repro.trees import TreeStructure, random_tree
from repro.trees.axes import Axis, materialise

QUERY = compile_query(
    random_cyclic_query(
        (Axis.CHILD_PLUS, Axis.CHILD_STAR), num_variables=8, num_extra_atoms=4, seed=0
    )
)

TREE_SIZES = scaled((100, 200, 400, 800), (50, 100))
MEDIUM_SIZE = scaled(200, 100)
VARIABLE_COUNTS = scaled([4, 8, 16, 32], [4, 8])

TREES = {
    size: random_tree(size, alphabet=("A", "B", "C"), seed=size)
    for size in set(TREE_SIZES) | {MEDIUM_SIZE}
}


@pytest.mark.parametrize("size", sorted(TREE_SIZES))
def test_tree_scaling(benchmark, size):
    structure = TreeStructure(TREES[size])
    benchmark(lambda: least_valuation(QUERY, structure))


@pytest.mark.parametrize("num_variables", VARIABLE_COUNTS)
def test_query_scaling(benchmark, num_variables):
    structure = TreeStructure(TREES[MEDIUM_SIZE])
    query = random_cyclic_query(
        (Axis.CHILD_PLUS, Axis.CHILD_STAR),
        num_variables=num_variables,
        num_extra_atoms=num_variables // 2,
        seed=num_variables,
    )
    compiled = compile_query(query)
    benchmark(lambda: least_valuation(compiled, structure))


@pytest.mark.parametrize("size", scaled([100, 200], [50, 100]))
def test_ablation_materialised_axis_relations(benchmark, size):
    """Cost of materialising the binary relations (the design we avoided)."""
    tree = TREES[size]

    def materialise_all():
        return {
            axis: materialise(tree, axis)
            for axis in (Axis.CHILD, Axis.CHILD_PLUS, Axis.FOLLOWING)
        }

    benchmark(materialise_all)

"""Benchmark ``table1``: the two sides of the dichotomy (Table I).

The classification itself is instantaneous; what the paper's Table I claims is
a *complexity gap*, which these benchmarks make measurable:

* ``test_tractable_*`` -- cyclic queries over tractable signatures, evaluated
  by the fixpoint engine (the X-property walk): time stays small and grows
  mildly with query and tree size (combined complexity O(||A|| * |Q|)).
* ``test_hard_*`` -- the same query shapes over NP-hard signatures decided
  by the generic backtracking search, plus the Theorem 5.1 reduction queries,
  whose search effort grows combinatorially with the instance.
"""

from __future__ import annotations

import pytest
from bench_config import scaled

from repro.evaluation import Engine, is_satisfied
from repro.evaluation.backtracking import boolean_query_holds as bt_holds
from repro.hardness import random_cyclic_query, theorem51_workload
from repro.trees import TreeStructure, random_tree
from repro.trees.axes import Axis
from repro.xproperty import classify, Complexity, table1

TREE = random_tree(scaled(150, 60), alphabet=("A", "B", "C"), seed=0, unlabeled_probability=0.1)
STRUCTURE = TreeStructure(TREE)


def test_classification_of_all_cells(benchmark):
    cells = benchmark(table1)
    assert len(cells) == 28


@pytest.mark.parametrize("num_variables", scaled([6, 12, 24], [6]))
def test_tractable_child_plus_star(benchmark, num_variables):
    query = random_cyclic_query(
        (Axis.CHILD_PLUS, Axis.CHILD_STAR),
        num_variables=num_variables,
        num_extra_atoms=num_variables // 2,
        seed=num_variables,
    )
    assert classify(query.signature()) is Complexity.PTIME
    benchmark(lambda: is_satisfied(query, STRUCTURE, engine=Engine.FIXPOINT))


@pytest.mark.parametrize("num_variables", scaled([6, 12, 24], [6]))
def test_tractable_following(benchmark, num_variables):
    query = random_cyclic_query(
        (Axis.FOLLOWING,),
        num_variables=num_variables,
        num_extra_atoms=num_variables // 2,
        seed=num_variables,
    )
    benchmark(lambda: is_satisfied(query, STRUCTURE, engine=Engine.FIXPOINT))


@pytest.mark.parametrize("num_variables", scaled([6, 12, 24], [6]))
def test_tractable_bflr_group(benchmark, num_variables):
    query = random_cyclic_query(
        (Axis.CHILD, Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR),
        num_variables=num_variables,
        num_extra_atoms=num_variables // 2,
        seed=num_variables,
    )
    benchmark(lambda: is_satisfied(query, STRUCTURE, engine=Engine.FIXPOINT))


@pytest.mark.parametrize("num_variables", scaled([6, 12, 24], [6]))
def test_hard_signature_same_shape_backtracking(benchmark, num_variables):
    """The same random cyclic shape over the NP-hard {Child, Child+} cell."""
    query = random_cyclic_query(
        (Axis.CHILD, Axis.CHILD_PLUS),
        num_variables=num_variables,
        num_extra_atoms=num_variables // 2,
        seed=num_variables,
    )
    assert classify(query.signature()) is Complexity.NP_COMPLETE
    benchmark(lambda: bt_holds(query, STRUCTURE))


@pytest.mark.parametrize("clauses", scaled([2, 3, 4], [2]))
def test_hard_theorem51_reduction(benchmark, clauses):
    """Theorem 5.1 reduction queries: effort grows with the 1-in-3 instance."""
    reduction = theorem51_workload(clauses, seed=1)
    structure = reduction.structure()
    benchmark(lambda: bt_holds(reduction.query, structure))

"""Experiment ``thm3.5``: the O(||A|| * |Q|) evaluation bound, measured.

Theorem 3.5 gives a polynomial algorithm for Boolean conjunctive queries on
structures with the X-property.  This experiment measures the wall-clock time
of its pointer walk (:func:`~repro.evaluation.xprop_evaluator.least_valuation`)
while scaling

* the tree size at fixed query size, and
* the query size at fixed tree size,

and reports the growth ratios; both should look (near-)linear, i.e. doubling
the input roughly doubles the time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..evaluation.compile import compile_query
from ..evaluation.xprop_evaluator import least_valuation
from ..hardness.hard_instances import random_cyclic_query
from ..trees.axes import Axis
from ..trees.generators import random_tree
from ..trees.structure import TreeStructure


@dataclass(frozen=True)
class TimingPoint:
    parameter: int
    seconds: float


@dataclass
class PolytimeResult:
    tree_scaling: list[TimingPoint] = field(default_factory=list)
    query_scaling: list[TimingPoint] = field(default_factory=list)

    def render(self) -> str:
        lines = ["Theorem 3.5: polynomial-time evaluation, measured", ""]
        lines.append("Tree-size scaling (fixed query, {Child+, Child*} signature):")
        lines.extend(
            f"  |A| = {point.parameter:5d}   {point.seconds * 1000:9.2f} ms"
            for point in self.tree_scaling
        )
        lines.append("Query-size scaling (fixed tree):")
        lines.extend(
            f"  |Q| = {point.parameter:5d}   {point.seconds * 1000:9.2f} ms"
            for point in self.query_scaling
        )
        return "\n".join(lines)


def _time(function: Callable[[], object]) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def run(
    tree_sizes: tuple[int, ...] = (100, 200, 400, 800),
    query_sizes: tuple[int, ...] = (4, 8, 16, 32),
    seed: int = 0,
) -> PolytimeResult:
    result = PolytimeResult()
    fixed_query = compile_query(
        random_cyclic_query(
            (Axis.CHILD_PLUS, Axis.CHILD_STAR), num_variables=8, num_extra_atoms=4, seed=seed
        )
    )
    for size in tree_sizes:
        tree = random_tree(size, alphabet=("A", "B", "C"), seed=seed + size)
        structure = TreeStructure(tree)
        result.tree_scaling.append(
            TimingPoint(size, _time(lambda: least_valuation(fixed_query, structure)))
        )

    fixed_tree = random_tree(300, alphabet=("A", "B", "C"), seed=seed + 1)
    fixed_structure = TreeStructure(fixed_tree)
    for size in query_sizes:
        query = random_cyclic_query(
            (Axis.CHILD_PLUS, Axis.CHILD_STAR),
            num_variables=size,
            num_extra_atoms=size // 2,
            seed=seed + size,
        )
        compiled = compile_query(query)
        result.query_scaling.append(
            TimingPoint(query.size(), _time(lambda: least_valuation(compiled, fixed_structure)))
        )
    return result

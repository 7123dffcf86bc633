"""Experiment ``table1``: regenerate Table I and back it with measurements.

Two parts:

1. **Classification** -- the dichotomy classifier reproduces the published
   complexity of all one- and two-axis signatures (the table itself).
2. **Measurement** -- for a representative tractable cell and a representative
   NP-hard cell, evaluation time is measured as the query grows: on the
   tractable side the planner (X-property algorithm) scales polynomially
   (time grows mildly with query size), on the NP-hard side the generic
   evaluator's search effort grows combinatorially on reduction queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..evaluation import backtracking
from ..evaluation.planner import Engine, is_satisfied
from ..hardness.hard_instances import random_cyclic_query, theorem51_workload
from ..hardness.theorem51 import decide_by_selection
from ..trees.axes import Axis
from ..trees.generators import random_tree
from ..trees.structure import TreeStructure
from ..xproperty.dichotomy import (
    PAPER_TABLE1,
    Table1Cell,
    render_table1,
    table1,
)


@dataclass(frozen=True)
class ScalingPoint:
    """One timing measurement."""

    parameter: int
    seconds: float
    search_nodes: int = 0


@dataclass
class Table1Result:
    """Everything needed to print the experiment."""

    cells: list[Table1Cell]
    matches_paper: bool
    tractable_scaling: list[ScalingPoint] = field(default_factory=list)
    hard_scaling: list[ScalingPoint] = field(default_factory=list)

    def render(self) -> str:
        lines = ["Table I (regenerated by the dichotomy classifier)", ""]
        lines.append(render_table1(self.cells))
        lines.append("")
        lines.append(f"Matches the published table: {self.matches_paper}")
        if self.tractable_scaling:
            lines.append("")
            lines.append("Tractable cell {Child+, Child*}: planner time vs query size")
            for point in self.tractable_scaling:
                lines.append(f"  atoms={point.parameter:4d}  {point.seconds * 1000:8.2f} ms")
        if self.hard_scaling:
            lines.append("")
            lines.append(
                "NP-hard cell {Child, Child+}: Theorem 5.1 reduction, "
                "backtracking search effort vs clauses"
            )
            for point in self.hard_scaling:
                lines.append(
                    f"  clauses={point.parameter:3d}  {point.seconds * 1000:8.2f} ms  "
                    f"search nodes={point.search_nodes}"
                )
        return "\n".join(lines)


def classification_only() -> Table1Result:
    """Just the classification part (cheap; used by the tests)."""
    cells = table1()
    matches = all(
        PAPER_TABLE1[frozenset({cell.row, cell.column})] == cell.complexity
        for cell in cells
    )
    return Table1Result(cells=cells, matches_paper=matches)


def tractable_scaling(
    sizes: tuple[int, ...] = (4, 8, 16, 32),
    tree_size: int = 150,
    seed: int = 0,
) -> list[ScalingPoint]:
    """Planner time on {Child+, Child*} cyclic queries of growing size."""
    tree = random_tree(tree_size, alphabet=("A", "B", "C"), seed=seed)
    structure = TreeStructure(tree)
    points: list[ScalingPoint] = []
    for num_variables in sizes:
        query = random_cyclic_query(
            (Axis.CHILD_PLUS, Axis.CHILD_STAR),
            num_variables=num_variables,
            num_extra_atoms=num_variables // 2,
            seed=seed + num_variables,
        )
        start = time.perf_counter()
        is_satisfied(query, structure, engine=Engine.FIXPOINT)
        elapsed = time.perf_counter() - start
        points.append(ScalingPoint(parameter=query.size(), seconds=elapsed))
    return points


def hard_scaling(
    clause_counts: tuple[int, ...] = (2, 3),
    seed: int = 1,
) -> list[ScalingPoint]:
    """Search effort of the generic evaluator on Theorem 5.1 reduction queries."""
    points: list[ScalingPoint] = []
    for num_clauses in clause_counts:
        reduction = theorem51_workload(num_clauses, seed=seed)
        structure = reduction.structure()
        statistics = backtracking.SearchStatistics()
        start = time.perf_counter()
        satisfiable = backtracking.boolean_query_holds(
            reduction.query, structure, statistics=statistics
        )
        elapsed = time.perf_counter() - start
        # Cross-check with the exact selection-enumeration decision procedure.
        assert satisfiable == (decide_by_selection(reduction) is not None)
        points.append(
            ScalingPoint(
                parameter=num_clauses,
                seconds=elapsed,
                search_nodes=statistics.nodes_expanded,
            )
        )
    return points


def run(full: bool = True) -> Table1Result:
    """Run the whole experiment (set ``full=False`` to skip the timings)."""
    result = classification_only()
    if full:
        result.tractable_scaling = tractable_scaling()
        result.hard_scaling = hard_scaling()
    return result

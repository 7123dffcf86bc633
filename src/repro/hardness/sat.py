"""1-in-3 3SAT: instances, generators and solvers (the source problem of Section 5).

All NP-hardness reductions in the paper start from ONE-IN-THREE 3SAT with
positive literals only [Schaefer 1978]: given clauses of exactly three positive
literals, is there a truth assignment making *exactly one* literal per clause
true?

This module provides

* :class:`OneInThreeInstance` -- an immutable instance,
* :func:`brute_force_solutions` / :func:`is_satisfiable` -- an exhaustive
  solver used as ground truth when verifying the reductions,
* :func:`solve_backtracking` -- a faster clause-propagation solver used by the
  benchmarks on larger instances,
* :func:`random_instance` / :func:`satisfiable_instance` /
  :func:`unsatisfiable_instance` -- generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional, Sequence

Clause = tuple[str, str, str]
Assignment = dict[str, bool]


@dataclass(frozen=True)
class OneInThreeInstance:
    """A 1-in-3 3SAT instance over positive literals.

    Each clause is an *ordered* triple of variable names (the proofs of
    Section 5 refer to "the k-th literal of clause C_i"); a variable may occur
    in several clauses but, w.l.o.g. (as the paper assumes), not twice in the
    same clause.
    """

    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clauses must have exactly three literals: {clause}")
            if len(set(clause)) != 3:
                raise ValueError(
                    f"a clause must not contain a literal twice: {clause}"
                )

    @classmethod
    def of(cls, *clauses: Sequence[str]) -> "OneInThreeInstance":
        return cls(tuple(tuple(clause) for clause in clauses))  # type: ignore[arg-type]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for clause in self.clauses:
            for literal in clause:
                seen.setdefault(literal, None)
        return tuple(seen)

    def is_solution(self, assignment: Assignment) -> bool:
        """Exactly one true literal in every clause?"""
        return all(
            sum(1 for literal in clause if assignment.get(literal, False)) == 1
            for clause in self.clauses
        )

    def selection_to_assignment(self, selection: Sequence[int]) -> Assignment:
        """Turn a per-clause literal selection (1-based positions) into truth values.

        ``selection[i] = k`` means the k-th literal of clause ``i`` is the true
        one.  Raises ``ValueError`` when the selection is inconsistent (the
        same variable selected in one clause but unselected in another).
        """
        if len(selection) != self.num_clauses:
            raise ValueError("selection length must equal the number of clauses")
        assignment = {variable: False for variable in self.variables()}
        for clause, position in zip(self.clauses, selection):
            if position not in (1, 2, 3):
                raise ValueError("literal positions are 1, 2 or 3")
            assignment[clause[position - 1]] = True
        if not self.is_solution(assignment):
            raise ValueError("the selection does not induce a 1-in-3 solution")
        return assignment

    def __str__(self) -> str:
        return " AND ".join(
            "1-in-3(" + ", ".join(clause) + ")" for clause in self.clauses
        )


def brute_force_solutions(instance: OneInThreeInstance) -> Iterator[Assignment]:
    """Enumerate all solutions by trying every assignment (ground truth)."""
    variables = instance.variables()
    for values in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if instance.is_solution(assignment):
            yield assignment


def is_satisfiable(instance: OneInThreeInstance) -> bool:
    """Exhaustive satisfiability test (exponential; fine for small instances)."""
    for _ in brute_force_solutions(instance):
        return True
    return False


def count_solutions(instance: OneInThreeInstance) -> int:
    return sum(1 for _ in brute_force_solutions(instance))


def solve_backtracking(instance: OneInThreeInstance) -> Optional[Assignment]:
    """A clause-by-clause backtracking solver (faster than brute force).

    Chooses, for each clause in turn, which literal is the true one, and
    propagates the induced truth values; backtracks on conflict.
    """
    variables = instance.variables()
    assignment: dict[str, bool] = {}

    def consistent_choice(clause: Clause, position: int) -> Optional[list[str]]:
        """Try to select clause[position] as true; return newly fixed variables."""
        newly_fixed: list[str] = []
        for index, literal in enumerate(clause):
            wanted = index == position
            if literal in assignment:
                if assignment[literal] != wanted:
                    for fixed in newly_fixed:
                        del assignment[fixed]
                    return None
            else:
                assignment[literal] = wanted
                newly_fixed.append(literal)
        return newly_fixed

    def search(depth: int) -> bool:
        if depth == instance.num_clauses:
            return True
        clause = instance.clauses[depth]
        for position in range(3):
            newly_fixed = consistent_choice(clause, position)
            if newly_fixed is None:
                continue
            if search(depth + 1):
                return True
            for fixed in newly_fixed:
                del assignment[fixed]
        return False

    if not search(0):
        return None
    for variable in variables:
        assignment.setdefault(variable, False)
    return dict(assignment)


def random_instance(
    num_variables: int,
    num_clauses: int,
    seed: Optional[int] = None,
) -> OneInThreeInstance:
    """A uniformly random instance (near num_clauses ~ 0.6 * num_variables the
    satisfiable/unsatisfiable phase transition makes instances hardest)."""
    if num_variables < 3:
        raise ValueError("need at least three variables to form a clause")
    rng = random.Random(seed)
    variables = [f"u{i}" for i in range(num_variables)]
    clauses = tuple(
        tuple(rng.sample(variables, 3)) for _ in range(num_clauses)
    )
    return OneInThreeInstance(clauses)  # type: ignore[arg-type]


def satisfiable_instance(
    num_variables: int,
    num_clauses: int,
    seed: Optional[int] = None,
) -> OneInThreeInstance:
    """A random instance guaranteed satisfiable (planted solution)."""
    if num_variables < 3:
        raise ValueError("need at least three variables to form a clause")
    rng = random.Random(seed)
    variables = [f"u{i}" for i in range(num_variables)]
    planted = {variable: rng.random() < 0.3 for variable in variables}
    if not any(planted.values()):
        planted[variables[0]] = True
    true_variables = [v for v in variables if planted[v]]
    false_variables = [v for v in variables if not planted[v]]
    while len(false_variables) < 2:
        extra = f"u{len(variables)}"
        variables.append(extra)
        planted[extra] = False
        false_variables.append(extra)
    clauses = []
    for _ in range(num_clauses):
        true_literal = rng.choice(true_variables)
        false_pair = rng.sample(false_variables, 2)
        clause = [true_literal] + false_pair
        rng.shuffle(clause)
        clauses.append(tuple(clause))
    return OneInThreeInstance(tuple(clauses))  # type: ignore[arg-type]


def unsatisfiable_instance() -> OneInThreeInstance:
    """A small canonical unsatisfiable instance (the four triples over {a,b,c,d}).

    Any 1-in-3 solution of the first three clauses must make exactly one of
    a, b, c, d true (a quick case analysis), but then the remaining clause --
    the triple omitting that variable -- has no true literal.  The tests also
    verify unsatisfiability by brute force.
    """
    return OneInThreeInstance.of(
        ("a", "b", "c"),
        ("a", "b", "d"),
        ("a", "c", "d"),
        ("b", "c", "d"),
    )

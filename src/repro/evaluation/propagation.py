"""What prunes the candidates in front of an engine: a function of the plan.

Every evaluator starts from per-variable candidate columns, and the query
fixes which pruning is exact, so no caller above this module picks one:
:func:`choose_propagator` is the one rule, which every engine and
:func:`repro.planning.plan_query` read.  There are two algorithms:

* :attr:`Propagator.SEMIJOIN` -- the Yannakakis full reducer of
  :mod:`repro.evaluation.reducer`: a leaves-to-root semijoin sweep along the
  shadow forest over sorted columns, and the root-to-leaves sweep only once a
  consumer reads a column the first one left inexact.  On a forest-shaped
  body the columns are the subset-maximal arc-consistent prevaluation
  (Proposition 3.1), which there is the projection of the solution set.  On a
  cyclic body the sweeps run along a spanning forest and yield supersets:
  :func:`propagate` refuses them (its verdict would not be exact), while
  :func:`candidate_supersets` hands them to the engines that enforce every
  atom themselves (the decomposition engine, the backtracking search);
* :attr:`Propagator.WALK` -- the pointer walk of
  :func:`repro.evaluation.xprop_evaluator.least_valuation` (Theorem 3.5 /
  Lemma 3.4), for any body over a tractable signature: its verdict is exact
  and its columns -- the candidates at or above the pointers -- are sound
  supersets of the solutions' projections.

:func:`choose_propagator` picks ``semijoin`` on forests, in front of the
decomposition engine and on cyclic bodies with no X-property order (only
supersets are asked for there), ``walk`` on every other cyclic body.
:func:`propagate` and :func:`candidate_supersets` take it by default; their
own ``propagator=`` argument is where the two algorithms are compared (the
tests hold both to Horn, the benchmarks time one against the other).

:func:`propagate` returns a :class:`PropagationResult`: sorted columns, with
sorted-array views built from them (no re-sort) only for the consumers that
ask.  The full reducer hands over its columns after the leaves-to-root sweep
alone, which already settles every component root
(:attr:`~repro.evaluation.compile.CompiledQuery.sweep_roots`): a Boolean
request reads nothing, a monadic one reads its head -- a root -- through
:meth:`PropagationResult.sorted_domain`, and neither pays for the second
sweep.  Reading any other column, :attr:`~PropagationResult.views` or
:meth:`~PropagationResult.domain_sizes` runs it once.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from ..observability import tracing
from ..observability.metrics import REGISTRY
from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.index import AxisIndex, DomainView
from ..trees.orders import Order
from ..trees.structure import TreeStructure
from .compile import CompiledQuery, compile_query
from .reducer import downward_sweep, initial_columns, semijoin_sweeps, upward_sweep

PROPAGATE_SECONDS = REGISTRY.histogram(
    "cqtrees_propagate_seconds",
    "Candidate pruning latency in seconds, by propagator.",
    ("propagator",),
)


class Propagator(str, Enum):
    """What prunes the candidate columns (:func:`choose_propagator` picks)."""

    #: Exact on forest-shaped bodies only (see :mod:`repro.evaluation.reducer`).
    SEMIJOIN = "semijoin"
    #: Tractable signatures only (see :mod:`repro.evaluation.xprop_evaluator`).
    WALK = "walk"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Accepted anywhere a propagator is taken: the enum or its string value.
PropagatorLike = Union[Propagator, str]


def as_propagator(value: PropagatorLike) -> Propagator:
    """Coerce ``"semijoin" | "walk"`` (or the enum)."""
    if isinstance(value, Propagator):
        return value
    try:
        return Propagator(value)
    except ValueError:
        raise ValueError(
            f"unknown propagator {value!r}; expected one of "
            f"{', '.join(p.value for p in Propagator)}"
        ) from None


def choose_propagator(compiled: CompiledQuery, decomposition: bool = False) -> Propagator:
    """The propagator a plan runs: the one rule, read by every engine.

    A forest-shaped body gets the two semijoin sweeps of
    :mod:`repro.evaluation.reducer` (``benchmarks/e2e`` ``mixed_10k``), whose
    columns are exact there, and so does every body in front of the
    ``decomposition`` engine: its bags enforce every atom and its join tree
    supplies global consistency, so sound supersets are enough.  Any other
    cyclic body over a tractable signature gets the pointer walk, whose
    verdict is exact.  A cyclic body with no X-property order keeps the
    sweeps: only the engines that take candidate supersets
    (:func:`candidate_supersets`) can run it.
    """
    if decomposition or compiled.shadow_is_forest or compiled.order is None:
        return Propagator.SEMIJOIN
    return Propagator.WALK


def check_propagator(
    compiled: CompiledQuery, propagator: PropagatorLike, decomposition: bool = False
) -> None:
    """Refuse a ``propagator`` other than :func:`choose_propagator`'s pick."""
    runs, given = choose_propagator(compiled, decomposition), as_propagator(propagator)
    if given is not runs:
        raise ValueError(
            f"propagator {given.value!r} is not the plan's; this query runs {runs.value!r}"
        )


class _Views(Mapping):
    """Each variable's :class:`DomainView` of its column, built on its first read."""

    __slots__ = ("_columns", "_index", "_built")

    def __init__(self, columns: Mapping[Variable, Sequence[int]], index: AxisIndex):
        self._columns = columns
        self._index = index
        self._built: dict[Variable, DomainView] = {}

    def __getitem__(self, variable: Variable) -> DomainView:
        view = self._built.get(variable)
        if view is None:
            view = self._index.view(self._columns[variable], presorted=True)
            self._built[variable] = view
        return view

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


class PropagationResult:
    """Each variable's surviving candidates as a sorted column, views on demand.

    ``columns`` maps each variable to its candidates in ascending node order:
    exact from the semijoin reducer on a forest, sound supersets from the
    walk or from the sweeps on a cyclic body.  With ``unswept`` (the compiled
    query) the columns are only swept leaves to root: exact at
    ``unswept.sweep_roots``, and the root-to-leaves sweep runs on the first
    read of anything else.  :attr:`views` (sorted arrays for the index
    witness primitives) are built from the columns, without a sort, one
    variable at a time on its first read.
    """

    __slots__ = ("_structure", "_columns", "_unswept", "_views")

    def __init__(
        self,
        structure: TreeStructure,
        columns: Mapping[Variable, Sequence[int]],
        unswept: Optional[CompiledQuery] = None,
    ):
        self._structure = structure
        self._columns = columns
        self._unswept = unswept
        self._views: Optional[_Views] = None

    def _swept_columns(self) -> Mapping[Variable, Sequence[int]]:
        """The columns, after the reducer's root-to-leaves sweep (run once, here)."""
        compiled, columns = self._unswept, self._columns
        if compiled is not None:
            sweeps = ["root_to_leaves"]
            with tracing.span("propagate", propagator="semijoin", sweeps=sweeps) as span:
                downward_sweep(compiled, self._structure, columns)
                # Fresh lists: an isolated variable's column is still the resident one.
                self._columns = {variable: list(column) for variable, column in columns.items()}
                self._unswept = None
                if span is not None:
                    span.attributes["domains_after"] = self.domain_sizes()
        return self._columns

    @property
    def views(self) -> Mapping[Variable, DomainView]:
        if self._views is None:
            self._views = _Views(self._swept_columns(), self._structure.index)
        return self._views

    def sorted_domain(self, variable: Variable) -> Sequence[int]:
        """The surviving candidates of ``variable`` in ascending node order.

        The column as it is -- never a view built for the purpose, so the
        column consumers (a monadic head's projection, the decomposition
        engine's level kernel) leave :attr:`views` to those that probe them.
        A root read before the root-to-leaves sweep does not run it: its
        column is already exact, and copied (it may be a resident one).
        """
        if self._unswept is not None and variable in self._unswept.sweep_roots:
            return list(self._columns[variable])
        return self._swept_columns()[variable]

    def domain_sizes(self) -> dict[Variable, int]:
        """Surviving candidates per variable (no set or view is built for it)."""
        columns = self._swept_columns()
        return {variable: len(columns[variable]) for variable in sorted(columns)}

    def final_sizes(self) -> dict[Variable, int]:
        """:meth:`domain_sizes` of the variables already settled, running no sweep.

        Every variable, except the non-roots while the reducer's
        root-to-leaves sweep is still owed.
        """
        if self._unswept is None:
            return self.domain_sizes()
        roots = self._unswept.sweep_roots
        return {variable: len(self._columns[variable]) for variable in sorted(roots)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PropagationResult({self.final_sizes()})"


def propagate(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator: Optional[PropagatorLike] = None,
) -> Optional[PropagationResult]:
    """Prune the candidates with the chosen propagator; ``None`` refutes the query.

    ``None`` is an exact verdict: the query is unsatisfiable on the structure.
    ``propagator=None`` runs :func:`choose_propagator`'s pick.  Accepts a
    pre-compiled query directly, so callers holding resident artifacts (the
    serving layer's query cache) skip even the compile-cache lookup.

    Every call lands in the per-propagator latency histogram
    (:data:`PROPAGATE_SECONDS`); inside an active trace a ``propagate`` span
    records per-variable domain sizes before and after -- the domain-shrinkage
    signal the cost model reads.  The sizes before are the initial label
    columns' (an emptied one counts 0), read a second time, so trace-only.
    """
    compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
    chosen = choose_propagator(compiled) if propagator is None else as_propagator(propagator)
    return _observed(compiled, structure, pinned, chosen)


def _observed(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    chosen: Propagator,
    initial: Optional[Mapping[Variable, Sequence[int]]] = None,
) -> Optional[PropagationResult]:
    """:func:`propagate`, timed and traced; ``initial`` as in :func:`candidate_supersets`."""
    if not tracing.is_active():
        started = time.perf_counter()
        result = _propagate(compiled, structure, pinned, chosen, initial)
        PROPAGATE_SECONDS.observe(time.perf_counter() - started, propagator=chosen.value)
        return result
    with tracing.span("propagate", propagator=chosen.value):
        before = initial_columns(compiled, structure, pinned) if initial is None else initial
        tracing.annotate(
            domains_before={variable: len(before[variable]) for variable in sorted(before)}
        )
        started = time.perf_counter()
        result = _propagate(compiled, structure, pinned, chosen, initial)
        PROPAGATE_SECONDS.observe(time.perf_counter() - started, propagator=chosen.value)
        if result is None:
            tracing.annotate(satisfiable=False)
        else:
            # Sizes already settled: reading the others would run a sweep the
            # untraced request never pays for.
            tracing.annotate(satisfiable=True, domains_after=result.final_sizes())
            if chosen is Propagator.SEMIJOIN:
                tracing.annotate(sweeps=["leaves_to_root"])
    return result


def _propagate(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    chosen: Propagator,
    initial: Optional[Mapping[Variable, Sequence[int]]],
) -> Optional[PropagationResult]:
    if chosen is Propagator.WALK:
        from .xprop_evaluator import least_valuation  # the walk's module imports this one

        suffixes = least_valuation(compiled, structure, pinned)
        if suffixes is None:
            return None
        if compiled.order is not Order.PRE:
            suffixes = {variable: sorted(column) for variable, column in suffixes.items()}
        return PropagationResult(structure, suffixes)
    if not compiled.shadow_is_forest:
        raise ValueError(
            "propagator 'semijoin' needs a forest-shaped body; use walk on cyclic queries"
        )
    # A column that empties on the way up already refutes the query.
    columns = upward_sweep(compiled, structure, pinned, initial)
    if columns is None:
        return None
    return PropagationResult(structure, columns, unswept=compiled)


def candidate_supersets(
    compiled: CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator: Optional[PropagatorLike] = None,
    initial: Optional[Mapping[Variable, Sequence[int]]] = None,
) -> Optional[PropagationResult]:
    """Sound candidate supersets, for an engine that enforces every atom itself.

    ``semijoin`` on a cyclic body is the reducer's two sweeps along a spanning
    forest (:func:`~repro.evaluation.reducer.semijoin_sweeps`); everything
    else is :func:`propagate`.  ``None`` still refutes the query.  A caller
    that has built :func:`~repro.evaluation.reducer.initial_columns` for these
    arguments passes them as ``initial``, and the sweeps start from them.
    """
    chosen = choose_propagator(compiled) if propagator is None else as_propagator(propagator)
    if chosen is not Propagator.SEMIJOIN or compiled.shadow_is_forest:
        return _observed(compiled, structure, pinned, chosen, initial)
    started = time.perf_counter()
    with tracing.span("propagate", propagator=chosen.value, exact=False):
        swept = semijoin_sweeps(compiled, structure, pinned, initial)
    PROPAGATE_SECONDS.observe(time.perf_counter() - started, propagator=chosen.value)
    return None if swept is None else PropagationResult(structure, swept)

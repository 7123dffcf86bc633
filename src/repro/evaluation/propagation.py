"""The propagator dimension: one fixpoint, five interchangeable engines.

Every evaluator needs the subset-maximal arc-consistent prevaluation
(Proposition 3.1); *how* it is computed is an engineering choice the planner
now exposes as the ``propagator=`` dimension:

* :attr:`Propagator.AC4` (the default) -- the support-counting engine of
  :mod:`repro.evaluation.ac4`: counters/thresholds over pre/post interval
  ranks, deletion-driven, maintained (never rebuilt) domain views;
* :attr:`Propagator.AC3` -- the worklist engine of
  :mod:`repro.evaluation.arc_consistency` (bulk revise kernels over
  maintained views), a wire value kept beside AC-4;
* :attr:`Propagator.HORN` -- the literal Horn-SAT transcription of the
  Proposition 3.1 proof, the ground truth every other engine is tested
  against;
* :attr:`Propagator.HYBRID` -- one bulk AC-3 revise sweep to harvest the
  cheap deletions at bulk-scan cost, then AC-4 support counting on the
  shrunken domains (closing the ROADMAP gap on fast-converging pure
  ``Child+`` chains where AC-3's set scans beat AC-4's bookkeeping);
* :attr:`Propagator.SEMIJOIN` -- the Yannakakis full reducer of
  :mod:`repro.evaluation.reducer`: a leaves-to-root semijoin sweep along the
  shadow forest over sorted columns, and the root-to-leaves sweep only once
  a consumer reads a column the first one left inexact.  **Forest-shaped
  bodies only** (there the fixpoint is the projection of the solution set);
  on a cyclic body :func:`propagate` raises :class:`ValueError`, because the
  sweeps then yield supersets -- which only the decomposition engine can
  use, and asks the reducer for directly.  The cost planner picks it for
  every forest-shaped body and for every decomposition-routed plan.

All five compute the same fixpoint (the deletion rules are confluent); the
property tests assert it.  :func:`propagate` wraps the choice and returns a
:class:`PropagationResult` carrying both the plain domain sets and -- for
consumers that keep querying witnesses, like the backtracking forward checker
and the acyclic enumerator -- per-variable sorted-array views, which AC-4
hands over for free (its maintained views ARE the fixpoint) and the other
engines build once on demand.  The full reducer hands over its sorted
survivor columns after the leaves-to-root sweep alone, which already settles
every component root (:attr:`~repro.evaluation.compile.CompiledQuery.sweep_roots`):
a Boolean request reads nothing, a monadic one reads its head -- a root --
through :meth:`PropagationResult.sorted_domain`, and neither pays for the
second sweep.  Reading any other column, :attr:`~PropagationResult.domains`,
:attr:`~PropagationResult.views` or :meth:`~PropagationResult.domain_sizes`
runs it once; sets and views are then built from the columns (no re-sort)
only for the consumers that ask -- the decomposition engine's level kernel
reads the columns alone, so a default-routed join-tree request builds no
view at all.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from ..observability import tracing
from ..observability.metrics import REGISTRY
from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.structure import TreeStructure
from .ac4 import Views, ac4_fixpoint, hybrid_fixpoint
from .arc_consistency import maximal_arc_consistent, maximal_arc_consistent_horn
from .compile import CompiledQuery, compile_query
from .domains import Domains
from .reducer import downward_sweep, upward_sweep

PROPAGATE_SECONDS = REGISTRY.histogram(
    "cqtrees_propagate_seconds",
    "Arc-consistency fixpoint latency in seconds, by propagator.",
    ("propagator",),
)


class Propagator(str, Enum):
    """Arc-consistency engine choices (``ac4`` is the planner default)."""

    AC4 = "ac4"
    AC3 = "ac3"
    HORN = "horn"
    HYBRID = "hybrid"
    #: Exact on forest-shaped bodies only (see :mod:`repro.evaluation.reducer`).
    SEMIJOIN = "semijoin"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Accepted anywhere a propagator is taken: the enum or its string value.
PropagatorLike = Union[Propagator, str]

DEFAULT_PROPAGATOR = Propagator.AC4


def as_propagator(value: PropagatorLike) -> Propagator:
    """Coerce ``"ac4" | "ac3" | "horn" | "hybrid" | "semijoin"`` (or the enum)."""
    if isinstance(value, Propagator):
        return value
    try:
        return Propagator(value)
    except ValueError:
        raise ValueError(
            f"unknown propagator {value!r}; expected one of "
            f"{', '.join(p.value for p in Propagator)}"
        ) from None


class PropagationResult:
    """The fixpoint, as plain sets plus (lazily) sorted-array views.

    ``domains`` maps each variable to its surviving candidate set.  ``views``
    maps each variable to a sorted-array view suitable for the index witness
    primitives; for AC-4 these are the maintained
    :class:`~repro.trees.index.MutableDomainView` objects straight out of the
    engine, for the others they are built once on first access.  The full
    reducer passes ``columns`` -- the same domains as sorted lists -- instead
    of ``domains``; sets and views are then both built from the columns on
    first access, the views without a sort.  With ``unswept`` (the compiled
    query) the columns are only swept leaves to root: exact at
    ``unswept.sweep_roots``, and the root-to-leaves sweep runs on the first
    read of anything else.
    """

    __slots__ = ("_structure", "_domains", "_views", "_columns", "_unswept")

    def __init__(
        self,
        structure: TreeStructure,
        domains: Optional[Domains] = None,
        views: Optional[Views] = None,
        columns: Optional[Mapping[Variable, Sequence[int]]] = None,
        unswept: Optional[CompiledQuery] = None,
    ):
        self._structure = structure
        self._domains = domains
        self._views = views
        self._columns = columns
        self._unswept = unswept

    def _exact_columns(self) -> Mapping[Variable, list[int]]:
        """The reducer's columns, after the root-to-leaves sweep (run once, here)."""
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
    def domains(self) -> Domains:
        if self._domains is None:
            self._domains = {
                variable: set(column) for variable, column in self._exact_columns().items()
            }
        return self._domains

    @property
    def views(self):
        if self._views is None:
            index = self._structure.index
            if self._columns is not None:
                self._views = {
                    variable: index.mutable_view(column, presorted=True)
                    for variable, column in self._exact_columns().items()
                }
            else:
                self._views = {
                    variable: index.mutable_view(nodes)
                    for variable, nodes in self._domains.items()
                }
        return self._views

    def sorted_domain(self, variable: Variable) -> list[int]:
        """The surviving candidates of ``variable`` in ascending node order.

        The reducer's column as it is, a copy of AC-4's maintained array, one
        sort of the plain set otherwise -- never a view built for the purpose,
        so the column consumers (the acyclic enumerator, the decomposition
        engine's level kernel) leave :attr:`views` to those that probe them.
        A root read before the root-to-leaves sweep does not run it: its
        column is already exact, and copied (it may be a resident one).
        """
        if self._columns is not None:
            if self._unswept is not None and variable in self._unswept.sweep_roots:
                return list(self._columns[variable])
            return self._exact_columns()[variable]
        if self._views is not None:
            return list(self._views[variable].array)
        return sorted(self._domains[variable])

    def domain_sizes(self) -> dict[Variable, int]:
        """Surviving candidates per variable (no set or view is built for it)."""
        sized = self._exact_columns() if self._columns is not None else self._domains
        return {variable: len(sized[variable]) for variable in sorted(sized)}

    def final_sizes(self) -> dict[Variable, int]:
        """:meth:`domain_sizes` of the variables already exact, running no sweep.

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
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
) -> Optional[PropagationResult]:
    """Compute the maximal arc-consistent prevaluation with the chosen engine.

    Returns ``None`` when no arc-consistent prevaluation exists (some domain
    empties), i.e. the query is unsatisfiable on the structure.  Accepts a
    pre-compiled query directly, so callers holding resident artifacts (the
    serving layer's query cache) skip even the compile-cache lookup.

    Every call lands in the per-propagator latency histogram
    (:data:`PROPAGATE_SECONDS`); inside an active trace a ``propagate`` span
    records per-variable domain sizes before and after the fixpoint -- the
    domain-shrinkage signal the cost-model roadmap item needs -- which costs
    an initial-domain materialization and is therefore trace-only.
    """
    chosen = as_propagator(propagator)
    if not tracing.is_active():
        started = time.perf_counter()
        result = _propagate(query, structure, pinned, chosen)
        PROPAGATE_SECONDS.observe(time.perf_counter() - started, propagator=chosen.value)
        return result
    with tracing.span("propagate", propagator=chosen.value):
        compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
        initial = compiled.initial_domains(structure, pinned)
        tracing.annotate(
            domains_before={
                variable: len(nodes) for variable, nodes in sorted(initial.items())
            }
        )
        started = time.perf_counter()
        result = _propagate(compiled, structure, pinned, chosen)
        PROPAGATE_SECONDS.observe(time.perf_counter() - started, propagator=chosen.value)
        if result is None:
            tracing.annotate(satisfiable=False)
        else:
            # Sizes the fixpoint already settled: reading the others would
            # run a sweep the untraced request never pays for.
            tracing.annotate(satisfiable=True, domains_after=result.final_sizes())
            if chosen is Propagator.SEMIJOIN:
                tracing.annotate(sweeps=["leaves_to_root"])
    return result


def _propagate(
    query: ConjunctiveQuery | CompiledQuery,
    structure: TreeStructure,
    pinned: Optional[Mapping[Variable, int]],
    chosen: Propagator,
) -> Optional[PropagationResult]:
    if chosen is Propagator.AC4 or chosen is Propagator.HYBRID:
        if chosen is Propagator.AC4:
            views = ac4_fixpoint(query, structure, pinned)
        else:
            views = hybrid_fixpoint(query, structure, pinned)
        if views is None:
            return None
        domains = {variable: view.members for variable, view in views.items()}
        return PropagationResult(structure, domains, views)
    if chosen is Propagator.SEMIJOIN:
        compiled = query if isinstance(query, CompiledQuery) else compile_query(query)
        if not compiled.shadow_is_forest:
            raise ValueError(
                "propagator 'semijoin' needs a forest-shaped body; "
                "use ac4, ac3, horn or hybrid on cyclic queries"
            )
        # A column that empties on the way up already refutes the query.
        columns = upward_sweep(compiled, structure, pinned)
        if columns is None:
            return None
        return PropagationResult(structure, columns=columns, unswept=compiled)
    if chosen is Propagator.AC3:
        domains = maximal_arc_consistent(query, structure, pinned)
    else:
        domains = maximal_arc_consistent_horn(query, structure, pinned)
    if domains is None:
        return None
    return PropagationResult(structure, domains)

"""The polynomial-time evaluator for X-property structures (Lemma 3.4 / Thm 3.5).

The algorithm is exactly the one of the paper:

1. compute the subset-maximal arc-consistent prevaluation Phi
   (Proposition 3.1); if none exists the query is false;
2. otherwise the *minimum valuation* -- mapping each variable to the
   ``<``-smallest node of its candidate set, where ``<`` is an order with
   respect to which all used axes have the X-property -- is guaranteed to be a
   satisfaction (Lemma 3.4), so the Boolean query is true.

For a structure/order combination *without* the X-property the minimum
valuation may fail; :func:`boolean_query_holds` exposes a ``verify`` mode that
checks the produced valuation and raises if the guarantee is violated (the
tests use it to confirm Lemma 3.4 on random trees, and to exhibit its failure
beyond the tractability frontier).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..queries.atoms import Variable
from ..queries.query import ConjunctiveQuery
from ..trees.orders import Order, minimum
from ..trees.structure import TreeStructure
from ..xproperty.dichotomy import order_for
from .domains import Domains, Valuation, valuation_satisfies
from .propagation import DEFAULT_PROPAGATOR, PropagatorLike, propagate


class XPropertyEvaluationError(RuntimeError):
    """Raised in ``verify`` mode when the minimum valuation is not consistent."""


def choose_order(query: ConjunctiveQuery) -> Optional[Order]:
    """Pick an order making all of the query's axes X (None if impossible)."""
    return order_for(query.signature())


def minimum_valuation(
    structure: TreeStructure, domains: Domains, order: Order
) -> Valuation:
    """The minimum valuation of a prevaluation w.r.t. an order (Lemma 3.4)."""
    return {variable: minimum(structure.tree, order, nodes) for variable, nodes in domains.items()}


def boolean_query_holds(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    order: Optional[Order] = None,
    pinned: Optional[Mapping[Variable, int]] = None,
    verify: bool = False,
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
) -> bool:
    """Evaluate a Boolean query using the Theorem 3.5 algorithm.

    Parameters
    ----------
    order:
        The total order to use for the minimum valuation.  When omitted it is
        chosen from the query's signature via the dichotomy (Theorem 4.1); a
        ``ValueError`` is raised if the signature is not tractable, since the
        algorithm's correctness then has no guarantee.
    pinned:
        Optional variable pinning (singleton domains), used to answer k-ary
        queries tuple by tuple.
    verify:
        When True, the minimum valuation is re-checked against the query and
        an :class:`XPropertyEvaluationError` is raised if it fails.  This is
        how the tests certify Lemma 3.4 empirically.
    """
    if order is None:
        order = choose_order(query)
        if order is None:
            raise ValueError(
                f"signature {query.signature()} is not tractable; "
                "use the backtracking evaluator instead"
            )
    result = propagate(query, structure, pinned, propagator)
    if result is None:
        return False
    # Lemma 3.4: the prevaluation exists, so the minimum valuation satisfies
    # the query; only ``verify`` builds it to check.
    if verify and not valuation_satisfies(
        query, structure, minimum_valuation(structure, result.domains, order)
    ):
        raise XPropertyEvaluationError(
            "minimum valuation is not a satisfaction although an arc-consistent "
            "prevaluation exists; the structure/order pair lacks the X-property"
        )
    return True


def witness(
    query: ConjunctiveQuery,
    structure: TreeStructure,
    order: Optional[Order] = None,
    pinned: Optional[Mapping[Variable, int]] = None,
    propagator: PropagatorLike = DEFAULT_PROPAGATOR,
) -> Optional[Valuation]:
    """Return a satisfying valuation (the minimum valuation) or ``None``.

    Only sound for tractable signatures; the returned valuation is always
    verified before being handed back, so a ``None`` result with a satisfiable
    query cannot happen on tractable signatures (Lemma 3.4) and the function
    degrades gracefully (returns ``None``) if misused.
    """
    if order is None:
        order = choose_order(query)
        if order is None:
            return None
    result = propagate(query, structure, pinned, propagator)
    if result is None:
        return None
    valuation = minimum_valuation(structure, result.domains, order)
    if valuation_satisfies(query, structure, valuation):
        return valuation
    return None

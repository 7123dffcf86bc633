"""Answer-preserving structural simplification of conjunctive queries.

The XPath translator (and humans) routinely write queries with *vacuous*
existential structure: ``//description//listitem`` becomes

    Q(x3) <- Child*(x0, x1), description(x1), Child*(x1, x2),
             Child(x2, x3), listitem(x3)

where ``x0`` (the ``//`` root step) and ``x2`` (the step joint) are unlabeled
existentials ranging over *all* nodes.  Evaluation cost is driven by initial
domain sizes, so those variables dominate the propagation fixpoint -- on a
10k-node document the query above spends ~95% of its time pruning ``x0`` and
``x2`` -- while contributing nothing to the answer set.  :func:`simplify_query`
removes them:

* **Dangling reflexive atoms.**  An existential variable with no label atoms
  and exactly one incident axis atom whose relation contains the identity
  (``Child*``, ``NextSibling*``, ``AncestorOrSelf``, ``Self``) is always
  witnessed by the other endpoint itself; the atom and the variable are
  dropped.
* **Chain composition.**  An unlabeled existential ``z`` whose only atoms form
  a directed chain ``A(x, z), B(z, y)`` is projected out when the axis algebra
  composes exactly: ``Child* . Child = Child+``, ``Child* . Child+ = Child+``,
  ``Child* . Child* = Child*`` (and the sibling-chain analogues, and ``Self``
  composing with anything).  ``Child+ . Child+`` has no single-axis equivalent
  and is left alone.

Both rewrites preserve the answer set on every tree (the head is never
touched), so the serving cache applies them before canonicalization: the
simplified query is what gets compiled, planned and evaluated, and textual
variants that simplify to alpha-equivalent forms share one cache entry.  The
rewrite runs to a fixpoint -- dropping one variable can expose another.
"""

from __future__ import annotations

from functools import lru_cache

from ..trees.axes import Axis
from .atoms import AxisAtom, LabelAtom, Variable
from .query import ConjunctiveQuery

#: Axes whose relation contains the identity: a dangling existential attached
#: through one of these is witnessed by the other endpoint itself.
_REFLEXIVE_AXES = frozenset(
    {Axis.CHILD_STAR, Axis.NEXT_SIBLING_STAR, Axis.ANCESTOR_OR_SELF, Axis.SELF}
)

#: Exact relation compositions: ``_COMPOSE[A, B] = C`` iff
#: ``exists z: A(x, z) and B(z, y)``  <=>  ``C(x, y)`` on every tree.
_COMPOSE: dict[tuple[Axis, Axis], Axis] = {
    (Axis.CHILD_STAR, Axis.CHILD_STAR): Axis.CHILD_STAR,
    (Axis.CHILD_STAR, Axis.CHILD_PLUS): Axis.CHILD_PLUS,
    (Axis.CHILD_PLUS, Axis.CHILD_STAR): Axis.CHILD_PLUS,
    (Axis.CHILD_STAR, Axis.CHILD): Axis.CHILD_PLUS,
    (Axis.CHILD, Axis.CHILD_STAR): Axis.CHILD_PLUS,
    (Axis.NEXT_SIBLING_STAR, Axis.NEXT_SIBLING_STAR): Axis.NEXT_SIBLING_STAR,
    (Axis.NEXT_SIBLING_STAR, Axis.NEXT_SIBLING_PLUS): Axis.NEXT_SIBLING_PLUS,
    (Axis.NEXT_SIBLING_PLUS, Axis.NEXT_SIBLING_STAR): Axis.NEXT_SIBLING_PLUS,
    (Axis.NEXT_SIBLING_STAR, Axis.NEXT_SIBLING): Axis.NEXT_SIBLING_PLUS,
    (Axis.NEXT_SIBLING, Axis.NEXT_SIBLING_STAR): Axis.NEXT_SIBLING_PLUS,
}


def _compose(first: Axis, second: Axis) -> Axis | None:
    if first is Axis.SELF:
        return second
    if second is Axis.SELF:
        return first
    return _COMPOSE.get((first, second))


def _projectable(query: ConjunctiveQuery) -> set[Variable]:
    """Variables that may be projected out: existential, unlabeled, loop-free."""
    blocked: set[Variable] = set(query.head)
    for atom in query.body:
        if isinstance(atom, LabelAtom):
            blocked.add(atom.variable)
        elif atom.source == atom.target:
            blocked.add(atom.source)
    return {v for v in query.variables() if v not in blocked}


def _incident(query: ConjunctiveQuery) -> dict[Variable, list[AxisAtom]]:
    """The non-loop axis atoms touching each variable, in body order."""
    incident: dict[Variable, list[AxisAtom]] = {}
    for atom in query.body:
        if isinstance(atom, AxisAtom) and atom.source != atom.target:
            incident.setdefault(atom.source, []).append(atom)
            incident.setdefault(atom.target, []).append(atom)
    return incident


def _drop_dangling(query: ConjunctiveQuery, incident: dict) -> ConjunctiveQuery | None:
    """Drop one dangling reflexive atom, or ``None`` when there is none."""
    for variable in sorted(_projectable(query)):
        atoms = incident.get(variable, [])
        if len(atoms) != 1 or atoms[0].axis not in _REFLEXIVE_AXES:
            continue
        (atom,) = atoms
        other = atom.target if atom.source == variable else atom.source
        body = tuple(a for a in query.body if a is not atom)
        if other in query.head and not any(other in a.variables() for a in body):
            # Dropping the atom would make the query unsafe (a head
            # variable with no body occurrence); keep it.
            continue
        return ConjunctiveQuery(query.head, body, query.name)
    return None


def _compose_chain(query: ConjunctiveQuery, incident: dict) -> ConjunctiveQuery | None:
    """Project one chain joint out, or ``None`` when no chain composes.

    Which joint goes first matters where the algebra is partial (in ``Child+
    . Child* . Child`` either neighbour can absorb the ``Child*``), so the
    axis pair decides, the variable name only between like joints.
    """
    candidates = []
    for variable in _projectable(query):
        atoms = incident.get(variable, [])
        if len(atoms) != 2:
            continue
        first, second = atoms
        # Orient into a directed chain A(x, z), B(z, y) through z.
        if second.target == variable:
            first, second = second, first
        if first.target != variable or second.source != variable:
            continue
        composed = _compose(first.axis, second.axis)
        if composed is not None and first.source != second.target:
            replacement = AxisAtom(composed, first.source, second.target)
            candidates.append(
                (first.axis.value, second.axis.value, variable, first, second, replacement)
            )
    if not candidates:
        return None
    *_, first, second, replacement = min(candidates, key=lambda candidate: candidate[:3])
    body = tuple(replacement if a is first else a for a in query.body if a is not second)
    return ConjunctiveQuery(query.head, body, query.name)


@lru_cache(maxsize=4096)
def simplify_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The fixpoint of the vacuous-existential rewrites; same answers always.

    Dangling atoms are dropped to exhaustion before every single composition:
    the rules do not commute (in ``Child*(a, b), Child(b, c)`` drop ``a`` or
    compose ``b`` away), and alpha-equivalent texts must simplify alike.

    (:class:`~repro.queries.query.ConjunctiveQuery` deduplicates repeated
    atoms itself, so a composition collapsing two chains onto the same atom
    needs no extra handling here.)
    """
    current = query
    while True:
        incident = _incident(current)
        rewritten = _drop_dangling(current, incident)
        if rewritten is None:
            rewritten = _compose_chain(current, incident)
        if rewritten is None:
            return current
        current = rewritten

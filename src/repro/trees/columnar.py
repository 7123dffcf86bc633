"""Columnar axis kernels: staircase sweeps over sorted rank columns.

The per-candidate witness primitives of :mod:`repro.trees.index` answer "does
``u`` have an axis witness in ``S``?" one ``u`` at a time -- two bisections
plus a method dispatch per candidate.  When a semijoin of the full reducer
(:mod:`repro.evaluation.reducer`) asks that question for *every* candidate of
a column, the per-call constant dominates: the work is a pure function of two
sorted integer columns and can run as a handful of fused C-level passes
instead of |column| interpreted loop iterations.

This module holds those bulk kernels.  Everything is plain stdlib -- the
``array`` module for contiguous columns, ``bytearray`` masks,
``itertools.accumulate``/``compress`` and ``map`` over bound C methods -- so
each kernel touches Python-level bytecode O(1) times regardless of input
size.

The central object is the *cumulative membership column* of a support set
``S`` over a tree with ``n`` nodes:

    ``cum[j] = |{s in S : s < j}|``        (length ``n + 1``)

With ``end = subtree_end`` (descendants of ``u`` are exactly the pre-order
range ``(u, end(u)]``), the interval-axis support counts become closed-form
column lookups:

* descendants of ``u`` in ``S``:       ``cum[end(u) + 1] - cum[u + 1]``
* descendants-or-self:                 ``cum[end(u) + 1] - cum[u]``
* strict ancestors of ``u`` in ``S``:  ``cum[u] - cum_end[u]`` where
  ``cum_end[j] = |{s in S : end(s) < j}|`` -- because ``s`` is a strict
  ancestor of ``u`` iff ``s < u <= end(s)``, the ancestor count is
  "elements before ``u``" minus "elements whose subtree closed before ``u``".
* ``Following(u, v)`` iff ``v > end(u)`` and ``DocumentOrder(u, v)`` iff
  ``v > u`` stay single threshold comparisons against the support extremum.

The second family serves the decomposition engine's bag materialization,
which extends a table of prefixes by one variable *per level* instead of one
prefix at a time.  Every axis makes the candidates of a prefix a window of a
sorted column (the paper's Eq. (1) read as pre-order ranges), so one pass per
level gives every prefix its window and one more expands all of them:

* :func:`window_bounds` -- per prefix, the index window ``[lo, hi)`` that its
  key bounds (``>= max(lows)``, ``< min(highs)``) cut out of the candidate
  column, one ``bisect`` pipeline per side;
* :func:`group_by_parent` / :func:`ancestor_paths` -- the candidate column
  rearranged so that the local axes are windows too: children and later /
  earlier siblings are a run of the column regrouped by parent, ancestors a
  run of the concatenated ancestor paths;
* :func:`expand_windows` / :func:`repeat_each` -- the new column (all windows
  concatenated) and the prefix columns repeated to match;
* :func:`holds_column` -- :meth:`AxisIndex.holds` over two columns, for the
  residual checks a window cannot express.

The kernels are cross-checked against the bisection primitives
(:func:`repro.trees.index.range_count` et al.) by the hypothesis suite in
``tests/test_columnar.py``; the speedups they buy are measured and pinned by
``benchmarks/bench_columnar.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, eq, le, lt, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .axes import Axis

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (the index imports us)
    from .index import AxisIndex

#: The array typecode used for all rank columns (signed, at least 32 bits).
COLUMN_TYPECODE = "l"


# ---------------------------------------------------------------------------
# Cumulative membership columns.
# ---------------------------------------------------------------------------


def cumulative_membership(sorted_ids: Sequence[int], n: int) -> list[int]:
    """The column ``cum[j] = |{s in sorted_ids : s < j}|`` (length ``n + 1``).

    Built as a 0/1 byte mask shifted by one position and prefix-summed --
    both passes run inside the interpreter's C loops.  Ids must be distinct
    (they are node ids) and lie in ``range(n)``.
    """
    mask = bytearray(n + 1)
    for node_id in sorted_ids:
        mask[node_id + 1] = 1
    return list(accumulate(mask))


def cumulative_end_membership(
    sorted_ids: Sequence[int], subtree_end: Sequence[int], n: int
) -> list[int]:
    """The column ``cum[j] = |{s in sorted_ids : subtree_end[s] < j}|``.

    Distinct nodes may share a ``subtree_end`` (every ancestor on the
    rightmost path to a deepest leaf closes at that leaf), so this histogram
    uses integer buckets rather than a byte mask.
    """
    buckets = [0] * (n + 1)
    for node_id in sorted_ids:
        buckets[subtree_end[node_id] + 1] += 1
    return list(accumulate(buckets))


def membership_mask(sorted_ids: Sequence[int], n: int) -> bytearray:
    """A 0/1 byte mask of the support set, for or-self count corrections."""
    mask = bytearray(n)
    for node_id in sorted_ids:
        mask[node_id] = 1
    return mask


# ---------------------------------------------------------------------------
# Interval-axis support counts (one fused pass per column).
# ---------------------------------------------------------------------------


def descendant_counts(
    candidates: Sequence[int],
    subtree_end_plus1: Sequence[int],
    cum: Sequence[int],
    include_self: bool,
) -> list[int]:
    """Per candidate ``u``: how many support nodes lie in ``u``'s subtree.

    ``Child+`` counts over ``(u, end(u)]``; ``include_self`` (``Child*``)
    widens to ``[u, end(u)]``.  ``cum`` is the support's cumulative
    membership column; ``subtree_end_plus1[u] = subtree_end[u] + 1`` is the
    index-cached shifted column, so the whole computation is three ``map``
    pipelines over bound C methods.
    """
    upper = map(cum.__getitem__, map(subtree_end_plus1.__getitem__, candidates))
    if include_self:
        lower = map(cum.__getitem__, candidates)
    else:
        lower = map(cum.__getitem__, map((1).__add__, candidates))
    return list(map(sub, upper, lower))


def ancestor_counts(
    candidates: Sequence[int],
    cum: Sequence[int],
    cum_end: Sequence[int],
    self_mask: Sequence[int] | None = None,
) -> list[int]:
    """Per candidate ``u``: how many support nodes are ancestors of ``u``.

    Uses the closed form ``cum[u] - cum_end[u]`` (strict ancestors are the
    support nodes opening before ``u`` whose subtree has not closed before
    ``u``).  Passing the support's :func:`membership_mask` as ``self_mask``
    adds 1 for candidates that are support members themselves (``Child*``).
    """
    strict = map(sub, map(cum.__getitem__, candidates), map(cum_end.__getitem__, candidates))
    if self_mask is None:
        return list(strict)
    return list(map(add, strict, map(self_mask.__getitem__, candidates)))


# ---------------------------------------------------------------------------
# Survivor selection.
# ---------------------------------------------------------------------------


def survivors(candidates: Sequence[int], counts: Sequence[int]) -> list[int]:
    """The candidates whose support count is non-zero (one C pass)."""
    return list(compress(candidates, counts))


# ---------------------------------------------------------------------------
# Level-at-a-time windows: every prefix's candidate slice in one pass.
# ---------------------------------------------------------------------------


def window_bounds(
    base: Sequence[int],
    lows: Sequence[Iterable[int]],
    highs: Sequence[Iterable[int]],
    rows: int,
    starts: Optional[Sequence[int]] = None,
    stops: Optional[Sequence[int]] = None,
) -> tuple[Sequence[int], Sequence[int]]:
    """Per prefix, the window ``[lo, hi)`` of ``base`` between its key bounds.

    ``lows`` and ``highs`` are key columns, one value per prefix each: prefix
    ``i`` keeps the elements ``>= max(low[i] for low in lows)`` and ``<
    min(high[i] for high in highs)`` of its run ``base[starts[i]:stops[i]]``
    (all of ``base`` without ``starts`` / ``stops``), which must be ascending.
    The upper bound is searched from the lower one, so ``hi >= lo`` always:
    contradictory bounds give an empty window, never a negative one.
    """
    last = repeat(len(base)) if stops is None else stops
    if lows:
        low = lows[0] if len(lows) == 1 else map(max, *lows)
        first = repeat(0) if starts is None else starts
        lo = list(map(bisect_left, repeat(base), low, first, last))
    else:
        lo = [0] * rows if starts is None else starts
    if highs:
        high = highs[0] if len(highs) == 1 else map(min, *highs)
        hi = list(map(bisect_left, repeat(base), high, lo, last))
    else:
        hi = [len(base)] * rows if stops is None else stops
    return lo, hi


def expand_windows(base: Sequence[int], lo: Iterable[int], hi: Iterable[int]) -> list[int]:
    """Every window ``base[lo:hi]``, concatenated in prefix order."""
    return list(chain.from_iterable(map(base.__getitem__, map(slice, lo, hi))))


def repeat_each(column: Iterable[int], times: Iterable[int]) -> list[int]:
    """``column[i]`` repeated ``times[i]`` times: a prefix column after an expansion."""
    return list(chain.from_iterable(map(repeat, column, times)))


def group_by_parent(
    column: Sequence[int], parent: Sequence[int]
) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """``column`` regrouped by parent id: ``(grouped, start_of, stop_of)``.

    The sort is stable, so each parent's members stay ascending: the children
    of ``u`` inside ``column`` are the run ``grouped[start_of[u]:stop_of[u]]``
    (``u`` is in neither mapping when it has none), and the later (earlier)
    siblings of ``v`` are the part of its parent's run above (below) ``v``.
    """
    grouped = sorted(column, key=parent.__getitem__)
    keys = list(map(parent.__getitem__, grouped))
    # Later entries win: the first position of a key when filled back to front.
    start_of = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    stop_of = dict(zip(keys, range(1, len(keys) + 1)))
    return grouped, start_of, stop_of


def ancestor_paths(
    column: Sequence[int], anchors: Sequence[int], parent: Sequence[int], reflexive: bool
) -> tuple[list[int], list[int], list[int]]:
    """The ancestors of every anchor inside ``column``, as runs of one sequence.

    Returns ``(base, starts, stops)``: ``base[starts[i]:stops[i]]`` holds the
    strict ancestors of ``anchors[i]`` (the anchor too when ``reflexive``)
    that are members of ``column``, ascending.  One parent-chain walk per
    *distinct* anchor -- ancestors are no pre-order range, O(depth) is the
    honest bound.
    """
    members = set(column)
    base: list[int] = []
    start_of: dict[int, int] = {}
    stop_of: dict[int, int] = {}
    for anchor in dict.fromkeys(anchors):
        path = []
        node = anchor if reflexive else parent[anchor]
        while node >= 0:
            if node in members:
                path.append(node)
            node = parent[node]
        start_of[anchor] = len(base)
        base.extend(reversed(path))
        stop_of[anchor] = len(base)
    return base, list(map(start_of.__getitem__, anchors)), list(map(stop_of.__getitem__, anchors))


def holds_column(
    index: "AxisIndex", axis: Axis, sources: Sequence[int], targets: Sequence[int]
) -> Iterator[bool]:
    """Row by row, ``axis(source, target)``: :meth:`AxisIndex.holds` over two columns."""
    parent = index.parent.__getitem__
    end = index.subtree_end.__getitem__
    if axis is Axis.CHILD:
        return map(eq, sources, map(parent, targets))
    if axis is Axis.CHILD_PLUS or axis is Axis.CHILD_STAR:
        before = map(le if axis is Axis.CHILD_STAR else lt, sources, targets)
        return map(and_, before, map(le, targets, map(end, sources)))
    if axis is Axis.NEXT_SIBLING:
        return map(eq, map(index.next_sibling.__getitem__, sources), targets)
    if axis is Axis.NEXT_SIBLING_PLUS or axis is Axis.NEXT_SIBLING_STAR:
        # Siblings are numbered left to right: later means larger.
        before = map(le if axis is Axis.NEXT_SIBLING_STAR else lt, sources, targets)
        return map(and_, before, map(eq, map(parent, sources), map(parent, targets)))
    if axis is Axis.FOLLOWING:
        return map(lt, map(end, sources), targets)
    if axis is Axis.DOCUMENT_ORDER:
        return map(lt, sources, targets)
    if axis is Axis.SUCC_PRE:
        return map(eq, map((1).__add__, sources), targets)
    if axis is Axis.SELF:
        return map(eq, sources, targets)
    raise NotImplementedError(f"axis not supported by the column kernels: {axis}")

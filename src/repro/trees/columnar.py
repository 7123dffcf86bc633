"""Columnar axis kernels: windows of sorted rank columns.

The per-candidate witness primitives of :mod:`repro.trees.index` answer "does
``u`` have an axis witness in ``S``?" one ``u`` at a time -- two bisections
plus a method dispatch per candidate.  When a whole column asks, the work is
a pure function of sorted integer columns, and every axis makes a
candidate's partners a *window* of one (the paper's Eq. (1) read as
pre-order ranges: the descendants of ``u`` are ``(u, end(u)]``).  So a
handful of fused C-level passes -- ``bisect`` pipelines, ``map`` over bound
methods, ``itertools.chain`` -- replace |column| interpreted loop iterations.
Everything is plain stdlib.

Two consumers read these windows:

* the full reducer (:mod:`repro.evaluation.reducer`): a backward
  ``Child+``/``Child*`` semijoin keeps the watched nodes under the support's
  staircase, the disjoint subtrees of its outermost nodes (the staircase
  join of Grust, van Keulen and Teubner, VLDB 2003), as one window per stair
  (:func:`expand_windows`).  Its forward twin walks up from the support,
  marking each ancestor once, and filters the watched column through the
  mask;
* the decomposition engine's bag materialization, which extends a table of
  prefixes by one variable *per level* instead of one prefix at a time: one
  pass per level gives every prefix its window and one more expands all of
  them:

  * :func:`window_bounds` -- per prefix, the index window ``[lo, hi)`` that
    its key bounds (``>= max(lows)``, ``< min(highs)``) cut out of the
    candidate column, one ``bisect`` pipeline per side;
  * :func:`group_by_parent` / :func:`ancestor_paths` -- the candidate column
    rearranged so that the local axes are windows too: children and later /
    earlier siblings are a run of the column regrouped by parent, ancestors a
    run of the concatenated ancestor paths;
  * :func:`expand_windows` / :func:`repeat_each` -- the new column (all
    windows concatenated) and the prefix columns repeated to match;
  * :func:`holds_column` -- :meth:`AxisIndex.holds` over two columns, for the
    residual checks a window cannot express.

What an engine hands the serving core is an :class:`AnswerPage`: the
answers as those same columns, one per head variable, read as rows only by
whoever asks for rows.

The kernels are pinned to brute force by ``tests/test_columnar.py`` (the
reducer's reads by ``tests/test_reducer.py``); the speedups they buy are
measured by ``benchmarks/bench_columnar.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from operator import and_, eq, le, lt
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .axes import Axis

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (the index imports us)
    from .index import AxisIndex

#: The array typecode used for all rank columns (signed, at least 32 bits).
COLUMN_TYPECODE = "l"


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


# ---------------------------------------------------------------------------
# Pages of answers: rows read off one column per head variable.
# ---------------------------------------------------------------------------


class AnswerPage(Sequence[tuple[int, ...]]):
    """A read-only page of answers, held as one column per head variable.

    Row ``i`` is ``tuple(column[i] for column in columns)``; a Boolean head
    has no column, only a row count (0 or 1).  The rows ascend, so the first
    column does.  It is a ``Sequence`` of row tuples, equal to the list of
    the same rows, and iterating it is one ``zip`` -- but the serving core
    never iterates it: the response encoder joins the columns as they are,
    and a pickle carries one sequence per column instead of a tuple per row.
    Whoever builds a page hands its columns over and mutates them no more.
    """

    __slots__ = ("columns", "_length")

    def __init__(self, columns: Sequence[Sequence[int]] = (), length: Optional[int] = None):
        self.columns = tuple(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self._length = length

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, ...]], width: int) -> "AnswerPage":
        """The page of ``rows`` (tuples of ``width`` nodes, already in order): one transpose."""
        if not rows:
            return cls([()] * width, 0)
        return cls(list(zip(*rows)), len(rows))

    def select(self, positions: Sequence[int]) -> "AnswerPage":
        """The page of columns ``positions`` (a column may repeat): no row is touched."""
        return AnswerPage([self.columns[p] for p in positions], self._length)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return zip(*self.columns) if self.columns else repeat((), self._length)

    def __getitem__(self, index):
        rows = range(self._length)[index]  # bounds and slice arithmetic, IndexError included
        if isinstance(index, slice):
            return AnswerPage([column[index] for column in self.columns], len(rows))
        return tuple(column[rows] for column in self.columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AnswerPage, list)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # equal to lists, which do not hash

    def __reduce__(self):
        return AnswerPage, (self.columns, self._length)

    def __repr__(self) -> str:
        return f"AnswerPage({list(self)!r})"

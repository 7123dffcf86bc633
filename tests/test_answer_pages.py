"""Pages of answers as columns, and the response bodies joined from them.

An engine hands the serving core an :class:`~repro.trees.columnar.AnswerPage`
(one column per head variable) and :mod:`repro.service.routes` writes the
``answers`` array straight from those columns through a process-wide table of
node-id decimal strings.  Pinned here:

* the page type against the list of row tuples it stands for: ``==``,
  ``len``, slicing, iteration, ``frozenset``, pickling, zero width;
* every ``/query`` and ``/batch`` body equals ``json.dumps(...,
  check_circular=False)`` of ``to_json_dict()``, byte for byte, over drawn
  pages, errors, explains, traces and awkward document ids;
* the decimal table: grown on demand from 8 threads at once, bypassed past
  its cap;
* a fixpoint page is the resident label column itself, not a copy, and
  building and encoding it leaves that column as it was.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import DocumentStore, QueryCache, Request, RequestResult, routes, run_request
from repro.trees import random_tree
from repro.trees.columnar import AnswerPage

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

ROWS = [(1, 4), (1, 7), (2, 3), (5, 0)]
SLICES = [slice(0), slice(2), slice(1, 3), slice(None, None, 2), slice(-2, None), slice(10)]


def _page(rows, width):
    return AnswerPage.from_rows(rows, width)


class TestThePageIsItsRows:
    def test_equality_length_and_iteration(self):
        page = AnswerPage([[1, 1, 2, 5], [4, 7, 3, 0]])
        assert page == ROWS and ROWS == page and page == _page(ROWS, 2)
        assert page != ROWS[:3] and page != [list(row) for row in ROWS]
        assert not page == tuple(ROWS)  # a list of tuples, as the engines' pages were
        assert len(page) == 4 and list(page) == ROWS and page
        assert page[0] == (1, 4) and page[-1] == (5, 0) and (2, 3) in page
        with pytest.raises(IndexError):
            page[4]
        with pytest.raises(TypeError):
            hash(page)

    @pytest.mark.parametrize("cut", SLICES)
    def test_slices_are_pages_of_the_sliced_rows(self, cut):
        page = _page(ROWS, 2)
        sliced = page[cut]
        assert isinstance(sliced, AnswerPage)
        assert sliced == ROWS[cut] and len(sliced) == len(ROWS[cut])

    def test_a_set_of_the_page_is_the_set_of_its_rows(self):
        assert frozenset(_page(ROWS, 2)) == frozenset(ROWS)
        assert sorted(frozenset(_page(ROWS, 2))) == _page(ROWS, 2)

    @pytest.mark.parametrize("rows, width", [(ROWS, 2), ([(3,), (9,)], 1), ([], 3), ([()], 0)])
    def test_pickles_as_columns(self, rows, width):
        page = _page(rows, width)
        again = pickle.loads(pickle.dumps(page, pickle.HIGHEST_PROTOCOL))
        assert isinstance(again, AnswerPage) and again == rows
        assert again.columns == page.columns and len(again.columns) == width

    def test_columns_pickle_smaller_than_row_tuples(self):
        column = list(range(3, 2420))
        page = AnswerPage([column])
        rows = list(zip(column))
        assert len(pickle.dumps(page, pickle.HIGHEST_PROTOCOL)) < len(
            pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)
        )

    def test_zero_width_pages_count_rows_of_nothing(self):
        satisfied, refuted = AnswerPage((), 1), AnswerPage((), 0)
        assert satisfied == [()] and list(satisfied) == [()] and satisfied[0] == ()
        assert refuted == [] and not refuted and len(refuted) == 0
        assert satisfied[:0] == [] and satisfied[:5] == [()]
        assert frozenset(satisfied) == frozenset({()})
        assert _page([()], 0) == satisfied and _page([], 0) == refuted

    def test_empty_pages_keep_their_width(self):
        empty = _page([], 3)
        assert empty == [] and len(empty.columns) == 3
        assert AnswerPage([[], []]) == [] and len(AnswerPage([[], []])) == 0

    def test_select_reads_columns_not_rows(self):
        page = _page(ROWS, 2)
        assert page.select([1, 0, 1]) == [(y, x, y) for x, y in ROWS]
        assert page.select([0]).columns[0] is page.columns[0]


# -- the encoder -----------------------------------------------------------------

#: Strings that JSON escapes, or that look like the ``answers`` field.
AWKWARD = [
    'a"b',
    "back\\slash",
    "ünïcødé ☃",
    "answers",
    '"answers": [',
    '"answers": NaN',
    "\x00",
]
DOC_IDS = st.one_of(st.text(min_size=1, max_size=12), st.sampled_from(AWKWARD))
#: Node ids below, around and past the decimal table's cap.
NODE_IDS = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=routes.DECIMAL_TABLE_CAP - 3, max_value=routes.DECIMAL_TABLE_CAP + 3),
)


@st.composite
def pages(draw):
    """A page of any width (Boolean included), ascending and distinct, maybe as a list."""
    width = draw(st.integers(min_value=0, max_value=3))
    if width == 0:
        rows = draw(st.sampled_from([[], [()]]))
    else:
        rows = sorted(set(draw(st.lists(st.tuples(*[NODE_IDS] * width), max_size=12))))
    return rows if draw(st.booleans()) else AnswerPage.from_rows(rows, width)


@st.composite
def results(draw):
    doc = draw(DOC_IDS)
    kind = draw(st.sampled_from(["answers", "error", "explain"]))
    attribution = {
        "elapsed_ms": draw(st.floats(min_value=0, max_value=1e4, allow_nan=False)),
        "propagator": draw(st.sampled_from(["semijoin", "walk", "auto"])),
        "engine": draw(st.sampled_from(["fixpoint", "decomposition", "sql", None])),
        "cache_hit": draw(st.booleans()),
    }
    trace = draw(st.one_of(st.none(), st.just({"name": "request", "doc": doc, "children": []})))
    if kind == "error":
        return RequestResult(doc=doc, error=draw(st.text(max_size=20)), trace=trace, **attribution)
    key = draw(st.one_of(st.none(), DOC_IDS))
    if kind == "explain":
        explain = {"doc": doc, "engine": attribution["engine"], "bags": [["x", "y"]]}
        return RequestResult(doc=doc, query_key=key, explain=explain, **attribution)
    page = draw(pages())
    count = len(page) + draw(st.integers(min_value=0, max_value=5))
    satisfied = draw(st.sampled_from([None, count > 0]))
    return RequestResult(
        doc=doc,
        query_key=key,
        answers=page,
        count=count,
        truncated=count > len(page),
        satisfied=satisfied,
        trace=trace,
        **attribution,
    )


class _Executor:
    """Hands the table canned results."""

    def __init__(self, result=None, batch=()):
        self.result, self.batch = result, list(batch)

    def execute(self, _request):
        return self.result

    def execute_batch(self, _requests, _max_workers=None):
        return self.batch


QUERY = json.dumps({"doc": "d", "query": "Q(x) <- A(x)"}).encode("utf-8")


class TestBodiesAreTheBytesOfToJsonDict:
    @SETTINGS
    @given(result=results())
    def test_query_body(self, result):
        response = routes.respond(_Executor(result), "POST", "/query", QUERY)
        expected = json.dumps(result.to_json_dict(), check_circular=False).encode("utf-8")
        assert response.body == expected
        assert response.status == (200 if result.ok else 400)
        assert response.payload is result

    @SETTINGS
    @given(batch=st.lists(results(), max_size=5))
    def test_batch_body(self, batch):
        wire = json.dumps({"requests": [{"doc": "d", "query": "Q <- A(x)"}]}).encode("utf-8")
        response = routes.respond(_Executor(batch=batch), "POST", "/batch", wire)
        expected = {
            "results": [result.to_json_dict() for result in batch],
            "errors": sum(not result.ok for result in batch),
        }
        assert response.body == json.dumps(expected, check_circular=False).encode("utf-8")

    def test_to_json_dict_lists_row_tuples(self):
        result = RequestResult(doc="d", answers=AnswerPage([[2, 5]]), count=2)
        assert result.to_json_dict()["answers"] == [(2,), (5,)]
        empty = RequestResult(doc="d", answers=AnswerPage([[]]), count=0)
        assert empty.to_json_dict()["answers"] == []


# -- the decimal table -------------------------------------------------------------


def _answers(page) -> str:
    return routes._answers_json(page)


class TestDecimalTable:
    def test_grows_on_demand_to_the_largest_id_asked_for(self, monkeypatch):
        monkeypatch.setattr(routes, "_DECIMALS", [])
        assert _answers(AnswerPage([[3, 17]])) == "[[3], [17]]"
        assert routes._DECIMALS == [str(i) for i in range(18)]
        assert _answers(AnswerPage([[0, 2], [40, 5]])) == "[[0, 40], [2, 5]]"
        assert len(routes._DECIMALS) == 41

    def test_grown_from_eight_threads_at_once(self, monkeypatch):
        monkeypatch.setattr(routes, "_DECIMALS", [])
        tops = [500 * (i + 1) + 7 for i in range(8)]
        barrier = threading.Barrier(len(tops))
        bodies, failures = {}, []

        def encode(top):
            page = AnswerPage([list(range(0, top + 1, 3)) + [top]])
            barrier.wait()
            try:
                for _ in range(20):
                    bodies[top] = _answers(page)
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=encode, args=(top,)) for top in tops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        for top in tops:
            column = list(range(0, top + 1, 3)) + [top]
            assert bodies[top] == json.dumps([[node] for node in column])
        assert routes._DECIMALS == [str(i) for i in range(max(tops) + 1)]

    def test_an_id_past_the_cap_is_formatted_not_tabled(self, monkeypatch):
        monkeypatch.setattr(routes, "_DECIMALS", [])
        past = routes.DECIMAL_TABLE_CAP
        page = AnswerPage([[1, 2, past + 40], [past, 0, 9]])
        assert _answers(page) == json.dumps(list(page))
        # Neither column is tabled: the first holds an id past the cap, and so
        # does the second.
        assert routes._DECIMALS == []
        assert _answers(AnswerPage([[1, 2], [past + 1, 0]])) == json.dumps([[1, past + 1], [2, 0]])
        assert routes._DECIMALS == ["0", "1", "2"]
        monkeypatch.setattr(routes, "DECIMAL_TABLE_CAP", 8)
        assert _answers(AnswerPage([[5, 6, 8]])) == "[[5], [6], [8]]"
        assert len(routes._DECIMALS) == 3


class TestResidentColumnsAreHandedOver:
    """A fixpoint page of a sweep root is the resident column itself, read only."""

    @pytest.mark.parametrize("limit", [None, 5])
    def test_the_page_and_its_body_leave_the_resident_column_as_it_was(self, limit):
        store = DocumentStore()
        tree = random_tree(300, alphabet=("A", "B"), seed=5)
        structure = store.register_tree("doc", tree).structure
        resident = structure.unary_members("A")
        before = list(resident)
        request = Request(doc="doc", query="Q(x) <- A(x)", limit=limit)
        result = run_request(store, QueryCache(), request)
        assert result.ok and result.engine == "fixpoint"
        if limit is None:
            assert result.answers.columns[0] is resident  # handed over, not copied
        body = routes._answer(0.0, "POST", "/query", 200, result).body
        assert json.loads(body)["answers"] == [[node] for node in before[:limit]]
        assert resident == before
        assert structure.unary_members("A") is resident

"""The socket loop, in process on an ephemeral port: framing, and one round trip.

What a request *means* is the route table's business and is pinned without a
socket in ``tests/test_service_routes.py``; how its bytes are parsed and its
answer's head rendered is ``repro.service.framing``'s, pinned without a socket
in ``tests/test_service_framing.py``.  The loop (``make_server``) reads a
request and writes a response, so this module tests exactly that: framing on
the wire, deadlines, and that what crosses the socket is what the table says
(``TestRoundTrip.test_socket_answers_are_the_tables``).  Every test runs in
front of both backends the loop serves: the thread backend and two shard
processes.
"""

from __future__ import annotations

import contextlib
import http.client
import http.server
import json
import re
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.evaluation import evaluate
from repro.queries import parse_query
from repro.service import BatchExecutor, ShardedExecutor, framing, routes
from repro.service.framing import MAX_BODY_BYTES, MAX_HEADER_LINES, MAX_LINE_BYTES
from repro.service.http_metrics import HTTP_REQUESTS
from repro.trees import TreeStructure, to_xml
from repro.workloads import auction_document

SENTENCE_SEXPR = "(S (NP (DT) (NN)) (VP (VB) (NP (NN))) (PP))"


@pytest.fixture(params=["resident", "sharded"])
def executor(request):
    """Each backend the loop fronts: ``serve`` and ``serve --shards 2``."""
    backend = ShardedExecutor(shards=2) if request.param == "sharded" else BatchExecutor()
    yield backend
    backend.close()


@pytest.fixture
def server(serve, executor):
    return serve(executor)


@pytest.fixture
def address(server):
    return server.server_address


@pytest.fixture
def ended(server, monkeypatch):
    """Set once a connection thread of ``server`` is done with its client."""
    event = threading.Event()
    process = server.process_request_thread

    def process_then_signal(*args):
        try:
            process(*args)
        finally:
            event.set()

    monkeypatch.setattr(server, "process_request_thread", process_then_signal)
    return event


def _call(address, method: str, path: str, payload=None):
    """One request on its own connection: ``(status, parsed JSON body)``."""
    host, port = address
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(f"http://{host}:{port}{path}", data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def _raw(address, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket; everything the server writes until it closes."""
    received = b""
    with socket.create_connection(address, timeout=30) as raw:
        raw.sendall(data)
        while chunk := raw.recv(65536):
            received += chunk
    return received


def _responses(stream: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream of responses into ``(status, headers, body)``."""
    responses = []
    while stream:
        head, _, stream = stream.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        assert status_line.startswith("HTTP/1.1 "), status_line
        headers = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        responses.append((int(status_line.split()[1]), headers, stream[:length]))
        stream = stream[length:]
    return responses


def _undated(wire: bytes) -> bytes:
    """``wire`` with the value of its ``Date`` header blanked."""
    return re.sub(rb"\r\nDate: [^\r]+ GMT\r\n", b"\r\nDate: -\r\n", wire, count=1)


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
HEALTHZ_CLOSE = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
HEALTHY = b'{"status": "ok", "documents": 0}'


class TestFraming:
    def test_keep_alive_connection_is_reused(self, address):
        connection = http.client.HTTPConnection(*address, timeout=30)
        try:
            connection.request(
                "POST", "/documents", body=json.dumps({"doc": "d", "sexpr": "(A (B) (B))"})
            )
            assert connection.getresponse().read()  # drain, keep alive
            first_socket = connection.sock
            for _ in range(3):
                body = json.dumps({"doc": "d", "query": "Q(x) <- B(x)"})
                connection.request("POST", "/query", body=body)
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["answers"] == [[1], [2]]
            assert connection.sock is first_socket
        finally:
            connection.close()

    def test_pipelined_requests_are_answered_in_order(self, address):
        # ``_raw`` returns only once the server has closed the socket.
        stream = _raw(address, HEALTHZ + b"GET /nope HTTP/1.1\r\n\r\n" + HEALTHZ_CLOSE)
        assert [status for status, _, _ in _responses(stream)] == [200, 404, 200]

    def test_connection_close_and_http_1_0_close_after_one_answer(self, address):
        for request in (HEALTHZ_CLOSE, b"GET /healthz HTTP/1.0\r\n\r\n"):
            ((status, _headers, body),) = _responses(_raw(address, request + HEALTHZ))
            assert (status, body) == (200, HEALTHY)

    @pytest.mark.parametrize(
        "content_length", [b"-5", b"nope", str(MAX_BODY_BYTES + 1).encode("ascii")]
    )
    def test_unusable_content_length_answers_400_and_closes(self, address, content_length):
        head = b"POST /query HTTP/1.1\r\nContent-Length: " + content_length + b"\r\n\r\n"
        # The unread body would be parsed as the next request: the pipelined
        # GET must never be answered.
        ((status, headers, body),) = _responses(_raw(address, head + b'{"doc"' + HEALTHZ))
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(body) == {"error": "missing or oversized Content-Length"}

    def test_missing_content_length_means_an_empty_body(self, address):
        ((status, _headers, body),) = _responses(
            _raw(address, b"POST /query HTTP/1.1\r\nConnection: close\r\n\r\n")
        )
        assert status == 400 and b"invalid JSON body" in body

    def test_chunked_body_answers_501_and_no_body_byte_becomes_a_request(self, address):
        """Regression: the threaded loop ignored ``Transfer-Encoding``, answered
        400 for the 'empty' body and then parsed the chunk-size line as the
        next request line on the kept-alive stream."""
        body = json.dumps({"doc": "d", "query": "Q(x) <- B(x)"}).encode("utf-8")
        chunked = (
            b"POST /query HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode("ascii")
            + body
            + b"\r\n0\r\n\r\n"
        )
        ((status, headers, answer),) = _responses(_raw(address, chunked + HEALTHZ))
        assert status == 501 and headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert json.loads(answer) == {"error": "chunked bodies are not supported"}
        assert _call(address, "GET", "/healthz")[0] == 200  # a fresh connection works

    @pytest.mark.parametrize("method", ["PUT", "HEAD", "PATCH", "BREW"])
    def test_unsupported_method_gets_the_tables_501_and_is_counted(self, address, method):
        """Regression: the threaded loop answered stdlib HTML that
        ``cqtrees_http_*`` never counted."""
        labels = {"route": "/healthz", "method": method, "code": "501"}
        before = HTTP_REQUESTS.value(**labels)
        request = f"{method} /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{{}}".encode("ascii")
        ((status, headers, body),) = _responses(_raw(address, request + HEALTHZ))
        assert status == 501 and headers["content-type"] == "application/json"
        assert json.loads(body) == {"error": f"Unsupported method ({method!r})"}
        assert HTTP_REQUESTS.value(**labels) == before + 1

    def test_request_after_an_error_on_the_same_connection(self, address):
        bad = b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json"
        responses = _responses(_raw(address, bad + HEALTHZ_CLOSE))
        assert [status for status, _, _ in responses] == [400, 200]
        assert responses[1][2] == HEALTHY

    def test_header_flood_is_bounded(self, address):
        """A client streaming endless header lines must get disconnected,
        not grow server memory without bound."""
        with socket.create_connection(address, timeout=30) as raw:
            raw.sendall(b"GET /healthz HTTP/1.1\r\n")
            with pytest.raises((BrokenPipeError, ConnectionResetError)):
                for index in range(5000):
                    raw.sendall(f"x-h{index}: y\r\n".encode())
                # The server has answered with a refusal at most, and closed.
                raw.settimeout(5)
                while raw.recv(65536):
                    pass
                raise ConnectionResetError
        assert _call(address, "GET", "/healthz")[0] == 200

    def test_malformed_request_line_is_refused_in_json(self, address):
        received = _raw(address, b"GARBAGE\r\n\r\n")
        assert "error" in json.loads(received[received.index(b"{") :])
        assert _call(address, "GET", "/healthz")[0] == 200

    def test_half_a_request_then_close_leaves_the_server_healthy(self, address):
        for fragment in (b"GET /hea", b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"):
            with socket.create_connection(address, timeout=30) as raw:
                raw.sendall(fragment)
        assert _call(address, "GET", "/healthz")[0] == 200

    def test_http_1_0_keep_alive_is_honoured_when_asked_for(self, address):
        old = b"GET /healthz HTTP/1.0\r\n"
        stream = _raw(address, old + b"Connection: keep-alive\r\n\r\n" + old + b"\r\n" + HEALTHZ)
        first, second = _responses(stream)
        assert (first[0], first[1]["connection"], first[2]) == (200, "keep-alive", HEALTHY)
        assert (second[0], second[1]["connection"], second[2]) == (200, "close", HEALTHY)

    def test_expect_100_continue_is_answered_before_the_body(self, address):
        """``curl -d @doc.xml`` waits a second for this on every body over 1 kB."""
        body = json.dumps({"doc": "d", "sexpr": "(A (B) (B))"}).encode("utf-8")
        head = f"POST /documents HTTP/1.1\r\nContent-Length: {len(body)}\r\n".encode("ascii")
        with socket.create_connection(address, timeout=5) as raw:
            raw.sendall(head + b"Expect: 100-continue\r\nConnection: close\r\n\r\n")
            assert raw.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"  # before any body byte
            raw.sendall(body)
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
        ((status, _headers, answer),) = _responses(received)
        assert status == 200 and json.loads(answer)["nodes"] == 3

    def test_a_stalled_client_is_dropped_and_an_idle_one_is_not(self, address, monkeypatch):
        monkeypatch.setattr(framing, "READ_TIMEOUT_S", 0.2)
        stalls = (
            b"G",
            b"POST /query HTTP/1.1\r\nContent-Le",
            b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{",
        )
        with contextlib.ExitStack() as stack:
            idle = stack.enter_context(socket.create_connection(address, timeout=5))
            idle.sendall(HEALTHZ)
            assert HEALTHY in idle.recv(65536)  # answered; now parked between requests
            stalled = [
                stack.enter_context(socket.create_connection(address, timeout=5)) for _ in stalls
            ]
            started = time.monotonic()
            for raw, fragment in zip(stalled, stalls):
                raw.sendall(fragment)
            for raw in stalled:
                assert raw.recv(65536) == b""  # closed unanswered (a timeout here fails the test)
            assert time.monotonic() - started < 3
            # The idle connection sat through several timeouts' worth of nothing.
            idle.sendall(HEALTHZ_CLOSE)
            ((status, _headers, body),) = _responses(idle.recv(65536))
            assert (status, body) == (200, HEALTHY)

    def test_a_client_that_never_reads_its_answers_is_dropped(self, server, ended, monkeypatch):
        """Regression: the deadline sweep covered reads only, so a client that
        pipelined requests and read nothing pinned its thread in ``sendall``."""
        monkeypatch.setattr(framing, "READ_TIMEOUT_S", 0.2)
        framed = []  # when each answer went to its write: the last write is the one cut
        frame = framing.frame

        def timed_frame(*args):
            framed.append(time.monotonic())
            return frame(*args)

        monkeypatch.setattr(framing, "frame", timed_frame)
        auction = to_xml(auction_document(num_items=200, num_people=100, num_bids=300, seed=1))
        server.executor.register_payload({"doc": "auction", "xml": auction})
        body = json.dumps({"doc": "auction", "query": "Q(x) <- Child+(r, x)"}).encode("utf-8")
        post = b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%b" % (len(body), body)
        with socket.socket() as raw:
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.settimeout(5)
            raw.connect(server.server_address)
            raw.sendall(post * 400)
            # Blocked in its write until the sweep drops the client: within a
            # few timeouts of the write that stalled (the answers before it,
            # which fill the buffers, take as long as the host is busy).
            assert ended.wait(timeout=5) and time.monotonic() - framed[-1] < 1
            assert server.deadlines == {}
            received = b""
            with contextlib.suppress(ConnectionResetError):
                while chunk := raw.recv(65536):
                    received += chunk
        assert 0 < received.count(b"HTTP/1.1 200 OK\r\n") < 400

    @pytest.mark.parametrize(
        ("data", "leave"),
        [
            (HEALTHZ_CLOSE, "read"),
            (b"GET /healthz HTTP/2.0\r\n\r\n", "read"),
            (b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{", "close"),
            (b"G", "read"),
            (HEALTHZ * 2000, "reset"),
        ],
        ids=["answered", "refused", "left mid-request", "stalled mid-request", "reset mid-answer"],
    )
    def test_every_way_a_connection_ends_leaves_no_deadline_behind(
        self, server, ended, monkeypatch, data, leave
    ):
        """A socket is in ``deadlines`` only while its read or write is under
        way; one left behind would be kept, and swept, for ever."""
        monkeypatch.setattr(framing, "READ_TIMEOUT_S", 0.2)
        with socket.create_connection(server.server_address, timeout=5) as raw:
            if leave == "reset":
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            raw.sendall(data)
            while leave == "read" and raw.recv(65536):
                pass
        assert ended.wait(timeout=5)
        assert server.deadlines == {}

    def test_a_client_that_disconnects_mid_response_ends_quietly(self, address, capsys):
        """Regression: the threaded loop printed a ``socketserver`` traceback
        (``BrokenPipeError``) to stderr per such client."""
        counted = {"route": "/healthz", "method": "GET", "code": "200"}
        raw = socket.create_connection(address, timeout=5)
        # Answers start flowing back while requests are still queued; the
        # reset (SO_LINGER 0) then fails a write in the middle of them.
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.sendall(HEALTHZ * 2000)
        raw.close()
        answered = -1
        while answered != HTTP_REQUESTS.value(**counted):  # until the server is done with it
            answered = HTTP_REQUESTS.value(**counted)
            time.sleep(0.1)
        assert _call(address, "GET", "/healthz")[0] == 200
        assert capsys.readouterr().err == ""

    def test_no_stdlib_http_parser_is_on_the_request_path(self, address, monkeypatch):
        """The guard: ``http.server``'s request parser and ``http.client``'s header
        parser (the ``email`` feed parser) cost more than answering the request."""

        def off_the_path(*_args, **_kwargs):
            raise AssertionError("a stdlib HTTP parser ran on the request path")

        monkeypatch.setattr(http.client, "parse_headers", off_the_path)
        monkeypatch.setattr(http.server.BaseHTTPRequestHandler, "parse_request", off_the_path)
        body = b'{"doc": "ghost", "query": "Q(x) <- A(x)"}'
        post = b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%b" % (len(body), body)
        responses = _responses(_raw(address, HEALTHZ + post + HEALTHZ_CLOSE))
        assert [status for status, _, _ in responses] == [200, 400, 200]
        assert [headers["connection"] for _, headers, _ in responses] == (
            ["keep-alive", "keep-alive", "close"]
        )


#: What a loop refuses before the table is asked: ``(case, bytes, status, error)``.
REFUSED_HEADS = [
    (
        "request line over the cap",
        b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n",
        414,
        "request line too long",
    ),
    (
        "header line over the cap",
        b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70_000 + b"\r\n\r\n",
        431,
        "header line too long",
    ),
    (
        "header flood",
        b"GET /healthz HTTP/1.1\r\n" + b"x: y\r\n" * (MAX_HEADER_LINES + 1) + b"\r\n",
        431,
        "too many headers",
    ),
    ("malformed request line", b"GARBAGE\r\n\r\n", 400, "malformed request line"),
    ("version-less request line", b"GET /healthz\r\n\r\n", 400, "malformed request line"),
    ("HTTP/2.0", b"GET /healthz HTTP/2.0\r\n\r\n", 505, "HTTP version not supported"),
    (
        "malformed header line",
        b"GET /healthz HTTP/1.1\r\nno colon\r\n\r\n",
        400,
        "malformed header line",
    ),
]


@pytest.mark.parametrize(
    ("data", "status", "message"),
    [case[1:] for case in REFUSED_HEADS],
    ids=[case[0] for case in REFUSED_HEADS],
)
def test_a_refused_head_is_a_framed_answer_and_is_counted(address, data, status, message):
    """Probed before ``parse_head``: 431 vs a silent drop, 200 vs a bare body
    without a status line, 400 vs HTTP/0.9 semantics nobody asked for."""
    route = "/healthz" if b"/healthz HTTP/" in data else "other"
    labels = {"route": route, "method": "GET" if route == "/healthz" else "", "code": str(status)}
    before = HTTP_REQUESTS.value(**labels)
    # A pipelined request behind a refused head is never answered.
    answer = _raw(address, data + HEALTHZ)
    assert HTTP_REQUESTS.value(**labels) == before + 1
    ((answered, headers, body),) = _responses(answer)
    assert (answered, headers["connection"]) == (status, "close")
    assert headers["content-type"] == "application/json"
    assert json.loads(body) == {"error": message}
    # Dated, and otherwise exactly the frame of the refusal.
    refusal = routes.Response(status, "application/json", body)
    assert _undated(answer) == _undated(framing.frame(refusal, None)[0]) != answer


class TestRoundTrip:
    def test_register_query_batch_matches_direct_evaluate(self, address):
        auction = auction_document(num_items=10, seed=9)
        status, payload = _call(
            address, "POST", "/documents", {"doc": "auction", "xml": to_xml(auction)}
        )
        assert status == 200 and payload["doc"] == "auction"
        status, payload = _call(
            address, "POST", "/documents", {"doc": "sentence", "sexpr": SENTENCE_SEXPR}
        )
        assert status == 200 and payload["nodes"] == 9
        status, payload = _call(address, "GET", "/stats")
        assert status == 200 and {"executor", "store", "cache", "http"} <= set(payload)

        batch = {
            "requests": [
                {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
                {"doc": "auction", "xpath": "//description//listitem", "propagator": "walk"},
                {"doc": "sentence", "xpath": "//NP[NN]"},
                {"doc": "ghost", "query": "Q(x) <- A(x)"},
            ]
        }
        status, payload = _call(address, "POST", "/batch", batch)
        assert status == 200 and payload["errors"] == 1
        expected_first = sorted(
            evaluate(
                parse_query("Q(i) <- item(i), Child(i, p), payment(p)"), TreeStructure(auction)
            )
        )
        assert payload["results"][0]["answers"] == [list(a) for a in expected_first]
        assert payload["results"][2]["count"] == 2
        ghost = payload["results"][3]
        assert "unknown document" in ghost["error"]
        # No explicit propagator and routing never resolved a plan: the
        # attribution honestly reports the unresolved "auto" default.
        assert "elapsed_ms" in ghost and ghost["propagator"] == "auto"

    def test_error_statuses_and_attribution(self, address):
        # Bad XML -> 400 with the clean parse error; file paths are not a
        # remote registration source.
        status, payload = _call(address, "POST", "/documents", {"doc": "bad", "xml": "<a><b></a>"})
        assert status == 400 and "not well-formed" in payload["error"]
        status, payload = _call(address, "POST", "/documents", {"doc": "d", "xml": 123})
        assert status == 400 and "'xml' must be a string" in payload["error"]
        status, payload = _call(
            address, "POST", "/documents", {"doc": "d", "xml_file": "/etc/hostname"}
        )
        assert status == 400 and "exactly one of 'xml', 'sexpr'" in payload["error"]
        assert _call(address, "GET", "/nope")[0] == 404
        assert _call(address, "DELETE", "/documents/ghost")[0] == 404
        # Regression: error results dropped ``elapsed_ms``/``propagator`` from
        # the wire schema, so failures vanished from latency accounting.
        status, payload = _call(
            address, "POST", "/query", {"doc": "ghost", "query": "Q <- A(x)", "propagator": "walk"}
        )
        assert status == 400 and "unknown document" in payload["error"]
        assert payload["propagator"] == "walk" and payload["elapsed_ms"] >= 0

    def test_bool_limit_and_max_workers_rejected(self, address):
        """Regression: JSON ``true`` passes ``isinstance(x, int)``, so
        ``{"limit": true}`` / ``{"max_workers": true}`` used to mean ``1``."""
        _call(address, "POST", "/documents", {"doc": "d", "sexpr": "(A (B))"})
        query = {"doc": "d", "query": "Q(x) <- B(x)"}
        status, payload = _call(address, "POST", "/query", {**query, "limit": True})
        assert status == 400 and "non-negative integer" in payload["error"]
        status, payload = _call(
            address, "POST", "/batch", {"requests": [query], "max_workers": True}
        )
        assert status == 400 and "positive integer" in payload["error"]
        status, payload = _call(address, "POST", "/query", {**query, "limit": 0})
        assert status == 200 and payload["truncated"] and payload["answers"] == []

    @pytest.mark.parametrize("backend", ["threaded", "sharded"])
    def test_socket_answers_are_the_tables(self, serve, backend):
        """One smoke per backend: what crosses the socket is what the table says.

        The sharded case fronts two shard processes, so it is also the
        ``--shards 2`` mode against the in-process thread backend.
        """
        auction = auction_document(num_items=10, seed=9)
        item_query = "Q(i) <- item(i), Child(i, p), payment(p)"
        batch = [
            {"doc": "auction", "xpath": "//description//listitem", "propagator": "walk"},
            {"doc": "sentence", "xpath": "//NP[NN]"},
            {"doc": "ghost", "query": "Q <- A(x)"},
        ]
        exchanges = [
            ("GET", "/healthz", None),
            ("POST", "/documents", {"doc": "auction", "xml": to_xml(auction)}),
            ("POST", "/documents", {"doc": "sentence", "sexpr": SENTENCE_SEXPR}),
            ("GET", "/healthz", None),
            ("GET", "/documents", None),
            ("POST", "/query", {"doc": "auction", "query": item_query}),
            ("POST", "/query", {"doc": "ghost", "query": "Q <- A(x)"}),
            ("POST", "/batch", {"requests": batch}),
            ("DELETE", "/documents/sentence", None),
            ("DELETE", "/documents/sentence", None),
            ("GET", "/nope", None),
        ]
        served = ShardedExecutor(shards=2) if backend == "sharded" else BatchExecutor()
        reference = BatchExecutor()
        try:
            bound = serve(served).server_address
            for method, path, payload in exchanges:
                body = b"" if payload is None else json.dumps(payload).encode("utf-8")
                expected = routes.respond(reference, method, path, body)
                status, answer = _call(bound, method, path, payload)
                assert status == expected.status, (method, path)
                assert json.dumps(_strip_volatile(answer)) == json.dumps(
                    _strip_volatile(json.loads(expected.body))
                ), (method, path)
        finally:
            served.close()
            reference.close()


def _strip_volatile(payload):
    """Drop timing/cache fields before byte comparison."""
    if isinstance(payload, dict):
        return {
            key: _strip_volatile(value)
            for key, value in payload.items()
            if key not in ("elapsed_ms", "cache_hit")
        }
    if isinstance(payload, list):
        return [_strip_volatile(item) for item in payload]
    return payload

"""HTTP framing, driven with byte strings and no socket.

``repro.service.framing`` is the one place a request line, a version, a header
line, the keep-alive rule, a body length and a response head are decided; the
socket loop only moves bytes around it (``tests/test_service_server.py`` covers
that it does).  So the decisions are pinned here: a table of heads -> parsed
form or refusal, the read path over an in-memory stream, exact response heads.
"""

from __future__ import annotations

import http.client
import io
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import framing, routes
from repro.service.framing import MAX_HEADER_LINES, MAX_LINE_BYTES, Head
from repro.service.http_metrics import HTTP_REQUESTS


def read(raw: bytes):
    """``raw`` through the shared read path: ``(what it returned, what it wrote)``."""
    stream, written = io.BytesIO(raw), []
    return framing.read_request(stream.readline, stream.read, written.append), written


def parse(raw: bytes):
    """The head of ``raw`` (followed by as many body bytes as it announces)."""
    request, _written = read(raw)
    return request if isinstance(request, routes.Response) else request[0]


GET = b"GET /healthz HTTP/1.1\r\n"
HEADERS_100 = b"".join(b"x-%d: y\r\n" % index for index in range(MAX_HEADER_LINES))


def got(keep_alive: bool = True, **headers: str) -> Head:
    return Head("GET", "/healthz", keep_alive, headers)


#: ``(head bytes, the parsed head)``.
HEADS = [
    (GET + b"Host: t\r\n\r\n", got(host="t")),
    (b"GET /healthz HTTP/1.1\nHost: t\n\n", got(host="t")),
    (GET + b"\r\n", got()),
    (b"DELETE  /documents/a%20b\tHTTP/1.1 \r\n\r\n", Head("DELETE", "/documents/a%20b", True, {})),
    (b"BREW /pot HTTP/1.1\r\n\r\n", Head("BREW", "/pot", True, {})),  # 501 is the table's to say
    (
        b"POST /query HTTP/1.1\r\nCONTENT-length:  2 \r\nX-Empty:\r\nX-Colon: a:b\r\n\r\n{}",
        Head("POST", "/query", True, {"content-length": "2", "x-empty": "", "x-colon": "a:b"}),
    ),
    (GET + b"Accept: a\r\nHost: t\r\naccept: b\r\n\r\n", got(accept="a, b", host="t")),
    # The keep-alive rule: on by default from 1.1, asked for in 1.0.
    (GET + b"Connection: close\r\n\r\n", got(False, connection="close")),
    (GET + b"Connection: Keep-Alive, Close\r\n\r\n", got(False, connection="Keep-Alive, Close")),
    (GET + b"Connection: keep-alive\r\n\r\n", got(connection="keep-alive")),
    (b"GET /healthz HTTP/1.0\r\n\r\n", got(False)),
    (
        b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        got(connection="Keep-Alive"),
    ),
    (b"GET /healthz HTTP/1.0\r\nConnection: close\r\n\r\n", got(False, connection="close")),
]

#: ``(case, head bytes, refusal status, error message)``.
REFUSALS = [
    ("garbage", b"GARBAGE\r\n\r\n", 400, "malformed request line"),
    ("blank request line", b"\r\n" + GET + b"\r\n", 400, "malformed request line"),
    ("version-less", b"GET /healthz\r\n\r\n", 400, "malformed request line"),
    ("four words", b"GET /a b HTTP/1.1\r\n\r\n", 400, "malformed request line"),
    ("lower-case protocol", b"GET / http/1.1\r\n\r\n", 400, "malformed request line"),
    ("two-digit minor", b"GET / HTTP/1.10\r\n\r\n", 400, "malformed request line"),
    ("method not a token", b"G@T / HTTP/1.1\r\n\r\n", 400, "malformed request line"),
    ("HTTP/2.0", b"GET /healthz HTTP/2.0\r\n\r\n", 505, "HTTP version not supported"),
    ("HTTP/0.9", b"GET /healthz HTTP/0.9\r\n\r\n", 505, "HTTP version not supported"),
    ("no colon", GET + b"Host\r\n\r\n", 400, "malformed header line"),
    ("empty name", GET + b": v\r\n\r\n", 400, "malformed header line"),
    ("blank before the colon", GET + b"Host : t\r\n\r\n", 400, "malformed header line"),
    ("obsolete line fold", GET + b"X: a\r\n b: c\r\n\r\n", 400, "malformed header line"),
    (
        "request line over the cap",
        b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n",
        414,
        "request line too long",
    ),
    (
        "header line over the cap",
        GET + b"X: " + b"a" * 70_000 + b"\r\n\r\n",
        431,
        "header line too long",
    ),
    ("one header too many", GET + HEADERS_100 + b"one: more\r\n\r\n", 431, "too many headers"),
]


@pytest.mark.parametrize(("raw", "expected"), HEADS, ids=[repr(raw[:40]) for raw, _ in HEADS])
def test_well_formed_heads_parse(raw, expected):
    assert parse(raw) == expected
    assert isinstance(parse(raw), Head)


@pytest.mark.parametrize(
    ("raw", "status", "message"),
    [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_malformed_heads_are_refused_and_counted(raw, status, message):
    # Labelled as far as the head was parsed: nothing of an unusable request line.
    parsed = message != "malformed request line" and status != 414
    labels = {"route": "/healthz" if parsed else "other", "method": "GET" if parsed else ""}
    before = HTTP_REQUESTS.value(code=str(status), **labels)
    refusal = parse(raw)
    assert isinstance(refusal, routes.Response) and not isinstance(refusal, Head)
    assert (refusal.status, refusal.content_type) == (status, "application/json")
    assert json.loads(refusal.body) == {"error": message}
    assert HTTP_REQUESTS.value(code=str(status), **labels) == before + 1


def test_the_caps_are_inclusive():
    assert len(parse(GET + HEADERS_100 + b"\r\n").headers) == MAX_HEADER_LINES
    padding = b"a" * (MAX_LINE_BYTES - len(b"GET / HTTP/1.1\r\n"))
    assert parse(b"GET /" + padding + b" HTTP/1.1\r\n\r\n").path == "/" + padding.decode()
    header = b"X: " + b"a" * (MAX_LINE_BYTES - 5) + b"\r\n"
    assert len(header) == MAX_LINE_BYTES
    assert len(parse(b"GET / HTTP/1.1\r\n" + header + b"\r\n").headers["x"]) == MAX_LINE_BYTES - 5


TOKEN = string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~"
#: Latin-1 without controls and blanks (``str.isspace`` counts U+0085 and U+00A0).
VISIBLE = st.characters(min_codepoint=0x21, max_codepoint=0xFF, blacklist_categories=("Cc", "Zs"))


@given(
    method=st.text(TOKEN, min_size=1, max_size=12),
    path=st.text(VISIBLE, max_size=40),
    fields=st.dictionaries(
        st.text(TOKEN, min_size=1, max_size=12).filter(lambda name: name.lower() != "connection"),
        st.text(st.one_of(VISIBLE, st.sampled_from(" \t")), max_size=40),
        max_size=8,
    ),
    line_end=st.sampled_from(["\r\n", "\n"]),
    minor=st.sampled_from([0, 1]),
)
@settings(max_examples=200, deadline=None)
def test_a_rendered_request_head_parses_back(method, path, fields, line_end, minor):
    rendered = f"{method} /{path} HTTP/1.{minor}{line_end}" + "".join(
        f"{name}: {value}{line_end}" for name, value in fields.items()
    )
    expected: dict[str, str] = {}
    for name, value in fields.items():
        value = value.strip()
        expected[name.lower()] = (
            f"{expected[name.lower()]}, {value}" if name.lower() in expected else value
        )
    head = parse((rendered + line_end).encode("latin-1"))
    assert head == Head(method, "/" + path, bool(minor), expected)


class TestBodyAndReadPath:
    @pytest.mark.parametrize(
        "given",
        ["-5", "+5", "nope", "1_0", "5, 5", "²", "9" * 30, str(framing.MAX_BODY_BYTES + 1)],
    )
    def test_unusable_content_length_is_refused(self, given):
        refusal = framing.body_length(Head("POST", "/query", True, {"content-length": given}))
        assert refusal.status == 400
        assert json.loads(refusal.body) == {"error": "missing or oversized Content-Length"}

    def test_lengths_and_chunked(self):
        assert framing.body_length(Head("GET", "/", True, {})) == 0
        assert framing.body_length(Head("POST", "/", True, {"content-length": "007"})) == 7
        limit = str(framing.MAX_BODY_BYTES)
        assert framing.body_length(Head("POST", "/", True, {"content-length": limit})) == int(limit)
        refusal = framing.body_length(Head("POST", "/", True, {"transfer-encoding": "chunked"}))
        assert refusal.status == 501

    def test_body_is_read_and_pipelined_bytes_are_left(self):
        post = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody"
        (head, body), written = read(post + GET + b"\r\n")
        assert (head.method, head.path, body, written) == ("POST", "/query", b"body", [])

    def test_expect_100_continue_is_answered_before_the_body_is_read(self):
        head = b"POST /documents HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-Continue\r\n\r\n"
        (_head, body), written = read(head + b"{}")
        assert (body, written) == (b"{}", [b"HTTP/1.1 100 Continue\r\n\r\n"])
        # Nothing to wait for without a body; and a refusal is not preceded by a 100.
        assert read(b"GET / HTTP/1.1\r\nExpect: 100-continue\r\n\r\n")[1] == []
        chunked = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n"
        refusal, written = read(chunked)
        assert (refusal.status, written) == (501, [])

    @pytest.mark.parametrize(
        "fragment",
        [b"", b"GET /hea", GET + b"Host: t\r\n", b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n{"],
    )
    def test_a_client_that_leaves_mid_request_is_answered_nothing(self, fragment):
        assert read(fragment) == (None, [])


class TestRenderHead:
    RESPONSE = routes.Response(200, "application/json", b'{"status": "ok"}')

    def test_exact_bytes(self, monkeypatch):
        monkeypatch.setattr(framing.time, "time", lambda: 86400.75)
        assert framing.render_head(self.RESPONSE, close=False) == (
            b"HTTP/1.1 200 OK\r\n"
            b"Server: cq-trees\r\n"
            b"Date: Fri, 02 Jan 1970 00:00:00 GMT\r\n"
            b"Content-Type: application/json\r\n"
            b"Connection: keep-alive\r\n"
            b"Content-Length: 16\r\n\r\n"
        )
        refusal = routes.refuse(431, "too many headers")
        head = framing.render_head(refusal, close=True)
        assert head.startswith(b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert b"\r\nConnection: close\r\n" in head
        assert head.endswith(b"Content-Length: %d\r\n\r\n" % len(refusal.body))

    def test_it_is_a_head_a_stock_client_parses(self):
        status_line, _, fields = framing.render_head(self.RESPONSE, close=True).partition(b"\r\n")
        assert status_line == b"HTTP/1.1 200 OK"
        message = http.client.parse_headers(io.BytesIO(fields))
        assert message["Content-Length"] == "16" and message["Connection"] == "close"
        assert message["Content-Type"] == "application/json" and message["Server"] == "cq-trees"

    def test_the_date_is_formatted_once_per_second(self, monkeypatch):
        clock = [1_000_000.0]
        monkeypatch.setattr(framing.time, "time", lambda: clock[0])
        framing.render_head(self.RESPONSE, close=False)
        misses = framing._head_before_length.cache_info().misses
        clock[0] += 0.9
        framing.render_head(routes.Response(200, "application/json", b"another body"), close=False)
        assert framing._head_before_length.cache_info().misses == misses
        clock[0] += 0.2
        assert b"Date: Mon, 12 Jan 1970 13:46:41 GMT" in framing.render_head(self.RESPONSE, False)
        assert framing._head_before_length.cache_info().misses == misses + 1

    @pytest.mark.parametrize(
        ("head", "status", "closes"),
        [
            (Head("GET", "/", True, {}), 200, False),
            (Head("GET", "/", True, {}), 404, False),
            (Head("GET", "/", False, {}), 200, True),
            (Head("BREW", "/", True, {}), 501, True),  # the client's framing is unknown
            (None, 400, True),  # a refused head: what follows it cannot be framed
        ],
    )
    def test_frame_is_head_plus_body_and_the_close_rule(self, head, status, closes):
        response = routes.Response(status, "application/json", b"{}")
        wire, close = framing.frame(response, head)
        assert close is closes
        assert wire == framing.render_head(response, closes) + b"{}"

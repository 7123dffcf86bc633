"""SLO-asserting load harness: concurrent clients against real ``cq-trees serve``.

Closes the observability loop from the *outside*: where ``service_smoke.py``
checks the protocol, this harness drives real client traffic over the mixed
workload (``repro.workloads`` auction + linguistics corpus at the ~1k nominal
size) against a real server process, in two phases per serve mode:

* **load phase** -- N concurrent persistent connections, each issuing its
  share of the workload.  Every Kth response is cross-checked (count and
  answers) against precomputed direct ``evaluate()`` results; one wrong
  answer fails the run regardless of ``--report-only``.  The p50/p99 derived
  from the ``/metrics`` histogram *delta* over the phase (scraped before and
  after) are gated against ``--slo-p50-ms`` / ``--slo-p99-ms``.
* **agreement phase** -- one connection, no queueing.  Client-side p50/p99
  must agree with the ``/metrics``-derived p50/p99 to within one bucket of
  the fixed latency grid.  Agreement is asserted *without* concurrency on
  purpose: the server histogram measures service time (the timer starts when
  the handler picks the request up), while a concurrent client measures
  response time including queue wait -- on a loaded box the two legitimately
  diverge, and conflating them would make the assertion meaningless.  The
  unqueued phase is precisely the regime where honest telemetry must match
  the wire, bucket for bucket.

* **malformed-HTTP phase** -- the first slice of a fault schedule: a chunked
  body, an unsupported method, an oversized, a negative and a missing
  ``Content-Length``, a header flood, an over-long header line, ``HTTP/2.0``, a
  version-less request line, ``Expect: 100-continue``, and half a request
  followed by a close, each on its own socket, interleaved with checked
  ``/query`` traffic on a persistent connection and under a concurrent client;
  beside them a client that stalls mid-head for the whole phase.  Every
  exchange must end in exactly the framed statuses its case names (errors in
  the route table's JSON form), the stalled client must be dropped unanswered
  once the server's read timeout is up and not before, no innocent request
  may see a wrong answer, and a fresh connection must work afterwards.  Any
  miss fails the run regardless of ``--report-only``.

* **shard-fault phase** -- on a ``--shards 2`` server of its own, since it
  ends with a dead worker.  *Stall*: shard 0's worker is SIGSTOPped and 40
  clients send it 20 kB ``/query`` bodies (800 kB, past the socket buffer);
  checked traffic for the other shard must keep answering 200 within a second
  each, and after SIGCONT all 40 must be answered 200 with the right rows.
  *Death*: the worker is stopped again, sent one ``/query`` and SIGKILLed;
  that client must have its 400 (``shard 0 worker died; ...``) within half a
  second of the kill, the next request for the shard must be refused by name
  (``... is not running``), and the other shard must still answer.
  Hard-fail, like wrong answers.

After the phases, a few workload requests are sent once more on
``"engine": "sql"`` (answers checked), and ``/stats`` must show a drift ledger
that holds exactly those -- only SQL plans carry estimates, so no resident
request may be ledgered -- and an HTTP latency summary for ``/query``: the
closed loop.

Both serve modes run by default: the thread backend and the sharded backend
(``--shards N``) behind the one front end.  A warm-up pass (one request per
workload entry, excluded from every measured window) precedes the clock so
cold parse/compile/plan latencies do not pollute the comparison.

Usage: ``python scripts/service_load.py [--connections 4] [--report-only]``
(exit code 0 on success).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from http.client import HTTPConnection

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.evaluation import evaluate  # noqa: E402
from repro.observability.metrics import percentile_from_buckets  # noqa: E402
from repro.queries import parse_query, xpath_to_cq  # noqa: E402
from repro.service import shard_for  # noqa: E402
from repro.service.framing import READ_TIMEOUT_S  # noqa: E402
from repro.trees import TreeStructure, to_xml  # noqa: E402
from repro.workloads import auction_document, random_corpus  # noqa: E402

#: The mixed wire workload: datalog + XPath, monadic + Boolean, over both
#: documents (the ~1k-node generator calibration from
#: ``benchmarks/bench_service.py``).
WORKLOAD: list[dict] = [
    {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
    {"doc": "auction", "xpath": "//description//listitem"},
    {"doc": "auction", "xpath": "//person[profile/interest]"},
    {
        "doc": "auction",
        "query": (
            "Q <- open_auction(a), Child(a, b1), bidder(b1), "
            "Child(a, b2), bidder(b2), Following(b1, b2)"
        ),
    },
    {"doc": "corpus", "query": "Q(x) <- NP(x), Child(x, y), NN(y)"},
    {"doc": "corpus", "xpath": "//NP[NN]"},
    {"doc": "corpus", "query": "Q(v) <- VP(v), Child(v, w), VB(w)"},
    {"doc": "corpus", "xpath": "//VP[VB]/NP"},
]

#: Workload slots sent once more on the SQL engine before the ledger check.
SQL_SLOTS = (0, 4)

QUERY_BUCKET_RE = re.compile(
    r'^cqtrees_http_request_seconds_bucket\{route="/query",le="([^"]+)"\} (\d+)$'
)


def build_documents() -> dict:
    return {
        "auction": auction_document(seed=42, num_items=55, num_people=30, num_bids=85),
        "corpus": random_corpus(seed=42, num_sentences=45),
    }


def expected_bodies(documents: dict) -> tuple[list[bytes], list[str], list[int]]:
    """``(wire bodies, expected answers JSON, expected counts)`` per workload slot."""
    structures = {doc_id: TreeStructure(tree) for doc_id, tree in documents.items()}
    bodies, answers, counts = [], [], []
    for request in WORKLOAD:
        query = (
            xpath_to_cq(request["xpath"]) if "xpath" in request else parse_query(request["query"])
        )
        direct = sorted(evaluate(query, structures[request["doc"]]))
        bodies.append(json.dumps(request).encode("utf-8"))
        answers.append(json.dumps([list(answer) for answer in direct]))
        counts.append(len(direct))
    return bodies, answers, counts


def answer_matches(payload: dict, slot: int, answers: list[str], counts: list[int]) -> bool:
    """Whether a ``/query`` response is the precomputed answer of its workload slot."""
    return payload.get("count") == counts[slot] and (
        json.dumps(payload.get("answers")) == answers[slot]
    )


class ClientWorker(threading.Thread):
    """One persistent connection issuing its share of the workload."""

    def __init__(self, index, host, port, requests, check_every, prepared, errors):
        super().__init__(name=f"load-client-{index}", daemon=True)
        self.index = index
        self.host, self.port = host, port
        self.requests = requests
        self.check_every = check_every
        self.bodies, self.answers, self.counts = prepared
        self.errors = errors  # shared; list.append is atomic under the GIL
        self.latencies: list[float] = []

    def run(self) -> None:
        connection = HTTPConnection(self.host, self.port, timeout=60)
        try:
            # Disable Nagle: http.client writes headers and body separately,
            # and the resulting Nagle/delayed-ACK interaction can add ~40ms
            # stalls per request that have nothing to do with the server.
            connection.connect()
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for position in range(self.requests):
                slot = (self.index + position) % len(WORKLOAD)
                started = time.perf_counter()
                connection.request(
                    "POST", "/query", self.bodies[slot], {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                raw = response.read()
                self.latencies.append(time.perf_counter() - started)
                if response.status != 200:
                    self.errors.append(
                        f"client {self.index}: HTTP {response.status} at request "
                        f"{position}: {raw[:200]!r}"
                    )
                    return
                if position % self.check_every == 0:
                    payload = json.loads(raw)
                    if not answer_matches(payload, slot, self.answers, self.counts):
                        self.errors.append(
                            f"client {self.index}: WRONG ANSWER at request {position} "
                            f"(workload slot {slot}): got count={payload['count']}, "
                            f"expected {self.counts[slot]}"
                        )
                        return
        except OSError as error:
            self.errors.append(f"client {self.index}: connection error: {error}")
        finally:
            connection.close()


def malformed_cases() -> list[tuple[str, bytes, list[int]]]:
    """``(name, bytes to send on a fresh socket, the statuses it must be answered with)``."""
    body = json.dumps(WORKLOAD[0]).encode("utf-8")
    post = b"POST /query HTTP/1.1\r\n"
    length = b"Content-Length: %d\r\n" % len(body)
    chunk = f"{len(body):x}\r\n".encode("ascii") + body + b"\r\n0\r\n\r\n"
    # Behind a head or body the server refuses to read: must never be answered.
    probe = b"GET /healthz HTTP/1.1\r\nHost: load\r\n\r\n"
    flood = b"".join(b"x-%d: y\r\n" % index for index in range(5000))
    return [
        ("chunked body", post + b"Transfer-Encoding: chunked\r\n\r\n" + chunk + probe, [501]),
        ("unsupported method", b"PUT /q HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}" + probe, [501]),
        ("oversized Content-Length", post + b"Content-Length: 99999999999\r\n\r\n" + probe, [400]),
        ("negative Content-Length", post + b"Content-Length: -1\r\n\r\n" + probe, [400]),
        # Read as an empty body; the body bytes are then half a request line.
        ("missing Content-Length", post + b"\r\n" + body, [400]),
        ("header flood", b"GET /healthz HTTP/1.1\r\n" + flood, [431]),
        ("over-long header line", post + b"X: " + b"a" * 70_000 + b"\r\n\r\n" + probe, [431]),
        ("HTTP/2.0", b"GET /healthz HTTP/2.0\r\n\r\n" + probe, [505]),
        ("version-less request line", b"GET /healthz\r\n\r\n" + probe, [400]),
        # Well-formed: the interim answer, then the query's.
        (
            "Expect: 100-continue",
            post + length + b"Expect: 100-continue\r\nConnection: close\r\n\r\n" + body,
            [100, 200],
        ),
        ("half a request line", b"GET /hea", []),
    ]


def malformed_exchange(host: str, port: int, name: str, data: bytes, expected: list[int]):
    """Run one malformed exchange; ``None`` if it ended as it must, else why not."""
    received = b""
    try:
        with socket.create_connection((host, port), timeout=10) as raw:
            try:
                raw.sendall(data)
                raw.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the server may refuse and close while the flood is still being sent
            while chunk := raw.recv(65536):
                received += chunk
    except (ConnectionResetError, BrokenPipeError):
        pass  # closed under the flood: a clean close as far as the client can tell
    except OSError as error:  # a timeout: the exchange did not end
        return f"{name}: {type(error).__name__}: {error} after {received[:120]!r}"
    # Whatever was answered must be framed (a status line, a length), and an
    # error must be in the table's JSON form, never HTML.
    statuses = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 "):
            return f"{name}: answered without a status line: {head[:120]!r}"
        statuses.append(int(head.split(b" ", 2)[1]))
        if statuses[-1] == 100:
            continue
        length = int(re.search(rb"(?i)content-length: *(\d+)", head).group(1))
        body, received = received[:length], received[length:]
        try:
            described = "error" in json.loads(body)
        except ValueError:
            described = False
        if statuses[-1] >= 400 and not described:
            return f"{name}: answered {statuses[-1]} {body[:120]!r}"
    if statuses != expected:
        return f"{name}: answered {statuses}, expected {expected}"
    return None


def stalled_client_outcome(stalled: socket.socket, started: float) -> "str | None":
    """Wait for the server to drop a client that stalled mid-head at ``started``."""
    stalled.settimeout(max(1.0, READ_TIMEOUT_S + 5.0 - (time.monotonic() - started)))
    try:
        answer = stalled.recv(65536)
    except socket.timeout:
        return f"stalled client: still connected {READ_TIMEOUT_S + 5.0:.0f} s after it stalled"
    except ConnectionError:
        answer = b""
    waited = time.monotonic() - started
    if answer:
        return f"stalled client: answered {answer[:120]!r}"
    if waited < READ_TIMEOUT_S - 1.0:
        return f"stalled client: dropped after {waited:.1f} s, before the read timeout"
    return None


def run_malformed_phase(label, host, port, prepared) -> "dict | None":
    """Malformed exchanges interleaved with checked traffic; ``None`` on any miss."""
    bodies, answers, counts = prepared
    cases = malformed_cases()
    errors: list[str] = []
    stalled = socket.create_connection((host, port))
    stalled.sendall(b"POST /query HTTP/1.1\r\nContent-Le")
    stalled_at = time.monotonic()
    concurrent = ClientWorker(0, host, port, 25 * len(cases), 1, prepared, errors)
    concurrent.start()
    innocent = HTTPConnection(host, port, timeout=60)
    checked = 0
    try:
        for index, (name, data, expected) in enumerate(cases * 2):
            slot = index % len(WORKLOAD)
            innocent.request("POST", "/query", bodies[slot], {"Content-Type": "application/json"})
            payload = json.loads(innocent.getresponse().read())
            if not answer_matches(payload, slot, answers, counts):
                errors.append(f"WRONG ANSWER on the persistent connection before {name!r}")
            checked += 1
            problem = malformed_exchange(host, port, name, data, expected)
            if problem is not None:
                errors.append(problem)
        # The persistent connection then sits idle for as long as the stalled
        # client takes to be dropped -- and must still be served afterwards.
        problem = stalled_client_outcome(stalled, stalled_at)
        if problem is not None:
            errors.append(problem)
        innocent.request("POST", "/query", bodies[0], {"Content-Type": "application/json"})
        if not answer_matches(json.loads(innocent.getresponse().read()), 0, answers, counts):
            errors.append("WRONG ANSWER on the persistent connection after it sat idle")
        checked += 1
    except OSError as error:
        errors.append(f"persistent connection died: {error}")
    finally:
        innocent.close()
        stalled.close()
        concurrent.join()
    try:
        health = call(f"http://{host}:{port}", "GET", "/healthz")
        if health.get("status") != "ok":
            errors.append(f"/healthz after the schedule: {health!r}")
    except OSError as error:
        errors.append(f"a fresh connection after the schedule failed: {error}")
    for message in errors:
        print(f"FAIL [{label}]: malformed-HTTP phase: {message}")
    if errors:
        return None
    checked += len(concurrent.latencies)
    print(
        f"[{label}] malformed: {2 * len(cases)} exchange(s) answered as their case names, a "
        f"stalled client dropped after {READ_TIMEOUT_S:g} s, {checked} interleaved "
        f"response(s) cross-checked, 0 wrong"
    )
    return {"exchanges": 2 * len(cases), "checked": checked, "wrong_answers": 0}


#: The shard-fault phase: flood size, seconds an innocent request may take
#: beside a stalled shard, seconds a killed worker's client may wait for its 400.
FLOOD_CLIENTS, FLOOD_PADDING = 40, 20_000
INNOCENT_BOUND_S, DEATH_BOUND_S = 1.0, 0.5


def timed_query(host: str, port: int, payload: dict) -> tuple[int, dict, float]:
    """One ``/query`` on a fresh connection: ``(status, body, when it was answered)``."""
    connection = HTTPConnection(host, port, timeout=60)
    try:
        body = json.dumps(payload).encode("utf-8")
        connection.request("POST", "/query", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        answered = json.loads(response.read())
        return response.status, answered, time.monotonic()
    finally:
        connection.close()


def shard_fault_errors(process, host: str, port: int, documents, prepared) -> "list[str] | None":
    """Stall, then kill, shard 0's worker under traffic; what went wrong (``None``: skipped)."""
    children_path = f"/proc/{process.pid}/task/{process.pid}/children"
    if not os.path.exists(children_path):
        return None
    with open(children_path) as handle:
        workers = [int(pid) for pid in handle.read().split()]  # oldest first: shard order
    if len(workers) != 2:
        return [f"expected 2 shard workers, found {workers}"]
    _bodies, answers, counts = prepared
    base = f"http://{host}:{port}"
    # The auction document under one id per shard; WORKLOAD[0] is asked of both.
    doc_on = {}
    for suffix in range(64):
        doc_on.setdefault(shard_for(f"auction-{suffix}", 2), f"auction-{suffix}")
    for doc_id in doc_on.values():
        call(base, "POST", "/documents", {"doc": doc_id, "xml": to_xml(documents["auction"])})
    query = WORKLOAD[0]["query"]
    errors: list[str] = []

    def innocent(when: str) -> None:
        started = time.monotonic()
        status, payload, answered = timed_query(host, port, {"doc": doc_on[1], "query": query})
        if status != 200 or not answer_matches(payload, 0, answers, counts):
            errors.append(f"{when}: shard 1 answered {status} {str(payload)[:120]}")
        elif answered - started > INNOCENT_BOUND_S:
            errors.append(f"{when}: shard 1 took {answered - started:.2f} s")

    # Stall: a flood past the socket buffer to a worker that does not read.
    os.kill(workers[0], signal.SIGSTOP)
    flooded: list = []
    plain = {"doc": doc_on[0], "query": query}
    padded = {"doc": doc_on[0], "query": query + " " * FLOOD_PADDING}

    def flood() -> None:
        try:
            flooded.append(timed_query(host, port, padded))
        except OSError as error:
            errors.append(f"stall: a flood client lost its connection: {error}")

    clients = [threading.Thread(target=flood) for _ in range(FLOOD_CLIENTS)]
    try:
        for client in clients:
            client.start()
        time.sleep(0.3)  # the flood is in: nothing of it may have been answered
        if flooded:
            errors.append(f"stall: a stopped worker answered {flooded[0][:2]}")
        for _ in range(20):
            innocent("stall")
    finally:
        os.kill(workers[0], signal.SIGCONT)
    for client in clients:
        client.join(timeout=60)
    wrong = [
        (status, str(payload)[:120])
        for status, payload, _answered in flooded
        if status != 200 or not answer_matches(payload, 0, answers, counts)
    ]
    if len(flooded) != FLOOD_CLIENTS or wrong:
        errors.append(f"stall: {len(flooded)} of {FLOOD_CLIENTS} answered, wrong: {wrong[:3]}")

    # Death: SIGKILL with one request in flight.
    os.kill(workers[0], signal.SIGSTOP)
    doomed: list = []
    client = threading.Thread(target=lambda: doomed.append(timed_query(host, port, plain)))
    client.start()
    time.sleep(0.3)
    killed = time.monotonic()
    os.kill(workers[0], signal.SIGKILL)
    client.join(timeout=60)
    died = {"error": "shard 0 worker died; its in-flight requests were dropped"}
    if not doomed or doomed[0][:2] != (400, died):
        errors.append(f"death: the in-flight request ended as {doomed and doomed[0][:2]}")
    elif doomed[0][2] - killed > DEATH_BOUND_S:
        errors.append(f"death: the 400 came {doomed[0][2] - killed:.2f} s after the kill")
    status, payload, _answered = timed_query(host, port, plain)
    refused = {"error": "shard 0 worker is not running (restart the server)"}
    if (status, payload) != (400, refused):
        errors.append(f"death: the dead shard then answered {status} {str(payload)[:120]}")
    innocent("death")
    return errors


def run_shard_fault_phase(label: str, extra_args: list[str], documents, prepared):
    """The shard-fault schedule against a server of its own; ``None`` on any miss."""
    process, host, port = start_server(label, extra_args)
    if process is None:
        return None
    try:
        errors = shard_fault_errors(process, host, port, documents, prepared)
    finally:
        code = stop_server(process)
    if errors is None:
        print(f"[{label}] shard faults: skipped (no /proc children interface)")
        return {"skipped": True}
    if code != 0:
        errors.append(f"the server exited {code} on SIGTERM after the schedule")
    for message in errors:
        print(f"FAIL [{label}]: shard-fault phase: {message}")
    if errors:
        return None
    print(
        f"[{label}] shard faults: {FLOOD_CLIENTS} x {FLOOD_PADDING // 1000} kB to a stopped "
        f"worker all answered after SIGCONT, 21 innocent request(s) each under "
        f"{INNOCENT_BOUND_S:g} s, a killed worker's request failed within {DEATH_BOUND_S:g} s"
    )
    return {"flooded": FLOOD_CLIENTS, "innocent": 21, "wrong_answers": 0}


def call(base: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def scrape_query_buckets(base: str) -> dict[float, int]:
    """Cumulative ``/query`` latency bucket counts keyed by ``le`` bound."""
    with urllib.request.urlopen(base + "/metrics", timeout=60) as response:
        text = response.read().decode("utf-8")
    cumulative: dict[float, int] = {}
    for line in text.splitlines():
        match = QUERY_BUCKET_RE.match(line)
        if match:
            le = float("inf") if match.group(1) == "+Inf" else float(match.group(1))
            cumulative[le] = int(match.group(2))
    return cumulative


def bucket_delta(before: dict[float, int], after: dict[float, int]) -> tuple[list, list]:
    """``(finite bounds, non-cumulative per-bucket deltas)`` for one window."""
    bounds = sorted(bound for bound in after if bound != float("inf"))
    cumulative = [after[bound] - before.get(bound, 0) for bound in bounds]
    cumulative.append(after.get(float("inf"), 0) - before.get(float("inf"), 0))
    counts = [cumulative[0]] + [b - a for a, b in zip(cumulative, cumulative[1:])]
    return bounds, counts


def empirical_percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def bucket_slot(bounds: list[float], value: float) -> int:
    """Index of the histogram bucket that would hold ``value``."""
    return bisect.bisect_left(bounds, value)


def run_window(base, host, port, connections, requests, check_every, prepared):
    """One measured window: spawn clients, diff ``/metrics`` around them.

    Returns ``(latencies, bounds, deltas, wall_seconds, errors)``; the caller
    decides what the window asserts.
    """
    before = scrape_query_buckets(base)
    errors: list[str] = []
    workers = [
        ClientWorker(index, host, port, requests, check_every, prepared, errors)
        for index in range(connections)
    ]
    wall_started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall_seconds = time.perf_counter() - wall_started
    after = scrape_query_buckets(base)

    latencies = sorted(latency for worker in workers for latency in worker.latencies)
    bounds, deltas = bucket_delta(before, after)
    total = connections * requests
    if not errors and len(latencies) != total:
        errors.append(f"measured {len(latencies)} latencies, expected {total}")
    if not errors and sum(deltas) != total:
        errors.append(
            f"/metrics window counted {sum(deltas)} /query request(s), clients sent {total}"
        )
    return latencies, bounds, deltas, wall_seconds, errors


def start_server(label: str, extra_args: list[str]):
    """``(process, host, port)`` of a fresh ``cq-trees serve``; ``(None, ...)`` without a banner."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC + os.pathsep + environment.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"]
        + extra_args,
        stdout=subprocess.PIPE,
        text=True,
        env=environment,
    )
    banner = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    if not match:
        print(f"FAIL [{label}]: no port announcement in banner {banner!r}")
        process.kill()
        return None, None, None
    print(f"[{label}] server up at http://{match.group(1)}:{match.group(2)}")
    return process, match.group(1), int(match.group(2))


def stop_server(process) -> "int | str":
    """SIGTERM the server; its exit code (``"killed"`` if it had to be)."""
    process.terminate()
    try:
        return process.wait(timeout=15)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
        process.kill()
        return "killed"


def run_mode(label: str, extra_args: list[str], args, documents, prepared) -> "dict | None":
    process, host, port = start_server(label, extra_args)
    if process is None:
        return None
    try:
        base = f"http://{host}:{port}"

        for doc_id, tree in documents.items():
            call(base, "POST", "/documents", {"doc": doc_id, "xml": to_xml(tree)})

        # Warm-up: one pass over the workload, outside every measured window,
        # so cold parse/compile/plan latencies do not pollute the comparison.
        for request in WORKLOAD:
            call(base, "POST", "/query", request)

        report = {"mode": label, "connections": args.connections}
        soft_failures = []

        # Phase 1 -- concurrent load: correctness under concurrency + SLOs on
        # the published (service-time) percentiles.
        latencies, bounds, deltas, wall_seconds, errors = run_window(
            base, host, port, args.connections, args.requests_per_connection,
            args.check_every, prepared,
        )
        if errors:
            for message in errors:
                print(f"FAIL [{label}]: {message}")
            return None
        total = args.connections * args.requests_per_connection
        report["load"] = {
            "requests": total,
            "wall_seconds": round(wall_seconds, 3),
            "throughput_qps": round(total / wall_seconds, 1),
            "checked": args.connections
            * sum(1 for p in range(args.requests_per_connection) if p % args.check_every == 0),
            "wrong_answers": 0,
        }
        for name, q in (("p50", 0.5), ("p99", 0.99)):
            server = percentile_from_buckets(bounds, deltas, q)
            client = empirical_percentile(latencies, q)
            slo_ms = getattr(args, f"slo_{name}_ms")
            entry = {
                "server_ms": round(server * 1000.0, 3),
                "client_ms": round(client * 1000.0, 3),
                "slo_ms": slo_ms,
                "slo_ok": server * 1000.0 <= slo_ms,
            }
            report["load"][name] = entry
            print(
                f"[{label}] load {name}: /metrics {server * 1000.0:.2f} ms "
                f"(SLO {slo_ms:g} ms{' OK' if entry['slo_ok'] else ' VIOLATED'}), "
                f"client-observed {client * 1000.0:.2f} ms incl. queueing"
            )
            if not entry["slo_ok"]:
                soft_failures.append(
                    f"SLO {name}: /metrics-derived {server * 1000.0:.2f} ms > {slo_ms:g} ms"
                )
        print(
            f"[{label}] load: {report['load']['throughput_qps']} q/s over "
            f"{args.connections} connection(s), {report['load']['checked']} "
            f"response(s) cross-checked, 0 wrong"
        )

        # Phase 2 -- unqueued agreement: client and /metrics must agree to
        # within one bucket of the latency grid.
        latencies, bounds, deltas, _, errors = run_window(
            base, host, port, 1, args.agreement_requests, args.check_every, prepared
        )
        if errors:
            for message in errors:
                print(f"FAIL [{label}]: {message}")
            return None
        report["agreement"] = {"requests": args.agreement_requests}
        for name, q in (("p50", 0.5), ("p99", 0.99)):
            server = percentile_from_buckets(bounds, deltas, q)
            client = empirical_percentile(latencies, q)
            client_slot, server_slot = bucket_slot(bounds, client), bucket_slot(bounds, server)
            agrees = abs(client_slot - server_slot) <= 1
            report["agreement"][name] = {
                "client_ms": round(client * 1000.0, 3),
                "server_ms": round(server * 1000.0, 3),
                "client_bucket": client_slot,
                "server_bucket": server_slot,
                "within_one_bucket": agrees,
            }
            print(
                f"[{label}] agreement {name}: client {client * 1000.0:.2f} ms "
                f"(bucket {client_slot}) vs /metrics {server * 1000.0:.2f} ms "
                f"(bucket {server_slot}){' OK' if agrees else ' DISAGREE'}"
            )
            if not agrees:
                soft_failures.append(
                    f"agreement {name}: client bucket {client_slot} vs server bucket "
                    f"{server_slot} differ by more than one"
                )

        # Phase 3 -- malformed HTTP beside innocent traffic (outside both
        # measured windows above).  Hard-fail, like wrong answers.
        report["malformed"] = run_malformed_phase(label, host, port, prepared)
        if report["malformed"] is None:
            return None

        # The closed loop: the server must have *accounted* for the SQL plans
        # it served, and for nothing else -- a drift table of exactly those
        # requests -- and keep an HTTP latency summary.
        _bodies, answers, counts = prepared
        for slot in SQL_SLOTS:
            payload = call(base, "POST", "/query", {**WORKLOAD[slot], "engine": "sql"})
            if payload.get("engine") != "sql" or not answer_matches(payload, slot, answers, counts):
                print(f"FAIL [{label}]: SQL replay of workload slot {slot} is wrong: {payload}")
                return None
        stats = call(base, "GET", "/stats")
        accounting = stats.get("plan_accounting", {})
        if not accounting.get("top_drift"):
            print(f"FAIL [{label}]: /stats plan_accounting.top_drift is empty after load")
            return None
        engines = {entry.get("engine") for entry in accounting["top_drift"]}
        engines |= set(accounting.get("engines", {}))
        if accounting.get("requests") != len(SQL_SLOTS) or engines != {"sql"}:
            print(f"FAIL [{label}]: the drift ledger is not just the SQL requests: {accounting}")
            return None
        if "/query" not in stats.get("http", {}):
            print(f"FAIL [{label}]: /stats http summary lacks the /query route")
            return None
        report["drift_entries"] = len(accounting["top_drift"])
        report["drift_requests"] = accounting.get("requests", 0)
        print(
            f"[{label}] drift table: {report['drift_entries']} entrie(s) over "
            f"{report['drift_requests']} ledgered request(s)"
        )

        report["soft_failures"] = soft_failures
        if soft_failures and not args.report_only:
            for message in soft_failures:
                print(f"FAIL [{label}]: {message}")
            return None
        for message in soft_failures:
            print(f"WARN [{label}] (report-only): {message}")
        return report
    finally:
        stop_server(process)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connections", type=int, default=4, help="concurrent client threads")
    parser.add_argument("--requests-per-connection", type=int, default=25)
    parser.add_argument(
        "--agreement-requests", type=int, default=60,
        help="single-connection requests for the client-vs-/metrics agreement phase",
    )
    parser.add_argument(
        "--check-every", type=int, default=5,
        help="cross-check every Kth response per connection against evaluate()",
    )
    parser.add_argument("--mode", choices=("both", "threaded", "sharded"), default="both")
    parser.add_argument("--shards", type=int, default=2, help="workers for the sharded mode")
    parser.add_argument("--slo-p50-ms", type=float, default=250.0)
    parser.add_argument("--slo-p99-ms", type=float, default=2000.0)
    parser.add_argument(
        "--report-only", action="store_true",
        help="report SLO/agreement violations without failing (wrong answers still fail)",
    )
    parser.add_argument("--out", default=None, help="optional JSON report path")
    args = parser.parse_args(argv)

    documents = build_documents()
    prepared = expected_bodies(documents)
    reports = []
    if args.mode in ("both", "threaded"):
        report = run_mode("threaded", [], args, documents, prepared)
        if report is None:
            return 1
        reports.append(report)
    if args.mode in ("both", "sharded"):
        label = "threaded+sharded"
        report = run_mode(label, ["--shards", str(args.shards)], args, documents, prepared)
        if report is None:
            return 1
        reports.append(report)
        faults = run_shard_fault_phase(f"{label} faults", ["--shards", "2"], documents, prepared)
        if faults is None:
            return 1
        reports.append({"mode": label, "shard_faults": faults})

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"harness": "service_load", "modes": reports}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    print("service load harness PASSED" + (" (report-only)" if args.report_only else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

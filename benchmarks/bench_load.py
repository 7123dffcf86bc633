"""Benchmark: front-end burst throughput over persistent HTTP connections.

The load harness (``scripts/service_load.py``) asserts SLOs against real
server processes; this benchmark measures the same request path in-process,
where pytest-benchmark can time it repeatably: a burst of concurrent
``POST /query`` requests over persistent HTTP/1.1 connections against the
front end (:func:`repro.service.make_server` over a
:class:`~repro.service.executor.BatchExecutor`), warm (documents resident,
query cache primed by a prior pass).  Each burst is ``connections x rounds``
requests drawn round-robin from the mixed workload; every response must
answer 200.  This times the full stack --
socket, HTTP parsing, executor dispatch, JSON rendering, metrics and
plan-accounting hooks -- so regressions in the observability layer's
per-request overhead surface here as well as in ``bench_service.py``.

Run standalone (``python benchmarks/bench_load.py``) for a one-shot
throughput print; under pytest the cases feed the benchmark suite.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest
from bench_config import scaled

from repro.service import BatchExecutor, make_server
from repro.trees import to_xml
from repro.workloads import auction_document, random_corpus

#: Burst shape: (connections, requests per connection); smoke stays tiny.
CONNECTIONS, ROUNDS = scaled((4, 16), (2, 4))

WORKLOAD = [
    {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
    {"doc": "auction", "xpath": "//description//listitem"},
    {"doc": "corpus", "query": "Q(x) <- NP(x), Child(x, y), NN(y)"},
    {"doc": "corpus", "xpath": "//NP[NN]"},
]
BODIES = [json.dumps(request).encode("utf-8") for request in WORKLOAD]


def build_executor() -> BatchExecutor:
    executor = BatchExecutor()
    executor.store.register_xml("auction", to_xml(auction_document(num_items=12, seed=7)))
    executor.store.register_xml("corpus", to_xml(random_corpus(num_sentences=8, seed=7)))
    return executor


def run_burst(host: str, port: int, connections: int = CONNECTIONS, rounds: int = ROUNDS) -> None:
    """``connections x rounds`` requests over persistent connections; all must 200."""
    errors: list[str] = []

    def client(index: int) -> None:
        connection = HTTPConnection(host, port, timeout=30)
        try:
            connection.connect()
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for position in range(rounds):
                body = BODIES[(index + position) % len(BODIES)]
                connection.request("POST", "/query", body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                if response.status != 200:
                    errors.append(f"client {index}: HTTP {response.status}")
                    return
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,)) for index in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise AssertionError(f"burst failed: {errors}")


@contextlib.contextmanager
def warm_server():
    """The front end over a warm executor; yields its ``(host, port)``."""
    executor = build_executor()
    httpd = make_server(executor, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    try:
        run_burst(host, port, connections=1, rounds=len(BODIES))  # warm the caches
        yield host, port
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        executor.close()


@pytest.fixture(scope="module")
def threaded_server():
    with warm_server() as address:
        yield address


def test_load_burst_threaded_frontend(benchmark, threaded_server):
    host, port = threaded_server
    benchmark(lambda: run_burst(host, port))


def main() -> int:
    with warm_server() as (host, port):
        started = time.perf_counter()
        run_burst(host, port)
        elapsed = time.perf_counter() - started
    total = CONNECTIONS * ROUNDS
    print(f"threaded: {total} requests in {elapsed:.3f}s -> {total / elapsed:.1f} q/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

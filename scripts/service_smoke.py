"""CI smoke test: real ``cq-trees serve`` processes answering real HTTP.

Runs the serving front end the way CI cannot cover in-process: the console
entry point, the port-announcement banner, and full network round trips.
Two server modes are exercised:

* the thread backend (``cq-trees serve``), and
* the sharded backend (``cq-trees serve --shards 2``): the same front end over
  two worker processes, documents routed by stable hash of their id.

Each mode registers two documents, POSTs a batch of queries, scrapes
``/metrics`` (asserting a well-formed Prometheus exposition with nonzero
request counters -- shard-merged in the sharded mode), evicts a document, and
reads ``/stats``: its drift ledger must hold the batch's one ``engine: sql``
request and nothing else (only SQL plans carry estimates).  A request naming a
``propagator`` (the query fixes it, so it
is no wire field) must get the same 400 body in both modes.  Answers are
asserted byte-identical to
direct in-process ``evaluate()`` calls -- and byte-identical *across the two
modes*, which is the serving contract the sharded backend must uphold.  Each
server is then stopped by SIGTERM with a keep-alive connection still open, and
must exit 0 having written nothing to stderr.

Usage: ``python scripts/service_smoke.py`` (exit code 0 on success).
"""

from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.evaluation import evaluate  # noqa: E402
from repro.queries import parse_query, xpath_to_cq  # noqa: E402
from repro.trees import TreeStructure, to_xml  # noqa: E402
from repro.trees.builders import parse_sexpr  # noqa: E402
from repro.workloads import auction_document  # noqa: E402

SENTENCE_SEXPR = "(S (NP (DT) (NN)) (VP (VB) (NP (NN))) (PP))"

BATCH = {
    "requests": [
        {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
        {"doc": "auction", "xpath": "//description//listitem"},
        {"doc": "sentence", "xpath": "//NP[NN]"},
        {"doc": "ghost", "query": "Q <- A(x)"},  # stays a per-request error
        # The one SQL plan: the only request the drift ledger records.
        {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)", "engine": "sql"},
    ]
}
#: Requests the ledger must hold: the SQL ones (resident plans carry no estimate).
SQL_REQUESTS = sum(request.get("engine") == "sql" for request in BATCH["requests"])


#: A request naming a propagator, and the one 400 body both modes answer it with.
PROPAGATOR_REQUEST = {**BATCH["requests"][0], "propagator": "walk"}
PROPAGATOR_REFUSAL = b'{"error": "unknown request field(s): propagator"}'


def call(base: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def scrape_metrics(base: str):
    """``GET /metrics`` raw: ``(content_type, text)`` (it is not JSON)."""
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        return response.getheader("Content-Type"), response.read().decode("utf-8")


def check_metrics(label: str, base: str) -> bool:
    """Scrape ``/metrics`` and assert a well-formed, non-trivial exposition."""
    content_type, text = scrape_metrics(base)
    if not content_type.startswith("text/plain"):
        print(f"FAIL [{label}]: /metrics content type {content_type!r} is not text/plain")
        return False
    families: set = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            families.add(line.split(" ")[2])
        elif line and not line.startswith("#"):
            name = line.split("{", 1)[0].split(" ", 1)[0]
            base_name = re.sub(r"_(bucket|sum|count)$", "", name)
            if name not in families and base_name not in families:
                print(f"FAIL [{label}]: /metrics sample before its TYPE line: {line!r}")
                return False
    ok_requests = re.search(r'^cqtrees_requests_total\{status="ok"\} (\d+)$', text, re.M)
    if not ok_requests or int(ok_requests.group(1)) < 3:
        # The batch above ran three successful requests (plus the ghost error),
        # and with shards the counters arrive merged from the workers.
        print(f"FAIL [{label}]: /metrics ok-request counter missing or zero:\n{text[:400]}")
        return False
    if "cqtrees_http_requests_total" not in text or "_bucket{" not in text:
        print(f"FAIL [{label}]: /metrics lacks HTTP counters or histogram buckets")
        return False
    print(f"[{label}] metrics: {int(ok_requests.group(1))} ok request(s), "
          f"{len(families)} familie(s)")
    return True


def run_mode(label: str, extra_args: list[str], auction) -> "list | None":
    """One full server round trip; returns the batch results (or None on failure)."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC + os.pathsep + environment.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0"]
        + extra_args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=environment,
    )
    parked = None
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if not match:
            print(f"FAIL [{label}]: no port announcement in banner {banner!r}")
            return None
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"[{label}] server up at {base}")
        # A keep-alive connection, answered once and then left open: the
        # server is stopped with it parked between two requests.
        parked = socket.create_connection((match.group(1), int(match.group(2))), timeout=30)
        parked.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
        if b'"status": "ok"' not in parked.recv(65536):
            print(f"FAIL [{label}]: no /healthz answer on the keep-alive connection")
            return None

        if call(base, "GET", "/healthz")["status"] != "ok":
            print(f"FAIL [{label}]: /healthz not ok")
            return None
        call(base, "POST", "/documents", {"doc": "auction", "xml": to_xml(auction)})
        call(base, "POST", "/documents", {"doc": "sentence", "sexpr": SENTENCE_SEXPR})

        response = call(base, "POST", "/batch", BATCH)
        if response["errors"] != 1:  # exactly the ghost request
            print(f"FAIL [{label}]: expected exactly one per-request error: {response}")
            return None
        ghost = response["results"][3]
        if "unknown document" not in ghost.get("error", ""):
            print(f"FAIL [{label}]: ghost request not a per-request error: {ghost}")
            return None
        if "elapsed_ms" not in ghost or "propagator" not in ghost:
            print(f"FAIL [{label}]: error result lacks attribution fields: {ghost}")
            return None
        try:
            call(base, "POST", "/query", PROPAGATOR_REQUEST)
            refused = None
        except urllib.error.HTTPError as error:
            refused = (error.code, error.read())
        if refused != (400, PROPAGATOR_REFUSAL):
            print(f"FAIL [{label}]: a wire propagator was not refused: {refused}")
            return None
        print(f"[{label}] a wire propagator: 400 {PROPAGATOR_REFUSAL.decode()}")

        structures = {
            "auction": TreeStructure(auction),
            "sentence": TreeStructure(parse_sexpr(SENTENCE_SEXPR)),
        }
        for request, result in zip(BATCH["requests"], response["results"]):
            if request["doc"] not in structures:
                continue
            query = (
                xpath_to_cq(request["xpath"])
                if "xpath" in request
                else parse_query(request["query"])
            )
            direct = sorted(evaluate(query, structures[request["doc"]]))
            served = json.dumps(result["answers"]).encode()
            expected = json.dumps([list(answer) for answer in direct]).encode()
            if served != expected:
                print(f"FAIL [{label}]: answers diverge for {request}: {served} != {expected}")
                return None
            print(f"[{label}] ok: {request.get('query', request.get('xpath'))} "
                  f"-> {result['count']} answer(s)")

        if not check_metrics(label, base):
            return None

        # Profiler round trip: start at a high rate, let it tick while a query
        # is served, then stop and check the folded-stack snapshot shape.  In
        # sharded mode the snapshot merges the parent and both workers.
        started = call(base, "POST", "/profile", {"action": "start", "hz": 500})
        if not started.get("running"):
            print(f"FAIL [{label}]: profiler did not start: {started}")
            return None
        call(base, "POST", "/query", BATCH["requests"][0])
        time.sleep(0.3)
        snapshot = call(base, "GET", "/profile")
        if snapshot.get("samples", 0) <= 0 or not isinstance(snapshot.get("stacks"), dict):
            print(f"FAIL [{label}]: /profile snapshot lacks samples: {snapshot}")
            return None
        stopped = call(base, "POST", "/profile", {"action": "stop"})
        if stopped.get("running") or not stopped.get("changed"):
            print(f"FAIL [{label}]: profiler did not stop: {stopped}")
            return None
        print(f"[{label}] profiler: {snapshot['samples']} sample(s), "
              f"{len(snapshot['stacks'])} distinct stack(s)")

        evicted = call(base, "DELETE", "/documents/sentence")
        if evicted.get("evicted") != "sentence":
            print(f"FAIL [{label}]: eviction failed: {evicted}")
            return None
        stats = call(base, "GET", "/stats")
        if stats["store"]["documents"] != 1:
            print(f"FAIL [{label}]: /stats documents != 1 after eviction: {stats['store']}")
            return None
        accounting = stats.get("plan_accounting", {})
        if not accounting.get("top_drift"):
            print(f"FAIL [{label}]: /stats plan-vs-actual drift table is empty: {accounting}")
            return None
        engines = {entry.get("engine") for entry in accounting["top_drift"]}
        engines |= set(accounting.get("engines", {}))
        if accounting.get("requests") != SQL_REQUESTS or engines != {"sql"}:
            print(f"FAIL [{label}]: the drift ledger is not just the SQL requests: {accounting}")
            return None
        if "/query" not in stats.get("http", {}) or "p50_ms" not in stats["http"]["/query"]:
            print(f"FAIL [{label}]: /stats http latency summary missing: {stats.get('http')}")
            return None
        print(f"[{label}] drift: {len(accounting['top_drift'])} entrie(s) over "
              f"{accounting['requests']} request(s); http /query p50 "
              f"{stats['http']['/query']['p50_ms']:.2f}ms")
        print(f"[{label}] stats: backend={stats['executor'].get('backend')}, "
              f"{stats['store']['documents']} document(s), "
              f"cache hit rate {stats['cache']['hit_rate']:.2f}")
        results = response["results"]
    finally:
        process.terminate()
        try:
            _, stderr = process.communicate(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
            process.kill()
            _, stderr = process.communicate()
        if parked is not None:
            parked.close()
    if process.returncode != 0 or stderr:
        print(f"FAIL [{label}]: SIGTERM with a connection open: exit code "
              f"{process.returncode}, stderr:\n{stderr}")
        return None
    print(f"[{label}] SIGTERM with a connection open: exit 0, stderr empty")
    return results


def main() -> int:
    auction = auction_document(num_items=12, seed=7)
    threaded = run_mode("threaded", [], auction)
    if threaded is None:
        return 1
    sharded = run_mode("threaded+sharded", ["--shards", "2"], auction)
    if sharded is None:
        return 1
    # The two modes must serve byte-identical answers (timings aside).
    def stable(result: dict) -> dict:
        return {k: v for k, v in result.items() if k not in ("elapsed_ms", "cache_hit")}

    for position, (ours, theirs) in enumerate(zip(threaded, sharded)):
        if json.dumps(stable(ours)) != json.dumps(stable(theirs)):
            print(f"FAIL: threaded and sharded results diverge at request {position}: "
                  f"{ours} != {theirs}")
            return 1
    print("service smoke PASSED (threaded + threaded+sharded, byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

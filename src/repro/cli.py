"""Command-line interface: evaluate, classify, rewrite and report.

Usage (after installation, or with ``python -m repro.cli``)::

    python -m repro.cli evaluate --tree doc.xml --query "Q(x) <- item(x), Child(x, p), payment(p)"
    python -m repro.cli evaluate --sexpr "(S (NP) (VP))" --xpath "//NP"
    python -m repro.cli explain --tree doc.xml --query "Q(x) <- a(x), Child+(x, y), b(y)"
    python -m repro.cli classify "Child, Following"
    python -m repro.cli rewrite "Q <- A(x), Child+(x, z), B(y), Child+(y, z)" --trace
    python -m repro.cli table1
    python -m repro.cli report --quick
    python -m repro.cli serve --port 8080 --document site=doc.xml
    python -m repro.cli serve --shards 4 --port 8080 --profile
    python -m repro.cli drift --url http://127.0.0.1:8080
    python -m repro.cli batch --input requests.jsonl --output results.jsonl

The CLI is a thin layer over the library; each sub-command maps onto one or
two public functions, so it doubles as executable documentation.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .evaluation import Engine
from .queries import (
    ConjunctiveQuery,
    QueryParseError,
    XPathTranslationError,
    parse_query,
    xpath_to_cq,
)
from .rewriting import RewriteTrace, to_apq
from .trees import Tree, from_xml_file, parse_sexpr
from .trees.axes import axis_from_name
from .xproperty import classify, order_for, render_table1


def _load_tree(args: argparse.Namespace) -> Tree:
    if getattr(args, "tree", None):
        return from_xml_file(args.tree)
    if getattr(args, "sexpr", None):
        return parse_sexpr(args.sexpr)
    raise SystemExit("provide a tree via --tree FILE.xml or --sexpr '(A (B))'")


def _load_query(args: argparse.Namespace) -> ConjunctiveQuery:
    try:
        if getattr(args, "query", None):
            return parse_query(args.query)
        if getattr(args, "xpath", None):
            return xpath_to_cq(args.xpath)
    except (QueryParseError, XPathTranslationError) as error:
        raise SystemExit(str(error)) from None
    raise SystemExit("provide a query via --query 'Q(x) <- ...' or --xpath '//A[B]'")


@contextmanager
def _open_document(args: argparse.Namespace):
    """``(store, doc_id, tree, accel_line)``: where ``evaluate`` / ``explain`` run.

    Without ``--accel-db`` the tree is registered resident.  With it, the tree
    is written to the accel database (once: a later run reuses the rows) and
    nothing stays resident, so the document is accel-only; ``--doc`` without a
    tree source names a document already there, and no tree is loaded
    (``tree`` is ``None``).  ``accel_line`` says which of those happened.  The
    database is closed on exit.
    """
    from .service import DocumentStore

    if args.accel_db is None:
        tree = _load_tree(args)
        store = DocumentStore()
        doc_id = args.doc or args.tree or "cli"
        store.register_tree(doc_id, tree)
        yield store, doc_id, tree, None
        return
    import hashlib

    from .backends.sqlite import SQLiteBackend

    with SQLiteBackend(args.accel_db) as backend:
        store = DocumentStore(accel_backend=backend)
        if args.doc is not None and not (args.tree or args.sexpr):
            if backend.document_nodes(args.doc) is None:
                raise SystemExit(
                    f"document {args.doc!r} is not in {args.accel_db}; "
                    "register it first (or pass --tree/--sexpr alongside --doc)"
                )
            yield store, args.doc, None, f"accel    : {args.accel_db} (accel-only doc {args.doc!r})"
            return
        tree = _load_tree(args)
        doc_id = args.doc or args.tree or (
            "sexpr:" + hashlib.sha256(args.sexpr.encode("utf-8")).hexdigest()[:16]
        )
        reused = "materialised" if backend.ensure_document(doc_id, tree) else "reused"
        yield store, doc_id, tree, f"accel    : {args.accel_db} ({reused} doc {doc_id!r})"


def _request(args: argparse.Namespace, doc_id: str, **fields):
    """The wire request the shared ``evaluate`` / ``explain`` flags describe."""
    from .service import Request

    return Request(
        doc=doc_id,
        query=args.query,
        xpath=args.xpath,
        engine=None if args.engine == Engine.AUTO.value else args.engine,
        **fields,
    )


def _command_evaluate(args: argparse.Namespace) -> int:
    """Run the query the way the server does (:func:`run_request`) and print the page."""
    from .service import QueryCache
    from .service.core import run_request, validate_limit

    query = _load_query(args)
    try:
        limit = validate_limit(20 if args.limit is None else args.limit)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    with _open_document(args) as (store, doc_id, tree, accel_line):
        result = run_request(store, QueryCache(), _request(args, doc_id, limit=limit))
        nodes = store.stats_for(doc_id).nodes
    forced = args.engine != Engine.AUTO.value
    if not result.ok:
        # A forced engine can be inapplicable (e.g. --engine fixpoint on a
        # cyclic query); report it like any other bad-flag combination.
        raise SystemExit(f"--engine {args.engine}: {result.error}" if forced else result.error)
    print(f"query    : {query}")
    print(f"signature: {query.signature()}  ({classify(query.signature()).value})")
    detail = f"propagator: {result.propagator}"
    if result.engine == Engine.SQL.value:
        detail += f", lowering: {result.plan_attribution['lowering']}"
    print(f"engine   : {result.engine}{' (forced)' if forced else ''} ({detail})")
    if accel_line is not None:
        print(accel_line)
    print(f"tree     : {nodes} nodes")
    if query.is_boolean:
        print(f"answer   : {'true' if result.count else 'false'}")
        return 0
    print(f"answers  : {result.count}")
    for answer in result.answers:
        if tree is not None:
            labels = [",".join(sorted(tree.labels(node))) or "-" for node in answer]
            rendered = ", ".join(f"{node}({label})" for node, label in zip(answer, labels))
        else:
            rendered = ", ".join(str(node) for node in answer)
        print(f"    {rendered}")
    if result.truncated:
        print(f"    ... {result.count - len(result.answers)} more")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    """Describe the plan for a query -- engine, width, bags, SQL -- without
    executing it (the CLI face of ``"explain": true`` on ``/query``)."""
    import json

    from .service import QueryCache
    from .service.core import run_request

    with _open_document(args) as (store, doc_id, _tree, _accel_line):
        result = run_request(store, QueryCache(), _request(args, doc_id, explain=True))
    print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _command_classify(args: argparse.Namespace) -> int:
    axes = frozenset(
        axis_from_name(name.strip()) for name in args.axes.split(",") if name.strip()
    )
    complexity = classify(axes)
    order = order_for(axes)
    print(f"signature : {{{', '.join(sorted(a.value for a in axes))}}}")
    print(f"complexity: {complexity.value}")
    if order is not None:
        print(f"witnessing order with the X-property: <{order.value}")
    else:
        print("no single order gives all axes the X-property (Theorem 1.1: NP-complete)")
    return 0


def _command_rewrite(args: argparse.Namespace) -> int:
    query = _load_query(args)
    trace: Optional[RewriteTrace] = RewriteTrace() if args.trace else None
    apq = to_apq(query, trace=trace)
    print(f"input : {query}")
    print(f"output: {len(apq)} acyclic disjunct(s), total size {apq.size()}")
    for disjunct in apq:
        print(f"    {disjunct}")
    if apq.is_empty():
        print("    (empty union: the query is unsatisfiable over trees)")
    if trace is not None:
        print()
        print(trace)
    return 0


def _command_table1(_args: argparse.Namespace) -> int:
    print(render_table1())
    return 0


def _command_report(args: argparse.Namespace) -> int:
    from .experiments import report

    print(report.run(quick=args.quick).render())
    return 0


def _parse_document_flags(flags: Sequence[str]):
    """``--document name=path.xml`` flags as (doc_id, path) pairs."""
    pairs = []
    for flag in flags:
        doc_id, separator, path = flag.partition("=")
        if not separator or not doc_id or not path:
            raise SystemExit(f"--document expects NAME=PATH.xml, got {flag!r}")
        pairs.append((doc_id, path))
    return pairs


def _build_executor(args: argparse.Namespace):
    """The serving backend the flags ask for: thread-pooled or process-sharded."""
    from .service import BatchExecutor, DocumentStore, QueryCache, ShardedExecutor

    from .trees import XMLParseError

    documents = _parse_document_flags(args.document)
    accel_db = getattr(args, "accel_db", None)
    try:
        if args.shards:
            executor = ShardedExecutor(
                shards=args.shards, store_capacity=args.capacity, accel_db=accel_db
            )
        else:
            accel_backend = None
            if accel_db is not None:
                from .backends.sqlite import SQLiteBackend

                accel_backend = SQLiteBackend(accel_db)
            store = DocumentStore(capacity=args.capacity, accel_backend=accel_backend)
            executor = BatchExecutor(store, QueryCache(), max_workers=args.workers)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    try:
        for doc_id, path in documents:
            # The CLI shares the server's trust domain, so file registration
            # is allowed (each shard parses its own documents).
            executor.register_payload({"doc": doc_id, "xml_file": path}, allow_files=True)
    except (OSError, XMLParseError, ValueError) as error:
        executor.close()
        raise SystemExit(f"cannot pre-register document: {error}") from None
    return executor


def _banner(documents: int, host: str, port: int) -> str:
    # Printed (and flushed) first so callers that picked port 0 learn the
    # ephemeral port; the CI smoke script depends on this line.
    return f"serving on http://{host}:{port} ({documents} document(s) resident)"


def _serve(executor, args: argparse.Namespace) -> int:
    from .service import make_server

    server = make_server(executor, host=args.host, port=args.port, quiet=not args.verbose)
    host, port = server.server_address[:2]
    print(_banner(executor.document_count(), host, port), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal

    def _graceful_shutdown(_signum, _frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    # SIGTERM (docker stop, supervisors, process.terminate()) must run the
    # same cleanup as Ctrl-C: without it the sharded backend's worker
    # processes are orphaned, as they only exit on the close() sentinel or on
    # noticing the parent died.
    signal.signal(signal.SIGTERM, _graceful_shutdown)
    executor = _build_executor(args)
    if args.profile is not None:
        # Fleet-wide under --shards: the broadcast reaches the (already
        # forked) workers, so every process samples from the first request.
        try:
            executor.profile_control("start", args.profile)
        except ValueError as error:
            executor.close()
            raise SystemExit(f"--profile: {error}") from None
    try:
        return _serve(executor, args)
    finally:
        executor.close()


def _command_drift(args: argparse.Namespace) -> int:
    """Show a running server's plan-vs-actual drift table (from ``/stats``).

    The operator face of the accounting layer: per-engine calibration (how
    many cost-model work units one second of that engine's wall-clock
    retires) and the worst over/under-estimated requests, worst first.  Only
    SQL plans carry estimates, so only SQL requests are ledgered.
    """
    import json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/stats"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            stats = json.loads(response.read().decode("utf-8"))
    except (OSError, ValueError, urllib.error.URLError) as error:
        raise SystemExit(f"cannot fetch {url}: {error}") from None
    accounting = stats.get("plan_accounting")
    if not isinstance(accounting, dict):
        raise SystemExit(f"{url} has no 'plan_accounting' section (older server?)")
    if args.json:
        print(json.dumps(accounting, indent=2, sort_keys=True))
        return 0
    print(
        f"plan-vs-actual accounting: {accounting.get('requests', 0)} request(s) "
        f"ledgered, {accounting.get('skipped', 0)} skipped"
    )
    engines = accounting.get("engines", {})
    if engines:
        print("engine calibration (cost units retired per second):")
        for engine, calibration in sorted(engines.items()):
            rate = calibration.get("units_per_second")
            rendered = f"{rate:,.0f}" if isinstance(rate, (int, float)) else "n/a"
            print(f"    {engine:<14} {rendered:>14}  ({calibration.get('count', 0)} request(s))")
    entries = accounting.get("top_drift", [])[: args.limit]
    if not entries:
        print("top drift: (no executed SQL requests yet)")
        return 0
    print(f"top drift (worst {len(entries)} of capacity {accounting.get('capacity')}):")
    for entry in entries:
        query = str(entry.get("query", ""))
        if len(query) > 60:
            query = query[:57] + "..."
        stage = entry.get("stage_ms", {})
        print(
            f"    x{entry.get('drift'):<9} {entry.get('direction', '?'):<14} "
            f"{entry.get('engine')}/{entry.get('lowering')} "
            f"est={entry.get('estimated_cost')} rows={entry.get('rows')} "
            f"elapsed={entry.get('elapsed_ms')}ms "
            f"(plan={stage.get('plan')}ms exec={stage.get('execute')}ms)"
        )
        print(f"        doc={entry.get('doc')!r} bucket={entry.get('stats_bucket')!r} {query}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    """JSONL in, JSONL out: register ops and query requests, in order.

    Consecutive query lines form one concurrently-executed batch (results
    stay in input order); a register line is a barrier, so queries always see
    every document registered above them.
    """
    import json

    from .service import Request

    executor = _build_executor(args)
    try:
        input_handle = (
            sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
        )
        output_handle = (
            sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
        )
    except OSError as error:
        raise SystemExit(str(error)) from None

    def emit(payload: dict) -> None:
        output_handle.write(json.dumps(payload) + "\n")

    failures = 0

    def flush_queries(pending: list[Request]) -> None:
        nonlocal failures
        for result in executor.execute_batch(pending):
            if not result.ok:
                failures += 1
            emit(result.to_json_dict())
        pending.clear()

    try:
        pending: list[Request] = []
        for line_number, line in enumerate(input_handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError("each JSONL line must be a JSON object")
                op = payload.pop("op", None)
                if op == "register":
                    flush_queries(pending)
                    # The CLI shares the server's trust domain, so file
                    # registration is allowed here (unlike over HTTP).
                    summary = executor.register_payload(payload, allow_files=True)
                    emit({"ok": True, **summary})
                elif op in (None, "query"):
                    pending.append(Request.from_json_dict(payload))
                else:
                    raise ValueError(
                        f"unknown op {op!r}; expected 'register' or 'query'"
                    )
            except Exception as error:  # noqa: BLE001 - per-line error reporting
                flush_queries(pending)  # keep the output in input order
                failures += 1
                emit({"error": f"line {line_number}: {error}"})
        flush_queries(pending)
    finally:
        executor.close()
        if input_handle is not sys.stdin:
            input_handle.close()
        if output_handle is not sys.stdout:
            output_handle.close()
        else:
            output_handle.flush()
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conjunctive queries over trees (Gottlob, Koch & Schulz) -- reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_request_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("--tree", help="XML file containing the data tree")
        subparser.add_argument("--sexpr", help="the data tree as an s-expression")
        subparser.add_argument("--query", help="conjunctive query in datalog notation")
        subparser.add_argument("--xpath", help="query as an XPath expression")
        subparser.add_argument(
            "--engine",
            choices=[engine.value for engine in Engine],
            default=Engine.AUTO.value,
            help=(
                "evaluation engine override (default: auto = planner choice; "
                "'fixpoint' is one arc-consistency fixpoint, the default for "
                "Boolean heads over a forest or a tractable signature and for "
                "monadic heads over a forest, and refuses every other query; "
                "'decomposition' is the hypertree/Yannakakis engine, the "
                "default for k-ary heads and for every cyclic query one fixpoint "
                "cannot answer; 'sql' the SQLite accel-table backend)"
            ),
        )
        subparser.add_argument(
            "--accel-db",
            default=None,
            metavar="PATH",
            help=(
                "file-backed accel database to write the document into "
                "(and reuse on later runs) -- the out-of-core path, auto-routed "
                "to the SQL engine"
            ),
        )
        subparser.add_argument(
            "--doc",
            default=None,
            metavar="ID",
            help=(
                "document id (default: the --tree path); with --accel-db and no "
                "tree source, an accel-only document to query (no tree is loaded)"
            ),
        )

    evaluate_parser = commands.add_parser("evaluate", help="evaluate a query on a tree")
    add_request_arguments(evaluate_parser)
    evaluate_parser.add_argument("--limit", type=int, default=None, help="max answers to print")
    evaluate_parser.set_defaults(handler=_command_evaluate)

    explain_parser = commands.add_parser(
        "explain",
        help="describe the plan for a query (engine, width, bags, SQL) without running it",
    )
    add_request_arguments(explain_parser)
    explain_parser.set_defaults(handler=_command_explain)

    classify_parser = commands.add_parser(
        "classify", help="classify an axis signature (Table I / Theorem 1.1)"
    )
    classify_parser.add_argument("axes", help="comma-separated axis names, e.g. 'Child, Following'")
    classify_parser.set_defaults(handler=_command_classify)

    rewrite_parser = commands.add_parser(
        "rewrite", help="rewrite a conjunctive query into an acyclic positive query"
    )
    rewrite_parser.add_argument("query", nargs="?", default=None, help="query in datalog notation")
    rewrite_parser.add_argument("--xpath", help="query as an XPath expression")
    rewrite_parser.add_argument("--trace", action="store_true", help="print the rewrite derivation")
    rewrite_parser.set_defaults(handler=_command_rewrite)

    table1_parser = commands.add_parser("table1", help="print the regenerated Table I")
    table1_parser.set_defaults(handler=_command_table1)

    report_parser = commands.add_parser("report", help="run all experiments and print the report")
    report_parser.add_argument("--quick", action="store_true", help="trim the expensive sweeps")
    report_parser.set_defaults(handler=_command_report)

    def add_service_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--document",
            action="append",
            default=[],
            metavar="NAME=PATH.xml",
            help="pre-register an XML document under the given id (repeatable)",
        )
        subparser.add_argument(
            "--capacity",
            type=int,
            default=None,
            help=(
                "LRU bound on resident documents (per worker process with "
                "--shards, so the fleet bound is CAPACITY x N)"
            ),
        )
        subparser.add_argument(
            "--workers",
            type=int,
            default=8,
            help=(
                "batch thread-pool size for the threaded backend (default 8; "
                "ignored with --shards, where parallelism is the shard count)"
            ),
        )
        subparser.add_argument(
            "--shards",
            type=int,
            default=0,
            metavar="N",
            help=(
                "use the process-sharded backend with N worker processes "
                "(documents routed by stable hash of their id; 0 = threaded backend)"
            ),
        )
        subparser.add_argument(
            "--accel-db",
            default=None,
            metavar="PATH",
            help=(
                "SQLite accel database backing the store: registered documents "
                "are mirrored into it, documents already in it are queryable "
                "accel-only (auto-routed to the SQL engine); with --shards each "
                "worker opens its own connection to the shared file"
            ),
        )

    serve_parser = commands.add_parser(
        "serve", help="run the HTTP JSON query service (document store + query cache)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks an ephemeral port)"
    )
    serve_parser.add_argument("--verbose", action="store_true", help="log every request")
    # A no-op, accepted because benchmarks/e2e (``point_1k_sharded``) still passes it.
    serve_parser.add_argument("--async", action="store_true", help=argparse.SUPPRESS)
    serve_parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=97,
        default=None,
        metavar="HZ",
        help=(
            "start the in-process sampling profiler at startup (optional "
            "frequency, default 97 Hz); dump/control it at GET/POST /profile. "
            "With --shards, every worker process samples and /profile merges"
        ),
    )
    add_service_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    drift_parser = commands.add_parser(
        "drift",
        help="show a running server's plan-vs-actual drift table (reads /stats)",
        description="Show a running server's plan-vs-actual drift table (reads /stats).  "
        "Only SQL plans carry cost estimates (they choose the lowering), so the ledger "
        "holds SQL requests only; resident engines are routed without estimates.",
    )
    drift_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of a running cq-trees serve instance (default http://127.0.0.1:8080)",
    )
    drift_parser.add_argument(
        "--limit", type=int, default=10, help="max drift entries to print (default 10)"
    )
    drift_parser.add_argument(
        "--timeout", type=float, default=10.0, help="HTTP timeout in seconds (default 10)"
    )
    drift_parser.add_argument(
        "--json", action="store_true", help="print the raw plan_accounting JSON instead"
    )
    drift_parser.set_defaults(handler=_command_drift)

    batch_parser = commands.add_parser(
        "batch", help="evaluate a JSONL request stream over the serving subsystem"
    )
    batch_parser.add_argument(
        "--input", default="-", help="JSONL request file ('-' for stdin)"
    )
    batch_parser.add_argument(
        "--output", default="-", help="JSONL result file ('-' for stdout)"
    )
    add_service_arguments(batch_parser)
    batch_parser.set_defaults(handler=_command_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())

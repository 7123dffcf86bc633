"""Benchmark: join-tree SQL lowering vs the flat-join lowering, plus the
out-of-core soak that proves streamed answers run in bounded memory.

Four sections, all emitted into ``BENCH_sqlite.json``:

* ``results``/``headline`` -- the PR 6 flat lowering joins every query
  variable in one SELECT, so each witness-only variable multiplies the
  enumerated tuple space by its candidate-set size.  The join-tree lowering
  (``lowering="tree"``) reduces bag-by-bag along the reduced, head-rooted
  decomposition: witness variables collapse to threshold aggregates or
  first-witness ``EXISTS`` probes and never join.  ``pain_*`` entries are the
  shapes that lowering targets -- long labeled ``Following``/``Child+``
  chains and width-2 cyclic cores with witness dangles -- and the committed
  headline (minimum tree-over-flat speedup at the largest size) must meet
  the ``CLAIM_BAR`` acceptance bar.  The bar was 5x while both lowerings read
  labels through an ``EXISTS`` per accel row; since both start from the label
  index the flat join is 9-1000x faster on this set (the tree lowering ~2x),
  and the bar is 2x -- the ratio is reported as measured (the minimum was
  5.7x at 1000 nodes with text-keyed label rows, 11.5x since they carry
  their ranks), the chains still differ by 100x+.  ``ablation_*`` entries
  are kept honest and out of the headline: a dense 4-cycle where both
  lowerings must enumerate the cyclic core (0.7-1.2x) and a two-variable
  pair query where the lowerings emit essentially the same join (parity).
  Each side is timed as the best of ``--repeats`` (>= 5) runs, with the
  interquartile range of those runs beside it (``*_iqr_seconds``).
* ``accel_shapes`` -- the 13 request shapes of the end-to-end ``accel_10k``
  workload (``e2e/workloads.py``: the mixed batch plus the two k-ary
  extras) on its two documents, as the serving core runs them (the
  cached, simplified query, answers streamed): both
  lowerings as best of ``--repeats`` with the interquartile range, and the
  lowering the planner chooses for an accel-only document.  Report only: no
  bar reads it.
* ``crosscheck`` -- byte-identity of the tree lowering against the
  in-memory engines (planner evaluation and the decomposition engine's
  Yannakakis enumeration) at 10k-100k nodes.
* ``soak`` -- a 1M-node document registered into a *file-backed* accel
  database and dropped from memory (the out-of-core serving configuration).
  The same query is answered twice: streamed through the server-side cursor
  (``stream_answers``, ``fetchmany`` batches) with answers consumed and
  discarded, and fully materialized into a list.  ``tracemalloc`` peaks for
  the two phases must differ by >= 4x -- streaming keeps peak memory at the
  batch size, not the result size.  ``resource.ru_maxrss`` is recorded for
  the whole process as corroboration.  Wall clock is reported alongside the
  memory claim: the same query is timed through the fastest resident
  enumeration path -- the decomposition engine's Yannakakis answer
  enumeration, the same in-memory reference the cross-check uses for k-ary
  heads -- at the same scale (``inmemory_seconds`` / ``sql_over_inmemory``),
  so the report shows what out-of-core answering costs in seconds, not just
  what it saves in bytes.

Byte-identity between the two lowerings is asserted on every measured pain
and ablation instance.  Run standalone
(``python benchmarks/bench_sqlite.py``) to regenerate ``BENCH_sqlite.json``;
``BENCH_SMOKE=1`` shrinks every section for CI.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import tempfile
import time
import tracemalloc

import pytest
from bench_config import SMOKE, scaled
from e2e.workloads import ACCEL_EXTRA, DOCUMENT_SEED, MIXED
from e2e.workloads import SIZES as E2E_SIZES

from repro.backends.sqlite import SQLiteBackend
from repro.decomposition.yannakakis import evaluate_answers
from repro.evaluation.planner import evaluate
from repro.planning import DocumentStats
from repro.queries import parse_query
from repro.service import QueryCache
from repro.trees import TreeStructure, random_tree
from repro.trees.node import Node
from repro.trees.tree import Tree
from repro.workloads import auction_document, random_corpus

# The 500 size is shared between the full and smoke grids on purpose:
# check_regression.py matches entries on (query, tree_size), so the smoke run
# needs at least one size present in the committed full-size baseline.
SIZES = scaled((500, 1_000), (500,))

#: Sizes for the byte-identity cross-check against the in-memory engines.
CROSSCHECK_SIZES = scaled((10_000, 100_000), (2_000, 5_000))

#: Minimum tree-over-flat speedup on the pain set the headline claims.
CLAIM_BAR = 2.0

#: Document size of the ``accel_shapes`` section (``e2e/workloads.py`` sizes).
ACCEL_SHAPES_SIZE = scaled("10k", "1k")

#: The 13 request shapes of the ``accel_10k`` mix, each once: the mixed batch
#: (its byte-identical resubmission dropped) plus the two k-ary extras.
ACCEL_SHAPES = [spec for i, spec in enumerate(MIXED) if spec not in MIXED[:i]] + list(ACCEL_EXTRA)

#: Node count of the out-of-core soak document.
SOAK_NODES = scaled(1_000_000, 50_000)

#: The soak query: one answer per labeled parent/child edge, ~n/3 rows.
SOAK_QUERY = "Q(x, y) <- A(x), Child(x, y)"

#: Shapes the join-tree lowering targets: every non-head variable is
#: witness-only, so the flat join's tuple space is larger by the product of
#: their candidate-set sizes while the tree lowering reduces each to a
#: threshold aggregate or a first-witness EXISTS.
PAIN_QUERIES = {
    "pain_following_chain3": (
        "Q(x0) <- A(x0), Following(x0, x1), B(x1), Following(x1, x2), C(x2)"
    ),
    "pain_mixed_chain4": (
        "Q(x0) <- A(x0), Child+(x0, x1), B(x1), Following(x1, x2), C(x2), "
        "Child+(x2, x3), A(x3)"
    ),
    "pain_triangle_w2": (
        "Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z), B(y), C(z)"
    ),
    "pain_triangle_fan": (
        "Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z), B(y), C(z), "
        "Following(x, w), B(w), NextSibling+(x, v), C(v)"
    ),
}

#: Where the join tree does NOT dominate, kept honest and out of the
#: headline: the dense 4-cycle forces both lowerings to enumerate the cyclic
#: core's pairs (near parity), and the two-variable pair query lowers to
#: essentially the same single join either way.
ABLATION_QUERIES = {
    "ablation_cycle4": (
        "Q(a) <- A(a), Child+(a, b), B(b), Following(b, c), C(c), "
        "Child+(d, c), A(d), Following(a, d)"
    ),
    "ablation_pair_child": "Q(x, y) <- A(x), Child(x, y), B(y)",
}

ALL_QUERIES = {**PAIN_QUERIES, **ABLATION_QUERIES}

#: Cross-check queries and which in-memory engine produces the reference
#: answers: the planner's propagation path for the monadic shapes, the
#: decomposition engine's Yannakakis enumeration for the k-ary pair.
CROSSCHECK_QUERIES = {
    "monadic_childplus": ("Q(x) <- A(x), Child+(x, y), B(y)", "planner"),
    "monadic_following": ("Q(x) <- A(x), Following(x, y), B(y)", "planner"),
    "pair_childplus": ("Q(x, y) <- A(x), Child+(x, y), B(y)", "yannakakis"),
}


def _tree(size: int):
    return random_tree(size, alphabet=("A", "B", "C"), seed=42)


def _median_time(function, repeats: int) -> float:
    return statistics.median(_timings(function, repeats))


def _timings(function, repeats: int) -> list[float]:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return timings


def _best_and_iqr(function, repeats: int) -> tuple[float, float]:
    """Best of ``repeats`` runs and the interquartile range of all of them."""
    timings = _timings(function, repeats)
    low, _median, high = statistics.quantiles(timings, n=4)
    return min(timings), high - low


def _entry(size, name, kind, pain, flat, tree):
    (flat, flat_iqr), (tree, tree_iqr) = flat, tree
    entry = {
        "tree_size": size,
        "query": name,
        "kind": kind,
        "pain_case": pain,
        "flat_seconds": flat,
        "flat_iqr_seconds": flat_iqr,
        "tree_seconds": tree,
        "tree_iqr_seconds": tree_iqr,
        "speedup": flat / tree if tree > 0 else float("inf"),
    }
    print(
        f"n={size:>6} {name:<24} {kind:<10} flat={flat:.4f}s "
        f"tree={tree:.4f}s speedup={entry['speedup']:.1f}x"
    )
    return entry


def _measure_lowering(backend, doc_id, query, repeats):
    """Byte-identity check plus ``(best, IQR)`` timings for one query, both lowerings."""
    tree_rows = backend.evaluate(doc_id, query, lowering="tree")
    flat_rows = backend.evaluate(doc_id, query, lowering="flat")
    if tree_rows != flat_rows:
        raise AssertionError(f"tree/flat lowering mismatch: {query}")
    # The tree side is a millisecond: more repeats keep the ratio's denominator steady.
    tree = _best_and_iqr(lambda: backend.evaluate(doc_id, query, lowering="tree"), 3 * repeats)
    flat = _best_and_iqr(lambda: backend.evaluate(doc_id, query, lowering="flat"), repeats)
    return flat, tree


def _accel_shapes(repeats: int) -> dict:
    """The ``accel_10k`` shapes in process: both lowerings and the planner's choice."""
    size = E2E_SIZES[ACCEL_SHAPES_SIZE]
    trees = {
        "auction": auction_document(seed=DOCUMENT_SEED, **size["auction"]),
        "corpus": random_corpus(seed=DOCUMENT_SEED, num_sentences=size["sentences"]),
    }
    cache = QueryCache()
    shapes = []
    with SQLiteBackend() as backend:
        for doc, tree in trees.items():
            backend.register_tree(doc, tree)
        for spec in ACCEL_SHAPES:
            doc = spec["doc"]
            text, kind = (spec["xpath"], "xpath") if "xpath" in spec else (spec["query"], "datalog")
            entry, _ = cache.resolve_text(text, kind)
            stats = DocumentStats.approximate_from_nodes(len(trees[doc]))
            chosen = cache.plan_for(entry, stats, accel_only=True).lowering
            shape = {"doc": doc, "nodes": len(trees[doc]), kind: text, "chosen": chosen}
            answers = {}
            for lowering in ("tree", "flat"):

                def stream(lowering=lowering):
                    return list(backend.stream_answers(doc, entry.query, lowering=lowering))

                answers[lowering] = stream()
                best, iqr = _best_and_iqr(stream, repeats)
                shape[f"{lowering}_seconds"] = best
                shape[f"{lowering}_iqr_seconds"] = iqr
            if answers["tree"] != answers["flat"]:
                raise AssertionError(f"tree/flat lowering mismatch: {text}")
            shape["rows"] = len(answers["tree"])
            shape["chosen_seconds"] = shape[f"{chosen}_seconds"]
            print(
                f"accel {text[:56]:<56} tree={shape['tree_seconds'] * 1e3:7.3f}ms "
                f"flat={shape['flat_seconds'] * 1e3:7.3f}ms chosen={chosen}"
            )
            shapes.append(shape)
    return {
        "size": ACCEL_SHAPES_SIZE,
        "repeats": repeats,
        "chosen_total_seconds": sum(shape["chosen_seconds"] for shape in shapes),
        "shapes": shapes,
    }


def _crosscheck_in_memory(size: int) -> dict:
    """The tree lowering agrees with the in-memory engines at ``size`` nodes."""
    tree = _tree(size)
    structure = TreeStructure(tree)
    rows_by_query = {}
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        for name, (text, engine) in CROSSCHECK_QUERIES.items():
            query = parse_query(text)
            if engine == "planner":
                reference = sorted(evaluate(query, structure))
            else:
                reference = sorted(evaluate_answers(query, structure))
            sql = sorted(backend.evaluate("doc", query, lowering="tree"))
            streamed = list(backend.stream_answers("doc", query))
            if not (repr(reference) == repr(sql) == repr(streamed)):
                raise AssertionError(f"in-memory/SQL answer mismatch: {name} (n={size})")
            rows_by_query[name] = len(sql)
    print(f"crosscheck n={size:>7}: {rows_by_query} byte-identical")
    return rows_by_query


def _synthetic_tree(size: int, seed: int = 42) -> Tree:
    """A ``size``-node tree built in O(size) for the out-of-core soak.

    ``random_tree`` rebuilds its eligible-parent list per node (quadratic --
    unusable at 1M), so the soak attaches each node to a uniformly random
    member of a bounded window of recently added nodes instead.  Label
    frozensets are shared across nodes to keep the build itself cheap.
    """
    rng = random.Random(seed)
    labels = [frozenset({"A"}), frozenset({"B"}), frozenset({"C"})]
    root = Node(labels[0])
    window = [root]
    for count in range(1, size):
        parent = window[rng.randrange(len(window))]
        child = parent.add_child(Node(labels[count % 3]))
        window.append(child)
        if len(window) > 64:
            window.pop(0)
    return Tree(root)


def _soak(nodes: int) -> dict:
    """Register an out-of-core document, stream vs materialize one query.

    Also times the same query through the resident Yannakakis enumeration
    before the tree is dropped: the memory claim (streaming stays bounded)
    says nothing about wall clock, so the report records what out-of-core
    answering costs in seconds relative to keeping the document resident.
    The reference is ``evaluate_answers``, the join-tree enumeration default
    routing now picks for every k-ary head (and the one the cross-check
    uses); it is called directly so the soak keeps timing that engine even
    if routing changes again.
    """
    query = parse_query(SOAK_QUERY)
    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "soak.db")
        build_start = time.perf_counter()
        tree = _synthetic_tree(nodes)
        build_seconds = time.perf_counter() - build_start
        with SQLiteBackend(db_path) as backend:
            register_start = time.perf_counter()
            backend.register_tree("soak", tree)
            register_seconds = time.perf_counter() - register_start
            # Wall-clock reference point at the same scale: the resident
            # in-memory path (structure build + evaluation counted
            # separately, so the recurring per-query cost is visible).
            structure_start = time.perf_counter()
            structure = TreeStructure(tree)
            structure.index
            structure_seconds = time.perf_counter() - structure_start
            inmemory_start = time.perf_counter()
            inmemory_rows = len(evaluate_answers(query, structure))
            inmemory_seconds = time.perf_counter() - inmemory_start
            del structure
            # Drop the in-memory tree: from here on the document exists only
            # in the accel database -- the accel-only serving configuration.
            del tree
            gc.collect()

            tracemalloc.start()
            stream_start = time.perf_counter()
            rows = 0
            for _ in backend.stream_answers("soak", query):
                rows += 1
            stream_seconds = time.perf_counter() - stream_start
            _, streamed_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

            tracemalloc.start()
            materialized = list(backend.stream_answers("soak", query))
            _, materialized_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            if len(materialized) != rows:
                raise AssertionError("streamed and materialized row counts differ")
            if inmemory_rows != rows:
                raise AssertionError("in-memory and streamed row counts differ")
            del materialized
            gc.collect()
            db_bytes = os.path.getsize(db_path)
    soak = {
        "nodes": nodes,
        "query": SOAK_QUERY,
        "rows": rows,
        "build_seconds": build_seconds,
        "register_seconds": register_seconds,
        "stream_seconds": stream_seconds,
        "structure_seconds": structure_seconds,
        "inmemory_seconds": inmemory_seconds,
        "sql_over_inmemory": (
            stream_seconds / inmemory_seconds if inmemory_seconds else float("inf")
        ),
        "db_bytes": db_bytes,
        "streamed_peak_bytes": streamed_peak,
        "materialized_peak_bytes": materialized_peak,
        "peak_ratio": materialized_peak / streamed_peak if streamed_peak else float("inf"),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "bounded": streamed_peak * 4 <= materialized_peak,
    }
    print(
        f"soak n={nodes}: {rows} rows, streamed peak "
        f"{streamed_peak / 1e6:.1f}MB vs materialized "
        f"{materialized_peak / 1e6:.1f}MB ({soak['peak_ratio']:.1f}x), "
        f"bounded={soak['bounded']}, wall clock SQL {stream_seconds:.2f}s vs "
        f"in-memory {inmemory_seconds:.2f}s ({soak['sql_over_inmemory']:.1f}x)"
    )
    return soak


def run(sizes=SIZES, repeats: int = 5) -> dict:
    """Measure tree vs flat lowerings and the accel shapes, cross-check, run the soak."""
    results = []
    for size in sizes:
        tree = _tree(size)
        with SQLiteBackend() as backend:
            backend.register_tree("doc", tree)
            for name, text in ALL_QUERIES.items():
                query = parse_query(text)
                flat, fast = _measure_lowering(backend, "doc", query, repeats)
                pain = name in PAIN_QUERIES
                kind = "pain" if pain else "ablation"
                results.append(_entry(size, name, kind, pain, flat, fast))
    accel_shapes = _accel_shapes(max(repeats, 10))
    crosscheck = {size: _crosscheck_in_memory(size) for size in CROSSCHECK_SIZES}
    soak = _soak(SOAK_NODES)
    largest = max(sizes)
    headline = min(
        entry["speedup"]
        for entry in results
        if entry["tree_size"] == largest and entry["pain_case"]
    )
    ablation_at_largest = [
        entry
        for entry in results
        if entry["tree_size"] == largest and not entry["pain_case"]
    ]
    return {
        "benchmark": "join-tree SQL lowering vs flat join + out-of-core soak",
        "sizes": list(sizes),
        "repeats": repeats,
        "results": results,
        "headline": {
            "tree_size": largest,
            "min_speedup": headline,
            "claim": (
                f"join-tree lowering >= {CLAIM_BAR:g}x faster than the (label-driven) "
                "flat-join lowering on labeled chain and width-2 cyclic pain queries"
            ),
            "holds": headline >= CLAIM_BAR and soak["bounded"],
        },
        "ablation": {
            "tree_size": largest,
            "min_speedup": min(e["speedup"] for e in ablation_at_largest),
            "max_speedup": max(e["speedup"] for e in ablation_at_largest),
        },
        "accel_shapes": accel_shapes,
        "crosscheck": {
            "sizes": list(CROSSCHECK_SIZES),
            "rows": {str(size): rows for size, rows in crosscheck.items()},
            "byte_identical": True,
        },
        "soak": soak,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_sqlite.json", help="output JSON path")
    parser.add_argument("--repeats", type=int, default=5, help="runs per timing (>= 5)")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5: a best-of and a spread need the runs")
    report = run(repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"wrote {args.out}; headline min pain-case speedup on "
        f"n={report['headline']['tree_size']}: {report['headline']['min_speedup']:.1f}x; "
        f"soak peak ratio {report['soak']['peak_ratio']:.1f}x"
    )
    if not report["headline"]["holds"]:
        print(f"FAIL: the >={CLAIM_BAR:g}x speedup / bounded-memory soak claim does not hold")
        return 1
    return 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST = min(SIZES)
BENCH_TREE = _tree(SMALLEST)


def _bench_backend():
    backend = SQLiteBackend()
    backend.register_tree("doc", BENCH_TREE)
    return backend


@pytest.mark.parametrize("name", sorted(PAIN_QUERIES))
def test_tree_lowering_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    with _bench_backend() as backend:
        benchmark(lambda: backend.evaluate("doc", query, lowering="tree"))


@pytest.mark.parametrize(
    "name", ["pain_mixed_chain4"] if SMOKE else sorted(PAIN_QUERIES)
)
def test_flat_lowering_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    with _bench_backend() as backend:
        benchmark(lambda: backend.evaluate("doc", query, lowering="flat"))


def test_join_tree_byte_identity_smoke():
    """Tree lowering, flat lowering and the in-memory engines agree."""
    rows = _crosscheck_in_memory(1_000)
    assert all(count > 0 for count in rows.values())


def test_streamed_soak_bounded_memory():
    """Streaming keeps peak memory well below full materialization.

    50k nodes is the smallest size where the materialized answer list
    dwarfs the streamed path's fixed floor (one fetchmany batch plus
    cursor machinery) by the required margin.
    """
    soak = _soak(50_000)
    assert soak["rows"] > 0
    assert soak["bounded"]


def test_tree_speedup_meets_claim():
    """A relaxed wall-clock guard against losing the speedup entirely.

    The real ``CLAIM_BAR`` claim is enforced by ``main`` (run by CI's bench-smoke job
    and gated by ``check_regression.py`` against the committed baseline);
    this pytest variant uses a 2x margin at the smallest size so it stays
    robust on loaded machines, while still catching a regression that makes
    the join-tree lowering no faster than the flat join.
    """
    query = parse_query(PAIN_QUERIES["pain_following_chain3"])
    with _bench_backend() as backend:
        tree = _median_time(lambda: backend.evaluate("doc", query, lowering="tree"), 3)
        flat = _median_time(lambda: backend.evaluate("doc", query, lowering="flat"), 3)
    assert flat >= 2.0 * tree


if __name__ == "__main__":
    raise SystemExit(main())

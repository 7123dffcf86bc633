"""Benchmark: columnar bag kernels vs the per-prefix bisection path.

The interval index answers "which candidates of ``S`` are partners of this
prefix?" either one prefix at a time (a bisection probe per prefix, the
depth-first recursion) or in bulk: one pass over the sorted rank columns
gives *every* prefix of a level its window, in C-level ``array`` traversals
(:mod:`repro.trees.columnar`).

The entries measure bag materialization in the decomposition engine as the
production path vs a per-prefix reference computing the *same* rows:

* ``bag_*`` -- the headline (bar >= 3x at the largest size): the level-at-a-
  time kernel (one window per prefix per pass, levels expanded, counted or
  tested) against the depth-first recursion it replaced
  (:func:`_reference_bag`, a ``_DepthFirst`` walk reached directly), on the bag
  shapes of the e2e workloads -- a large ``Child+`` pair bag, the bidder
  triangle (``Child`` walks cut by a ``Following`` window) unlimited, under
  ``limit: 10`` (the last level is only counted) and with its last variable
  witness-only (the level is only tested).  Both sides start from the same
  swept candidate columns, so the number is the bag alone.
* ``ablation_*`` -- entries kept to report where the columnar kernels win
  less, excluded from the headline: the sentence-pair bag (two range atoms
  per level, ~2-3x: both paths pay the same two bisections per prefix, which
  is most of that bag).

Identity between the two sides is asserted on every measured instance, and
the SQLite accel-table backend (:mod:`repro.backends.sqlite`) is
cross-checked against both on a fixed small document.

Run standalone (``python benchmarks/bench_columnar.py``) to regenerate
``BENCH_columnar.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import pytest
from bench_config import scaled

from repro.decomposition.yannakakis import (
    _DepthFirst,
    _materialize_bag,
    _plan_bag,
    evaluate_answers,
)
from repro.evaluation import PropagationResult, compile_query
from repro.evaluation.reducer import semijoin_sweeps
from repro.queries import parse_query
from repro.trees import TreeStructure, random_tree
from repro.workloads import auction_document, random_corpus

# The 5_000 size is shared between the full and smoke grids on purpose:
# check_regression.py matches entries on (query, tree_size), so the smoke run
# needs at least one size present in the committed full-size baseline.
SIZES = scaled((5_000, 100_000), (2_000, 5_000))

#: Node count of the fixed labeled document used for the SQLite cross-check.
CROSSCHECK_SIZE = scaled(5_000, 1_000)


#: The large pair bag (147k rows at 100k nodes); also the SQLite cross-check.
BAG_QUERY = "Q(x, y) <- A(x), Child+(x, y), B(y)"

_TRIANGLE = "open_auction(a), Child(a, b1), bidder(b1), Child(a, b2), bidder(b2), Following(b1, b2)"
_SENTENCE_PAIR = "S(s), Child+(s, x), NP(x), Child+(s, y), NN(y), Following(x, y)"

#: ``name: (document, query, limit)`` -- the one-bag shapes of the e2e
#: workloads (``benchmarks/e2e/workloads.py``), on documents of the nominal size.
BAG_SHAPES = {
    "bag_pair": ("random", BAG_QUERY, None),
    "bag_triangle": ("auction", f"Q(a, b1, b2) <- {_TRIANGLE}", None),
    "bag_triangle_limit10": ("auction", f"Q(a, b1, b2) <- {_TRIANGLE}", 10),
    "bag_triangle_witness": ("auction", f"Q(a, b1) <- {_TRIANGLE}", None),
    "ablation_bag_sentence_pair": ("corpus", f"Q(s, x, y) <- {_SENTENCE_PAIR}", None),
    "ablation_bag_sentence_pair_limit10": ("corpus", f"Q(s, x, y) <- {_SENTENCE_PAIR}", 10),
}

#: The bags cost milliseconds: medians over many runs.
BAG_REPEATS = 15


def _labeled_tree(size: int):
    return random_tree(size, alphabet=("A", "B", "C"), seed=42)


def _bag_documents(size: int) -> dict[str, TreeStructure]:
    """The three documents of the bag shapes, ~``size`` nodes each.

    Generator parameters scale the e2e ``10k`` documents (560 items, 300
    people, 850 bids; 440 sentences) linearly in the nominal size.
    """
    documents = {
        "random": _labeled_tree(size),
        "auction": auction_document(
            seed=42,
            num_items=round(0.056 * size),
            num_people=round(0.03 * size),
            num_bids=round(0.085 * size),
        ),
        "corpus": random_corpus(seed=42, num_sentences=round(0.044 * size)),
    }
    structures = {name: TreeStructure(tree) for name, tree in documents.items()}
    for structure in structures.values():
        structure.index
    return structures


def _median_time(function, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _entry(size, name, kind, pain, slow, fast):
    entry = {
        "tree_size": size,
        "query": name,
        "kind": kind,
        "pain_case": pain,
        "per_candidate_seconds": slow,
        "columnar_seconds": fast,
        "speedup": slow / fast if fast > 0 else float("inf"),
    }
    print(
        f"n={size:>6} {name:<28} {kind:<12} per_candidate={slow:.4f}s "
        f"columnar={fast:.4f}s speedup={entry['speedup']:.1f}x"
    )
    return entry


def _reference_bag(query, compiled, structure, swept, limit):
    """The one bag by the per-prefix recursion: ``(rows, count)``.

    A ``_DepthFirst`` walk over a plan that merges no unions (the recursion
    enumerates every witness of a mid-bag existential), from the same swept
    columns the level kernel starts from.
    """
    candidates = PropagationResult(structure, columns=swept)
    plan = _plan_bag(
        frozenset(compiled.variables),
        compiled.atoms,
        candidates.domain_sizes(),
        compiled.variable_index,
        frozenset(query.head),
        query.head,
        merge_unions=False,
    )
    search = _DepthFirst(plan, candidates.views, structure.index)
    limit = sys.maxsize if limit is None else limit
    rows, count = [], 0
    for _ in search.prefixes(0):
        count += 1
        if count <= limit:
            rows.append(tuple(search.current[p] for p in plan.keep_positions))
    return rows, count


def _measure_bag(name: str, structures, size: int) -> dict:
    """One bag shape: the level kernel vs the per-prefix recursion."""
    document, text, limit = BAG_SHAPES[name]
    structure = structures[document]
    query = parse_query(text)
    compiled = compile_query(query)
    if len(compiled.decomposition.bags) != 1:
        raise AssertionError(f"{name}: not a one-bag shape")
    swept = semijoin_sweeps(compiled, structure, None)

    def bag():
        return _materialize_bag(
            frozenset(compiled.variables),
            compiled.atoms,
            PropagationResult(structure, columns=swept),
            structure,
            compiled.variable_index,
            frozenset(query.head),
            head=query.head,
            limit=limit,
        )

    def reference():
        return _reference_bag(query, compiled, structure, swept, limit)

    relation, count = bag()
    if (relation.rows, count) != reference():
        raise AssertionError(f"bag materialization mismatch: {name} (n={size})")
    fast = _median_time(bag, BAG_REPEATS)
    slow = _median_time(reference, BAG_REPEATS)
    entry = _entry(size, name, "bag_rows", name.startswith("bag_"), slow, fast)
    entry["rows"] = count
    entry["limit"] = limit
    return entry


def _crosscheck_sqlite(size: int) -> int:
    """Join-tree, per-prefix reference and SQLite answers agree on a fixed document."""
    from repro.backends.sqlite import SQLiteBackend

    tree = _labeled_tree(size)
    structure = TreeStructure(tree)
    query = parse_query(BAG_QUERY)
    compiled = compile_query(query)
    join_tree = sorted(evaluate_answers(query, structure))
    swept = semijoin_sweeps(compiled, structure, None)
    reference = sorted(_reference_bag(query, compiled, structure, swept, None)[0])
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        sql = sorted(backend.evaluate("doc", query))
    if not (repr(join_tree) == repr(reference) == repr(sql)):
        raise AssertionError("cross-backend answer mismatch on the bag query")
    return len(join_tree)


def run(sizes=SIZES) -> dict:
    """Measure the level kernel vs the per-prefix recursion on every (size, bag) pair."""
    results = []
    for size in sizes:
        # Identical rows and counts, one level at a time vs one prefix at a time.
        structures = _bag_documents(size)
        for name in BAG_SHAPES:
            results.append(_measure_bag(name, structures, size))
    crosscheck_rows = _crosscheck_sqlite(CROSSCHECK_SIZE)
    print(f"sqlite cross-check: {crosscheck_rows} rows byte-identical at n={CROSSCHECK_SIZE}")
    largest = max(sizes)
    at_largest = [entry for entry in results if entry["tree_size"] == largest]
    headline = min(entry["speedup"] for entry in at_largest if entry["pain_case"])
    ablation_at_largest = [entry for entry in at_largest if not entry["pain_case"]]
    return {
        "benchmark": "columnar bag kernels vs the per-prefix bisection path",
        "sizes": list(sizes),
        "repeats": BAG_REPEATS,
        "results": results,
        "headline": {
            "tree_size": largest,
            "min_speedup": headline,
            "claim": (
                "level-at-a-time bag materialization >= 3x faster than the "
                "per-prefix recursion on the pair and bidder-triangle bags "
                "(unlimited, limit 10, witness-only last level), from the same "
                "swept candidate columns"
            ),
            "holds": headline >= 3.0,
        },
        # Where the kernels dominate less, kept honest and out of the
        # headline: the sentence-pair bag (bisection-bound in both modes).
        "ablation": {
            "tree_size": largest,
            "min_speedup": min(e["speedup"] for e in ablation_at_largest),
            "max_speedup": max(e["speedup"] for e in ablation_at_largest),
        },
        "sqlite_crosscheck": {
            "tree_size": CROSSCHECK_SIZE,
            "rows": crosscheck_rows,
            "byte_identical": True,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_columnar.json", help="output JSON path")
    args = parser.parse_args(argv)
    report = run()
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"wrote {args.out}; headline min bag speedup on "
        f"n={report['headline']['tree_size']}: {report['headline']['min_speedup']:.1f}x"
    )
    if not report["headline"]["holds"]:
        print("FAIL: the >=3x bag materialization claim does not hold at these sizes")
        return 1
    return 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST = min(SIZES)


@pytest.fixture(scope="module")
def triangle_bag():
    """The bidder-triangle bag at the smallest size: ``(level kernel, reference)``."""
    structure = _bag_documents(SMALLEST)["auction"]
    query = parse_query(BAG_SHAPES["bag_triangle"][1])
    compiled = compile_query(query)
    swept = semijoin_sweeps(compiled, structure, None)

    def bag():
        return _materialize_bag(
            frozenset(compiled.variables),
            compiled.atoms,
            PropagationResult(structure, columns=swept),
            structure,
            compiled.variable_index,
            frozenset(query.head),
            head=query.head,
        )

    return bag, lambda: _reference_bag(query, compiled, structure, swept, None)


def test_level_kernel_triangle_bag(benchmark, triangle_bag):
    benchmark(triangle_bag[0])


def test_per_prefix_triangle_bag(benchmark, triangle_bag):
    benchmark(triangle_bag[1])


def test_cross_backend_byte_identity_smoke():
    """The three answer paths agree on the bag query on a small fixed document."""
    assert _crosscheck_sqlite(1_000) > 0


def test_columnar_speedup_meets_claim(triangle_bag):
    """A relaxed wall-clock guard against losing the speedup entirely.

    The real >=3x claim is enforced by ``main`` (run by CI's bench-smoke job
    and gated by ``check_regression.py`` against the committed baseline);
    this pytest variant uses a 1.5x margin at the smallest size so it stays
    robust on loaded machines, while still catching a regression that makes
    the level kernel no faster than the per-prefix recursion.
    """
    bag, reference = triangle_bag
    relation, count = bag()
    assert (relation.rows, count) == reference()
    assert _median_time(reference, 5) >= 1.5 * _median_time(bag, 5)


if __name__ == "__main__":
    raise SystemExit(main())

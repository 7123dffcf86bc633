"""Benchmark: columnar axis kernels vs the per-candidate bisection paths.

The interval index answers "does candidate ``u`` still have a support in
domain ``S``?" either per candidate (a bisection probe per watched node, the
``columnar=False`` ablation) or in bulk: one staircase merge over the sorted
rank columns answers the question for *every* watched node in a single pass
of C-level ``array`` traversals (:mod:`repro.trees.columnar`).  The AC-3
worklist re-asks that question on every revise pass, so slow-convergence
shapes multiply whatever the per-pass primitive costs.

Three entry groups are measured, each as ``columnar=True`` vs the
``columnar=False`` per-candidate ablation of the *same* computation:

* ``pain_*`` -- label-free ``Following`` chains, the worst revise-pass
  multipliers for the AC-3 worklist.  The committed headline
  (``min_speedup``) is the minimum columnar speedup over this group at the
  largest size and must meet the >= 5x acceptance bar.
* ``bag_*`` -- bag materialization in the decomposition engine, the second
  headline (``bag_headline``, bar >= 3x at the largest size): the level-at-a-
  time kernel (one window per prefix per pass, levels expanded, counted or
  tested) against the depth-first recursion it replaced, on the bag shapes of
  the e2e workloads -- a large ``Child+`` pair bag, the bidder triangle
  (``Child`` walks cut by a ``Following`` window) unlimited, under ``limit:
  10`` (the last level is only counted) and with its last variable
  witness-only (the level is only tested).  Both sides start from the same
  swept candidate columns, so the number is the bag alone; each entry also
  carries ``request_speedup``, the same comparison through ``answer_page``
  with the reducer's sweeps in front (what a request pays).
* ``ablation_*`` -- entries kept to report where the columnar kernels win
  less, excluded from both headlines: mixed ``Child+`` / ``Following`` chains
  (~3-5x), pure ``Child+`` chains (~2-3x), the hybrid propagator (~2x), and
  the sentence-pair bag (two range atoms per level, ~2-3x: both paths pay the
  same two bisections per prefix, which is most of that bag).  The former
  ``ablation_ac4_init`` entry measured at parity by design (AC-4's
  ``Following`` trackers are threshold-based in both modes) and was retired
  along with the columnar counter-init path itself.

Byte-identity between the two modes is asserted on every measured instance,
and the SQLite accel-table backend (:mod:`repro.backends.sqlite`) is
cross-checked against both on a fixed small document.

Run standalone (``python benchmarks/bench_columnar.py``) to regenerate
``BENCH_columnar.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import pytest
from bench_config import SMOKE, scaled

from repro.decomposition.yannakakis import _materialize_bag, answer_page, evaluate_answers
from repro.evaluation import (
    PropagationResult,
    compile_query,
    maximal_arc_consistent,
    maximal_arc_consistent_hybrid,
)
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


def _chain(axis: str, length: int) -> str:
    return "Q <- " + ", ".join(f"{axis}(x{i}, x{i + 1})" for i in range(length))


#: Label-free Following chains: many revise passes, every pass re-scans whole
#: domains, so the per-pass staircase merge vs bisection gap compounds.
PAIN_QUERIES = {
    "pain_following_chain8": _chain("Following", 8),
    "pain_following_chain12": _chain("Following", 12),
}

#: AC-3 shapes where the worklist converges quickly, so fewer passes amortise
#: the columnar win; reported honestly, excluded from the headline.
ABLATION_AC3_QUERIES = {
    "ablation_mix_chain5": (
        "Q <- Child+(a, b), Following(b, c), Child+(c, d), Following(d, e), Child+(e, f)"
    ),
    "ablation_childplus_chain6": _chain("Child+", 6),
}

AC3_QUERIES = {**PAIN_QUERIES, **ABLATION_AC3_QUERIES}

#: The query whose AC-4 init / hybrid sweep is measured in both modes.
PROPAGATOR_ABLATION_QUERY = "pain_following_chain8"

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

#: The bags cost milliseconds: medians over more runs than the fixpoints get.
BAG_REPEATS = 15


def _tree(size: int):
    return random_tree(size, alphabet=(), seed=42)


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


def _as_sets(domains):
    return None if domains is None else {v: set(nodes) for v, nodes in domains.items()}


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


def _measure_fixpoint(fixpoint, query, structure, repeats):
    """Byte-identity check plus median timings for one fixpoint, both modes."""
    fast_domains = fixpoint(query, structure, columnar=True)
    slow_domains = fixpoint(query, structure, columnar=False)
    if _as_sets(fast_domains) != _as_sets(slow_domains):
        raise AssertionError(f"columnar/per-candidate fixpoint mismatch: {query}")
    fast = _median_time(lambda: fixpoint(query, structure, columnar=True), repeats)
    slow = _median_time(lambda: fixpoint(query, structure, columnar=False), repeats)
    return slow, fast


def _measure_bag(name: str, structures, size: int) -> dict:
    """One bag shape: the level kernel vs the recursion, alone and per request."""
    document, text, limit = BAG_SHAPES[name]
    structure = structures[document]
    query = parse_query(text)
    compiled = compile_query(query)
    if len(compiled.decomposition.bags) != 1:
        raise AssertionError(f"{name}: not a one-bag shape")
    swept = semijoin_sweeps(compiled, structure, None)

    def bag(columnar):
        return _materialize_bag(
            frozenset(compiled.variables),
            compiled.atoms,
            PropagationResult(structure, columns=swept),
            structure,
            compiled.variable_index,
            frozenset(query.head),
            columnar=columnar,
            head=query.head,
            limit=limit,
        )

    def request(columnar):
        return answer_page(query, structure, None, "semijoin", compiled, columnar, limit)

    (fast_relation, fast_count), (slow_relation, slow_count) = bag(True), bag(False)
    if (fast_relation.rows, fast_count) != (slow_relation.rows, slow_count):
        raise AssertionError(f"bag materialization mismatch: {name} (n={size})")
    page = request(True)
    if page != request(False) or page[1] != fast_count:
        raise AssertionError(f"answer page mismatch: {name} (n={size})")
    fast = _median_time(lambda: bag(True), BAG_REPEATS)
    slow = _median_time(lambda: bag(False), BAG_REPEATS)
    entry = _entry(size, name, "bag_rows", name.startswith("bag_"), slow, fast)
    entry["rows"] = fast_count
    entry["limit"] = limit
    fast = _median_time(lambda: request(True), BAG_REPEATS)
    slow = _median_time(lambda: request(False), BAG_REPEATS)
    entry["request_per_candidate_seconds"] = slow
    entry["request_columnar_seconds"] = fast
    entry["request_speedup"] = slow / fast
    return entry


def _crosscheck_sqlite(size: int) -> int:
    """Columnar, per-candidate and SQLite answers agree on a fixed document."""
    from repro.backends.sqlite import SQLiteBackend

    tree = _labeled_tree(size)
    structure = TreeStructure(tree)
    query = parse_query(BAG_QUERY)
    columnar = sorted(evaluate_answers(query, structure, columnar=True))
    per_candidate = sorted(evaluate_answers(query, structure, columnar=False))
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        sql = sorted(backend.evaluate("doc", query))
    if not (repr(columnar) == repr(per_candidate) == repr(sql)):
        raise AssertionError("cross-backend answer mismatch on the bag query")
    return len(columnar)


def run(sizes=SIZES, repeats: int = 3) -> dict:
    """Measure columnar vs per-candidate paths on every (size, entry) pair."""
    results = []
    for size in sizes:
        structure = TreeStructure(_tree(size))
        structure.index  # the O(n) index build is shared and paid up front
        for name, text in AC3_QUERIES.items():
            query = parse_query(text)
            slow, fast = _measure_fixpoint(
                maximal_arc_consistent, query, structure, repeats
            )
            results.append(
                _entry(size, name, "ac3_worklist", name in PAIN_QUERIES, slow, fast)
            )
        # Hybrid on the chain shape: the ablation that shows where the
        # columnar flag changes less (its AC-4 stage's Following trackers are
        # threshold-based in both modes; the retired ac4_init entry measured
        # at parity by design and is no longer carried).
        query = parse_query(AC3_QUERIES[PROPAGATOR_ABLATION_QUERY])
        slow, fast = _measure_fixpoint(
            maximal_arc_consistent_hybrid, query, structure, repeats
        )
        results.append(_entry(size, "ablation_hybrid", "hybrid", False, slow, fast))
        # Bag materialization in the decomposition engine: identical rows and
        # counts, one level at a time vs one prefix at a time.
        structures = _bag_documents(size)
        for name in BAG_SHAPES:
            results.append(_measure_bag(name, structures, size))
    crosscheck_rows = _crosscheck_sqlite(CROSSCHECK_SIZE)
    print(f"sqlite cross-check: {crosscheck_rows} rows byte-identical at n={CROSSCHECK_SIZE}")
    largest = max(sizes)
    at_largest = [entry for entry in results if entry["tree_size"] == largest]
    headline = min(
        entry["speedup"]
        for entry in at_largest
        if entry["pain_case"] and entry["kind"] == "ac3_worklist"
    )
    bag_headline = min(
        entry["speedup"]
        for entry in at_largest
        if entry["pain_case"] and entry["kind"] == "bag_rows"
    )
    ablation_at_largest = [entry for entry in at_largest if not entry["pain_case"]]
    return {
        "benchmark": "columnar axis kernels vs per-candidate bisection paths",
        "sizes": list(sizes),
        "repeats": repeats,
        "results": results,
        "headline": {
            "tree_size": largest,
            "min_speedup": headline,
            "claim": (
                "columnar AC-3 worklist >= 5x faster than the per-candidate "
                "bisection path on label-free Following chains"
            ),
            "holds": headline >= 5.0,
        },
        "bag_headline": {
            "tree_size": largest,
            "min_speedup": bag_headline,
            "claim": (
                "level-at-a-time bag materialization >= 3x faster than the "
                "per-prefix recursion on the pair and bidder-triangle bags "
                "(unlimited, limit 10, witness-only last level), from the same "
                "swept candidate columns"
            ),
            "holds": bag_headline >= 3.0,
        },
        # Where the kernels dominate less, kept honest and out of the
        # headlines: fast-converging chains, the hybrid propagator, the
        # sentence-pair bag (bisection-bound in both modes).
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
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = run(repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"wrote {args.out}; headline min pain-case speedup on "
        f"n={report['headline']['tree_size']}: {report['headline']['min_speedup']:.1f}x"
    )
    print(
        f"bag headline min speedup on n={report['bag_headline']['tree_size']}: "
        f"{report['bag_headline']['min_speedup']:.1f}x"
    )
    if not report["headline"]["holds"]:
        print("FAIL: the >=5x speedup claim does not hold at these sizes")
        return 1
    if not report["bag_headline"]["holds"]:
        print("FAIL: the >=3x bag materialization claim does not hold at these sizes")
        return 1
    return 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST = min(SIZES)
BENCH_TREE = _tree(SMALLEST)


@pytest.mark.parametrize("name", sorted(PAIN_QUERIES))
def test_columnar_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    structure = TreeStructure(BENCH_TREE)
    benchmark(lambda: maximal_arc_consistent(query, structure, columnar=True))


@pytest.mark.parametrize(
    "name", sorted(PAIN_QUERIES)[:1] if SMOKE else sorted(PAIN_QUERIES)
)
def test_per_candidate_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    structure = TreeStructure(BENCH_TREE)
    benchmark(lambda: maximal_arc_consistent(query, structure, columnar=False))


def test_cross_backend_byte_identity_smoke():
    """The three backends agree on the bag query on a small fixed document."""
    assert _crosscheck_sqlite(1_000) > 0


def test_columnar_speedup_meets_claim():
    """A relaxed wall-clock guard against losing the speedup entirely.

    The real >=5x claim is enforced by ``main`` (run by CI's bench-smoke job
    and gated by ``check_regression.py`` against the committed baseline);
    this pytest variant uses a 2x margin at the smallest size so it stays
    robust on loaded machines, while still catching a regression that makes
    the columnar worklist no faster than the per-candidate path.
    """
    structure = TreeStructure(BENCH_TREE)
    query = parse_query(PAIN_QUERIES["pain_following_chain8"])
    fast = _median_time(lambda: maximal_arc_consistent(query, structure, columnar=True), 3)
    slow = _median_time(lambda: maximal_arc_consistent(query, structure, columnar=False), 3)
    assert slow >= 2.0 * fast


if __name__ == "__main__":
    raise SystemExit(main())

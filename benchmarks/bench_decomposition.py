"""Benchmark: decomposition (Yannakakis) engine vs the backtracking fallback.

Until this subsystem existed, the planner sent *every* cyclic query over an
NP-hard signature to backtracking -- for k-ary answer enumeration that means
one pinned Boolean evaluation (a pruning pass plus search) per candidate head
tuple.  The decomposition engine instead works over a width-2 tree
decomposition from the pruned candidate columns, with one pruning pass
*total* instead of one per candidate: a one-bag monadic head reads
its answers off the level-at-a-time bag kernel, and a monadic head over
several bags runs the memoised join-tree search once per head candidate
(one memo per request, keyed on (bag, separator assignment)).  It is now the
planner's only engine for this residue; the backtracking side is
:func:`repro.evaluation.backtracking.answers`, the per-tuple reduction, which
no engine runs.

Two query groups over random 16-label trees:

* ``pain_*`` (the headline set) -- satisfiable width-2 cyclic queries over
  NP-hard signatures ({Child+, Following} and {Child+, NextSibling+}):
  triangles, fused double triangles, sibling triangles.  The committed
  headline is the *minimum* decomposition speedup over this group at the
  largest size and must meet the >= 5x acceptance bar.  It no longer does:
  2.4x-11.9x at 10k nodes since a ``Child+`` semijoin against one assigned
  node costs backtracking's forward check a window of the staircase or a
  short ancestor walk instead of a bisection per candidate (44x-118x
  before, 134x-735x while both engines paid an AC-4 fixpoint and
  backtracking checked against static domains).
* ``ablation_*`` -- shapes kept to report where the win shrinks, excluded
  from the headline: the four-cycle (its materialized bag had a mid-bag
  local existential, genuinely quadratic in the subtree sizes at ~4.5x,
  ~83x with the union-of-ranges window merge; the memoised search never
  builds that bag: ~65x, ~18x against the faster forward checks) and an
  unsatisfiable diamond (arc consistency would empty its domains, the
  spanning-forest sweeps do not, so both engines search to refute it:
  0.7-1.2x, 0.3-0.6x against the faster forward checks).

Answer sets are cross-checked byte-identical (as sorted lists) between the
two engines on every measured instance, each under its default (the plan's)
propagator: the semijoin sweeps, as candidate supersets, on these cyclic
NP-hard shapes.

``allowance_ablation`` holds ``yannakakis.SEARCH_TOUCHES_PER_CANDIDATE``, the
share of the label columns a Boolean search may touch before it sweeps them:
three Boolean shapes on the e2e documents (a satisfiable labelled triangle
and two unsatisfiable ones whose refutation is the sweeps' work), each timed
at allowance 0 (sweep first), the default (search first) and unbounded
(never sweep).  Reported, not gated: the default pays at most its allowance
over sweeping first (<= 1.15x on the unsatisfiable shapes when committed)
and wins where the first witness comes early (the triangle at 10k).

Run standalone (``python benchmarks/bench_decomposition.py``) to regenerate
``BENCH_decomposition.json``; ``BENCH_SMOKE=1`` shrinks the sizes for CI.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import pytest
from bench_config import SMOKE, scaled

from unittest import mock

from repro.decomposition import yannakakis
from repro.evaluation import Engine, compile_query, evaluate
from repro.evaluation.backtracking import answers as backtracking_answers
from repro.queries import parse_query
from repro.trees import TreeStructure, random_tree
from repro.workloads import auction_document, random_corpus

SIZES = scaled((1_000, 10_000), (300, 1_000))

#: Labels are deliberately plentiful (16): head candidates stay in the
#: hundreds at 10k nodes, which is exactly the regime where backtracking's
#: per-candidate pinned evaluations hurt, while the existential variables
#: remain label-free (whole-tree domains).
LABELS = tuple(f"L{i:02d}" for i in range(16))

#: Satisfiable width-2 cyclic queries over NP-hard signatures (the headline).
PAIN_QUERIES = {
    "pain_triangle": "Q(x) <- L00(x), Child+(x, y), Child+(x, z), Following(y, z)",
    "pain_double_triangle": (
        "Q(x) <- L01(x), Child+(x, y), Child+(x, z), Following(y, z), "
        "Child+(z, u), Child+(x, u)"
    ),
    "pain_sibling_triangle": (
        "Q(x) <- L04(x), Child+(x, y), Child+(x, z), NextSibling+(y, z)"
    ),
    "pain_wedge_follow": (
        "Q(x) <- L05(x), Child+(x, y), Following(y, z), Child+(x, z), "
        "Following(z, w), Child+(x, w)"
    ),
}

#: Reported but excluded from the headline (see the module docstring).
ABLATION_QUERIES = {
    "ablation_four_cycle": (
        "Q(x) <- L02(x), Child+(x, y), Child+(x, z), Following(y, w), Child+(z, w)"
    ),
    "ablation_unsat_diamond": (
        "Q(x) <- L03(x), Child+(x, y), Child+(x, z), Following(y, z), "
        "Child+(y, w), Child+(z, w)"
    ),
}

QUERIES = {**PAIN_QUERIES, **ABLATION_QUERIES}

#: Boolean shapes of the allowance ablation: (document, query).
BOOLEAN_QUERIES = {
    "bool_bidder_triangle": (
        "auction",
        "Q <- open_auction(a), Child(a, b1), bidder(b1), Child(a, b2), bidder(b2), "
        "Following(b1, b2)",
    ),
    "bool_unsat_parents": ("auction", "Q <- item(d), Child(a, d), Child(b, d), Following(a, b)"),
    "bool_unsat_siblings": (
        "corpus",
        "Q <- NP(x), Child(x, y), NN(y), Following(y, z), PP(z), Child(x, z)",
    ),
}
#: The e2e documents' generator parameters per nominal size (seed 42).
DOCUMENTS = {
    300: (dict(num_items=17, num_people=9, num_bids=26), 13),
    1_000: (dict(num_items=55, num_people=30, num_bids=85), 45),
    10_000: (dict(num_items=560, num_people=300, num_bids=850), 440),
}
ALLOWANCES = {
    "sweep_first": 0,
    "default": yannakakis.SEARCH_TOUCHES_PER_CANDIDATE,
    "unbounded": float("inf"),
}


def _tree(size: int):
    return random_tree(size, alphabet=LABELS, seed=42)


def _median_time(function, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _crosscheck(query, structure, size: int) -> None:
    decomposition_answers = sorted(evaluate(query, structure, engine=Engine.DECOMPOSITION))
    searched_answers = sorted(backtracking_answers(query, structure))
    if repr(decomposition_answers) != repr(searched_answers):
        raise AssertionError(f"answer mismatch on {query.name} (n={size})")


def _best_time(function, repeats: int) -> float:
    """Minimum over ``repeats`` runs: the Boolean shapes run in microseconds."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _measure_allowances(sizes, repeats: int) -> list[dict]:
    """Each Boolean shape at allowance 0, the default and unbounded; verdicts must agree."""
    rows = []
    for size in sizes:
        auction, sentences = DOCUMENTS[size]
        documents = {
            "auction": TreeStructure(auction_document(seed=42, **auction)),
            "corpus": TreeStructure(random_corpus(seed=42, num_sentences=sentences)),
        }
        for name, (document, text) in BOOLEAN_QUERIES.items():
            query = parse_query(text)
            compiled = compile_query(query)
            structure = documents[document]

            def holds():
                return yannakakis.boolean_query_holds(query, structure, None, compiled)

            seconds, verdicts = {}, set()
            # Interleaved rounds, so drift hits every allowance alike.
            for _ in range(repeats):
                for label, allowance in ALLOWANCES.items():
                    with mock.patch.object(
                        yannakakis, "SEARCH_TOUCHES_PER_CANDIDATE", allowance
                    ):
                        verdicts.add(holds())
                        best = _best_time(holds, 10)
                    seconds[label] = min(seconds.get(label, best), best)
            if len(verdicts) != 1:
                raise AssertionError(f"allowance verdict mismatch on {name} (n={size})")
            rows.append(
                {
                    "tree_size": size,
                    "nodes": len(structure.tree),
                    "query": name,
                    "holds": verdicts.pop(),
                    "seconds": seconds,
                    "default_vs_sweep_first": seconds["default"] / seconds["sweep_first"],
                }
            )
            print(
                f"n={size:>6} {name:<22} "
                + " ".join(f"{k}={v * 1e3:.3f}ms" for k, v in seconds.items())
                + f" default/sweep_first={rows[-1]['default_vs_sweep_first']:.2f}x"
            )
    return rows


def run(sizes=SIZES, repeats: int = 2) -> dict:
    """Measure both engines on every (size, query) combination."""
    results = []
    for size in sizes:
        tree = _tree(size)
        structure = TreeStructure(tree)
        structure.index  # the O(n) index build is shared and paid up front
        for name, text in QUERIES.items():
            query = parse_query(text).with_name(name)
            compiled = compile_query(query)
            # The headline's shape class: width-2 cyclic bodies.
            assert compiled.decomposition.width == 2, name
            _crosscheck(query, structure, size)
            decomposition_seconds = _median_time(
                lambda: evaluate(query, structure, engine=Engine.DECOMPOSITION),
                repeats,
            )
            backtracking_seconds = _median_time(
                lambda: backtracking_answers(query, structure),
                repeats,
            )
            answers = len(evaluate(query, structure, engine=Engine.DECOMPOSITION))
            results.append(
                {
                    "tree_size": size,
                    "query": name,
                    "pain_case": name in PAIN_QUERIES,
                    "width": compiled.decomposition.width,
                    "answers": answers,
                    "backtracking_seconds": backtracking_seconds,
                    "decomposition_seconds": decomposition_seconds,
                    "speedup": (
                        backtracking_seconds / decomposition_seconds
                        if decomposition_seconds > 0
                        else float("inf")
                    ),
                }
            )
            print(
                f"n={size:>6} {name:<26} dec={decomposition_seconds:.4f}s "
                f"bt={backtracking_seconds:.4f}s "
                f"speedup={results[-1]['speedup']:.1f}x answers={answers}"
            )
    allowance_rows = _measure_allowances(sizes, repeats * 5)
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
        "benchmark": (
            "cyclic width-2 queries: decomposition (Yannakakis) engine vs the "
            "planner's backtracking fallback"
        ),
        "sizes": list(sizes),
        "repeats": repeats,
        "labels": len(LABELS),
        "results": results,
        "headline": {
            "tree_size": largest,
            "min_speedup": headline,
            "claim": (
                "decomposition >= 5x faster than the backtracking fallback on "
                "satisfiable width-2 cyclic queries over NP-hard signatures"
            ),
            "holds": headline >= 5.0,
        },
        "ablation": {
            "tree_size": largest,
            "min_speedup": min(e["speedup"] for e in ablation_at_largest),
            "note": (
                "four-cycle: the memoised search walks its bags one separator "
                "assignment at a time; unsat diamond: the sweeps leave it to "
                "both engines' searches to refute"
            ),
        },
        "allowance_ablation": {
            "search_touches_per_candidate": yannakakis.SEARCH_TOUCHES_PER_CANDIDATE,
            "rows": allowance_rows,
            "max_default_vs_sweep_first": max(
                row["default_vs_sweep_first"] for row in allowance_rows
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_decomposition.json", help="output JSON path")
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    report = run(repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"wrote {args.out}; headline min pain-case speedup on "
        f"n={report['headline']['tree_size']}: {report['headline']['min_speedup']:.1f}x; "
        "Boolean search first vs sweep first at most "
        f"{report['allowance_ablation']['max_default_vs_sweep_first']:.2f}x"
    )
    if not report["headline"]["holds"]:
        if SMOKE:
            # The win grows with tree size (backtracking pays one fixpoint per
            # head candidate, the decomposition engine one in total), so the
            # smoke grid cannot support the full-size claim; the committed
            # BENCH_decomposition.json asserts it at 10k nodes, and
            # check_regression.py guards the smoke-size speedups entry-wise.
            print(
                "NOTE: smoke sizes -- the >=5x claim is asserted at the "
                "committed full size, not here"
            )
            return 0
        print("FAIL: the >=5x speedup claim does not hold at these sizes")
        return 1
    return 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST = min(SIZES)
BENCH_TREE = _tree(SMALLEST)


@pytest.mark.parametrize("name", sorted(PAIN_QUERIES))
def test_decomposition_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    structure = TreeStructure(BENCH_TREE)
    benchmark(lambda: evaluate(query, structure, engine=Engine.DECOMPOSITION))


@pytest.mark.parametrize(
    "name", sorted(PAIN_QUERIES) if not SMOKE else sorted(PAIN_QUERIES)[:1]
)
def test_backtracking_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    structure = TreeStructure(BENCH_TREE)
    benchmark(lambda: backtracking_answers(query, structure))


def test_decomposition_speedup_meets_claim():
    """A relaxed wall-clock guard against losing the speedup entirely.

    The real >=5x claim is enforced by ``main`` (run by CI's bench-smoke job);
    this pytest variant uses a 2x margin at the smallest size so it stays
    robust on loaded machines, while still catching a regression that makes
    the decomposition engine no faster than backtracking on its pain cases.
    """
    structure = TreeStructure(BENCH_TREE)
    query = parse_query(PAIN_QUERIES["pain_sibling_triangle"])
    backtracking = _median_time(
        lambda: backtracking_answers(query, structure), 3
    )
    decomposition = _median_time(
        lambda: evaluate(query, structure, engine=Engine.DECOMPOSITION), 3
    )
    assert backtracking >= 2.0 * decomposition


def test_boolean_allowances_agree():
    """Sweep first, search first and never sweep give one verdict per Boolean shape."""
    rows = _measure_allowances((min(DOCUMENTS),), 1)
    assert [row["holds"] for row in rows] == [True, False, False]


def test_answers_byte_identical_across_engines():
    """The bench-level cross-check, kept as a cheap always-on test."""
    structure = TreeStructure(BENCH_TREE)
    for text in {**PAIN_QUERIES, **ABLATION_QUERIES}.values():
        query = parse_query(text)
        _crosscheck(query, structure, SMALLEST)


if __name__ == "__main__":
    raise SystemExit(main())

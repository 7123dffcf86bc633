"""Benchmark: AC-4 support counting vs the interval AC-3 worklist.

The ROADMAP pain case for the AC-3 worklist is label-free transitive queries
(``Child+`` / ``Following``, no label atoms, so every domain starts as the
whole tree) over large random trees: whenever the constraint graph makes
domains interact -- ``Following`` chains, and especially cyclic combinations
of ``Child+`` and ``Following`` -- the worklist needs many revise passes, and
every pass re-scans both whole domains and rebuilds their sorted views.  The
AC-4 engine (:mod:`repro.evaluation.ac4`) pays one support-counting
initialisation and then only deletion-driven decrements, so its total work is
bounded by the number of (pair, support) relationships actually broken.

Two query groups are measured:

* ``pain_*`` -- the slow-convergence shapes above: the cyclic combinations.
  The committed headline (``min_speedup``) is the minimum AC-4 speedup over
  this group and must meet the >= 5x acceptance bar; at 10k nodes they come
  in at 70x and up.
* ``ablation_*`` -- shapes where the AC-3 worklist already converges in a few
  passes (pure ``Child+`` chains, and -- since the columnar revise kernels
  turned each pass into a few bulk column sweeps -- the pure ``Following``
  chain, which was a 9.9x pain case before them and measures ~1.2x now).
  There AC-3 is competitive and AC-4's per-deletion bookkeeping can even lose
  ground (~0.5-1x); the entries are reported to keep the trade-off honest,
  and are excluded from the headline.

Every instance also measures the ``hybrid`` propagator (one bulk AC-3 revise
sweep, then AC-4 support counting on the shrunken domains); its job is to
close the ablation gap while keeping the pain-case wins, reported in the
``ablation_hybrid`` section.

Run standalone (``python benchmarks/bench_ac4.py``) to regenerate
``BENCH_ac4.json``; fixpoint equality of the two engines is asserted on every
measured instance, and against the Horn-SAT baseline on the smoke sizes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import pytest
from bench_config import SMOKE, scaled

from repro.evaluation import (
    maximal_arc_consistent,
    maximal_arc_consistent_ac4,
    maximal_arc_consistent_horn,
    maximal_arc_consistent_hybrid,
)
from repro.queries import parse_query
from repro.trees import TreeStructure, random_tree

SIZES = scaled((1_000, 10_000), (300, 1_000))


def _chain(axis: str, length: int) -> str:
    return "Q <- " + ", ".join(f"{axis}(x{i}, x{i + 1})" for i in range(length))


#: Label-free transitive queries on which the AC-3 worklist converges slowly.
PAIN_QUERIES = {
    "pain_diamond": (
        "Q <- Child+(x, y), Child+(x, z), Following(y, z), Child+(y, w), Child+(z, w)"
    ),
    "pain_wedge": "Q <- Child+(x, z), Following(y, z), Child+(y, w), Following(z, w)",
    "pain_following_cycle": "Q <- Following(x, y), Following(y, z), Following(z, x)",
}

#: Fast-converging shapes kept to report where AC-3 remains competitive.
ABLATION_QUERIES = {
    "ablation_following_chain8": _chain("Following", 8),
    "ablation_childplus_chain6": _chain("Child+", 6),
    "ablation_childplus_chain12": _chain("Child+", 12),
    "ablation_mix_chain": (
        "Q <- Child+(a, b), Following(b, c), Child+(c, d), Following(d, e)"
    ),
}

QUERIES = {**PAIN_QUERIES, **ABLATION_QUERIES}


def _tree(size: int):
    return random_tree(size, alphabet=(), seed=42)


def _median_time(function, repeats: int) -> float:
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _as_sets(domains):
    return None if domains is None else {v: set(nodes) for v, nodes in domains.items()}


def run(sizes=SIZES, repeats: int = 3) -> dict:
    """Measure both propagators on every (size, query) combination."""
    results = []
    for size in sizes:
        tree = _tree(size)
        structure = TreeStructure(tree)
        structure.index  # the O(n) index build is shared and paid up front
        for name, text in QUERIES.items():
            query = parse_query(text)
            ac3_domains = maximal_arc_consistent(query, structure)
            ac4_domains = maximal_arc_consistent_ac4(query, structure)
            hybrid_domains = maximal_arc_consistent_hybrid(query, structure)
            if _as_sets(ac3_domains) != _as_sets(ac4_domains):
                raise AssertionError(f"AC-3/AC-4 fixpoint mismatch on {name} (n={size})")
            if _as_sets(ac3_domains) != _as_sets(hybrid_domains):
                raise AssertionError(
                    f"AC-3/hybrid fixpoint mismatch on {name} (n={size})"
                )
            if size <= 1_000:
                horn_domains = maximal_arc_consistent_horn(query, structure)
                if _as_sets(ac3_domains) != _as_sets(horn_domains):
                    raise AssertionError(f"Horn fixpoint mismatch on {name} (n={size})")
            ac3 = _median_time(lambda: maximal_arc_consistent(query, structure), repeats)
            ac4 = _median_time(
                lambda: maximal_arc_consistent_ac4(query, structure), repeats
            )
            hybrid = _median_time(
                lambda: maximal_arc_consistent_hybrid(query, structure), repeats
            )
            results.append(
                {
                    "tree_size": size,
                    "query": name,
                    "pain_case": name in PAIN_QUERIES,
                    "ac3_seconds": ac3,
                    "ac4_seconds": ac4,
                    "hybrid_seconds": hybrid,
                    "speedup": ac3 / ac4 if ac4 > 0 else float("inf"),
                    "hybrid_speedup": ac3 / hybrid if hybrid > 0 else float("inf"),
                    "empty_fixpoint": ac3_domains is None,
                }
            )
            print(
                f"n={size:>6} {name:<26} ac3={ac3:.4f}s ac4={ac4:.4f}s "
                f"hybrid={hybrid:.4f}s speedup={results[-1]['speedup']:.1f}x "
                f"hybrid_speedup={results[-1]['hybrid_speedup']:.1f}x"
            )
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
        "benchmark": "arc consistency: AC-4 support counting vs interval AC-3 worklist",
        "sizes": list(sizes),
        "repeats": repeats,
        "results": results,
        "headline": {
            "tree_size": largest,
            "min_speedup": headline,
            "claim": (
                "AC-4 >= 5x faster than interval AC-3 on label-free "
                "slow-convergence transitive queries"
            ),
            "holds": headline >= 5.0,
        },
        # The ROADMAP gap: AC-4 loses to AC-3's bulk scans on fast-converging
        # pure Child+ chains; the hybrid's opening bulk sweep should keep it
        # at parity there while preserving AC-4's pain-case wins.
        "ablation_hybrid": {
            "tree_size": largest,
            "min_ac4_speedup": min(e["speedup"] for e in ablation_at_largest),
            "min_hybrid_speedup": min(e["hybrid_speedup"] for e in ablation_at_largest),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_ac4.json", help="output JSON path")
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
    if not report["headline"]["holds"]:
        print("FAIL: the >=5x speedup claim does not hold at these sizes")
        return 1
    return 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST = min(SIZES)
BENCH_TREE = _tree(SMALLEST)


@pytest.mark.parametrize("name", sorted(PAIN_QUERIES))
def test_ac4_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    structure = TreeStructure(BENCH_TREE)
    benchmark(lambda: maximal_arc_consistent_ac4(query, structure))


@pytest.mark.parametrize("name", sorted(PAIN_QUERIES) if not SMOKE else sorted(PAIN_QUERIES)[:1])
def test_ac3_pain_queries(benchmark, name):
    query = parse_query(PAIN_QUERIES[name])
    structure = TreeStructure(BENCH_TREE)
    benchmark(lambda: maximal_arc_consistent(query, structure))


def test_ac4_speedup_meets_claim():
    """A relaxed wall-clock guard against losing the speedup entirely.

    The real >=5x claim is enforced by ``main`` (run by CI's bench-smoke job);
    this pytest variant uses a 2x margin at the smallest size so it stays
    robust on loaded machines, while still catching a regression that makes
    AC-4 no faster than the AC-3 worklist on its pain cases.
    """
    structure = TreeStructure(BENCH_TREE)
    query = parse_query(PAIN_QUERIES["pain_wedge"])
    ac3 = _median_time(lambda: maximal_arc_consistent(query, structure), 3)
    ac4 = _median_time(lambda: maximal_arc_consistent_ac4(query, structure), 3)
    assert ac3 >= 2.0 * ac4


if __name__ == "__main__":
    raise SystemExit(main())

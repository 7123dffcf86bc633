"""Benchmark: cost-based routing vs every applicable static choice.

The routing pain set is chosen so that **no single static choice wins**: each
entry makes a different fixed configuration lose, so any static rule -- in
particular the pre-planner one, which sends every width-2 cyclic query to the
decomposition engine and every accel-only query through the plain join-tree
CTE lowering -- is the worst choice on at least one entry.

Gating entries (the headline; all three must pass both bars):

* ``route_enum_wedge`` -- k-ary enumeration of a width-2 cyclic wedge over a
  16-label tree.  Backtracking pays one pinned Boolean evaluation per head
  candidate and loses by orders of magnitude; the cost router's bag-row
  estimates (~1e4) sit far below the candidate-product estimate (~1e6), so
  it picks decomposition.
* ``route_bool_cycle4`` -- Boolean satisfiability of a fully *unlabeled*
  four-cycle.  Here the static rule's own pick (width 2 -> decomposition)
  loses ~100x: every bag relation is quadratic in the unlabeled domains,
  while backtracking is one propagation fixpoint plus a first-witness probe.
  The cost router sees bag-row estimates in the millions vs two fixpoints
  and picks backtracking.
* ``route_sql_chain`` -- an accel-only document (SQL is the only engine),
  where the choice left is the lowering: the flat single-block join
  multiplies the tuple space by every witness variable's candidate set and
  loses 35-110x to the join-tree lowering; the cost router's flat-join
  estimate exceeds the bag-sum estimate, so it lowers ``"tree"``.

Per entry we measure cost routing plus every *applicable* static
configuration (forced engines on resident documents, forced lowerings on
accel-only ones; the pre-planner rule coincides with the ``decomposition`` /
``tree`` column on these shapes).  The committed headline asserts, at every
measured size:

* cost routing is >= 5x faster than the worst static choice
  (``speedup`` -- the number ``check_regression.py`` tracks), and
* cost routing is never > 1.2x slower than the best static choice
  (it pays only the plan lookup, cached per stats bucket in serving), and
* at least two different static choices win somewhere (the pain-set
  property).

The plan is computed once per (query, document) outside the timed loop,
matching a warm server: ``QueryCache.plan_for`` memoizes plans per
(canonical query, stats bucket), so steady-state serving does not re-plan.
Answers are cross-checked byte-identical across cost routing and every
static configuration on every measured instance.

``ablation_*`` entries are kept honest and out of the headline: TEMP-table
materialization on the dense labeled four-cycle (SQLite auto-indexes
materialized CTE subqueries, so ~1x), the lowering pick on the width-2 fan
(``ablation_sql_fan`` -- a gating entry at 608x while the flat join read
labels through an ``EXISTS`` per accel row; with label-driven row sources
the flat join is 3-8x behind, inside the 5x bar), the propagator pick -- AC-4 vs
hybrid vs the semijoin full reducer -- on an unlabeled ``Child+`` chain, the
full reducer's bisection-vs-kernels crossover against either side forced, and
what prunes the candidates in front of the decomposition engine on a cyclic
body (``ablation_sweeps_*``: the exact AC-4 fixpoint against the two
spanning-forest sweeps every cost-routed decomposition plan now carries).

Run standalone (``python benchmarks/bench_planner.py``) to regenerate
``BENCH_planner.json``; ``BENCH_SMOKE=1`` shrinks the sizes for CI.
"""

from __future__ import annotations

import argparse
import json
import time
from unittest import mock

import pytest
from bench_config import SMOKE, scaled

from repro.backends.sqlite import SQLiteBackend
from repro.evaluation import Engine, evaluate, reducer
from repro.evaluation.compile import compile_query
from repro.evaluation.reducer import semijoin_sweeps
from repro.planning import DocumentStats, plan_query
from repro.queries import parse_query
from repro.trees import TreeStructure, random_tree
from repro.workloads import auction_document, random_corpus

#: 16 labels for the resident entries (heads in the hundreds, existentials
#: label-free) -- the bench_decomposition regime where routing matters.
LABELS = tuple(f"L{i:02d}" for i in range(16))

# The smallest size of each grid is shared between full and smoke runs on
# purpose: check_regression.py matches entries on (query, tree_size), so the
# smoke run needs a size present in the committed full-size baseline.
RESIDENT_SIZES = scaled((1_000, 4_000), (1_000,))
SQL_SIZES = scaled((500, 1_000), (500,))

#: Gating entries: (query text, "resident" | "accel", sizes).
GATING_ENTRIES = {
    "route_enum_wedge": (
        "Q(x) <- L05(x), Child+(x, y), Following(y, z), Child+(x, z), "
        "Following(z, w), Child+(x, w)",
        "resident",
        RESIDENT_SIZES,
    ),
    "route_bool_cycle4": (
        "Q <- Child+(a, b), Following(b, c), Child+(d, c), Following(a, d)",
        "resident",
        RESIDENT_SIZES,
    ),
    "route_sql_chain": (
        "Q(x0) <- A(x0), Child+(x0, x1), B(x1), Following(x1, x2), C(x2), "
        "Child+(x2, x3), A(x3)",
        "accel",
        SQL_SIZES,
    ),
}

#: The width-2 fan: tree-vs-flat on an accel-only document, out of the
#: headline since both lowerings start from the label index.
ABLATION_SQL_FAN = (
    "Q(x) <- A(x), Child+(x, y), Child+(x, z), Following(y, z), B(y), C(z), "
    "Following(x, w), B(w), NextSibling+(x, v), C(v)"
)

#: Dense labeled four-cycle for the materialization ablation (both variants
#: must enumerate the cyclic core; SQLite auto-indexes the materialized
#: subquery either way, so the TEMP-table variant is ~1x, not a win).
ABLATION_CYCLE4_SQL = (
    "Q(a) <- A(a), Child+(a, b), B(b), Following(b, c), C(c), "
    "Child+(d, c), A(d), Following(a, d)"
)

#: Unlabeled chain for the propagator ablation: both endpoints of each
#: ``Child+`` edge are full-domain, where the hybrid beats AC-4's quadratic
#: support seeding -- and, the body being forest-shaped, where
#: ``choose_propagator`` now picks the semijoin full reducer over both.
ABLATION_PROPAGATOR = "Q(x) <- Child+(x, y), Child+(y, z)"


def _resident_tree(size: int):
    return random_tree(size, alphabet=LABELS, seed=42)


def _accel_tree(size: int):
    return random_tree(size, alphabet=("A", "B", "C"), seed=42)


def _best_time(function, repeats: int) -> float:
    """Minimum over ``repeats`` runs.

    The 1.2x bar compares the cost-routed run against the best static run of
    the *same* deterministic code path, so scheduler noise is one-sided and
    the minimum is the faithful estimator -- a median-of-3 at millisecond
    scale flaps past 1.2x on loaded CI machines.  The >= 5x speedups have
    20x+ margins and are insensitive to the choice.
    """
    return min(
        _timed(function) for _ in range(repeats)
    )


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _entry(size, name, kind, cost_seconds, cost_choice, static_seconds):
    best = min(static_seconds, key=static_seconds.get)
    worst = max(static_seconds, key=static_seconds.get)
    entry = {
        "tree_size": size,
        "query": name,
        "kind": kind,
        "pain_case": kind == "gating",
        "cost_seconds": cost_seconds,
        "cost_choice": cost_choice,
        "static_seconds": static_seconds,
        "best_static": best,
        "worst_static": worst,
        "speedup": static_seconds[worst] / cost_seconds if cost_seconds > 0 else float("inf"),
        "vs_best": cost_seconds / static_seconds[best] if static_seconds[best] > 0 else 0.0,
    }
    statics = " ".join(f"{k}={v:.4f}s" for k, v in static_seconds.items())
    print(
        f"n={size:>5} {name:<24} cost={cost_seconds:.4f}s ({cost_choice}) {statics} "
        f"speedup={entry['speedup']:.1f}x vs_best={entry['vs_best']:.2f}x"
    )
    return entry


def _measure_resident(name, text, size, repeats):
    """Cost routing vs forced-engine statics on a resident document."""
    query = parse_query(text)
    tree = _resident_tree(size)
    structure = TreeStructure(tree)
    plan = plan_query(query, DocumentStats.of_tree(tree))
    reference = sorted(evaluate(query, structure, engine=plan.engine, propagator=plan.propagator))
    static_seconds = {}
    for engine in (Engine.DECOMPOSITION, Engine.BACKTRACKING):
        answers = sorted(evaluate(query, structure, engine=engine))
        if repr(answers) != repr(reference):
            raise AssertionError(f"answer mismatch on {name} (n={size}, engine={engine.value})")
        static_seconds[engine.value] = _best_time(
            lambda: evaluate(query, structure, engine=engine), repeats
        )
    cost_seconds = _best_time(
        lambda: evaluate(query, structure, engine=plan.engine, propagator=plan.propagator),
        repeats,
    )
    return _entry(size, name, "gating", cost_seconds, plan.engine.value, static_seconds)


def _measure_accel(name, text, size, repeats, kind="gating"):
    """Cost routing vs forced-lowering statics on an accel-only document."""
    query = parse_query(text)
    tree = _accel_tree(size)
    plan = plan_query(query, DocumentStats.of_tree(tree), accel_only=True)
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        reference = backend.evaluate(
            "doc", query, lowering=plan.lowering, materialize=plan.materialize
        )
        static_seconds = {}
        for lowering in ("tree", "flat"):
            if backend.evaluate("doc", query, lowering=lowering) != reference:
                raise AssertionError(
                    f"answer mismatch on {name} (n={size}, lowering={lowering})"
                )
            static_seconds[lowering] = _best_time(
                lambda: backend.evaluate("doc", query, lowering=lowering), repeats
            )
        cost_seconds = _best_time(
            lambda: backend.evaluate(
                "doc", query, lowering=plan.lowering, materialize=plan.materialize
            ),
            repeats,
        )
    choice = plan.lowering + ("+materialize" if plan.materialize else "")
    return _entry(size, name, kind, cost_seconds, choice, static_seconds)


def _measure_materialize_ablation(size, repeats):
    """TEMP-table materialization vs plain CTEs on the dense four-cycle."""
    query = parse_query(ABLATION_CYCLE4_SQL)
    tree = _accel_tree(size)
    with SQLiteBackend() as backend:
        backend.register_tree("doc", tree)
        cte = backend.evaluate("doc", query, lowering="tree")
        temp = backend.evaluate("doc", query, lowering="tree", materialize=True)
        if cte != temp:
            raise AssertionError(f"materialize answer mismatch (n={size})")
        static_seconds = {
            "cte": _best_time(
                lambda: backend.evaluate("doc", query, lowering="tree"), repeats
            ),
            "temp_table": _best_time(
                lambda: backend.evaluate("doc", query, lowering="tree", materialize=True),
                repeats,
            ),
        }
    return _entry(
        size,
        "ablation_cycle4_sql",
        "ablation",
        static_seconds["temp_table"],
        "temp_table",
        static_seconds,
    )


#: The propagators the ablation measures: the AC-4 default, the hybrid the
#: planner used to pick here, and the semijoin full reducer it picks now.
ABLATION_PROPAGATORS = ("ac4", "hybrid", "semijoin")


def _measure_propagator_ablation(size, repeats):
    """The cost router's propagator pick vs the alternatives on unlabeled chains."""
    query = parse_query(ABLATION_PROPAGATOR)
    tree = _resident_tree(size)
    structure = TreeStructure(tree)
    plan = plan_query(query, DocumentStats.of_tree(tree))
    renderings = {
        repr(sorted(evaluate(query, structure, propagator=propagator)))
        for propagator in ABLATION_PROPAGATORS
    }
    if len(renderings) != 1:
        raise AssertionError(f"propagator answer mismatch (n={size})")
    static_seconds = {
        propagator: _best_time(
            lambda: evaluate(query, structure, propagator=propagator), repeats
        )
        for propagator in ABLATION_PROPAGATORS
    }
    return _entry(
        size,
        "ablation_propagator",
        "ablation",
        static_seconds[plan.propagator.value],
        plan.propagator.value,
        static_seconds,
    )


#: The two regimes of the full reducer's ``Child+``/``Child*`` semijoin: both
#: columns unlabeled (the cumulative-membership kernels' side of the crossover)
#: and both label-selective (the per-candidate bisection's side).
ABLATION_REDUCER = {
    "ablation_reducer_unlabeled": ABLATION_PROPAGATOR,
    "ablation_reducer_selective": "Q(x) <- L05(i), Child*(x, i), L03(x)",
}


def _measure_reducer_kernel_ablation(name, size, repeats):
    """``reducer.BISECT_STEPS_PER_NODE`` vs forcing either kernel everywhere."""
    compiled = compile_query(parse_query(ABLATION_REDUCER[name]))
    structure = TreeStructure(_resident_tree(size))
    reference = semijoin_sweeps(compiled, structure)
    threshold = reducer.BISECT_STEPS_PER_NODE
    seconds = {}
    for label, steps in (("threshold", threshold), ("bisect", float("inf")), ("kernels", 0)):
        with mock.patch.object(reducer, "BISECT_STEPS_PER_NODE", steps):
            if semijoin_sweeps(compiled, structure) != reference:
                raise AssertionError(f"reducer kernel mismatch on {name} (n={size}, {label})")
            # Repeats x 5: the selective regime runs in tens of microseconds.
            seconds[label] = _best_time(lambda: semijoin_sweeps(compiled, structure), repeats * 5)
    cost_seconds = seconds.pop("threshold")
    return _entry(size, name, "ablation", cost_seconds, f"threshold={threshold}", seconds)


#: Cyclic bodies on the decomposition route: the two labelled shapes of the
#: e2e ``answers_10k`` / ``kary_1k`` workloads on their own documents (the
#: generator parameters of ``benchmarks/e2e/workloads.py``), and a label-free
#: wedge where the sweeps have no label column to start from and AC-4's extra
#: pruning has the most to offer.
ABLATION_SWEEPS = {
    "ablation_sweeps_triangle": (
        "Q(a, b1, b2) <- open_auction(a), Child(a, b1), bidder(b1), Child(a, b2), "
        "bidder(b2), Following(b1, b2)",
        lambda: auction_document(
            seed=42,
            **scaled(
                dict(num_items=560, num_people=300, num_bids=850),
                dict(num_items=55, num_people=30, num_bids=85),
            ),
        ),
    ),
    "ablation_sweeps_sentence_pair": (
        "Q(s, x, y) <- S(s), Child+(s, x), NP(x), Child+(s, y), NN(y), Following(x, y)",
        lambda: random_corpus(seed=42, num_sentences=scaled(440, 45)),
    ),
    "ablation_sweeps_unlabeled": (
        "Q(x) <- Child+(x, y), Child+(x, z), Following(y, z)",
        lambda: _resident_tree(min(RESIDENT_SIZES)),
    ),
}


def _measure_sweeps_ablation(name, repeats):
    """AC-4 vs the spanning-forest sweeps in front of the decomposition engine."""
    text, make_tree = ABLATION_SWEEPS[name]
    query = parse_query(text)
    tree = make_tree()
    structure = TreeStructure(tree)
    plan = plan_query(query, DocumentStats.of_tree(tree), engine=Engine.DECOMPOSITION)

    def run_with(propagator):
        return evaluate(query, structure, engine=Engine.DECOMPOSITION, propagator=propagator)

    if run_with("ac4") != run_with("semijoin"):
        raise AssertionError(f"sweeps answer mismatch on {name}")
    static_seconds = {p: _best_time(lambda: run_with(p), repeats * 3) for p in ("ac4", "semijoin")}
    chosen = plan.propagator.value
    return _entry(len(tree), name, "ablation", static_seconds[chosen], chosen, static_seconds)


def run(repeats: int = 3) -> dict:
    """Measure every entry, assert byte-identity, and compute the headline."""
    results = []
    for name, (text, mode, sizes) in GATING_ENTRIES.items():
        for size in sizes:
            if mode == "resident":
                results.append(_measure_resident(name, text, size, repeats))
            else:
                results.append(_measure_accel(name, text, size, repeats))
    for size in SQL_SIZES:
        results.append(_measure_materialize_ablation(size, repeats))
        results.append(
            _measure_accel("ablation_sql_fan", ABLATION_SQL_FAN, size, repeats, kind="ablation")
        )
    for size in RESIDENT_SIZES:
        results.append(_measure_propagator_ablation(size, repeats))
        for name in ABLATION_REDUCER:
            results.append(_measure_reducer_kernel_ablation(name, size, repeats))
    for name in ABLATION_SWEEPS:
        results.append(_measure_sweeps_ablation(name, repeats))

    gating = [entry for entry in results if entry["kind"] == "gating"]
    min_speedup = min(entry["speedup"] for entry in gating)
    max_vs_best = max(entry["vs_best"] for entry in gating)
    winners = sorted({entry["best_static"] for entry in gating})
    return {
        "benchmark": "cost-based routing vs static engine/lowering choices",
        "sizes": {
            "resident": list(RESIDENT_SIZES),
            "accel": list(SQL_SIZES),
        },
        "repeats": repeats,
        "results": results,
        "headline": {
            "min_speedup_vs_worst_static": min_speedup,
            "max_slowdown_vs_best_static": max_vs_best,
            "best_statics": winners,
            "claim": (
                "cost routing is >= 5x faster than the worst static choice and "
                "never > 1.2x slower than the best one, on a pain set where no "
                "single static choice wins"
            ),
            "holds": min_speedup >= 5.0 and max_vs_best <= 1.2 and len(winners) >= 2,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_planner.json", help="output JSON path")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = run(repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    headline = report["headline"]
    print(
        f"wrote {args.out}; min speedup vs worst static "
        f"{headline['min_speedup_vs_worst_static']:.1f}x, max slowdown vs best "
        f"{headline['max_slowdown_vs_best_static']:.2f}x, winners {headline['best_statics']}"
    )
    if SMOKE:
        print("note: BENCH_SMOKE=1 -- do not commit smoke numbers as the baseline")
    if not report["headline"]["holds"]:
        print("FAIL: the cost-routing headline claim does not hold")
        return 1
    return 0


# -- pytest-benchmark cases ----------------------------------------------------

SMALLEST_RESIDENT = min(RESIDENT_SIZES)
BENCH_TREE = _resident_tree(SMALLEST_RESIDENT)
BENCH_STRUCTURE = TreeStructure(BENCH_TREE)
BENCH_STATS = DocumentStats.of_tree(BENCH_TREE)


@pytest.mark.parametrize("name", ["route_enum_wedge", "route_bool_cycle4"])
def test_cost_routed_evaluation(benchmark, name):
    query = parse_query(GATING_ENTRIES[name][0])
    plan = plan_query(query, BENCH_STATS)
    benchmark(
        lambda: evaluate(
            query, BENCH_STRUCTURE, engine=plan.engine, propagator=plan.propagator
        )
    )


def test_plan_query_overhead(benchmark):
    """Planning itself must stay negligible next to any evaluation."""
    query = parse_query(GATING_ENTRIES["route_enum_wedge"][0])
    plan_query(query, BENCH_STATS)  # warm the compile cache
    benchmark(lambda: plan_query(query, BENCH_STATS))


def test_cost_router_picks_each_side():
    """The pain set routes to different choices per entry, as designed."""
    wedge = plan_query(parse_query(GATING_ENTRIES["route_enum_wedge"][0]), BENCH_STATS)
    cycle = plan_query(parse_query(GATING_ENTRIES["route_bool_cycle4"][0]), BENCH_STATS)
    assert wedge.engine is Engine.DECOMPOSITION
    assert cycle.engine is Engine.BACKTRACKING
    accel_tree = _accel_tree(min(SQL_SIZES))
    chain = plan_query(
        parse_query(GATING_ENTRIES["route_sql_chain"][0]),
        DocumentStats.of_tree(accel_tree),
        accel_only=True,
    )
    assert chain.engine is Engine.SQL and chain.lowering == "tree"


def test_cost_routing_beats_worst_static():
    """A relaxed wall-clock guard against losing the routing win entirely.

    The real >= 5x claim is enforced by ``main`` (run by CI's bench-smoke job
    and gated by ``check_regression.py`` against the committed baseline);
    this pytest variant uses a 2x margin on the boolean four-cycle -- whose
    full-size gap is ~100x -- so it stays robust on loaded machines.
    """
    query = parse_query(GATING_ENTRIES["route_bool_cycle4"][0])
    plan = plan_query(query, BENCH_STATS)
    assert plan.engine is Engine.BACKTRACKING
    cost = _best_time(
        lambda: evaluate(query, BENCH_STRUCTURE, engine=plan.engine), 3
    )
    worst = _best_time(
        lambda: evaluate(query, BENCH_STRUCTURE, engine=Engine.DECOMPOSITION), 3
    )
    assert worst >= 2.0 * cost


if __name__ == "__main__":
    raise SystemExit(main())

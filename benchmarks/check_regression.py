"""Diff fresh benchmark numbers against committed ``BENCH_*.json`` baselines.

CI's bench-smoke job re-runs the standalone benchmark scripts at smoke sizes
and then calls this checker to compare the *speedup* figures (which are
scale-free and machine-independent enough to diff, unlike raw seconds) against
the committed full-size baselines.  Entries are matched on
``(query, tree_size)``; only sizes present in both files are compared, so a
smoke run (sizes 300/1000) is diffed against the committed file's 1000-node
entries.  A fresh speedup more than ``--factor`` (default 3) times below the
committed one fails the job -- the guard is deliberately loose, flagging only
"the optimisation largely stopped working" regressions, not machine noise.

A benchmark can land in the same PR as its first CI run:
``--allow-missing-baseline`` turns a missing committed file into a warning +
skip instead of an error (scoped to that one invocation, so a typoed
``--committed`` path elsewhere still fails loudly).  The opposite direction,
``--require-baseline``, additionally insists the committed file carries a
*holding* headline claim (``headline.holds == true``, and the same for every
further ``*_headline`` entry) -- CI passes it so a baseline committed from a
failed full-size run cannot make the comparisons vacuous.

Usage::

    python benchmarks/check_regression.py \\
        --committed BENCH_index.json --fresh bench-results/BENCH_index_smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _speedup_table(report: dict) -> dict[tuple[str, int], float]:
    table = {}
    for entry in report.get("results", []):
        if "speedup" in entry and "query" in entry and "tree_size" in entry:
            table[(entry["query"], entry["tree_size"])] = entry["speedup"]
    return table


def compare(committed: dict, fresh: dict, factor: float) -> list[str]:
    """Return a list of regression messages (empty = all clear)."""
    committed_table = _speedup_table(committed)
    fresh_table = _speedup_table(fresh)
    shared = sorted(set(committed_table) & set(fresh_table))
    if not shared:
        return [
            "no comparable (query, tree_size) entries between committed and fresh "
            "reports; the schemas or size grids have diverged"
        ]
    regressions = []
    for key in shared:
        baseline = committed_table[key]
        current = fresh_table[key]
        if baseline > 0 and current * factor < baseline:
            query, size = key
            regressions.append(
                f"{query} (n={size}): speedup fell {baseline / current:.1f}x "
                f"below baseline ({baseline:.1f}x -> {current:.1f}x)"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--committed", required=True, help="committed BENCH_*.json baseline")
    parser.add_argument("--fresh", required=True, help="freshly generated benchmark JSON")
    parser.add_argument(
        "--factor",
        type=float,
        default=3.0,
        help="flag entries whose fresh speedup is this many times below baseline",
    )
    parser.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help=(
            "warn and skip (exit 0) when the committed baseline file does not "
            "exist -- for a benchmark landing in the same PR as its first CI "
            "run.  Without the flag a missing baseline is an error, so a "
            "typoed --committed path cannot silently disable the gate."
        ),
    )
    parser.add_argument(
        "--require-baseline",
        action="store_true",
        help=(
            "additionally require the committed baseline to carry a headline "
            "whose claim holds (headline.holds == true).  Guards against a "
            "baseline committed from a run whose speedup bar already failed, "
            "which would make every future comparison vacuous.  Mutually "
            "exclusive with --allow-missing-baseline."
        ),
    )
    args = parser.parse_args(argv)
    if args.require_baseline and args.allow_missing_baseline:
        parser.error("--require-baseline and --allow-missing-baseline conflict")
    if not os.path.exists(args.committed):
        message = f"no committed baseline at {args.committed}"
        if args.allow_missing_baseline:
            print(f"WARNING: {message}; skipping the regression comparison")
            return 0
        print(f"ERROR: {message} (pass --allow-missing-baseline for a new benchmark)")
        return 1
    with open(args.committed) as handle:
        committed = json.load(handle)
    if args.require_baseline:
        # ``headline`` must be there and hold; so must every further
        # ``*_headline`` a file carries (``BENCH_columnar.json``'s bag kernel).
        headlines = {"headline": committed.get("headline", {})}
        headlines.update(
            (key, value) for key, value in committed.items() if key.endswith("_headline")
        )
        for key, headline in headlines.items():
            if headline.get("holds") is not True:
                print(
                    f"ERROR: committed baseline {args.committed} has no holding "
                    f"{key} claim ({key}.holds={headline.get('holds')!r}); "
                    "regenerate it with a full-size run that meets its speedup bar"
                )
                return 1
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    regressions = compare(committed, fresh, args.factor)
    shared = len(set(_speedup_table(committed)) & set(_speedup_table(fresh)))
    if regressions:
        print(f"{args.fresh}: {len(regressions)} regression(s) vs {args.committed}:")
        for message in regressions:
            print(f"  REGRESSION: {message}")
        return 1
    print(
        f"{args.fresh}: OK vs {args.committed} "
        f"({shared} comparable entries, factor {args.factor}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

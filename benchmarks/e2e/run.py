"""End-to-end benchmark of the real ``cq-trees serve``: absolute numbers per workload.

One command runs every workload declared in ``BENCHMARK.json`` through a
spawned server over HTTP, checks every answer, prints each metric by name with
its unit, then makes the separate traced pass for the per-layer numbers::

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--smoke] [--out FILE]
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --compare A.json B.json

With ``--trace 0`` only the untraced rounds run (end-to-end metrics), with
``--trace 1`` only the traced pass (per-layer metrics); without it, both.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Exit code 0 means every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{REPO_ROOT}/src/repro not found: the benchmark measures the repository it sits in")
sys.path[:0] = [str(HERE.parent), str(REPO_ROOT / "src")]

from e2e.bench import END_TO_END, WorkloadResult, run_workload  # noqa: E402
from e2e.layers import PER_LAYER  # noqa: E402
from e2e.workloads import BY_NAME, WORKLOADS  # noqa: E402

BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
DIGESTS_JSON = HERE / "digests.json"
#: Per-workload measuring time of ``--smoke`` (1 round, ~300-node documents).
SMOKE_SECONDS = 0.3


def say(text: str = "") -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a plain checkout, not a git repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _format(value: float) -> str:
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def report(result: WorkloadResult, frozen: dict) -> bool:
    """Print one workload's numbers; returns whether it is correct."""
    name = result.workload.name
    for metric, _unit in END_TO_END:
        entry = result.end_to_end.get(metric)
        if entry:
            say(
                f"{name} {metric} {_format(entry['value'])} {entry['unit']} "
                f"(as measured {_format(entry['raw'])}, "
                f"q1 {_format(entry['q1'])}, q3 {_format(entry['q3'])}, "
                f"n={len(entry['rounds'])} x {entry['samples_per_round']})"
            )
    for metric, _unit in PER_LAYER:
        entry = result.per_layer.get(metric)
        if entry:
            say(f"{name} {metric} {_format(entry['value'])} {entry['unit']}")
    say(
        f"{name} failed_share {result.failed_share:.6f} ratio "
        f"({result.failed} of {result.attempted} attempted, {result.verified} verified)"
    )
    for failure in result.first_failures:
        say(f"{name} FAILED: {failure}")
    correct = result.failed == 0
    comparable = not result.digest_seeded or frozen.get("seed") == result.seed
    expected = frozen.get("workloads", {}).get(name) if comparable else None
    if expected is None:
        say(f"{name} digest {result.digest} (no frozen digest for seed {result.seed})")
    elif expected == result.digest:
        say(f"{name} digest {result.digest} (matches the frozen digest)")
    else:
        say(f"{name} FAILED: digest {result.digest} differs from the frozen {expected}")
        correct = False
    before, after = result.calibration_ms
    noisy = " NOISY (>10 % apart; diagnostic only)" if result.noisy else ""
    say(f"{name} env.calibration_ms {before:.2f} before, {after:.2f} after{noisy}")
    return correct


def compare(path_a: str, path_b: str) -> int:
    """B against A, per (workload, end-to-end metric), by the declared bounds."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    declared = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    breaches = 0
    say(f"{'workload':18} {'metric':15} {'A':>11} {'B':>11} {'worse by':>9} {'bound':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for metric in declared:
            ea = left["end_to_end"].get(metric["name"])
            eb = right["end_to_end"].get(metric["name"])
            if ea is None or eb is None:
                continue
            change = (eb["value"] - ea["value"]) / ea["value"]
            worse = change if metric["better"] == "lower" else -change
            spread = max((e["q3"] - e["q1"]) / abs(e["value"]) for e in (ea, eb))
            if spread > metric["bound"]:
                verdict = f"unresolved (spread {spread:.1%})"
            elif worse > metric["bound"]:
                verdict = "BREACH"
                breaches += 1
            else:
                verdict = "ok"
            say(
                f"{name:18} {metric['name']:15} {_format(ea['value']):>11} "
                f"{_format(eb['value']):>11} {worse:>+9.1%} {metric['bound']:>6.0%}  {verdict}"
            )
        if right["failed_share"] > left["failed_share"]:
            say(f"{name:18} failed_share {left['failed_share']} -> {right['failed_share']}  BREACH")
            breaches += 1
        same_inputs = left["seed"] == right["seed"] or not left["digest_seeded"]
        if same_inputs and left["digest"] != right["digest"]:
            say(f"{name:18} answer digests differ on the same seed  BREACH")
            breaches += 1
    say(f"{breaches} breach(es)")
    return 1 if breaches else 0


def _terminate(_signum, _frame):
    raise KeyboardInterrupt  # unwinds through the ``with`` blocks that own the server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: rounds only, 1: traced only")
    parser.add_argument("--smoke", action="store_true", help="1 round, ~300-node documents, < 20 s")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--freeze-digests", action="store_true", help="rewrite digests.json from this run"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    signal.signal(signal.SIGTERM, _terminate)
    declared = json.loads(BENCHMARK_JSON.read_text())
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else float(declared["run_seconds"]))
    mode = "smoke" if args.smoke else "full"
    digests = json.loads(DIGESTS_JSON.read_text()) if DIGESTS_JSON.exists() else {}
    env = environment(args.seed)
    say("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    say(f"env mode={mode} seconds={seconds:g} (closed loop, one load process)")

    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    results, correct = [], True
    for workload in chosen:
        say(
            f"== {workload.name}: serve {' '.join(workload.serve_args) or '(threaded)'}"
            f"{' --accel-db' if workload.accel else ''}, {workload.clients} client(s), "
            f"{'smoke' if args.smoke else workload.size} documents"
        )
        result = run_workload(
            workload,
            args.seed,
            seconds,
            say,
            measure=args.trace != 1,
            trace=args.trace != 0,
            smoke=args.smoke,
        )
        frozen = {} if args.freeze_digests else digests.get(mode, {})
        correct = report(result, frozen) and correct
        results.append(result)

    if args.freeze_digests:
        entry = digests.setdefault(mode, {"seed": args.seed, "workloads": {}})
        if entry["seed"] != args.seed:
            entry.update(seed=args.seed, workloads={})
        entry["workloads"].update({r.workload.name: r.digest for r in results})
        DIGESTS_JSON.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        say(f"froze {len(results)} digest(s) into {DIGESTS_JSON}")
    if args.out:
        payload = {
            "harness": "benchmarks/e2e",
            "env": env,
            "mode": mode,
            "seconds": seconds,
            "workloads": {r.workload.name: r.to_json_dict() for r in results},
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        say(f"wrote {args.out}")

    metrics = {}
    for result in results:
        prefix = "" if args.workload else f"{result.workload.name}/"
        for name, entry in {**result.end_to_end, **result.per_layer}.items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    summary = {
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }
    say(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)

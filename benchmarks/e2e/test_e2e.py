"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e`` from the repository root (the
tier-1 suite under ``tests/`` does not collect this directory).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation import Engine
from repro.service import DocumentStore, QueryCache, Request, run_request

from . import run as cli
from .check import Checker, Oracle
from .layers import PER_LAYER
from .serving import ServerProcess, process_tree
from .workloads import BY_NAME, WORKLOADS, body_of, instantiate

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _served_body(instance, req) -> bytes:
    """What a correct server would answer, produced in-process."""
    store = DocumentStore()
    for doc, tree in instance.trees.items():
        store.register_tree(doc, tree)
    request = Request.from_json_dict(json.loads(body_of(req)))
    result = run_request(store, QueryCache(), request)
    assert result.ok, result.error
    return json.dumps(result.to_json_dict()).encode("utf-8")


def test_checker_accepts_a_correct_body_and_fails_a_corrupted_one():
    instance = instantiate(BY_NAME["kary_1k"], seed=0, smoke=True)
    req = instance.traffic.mix[0]
    good = _served_body(instance, req)
    assert json.loads(good)["count"] > 1

    checker = Checker(Oracle(instance.trees, Engine.SQL))
    checker.verify(200, good, req)
    assert (checker.attempted, checker.failed) == (1, 0)

    body = json.loads(good)
    body["answers"] = body["answers"][1:]  # one answer dropped, count left alone
    for status, raw in (
        (200, json.dumps(body).encode("utf-8")),
        (200, good.replace(b'"truncated": false', b'"truncated": true')),
        (200, b"not json"),
        (500, good),
        (0, b""),
    ):
        before = checker.failed
        checker.verify(status, raw, req)
        assert checker.failed == before + 1, (status, raw[:40])
    assert (checker.attempted, checker.failed) == (6, 5)
    assert checker.first_failures


def test_limit_is_applied_after_sorting_in_the_oracle():
    instance = instantiate(BY_NAME["answers_10k"], seed=0, smoke=True)
    oracle = Oracle(instance.trees, Engine.SQL)
    full = next(r for r in instance.traffic.mix if r.klass == "full")
    limited = next(r for r in instance.traffic.mix if r.klass == "limit")
    everything, shown = json.loads(oracle.expected(full.spec)), json.loads(
        oracle.expected(limited.spec)
    )
    assert shown["answers"] == everything["answers"][:10]
    assert shown["count"] == everything["count"] > 10 and shown["truncated"]


def test_churn_traffic_never_repeats_a_query_and_twins_are_equivalent():
    instance = instantiate(BY_NAME["churn_1k"], seed=3, smoke=True)
    sequence = instance.traffic.round(4)[0]
    assert [r.klass for r in sequence[:4]] == ["novel", "renamed", "novel", "renamed"]
    texts = [r.spec["query"] for r in sequence]
    assert len(set(texts)) == len(texts)
    cache = QueryCache()
    hits = [cache.resolve_text(r.spec["query"])[1] for r in sequence]
    novel_hits = [hit for r, hit in zip(sequence, hits) if r.klass == "novel"]
    renamed_hits = [hit for r, hit in zip(sequence, hits) if r.klass == "renamed"]
    assert not any(novel_hits) and all(renamed_hits)
    # Same seed, same traffic; the warm-up pass (the digested one) is the same
    # whatever was drawn before it and however often it is asked for.
    again = instantiate(BY_NAME["churn_1k"], seed=3, smoke=True).traffic
    warmup = [r.wire for r in again.warmup()]
    assert [r.wire for r in again.round(4)[0]] == [r.wire for r in sequence]
    assert [r.wire for r in again.warmup()] == warmup
    assert [r.wire for r in instance.traffic.warmup()] == warmup
    assert not {r.spec["query"] for r in again.warmup()} & set(texts)


def test_benchmark_json_keeps_to_the_contract():
    assert set(DECLARED) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in DECLARED["workloads"]] == [w.name for w in WORKLOADS]
    assert [m["name"] for m in DECLARED["per_layer"]] == [name for name, _ in PER_LAYER]
    sections = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for key in sections for entry in DECLARED[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def _server_commands() -> list[str]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    command = handle.read().replace(b"\0", b" ").decode("utf-8", "replace")
            except OSError:
                continue
            if "-m repro serve" in command and "--port 0" in command:
                found.append(command)
    return found


def test_smoke_run_reports_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0

    workloads = [w["name"] for w in DECLARED["workloads"]]
    metrics = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    expected = {f"{w}/{m}" for w in workloads for m in metrics}
    assert set(summary["metrics"]) == expected
    for key, entry in summary["metrics"].items():
        assert entry["unit"] == metrics[key.split("/", 1)[1]]

    report = json.loads(out.read_text())
    assert list(report["workloads"]) == workloads
    for name, entry in report["workloads"].items():
        assert set(entry["end_to_end"]) | set(entry["per_layer"]) == set(metrics), name
        assert entry["failed_share"] == 0.0
        assert 0.5 < entry["per_layer"]["budget.coverage"]["value"] < 1.5

    # Printed by name with unit: "<workload> <metric> <value> <unit> ...".
    printed = {
        f"{parts[0]}/{parts[1]}": parts[3]
        for parts in (line.split() for line in lines[:-1])
        if len(parts) >= 4 and parts[0] in workloads and parts[1] in metrics
    }
    assert printed == {key: entry["unit"] for key, entry in summary["metrics"].items()}
    assert {"commit", "python", "sqlite", "nproc", "seed"} <= set(report["env"])
    assert not _server_commands(), "a spawned server outlived the benchmark"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_churn_digest_is_the_frozen_one_in_both_driver_modes(trace):
    """``--trace 0`` sets the server up three times, ``--trace 1`` once."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "churn_1k", "--seed", "0"]
        + ["--seconds", "1", "--trace", trace],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    assert "(matches the frozen digest)" in completed.stdout
    assert json.loads(completed.stdout.strip().splitlines()[-1])["correct"]


def test_server_and_shard_workers_die_with_the_block_on_an_exception():
    pids = []
    with pytest.raises(RuntimeError, match="boom"):
        with ServerProcess(("--async", "--shards", "2")) as server:
            pids = process_tree(server.process.pid)
            assert len(pids) >= 3  # front end + two shard workers
            raise RuntimeError("boom")
    assert not [pid for pid in pids if os.path.exists(f"/proc/{pid}")]


def _report(qps: float, rounds: list[float], failed_share: float = 0.0) -> dict:
    ordered = sorted(rounds)
    entry = {"value": qps, "unit": "1/s", "q1": ordered[0], "q3": ordered[-1], "rounds": rounds}
    workload = {"end_to_end": {"qps": entry}, "failed_share": failed_share}
    workload.update(seed=0, digest="d", digest_seeded=False)
    return {"workloads": {"mixed_10k": workload}}


def test_compare_passes_flags_a_breach_and_reports_unresolved(tmp_path, capsys):
    def write(name: str, report: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    base = write("a.json", _report(100.0, [99.0, 101.0]))
    assert cli.compare(base, write("same.json", _report(98.0, [97.0, 99.0]))) == 0
    assert cli.compare(base, write("slow.json", _report(60.0, [59.0, 61.0]))) == 1
    assert "BREACH" in capsys.readouterr().out
    assert cli.compare(base, write("wide.json", _report(60.0, [30.0, 90.0]))) == 0
    assert "unresolved" in capsys.readouterr().out
    assert cli.compare(base, write("wrong.json", _report(100.0, [99.0, 101.0], 0.01))) == 1

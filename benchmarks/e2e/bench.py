"""One workload, end to end: set up the server, drive it, check it, trace it.

Protocol (identical for every workload): spawn the server on port 0, register
the documents, one warm-up pass (all of this is ``setup_s``), a calibration
pass that sizes a round in whole traffic units, then ``ROUNDS`` measured
rounds with tracing off.  Every end-to-end metric is the median over the
rounds of the per-round value, at reference speed (see ``load.py``).  The
traced pass comes afterwards.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.backends.sqlite import SQLiteBackend
from repro.evaluation import Engine

from .check import Checker, Oracle
from .layers import PER_LAYER, HttpPass, Replay, Spans
from .load import Gauge, calibration_ms, percentile, run_round, run_rounds
from .serving import REPO_ROOT, Connection, ServerProcess, post_json
from .workloads import Instance, Workload, instantiate

#: Many short rounds, so that the speed gauge follows the box closely.
ROUNDS = 16
#: Set-ups per run; ``setup_s`` is their median.  One start-up is too noisy
#: to gate on (the driver asks for several); only the last one serves traffic.
SETUPS = 3
#: Seconds of HTTP traffic per turn of the traced pass.
TRACE_SLICE_S = 0.4
RESULTS_DIR = REPO_ROOT / "bench-results" / "e2e"

#: The per-round metrics first, then the per-run ones.
END_TO_END = (
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


@dataclass
class Deployment:
    server: ServerProcess
    connections: list[Connection]
    setup_s: float  # as measured
    slowdown: float  # of the interval it was measured in


@dataclass
class WorkloadResult:
    workload: Workload
    seed: int
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    first_failures: list[str] = field(default_factory=list)
    digest: str = ""
    #: Whether the digest depends on the seed (only the churn warm-up does).
    digest_seeded: bool = False
    end_to_end: dict[str, dict] = field(default_factory=dict)
    per_layer: dict[str, dict] = field(default_factory=dict)
    calibration_ms: list[float] = field(default_factory=list)
    noisy: bool = False
    requests_per_round: int = 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_json_dict(self) -> dict:
        return {
            "why": self.workload.why,
            "clients": self.workload.clients,
            "serve_args": list(self.workload.serve_args),
            "seed": self.seed,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_share": self.failed_share,
            "verified": self.verified,
            "first_failures": self.first_failures,
            "digest": self.digest,
            "digest_seeded": self.digest_seeded,
            "requests_per_round": self.requests_per_round,
            "calibration_ms": self.calibration_ms,
            "noisy": self.noisy,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
        }


def _deploy(
    stack: ExitStack, instance: Instance, workdir: Path, checker: Checker, digest: bool
) -> Deployment:
    """Server spawn -> documents registered -> warm-up pass done, timed.

    Every warm-up reply is verified afterwards; with ``digest`` it also feeds
    the frozen answer digest.
    """
    workload = instance.workload
    warmup = instance.traffic.warmup()  # generated before the clock starts
    with Gauge() as gauge:
        started = time.perf_counter()
        serve_args = workload.serve_args
        if workload.accel:
            database = str(Path(tempfile.mkdtemp(dir=workdir)) / "accel.db")
            with SQLiteBackend(database) as backend:
                for doc, tree in instance.trees.items():
                    backend.ensure_document(doc, tree)
            serve_args += ("--accel-db", database)
        server = stack.enter_context(ServerProcess(serve_args, log_path=workdir / "server.log"))
        connections = [
            stack.enter_context(Connection(server.host, server.port))
            for _ in range(workload.clients)
        ]
        if not workload.accel:
            for doc, xml in instance.xml.items():
                post_json(connections[0], "/documents", {"doc": doc, "xml": xml})
        replies = [connections[0].exchange(req.wire) for req in warmup]
        setup_s = time.perf_counter() - started
    for req, (status, raw) in zip(warmup, replies):
        checker.verify(status, raw, req, digest=digest)
    return Deployment(server, connections, setup_s, gauge.factor)


def _size_round(
    deployment: Deployment, instance: Instance, checker: Checker, seconds: float
) -> int:
    """Whole traffic units per client that fill ``seconds``; excluded from the metrics."""
    traffic, units, wall = instance.traffic, 1, 0.0
    for _ in range(3):
        result = run_round(deployment.connections, traffic.round(units), checker, 0, 0)
        wall = result.wall
        if wall >= min(0.4, seconds / 2):
            break
        units = math.ceil(units * 0.5 / max(wall, 1e-4))
    return max(1, round(units * seconds / wall))


def _summary(
    raw: list[float], slowdowns: list[float], unit: str, samples: int, rate: bool = False
) -> dict:
    """Median of the per-round values at reference speed.

    The quartiles, the per-round values and the sample count are recorded
    beside it, and so is ``raw``: the median of the values as measured.
    """
    values = [r * s if rate else r / s for r, s in zip(raw, slowdowns)]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "raw": statistics.median(raw),
        "q1": q1,
        "q3": q3,
        "rounds": values,
        "raw_rounds": raw,
        "samples_per_round": samples,
    }


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    log: Callable[[str], None],
    measure: bool = True,
    trace: bool = True,
    smoke: bool = False,
) -> WorkloadResult:
    """Run one workload; ``measure`` the untraced rounds, ``trace`` the layers."""
    result = WorkloadResult(workload, seed)
    result.calibration_ms.append(calibration_ms())
    instance = instantiate(workload, seed, smoke=smoke)
    # Resident documents are served by the in-memory engines, accel-only ones
    # by SQLite: the oracle enumerates k-ary answers with the other of the two.
    kary_engine = Engine.DECOMPOSITION if workload.accel else Engine.SQL
    checker = Checker(Oracle(instance.trees, kary_engine))
    traffic = instance.traffic
    rounds = 1 if smoke else ROUNDS
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"tmp-{workload.name}-", dir=RESULTS_DIR))
    try:
        setups = []
        for _ in range(SETUPS - 1 if measure and not smoke else 0):
            with ExitStack() as rehearsal:
                setups.append(_deploy(rehearsal, instance, workdir, checker, False))
        with ExitStack() as stack:
            deployment = _deploy(stack, instance, workdir, checker, True)
            setups.append(deployment)
            result.digest, result.digest_seeded = checker.digest(), traffic.seeded_warmup
            round_seconds = seconds / rounds
            units = _size_round(deployment, instance, checker, round_seconds)
            result.requests_per_round = units * traffic.unit_requests * workload.clients
            if measure:
                measured, slowdowns = _measure(deployment, instance, checker, units, rounds, log)
                for name, unit in END_TO_END[:3]:
                    result.end_to_end[name] = _summary(
                        measured[name], slowdowns, unit, result.requests_per_round, name == "qps"
                    )
                result.end_to_end["setup_s"] = _summary(
                    [d.setup_s for d in setups], [d.slowdown for d in setups], "s", 1
                )
                peak = deployment.server.peak_rss_mib()
                result.end_to_end["peak_rss_mb"] = _summary([peak], [1.0], "MiB", 1)
            if trace:
                slice_units = max(1, round(units * TRACE_SLICE_S / round_seconds))
                values = _trace(deployment, instance, checker, slice_units, seconds, workdir)
                result.per_layer = {
                    name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.attempted, result.failed = checker.attempted, checker.failed
    result.verified = checker.verified
    result.first_failures = checker.first_failures
    result.calibration_ms.append(calibration_ms())
    before, after = result.calibration_ms
    result.noisy = abs(after - before) / before > 0.10
    return result


def _measure(
    deployment, instance, checker, units, rounds, log
) -> tuple[dict[str, list[float]], list[float]]:
    """The untraced rounds: ``qps``, ``latency_p50_ms`` and ``latency_p95_ms`` of each.

    Values as measured, and beside them each round's slowdown.
    """
    traffic = instance.traffic
    out: dict[str, list[float]] = {name: [] for name, _unit in END_TO_END[:3]}
    slowdowns = []
    sequences = (traffic.round(units) for _ in range(rounds))
    for done in run_rounds(
        deployment.connections, sequences, checker, traffic.unit_requests, traffic.verify_every
    ):
        latencies = done.latencies_ms()
        out["qps"].append(done.qps)
        out["latency_p50_ms"].append(percentile(latencies, 0.50))
        out["latency_p95_ms"].append(percentile(latencies, 0.95))
        slowdowns.append(done.slowdown)
        log(
            f"  round {len(slowdowns)}/{rounds}: {len(done.samples)} requests in "
            f"{done.wall:.2f} s: {done.qps:.1f} 1/s, p50 {out['latency_p50_ms'][-1]:.3f} ms, "
            f"p95 {out['latency_p95_ms'][-1]:.3f} ms as measured, slowdown {done.slowdown:.2f}"
        )
    return out, slowdowns


def _trace(
    deployment: Deployment,
    instance: Instance,
    checker: Checker,
    slice_units: int,
    seconds: float,
    workdir: Path,
) -> dict[str, float]:
    """The HTTP pass and the staged replay, alternating; returns every per-layer metric.

    Two thirds of ``seconds``: each turn sends ``slice_units`` of traffic
    (about ``TRACE_SLICE_S``) over HTTP, then replays whole units for twice as
    long (a replayed request runs four to five times).
    """
    workload, traffic = instance.workload, instance.traffic
    http = HttpPass(deployment.server, deployment.connections[0], checker)
    spans = Spans()
    replay = Replay(instance, workdir, spans)
    try:
        if workload.shards:
            replay.start_shards(workload.shards)
        replay.warm(traffic.warmup())
        deadline = time.perf_counter() + seconds * 2.0 / 3.0
        while time.perf_counter() < deadline:
            http.run_slice(traffic.round(slice_units)[0])
            turn_ends = time.perf_counter() + 2.0 * TRACE_SLICE_S
            while True:
                replay.run_unit(traffic.round(1)[0])
                if time.perf_counter() > turn_ends:
                    break
        values = http.metrics(asynchronous="--async" in workload.serve_args)
        values.update(replay.metrics())
    finally:
        replay.close()
    spans.write(RESULTS_DIR / f"spans-{workload.name}.jsonl")
    attributed = values.pop("attributed_ms") + values.pop("overhead_ms")
    values["budget.coverage"] = attributed / values.pop("client_mean_ms")
    return values

"""Plan-vs-actual accounting: how wrong were the cost model's estimates?

The planner attaches an ``estimated_cost`` (abstract work units) and per-bag
row estimates to every :class:`~repro.planning.plan.QueryPlan` SQL can run --
the estimates chose its lowering -- and the metrics layer histograms them.
This module compares them to what execution *actually* cost:

* every successfully executed SQL request is recorded with its actual elapsed
  time, rows enumerated and per-stage durations next to the plan's estimates
  (a plan on any other engine carries no estimate, so it is not ledgered);
* a per-engine **calibration** (running mean of ``log(cost units / second)``)
  converts abstract units into predicted seconds, so the **drift ratio**
  ``actual_seconds / predicted_seconds`` is dimensionless: ``1.0`` means the
  estimate was exactly as expensive as this engine's typical unit, ``> 1``
  means the plan under-estimated (the request was slower than its cost
  implied), ``< 1`` over-estimated;
* drift ratios land in the :data:`PLAN_DRIFT` histogram (labelled by
  engine and lowering, power-of-two buckets) in the process
  :data:`~repro.observability.metrics.REGISTRY`, so ``/metrics`` exposes the
  drift distribution and shard snapshots merge it for free;
* the worst offenders survive in a bounded **top-drift table** (canonical
  query, stats bucket, stage timings) surfaced under ``/stats`` and by the
  ``cq-trees drift`` CLI verb.

Everything is mergeable: :meth:`PlanAccounting.snapshot` is a plain picklable
dict (calibration sums merge by addition, top tables by re-ranking the union),
so shard workers ship their accounting over the existing control channel
exactly like metric snapshots.  Note drift ratios in worker entries were
computed against that worker's own calibration at record time; with
homogeneous workers the calibrations converge, and the merged table stays an
honest "worst seen anywhere" list either way.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

from .metrics import REGISTRY

__all__ = ["ACCOUNTING", "PLAN_DRIFT", "DRIFT_BUCKETS", "PlanAccounting"]

#: Drift-ratio bucket bounds: powers of two from 1/256 to 256 (``+Inf``
#: implicit).  Symmetric in log space around 1.0 = "estimate was spot on".
DRIFT_BUCKETS: tuple[float, ...] = tuple(2.0**exponent for exponent in range(-8, 9))

#: Drift-ratio distribution, labelled by the plan knobs that chose the path.
PLAN_DRIFT = REGISTRY.histogram(
    "cqtrees_plan_drift_ratio",
    "Actual-over-predicted request seconds per executed plan "
    "(1.0 = the cost estimate matched this engine's calibration)",
    ("engine", "lowering"),
    buckets=DRIFT_BUCKETS,
)


def _severity(drift: float) -> float:
    """How wrong an estimate was, direction-free: ``abs(log2(drift))``."""
    return abs(math.log2(drift)) if drift > 0 else float("inf")


class PlanAccounting:
    """Per-process plan-vs-actual ledger: calibration + bounded top-drift table.

    Thread-safe; ``capacity`` bounds the top-drift table (worst entries by
    ``|log2(drift)|``, ties broken newest-first by insertion order).
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._requests = 0
        self._skipped = 0
        # engine -> [sample count, sum of log(cost units per second)]
        self._engines: dict[str, list] = {}
        self._top: list[dict] = []

    # -- recording -------------------------------------------------------------

    def record(
        self,
        *,
        query_key: str,
        query_text: object,
        doc: str,
        rows: int,
        elapsed_ms: float,
        stage_ms: dict,
        engine: str,
        lowering: str,
        stats_bucket: str,
        estimated_cost: float,
        estimated_rows: float,
    ) -> Optional[float]:
        """Account one executed request; returns the drift ratio recorded.

        Requests with a non-positive cost estimate or elapsed time carry no
        calibration signal and are counted as skipped (returns ``None``).
        The first request an engine ever serves seeds its calibration and
        records drift ``1.0`` by definition.  ``query_text`` is rendered with
        ``str()`` only if the request enters the top-drift table.
        """
        seconds = elapsed_ms / 1000.0
        if estimated_cost <= 0 or seconds <= 0:
            with self._lock:
                self._skipped += 1
            return None
        rate = estimated_cost / seconds  # cost units per second, this request
        with self._lock:
            calibration = self._engines.setdefault(engine, [0, 0.0])
            if calibration[0] > 0:
                typical_rate = math.exp(calibration[1] / calibration[0])
                drift = typical_rate / rate
            else:
                drift = 1.0
            calibration[0] += 1
            calibration[1] += math.log(rate)
            self._requests += 1
            # Steady state: the table is full (and kept worst first) and this
            # request does not beat its mildest entry -- a tie loses, as it
            # would to the stable sort -- so no entry or query text is built.
            severity = _severity(round(drift, 4))
            if len(self._top) < self.capacity or severity > _severity(self._top[-1]["drift"]):
                entry = {
                    "drift": round(drift, 4),
                    "direction": "under-estimate" if drift >= 1.0 else "over-estimate",
                    "doc": doc,
                    "query_key": query_key,
                    "query": str(query_text),
                    "engine": engine,
                    "lowering": lowering,
                    "stats_bucket": stats_bucket,
                    "estimated_cost": round(estimated_cost, 1),
                    "estimated_rows": round(estimated_rows, 1),
                    "rows": rows,
                    "elapsed_ms": round(elapsed_ms, 3),
                    "stage_ms": {name: round(value, 3) for name, value in stage_ms.items()},
                }
                self._top.append(entry)
                self._rerank()
        PLAN_DRIFT.observe(drift, engine=engine, lowering=lowering)
        return drift

    def _rerank(self) -> None:
        """Worst first, at most ``capacity`` entries (call with the lock held)."""
        self._top.sort(key=lambda entry: _severity(entry["drift"]), reverse=True)
        del self._top[self.capacity :]

    # -- merge / snapshot ------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain picklable dict: what shard workers ship to the parent."""
        with self._lock:
            return {
                "requests": self._requests,
                "skipped": self._skipped,
                "engines": {engine: list(pair) for engine, pair in self._engines.items()},
                "top": [dict(entry) for entry in self._top],
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Sum calibrations and re-rank the union of top-drift tables."""
        with self._lock:
            self._requests += snapshot.get("requests", 0)
            self._skipped += snapshot.get("skipped", 0)
            for engine, (count, log_rate_sum) in snapshot.get("engines", {}).items():
                calibration = self._engines.setdefault(engine, [0, 0.0])
                calibration[0] += count
                calibration[1] += log_rate_sum
            self._top.extend(dict(entry) for entry in snapshot.get("top", []))
            self._rerank()

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` rendering: calibration rates + ranked drift table."""
        with self._lock:
            engines = {
                engine: {
                    "count": count,
                    "units_per_second": round(math.exp(log_rate_sum / count), 1) if count else None,
                }
                for engine, (count, log_rate_sum) in sorted(self._engines.items())
            }
            top = sorted(
                (dict(entry) for entry in self._top),
                key=lambda entry: _severity(entry["drift"]),
                reverse=True,
            )
            return {
                "requests": self._requests,
                "skipped": self._skipped,
                "capacity": self.capacity,
                "engines": engines,
                "top_drift": top,
            }

    def clear(self) -> None:
        with self._lock:
            self._requests = 0
            self._skipped = 0
            self._engines.clear()
            self._top.clear()


#: The process-default ledger (shard workers clear it right after the fork,
#: like the metrics registry, so parent-inherited state never double-counts).
ACCOUNTING = PlanAccounting()

"""Tests for plan-vs-actual accounting: drift math, merging, serving integration.

The ledger's contract: the first request an engine serves seeds its
calibration at drift 1.0; after that, drift is the engine's typical
units-per-second rate (geometric mean) over this request's rate, so slower-
than-estimated requests drift above 1 ("under-estimate") and faster ones
below.  Snapshots merge across processes by summing calibrations and
re-ranking the union of top tables, which is what the sharded backend ships
over its control channel.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.observability.accounting import ACCOUNTING, PlanAccounting
from repro.observability.metrics import SLOW_LOG
from repro.service import BatchExecutor, Request, ShardedExecutor
from repro.trees import to_xml
from repro.workloads import auction_document

BASE = dict(
    query_key="k0",
    query_text="Q(x) <- A(x)",
    doc="doc",
    rows=5,
    stage_ms={"plan": 0.2, "execute": 0.8},
    propagator="walk",
    lowering="none",
    stats_bucket="resident",
    estimated_rows=5.0,
)


def record(ledger: PlanAccounting, engine: str, cost: float, elapsed_ms: float, **overrides):
    fields = {**BASE, "engine": engine, "estimated_cost": cost, "elapsed_ms": elapsed_ms}
    fields.update(overrides)
    return ledger.record(**fields)


class TestDriftMath:
    def test_first_request_seeds_calibration_at_drift_one(self):
        ledger = PlanAccounting()
        assert record(ledger, "xproperty", 100.0, 100.0) == pytest.approx(1.0)
        stats = ledger.stats()
        assert stats["requests"] == 1
        # 100 units in 0.1s -> 1000 units/second.
        assert stats["engines"]["xproperty"]["units_per_second"] == pytest.approx(1000.0)

    def test_slower_than_calibrated_drifts_above_one(self):
        ledger = PlanAccounting()
        record(ledger, "xproperty", 100.0, 100.0)  # calibrate: 1000 units/s
        # Same estimate, twice the time -> rate 500 u/s -> drift 1000/500 = 2.
        drift = record(ledger, "xproperty", 100.0, 200.0)
        assert drift == pytest.approx(2.0)
        entry = ledger.stats()["top_drift"][0]
        assert entry["drift"] == pytest.approx(2.0)
        assert entry["direction"] == "under-estimate"

    def test_faster_than_calibrated_drifts_below_one(self):
        ledger = PlanAccounting()
        record(ledger, "xproperty", 100.0, 100.0)
        record(ledger, "xproperty", 100.0, 200.0)
        # Calibration is now the geometric mean of 1000 and 500 u/s.
        drift = record(ledger, "xproperty", 100.0, 50.0)
        assert drift == pytest.approx(math.sqrt(1000 * 500) / 2000)
        assert drift < 1.0

    def test_engines_calibrate_independently(self):
        ledger = PlanAccounting()
        record(ledger, "fast", 1000.0, 1.0)
        record(ledger, "slow", 10.0, 1.0)
        # Each engine's second request at its own typical rate: no drift.
        assert record(ledger, "fast", 1000.0, 1.0) == pytest.approx(1.0)
        assert record(ledger, "slow", 10.0, 1.0) == pytest.approx(1.0)

    def test_non_positive_cost_or_elapsed_is_skipped(self):
        ledger = PlanAccounting()
        assert record(ledger, "xproperty", 0.0, 100.0) is None
        assert record(ledger, "xproperty", 100.0, 0.0) is None
        stats = ledger.stats()
        assert stats["requests"] == 0
        assert stats["skipped"] == 2
        assert stats["top_drift"] == []


class TestBoundingAndMerge:
    def test_top_table_keeps_the_worst_by_severity(self):
        ledger = PlanAccounting(capacity=3)
        record(ledger, "e", 100.0, 100.0)  # drift 1.0
        # Drifts 2^1..2^5 in both directions, worst last.
        for exponent in range(1, 6):
            record(ledger, "e", 100.0, 100.0 * 2**exponent, query_key=f"slow{exponent}")
        top = ledger.stats()["top_drift"]
        assert len(top) == 3
        severities = [abs(math.log2(entry["drift"])) for entry in top]
        assert severities == sorted(severities, reverse=True)
        assert ledger.stats()["requests"] == 6  # bounding the table loses no counts

    def test_a_request_below_the_floor_builds_no_entry(self):
        class Text:
            rendered = 0

            def __str__(self):
                Text.rendered += 1
                return "Q(x) <- A(x)"

        ledger = PlanAccounting(capacity=2)
        record(ledger, "e", 100.0, 100.0, query_text=Text())  # drift 1.0, room: admitted
        record(ledger, "e", 100.0, 400.0, query_text=Text())  # drift 4.0, room: admitted
        assert Text.rendered == 2
        # Calibration is now 500 u/s (geometric mean of 1000 and 250): a
        # request at exactly that rate has severity 0 and ties with the floor
        # entry (drift 1.0) -- the resident entry wins, nothing is rendered.
        assert record(ledger, "e", 100.0, 200.0, query_text=Text()) == pytest.approx(1.0)
        assert Text.rendered == 2
        stats = ledger.stats()
        assert stats["requests"] == 3 and [e["drift"] for e in stats["top_drift"]] == [4.0, 1.0]
        # One that beats the floor is rendered once and evicts it.
        record(ledger, "e", 100.0, 3200.0, query_text=Text(), query_key="worse")
        assert Text.rendered == 3
        top = ledger.stats()["top_drift"]
        assert [e["query_key"] for e in top] == ["worse", "k0"] and top[1]["drift"] == 4.0
        assert all(e["query"] == "Q(x) <- A(x)" for e in top)

    def test_merge_sums_calibrations_and_reranks_tops(self):
        left, right = PlanAccounting(capacity=4), PlanAccounting(capacity=4)
        record(left, "e", 100.0, 100.0)
        record(left, "e", 100.0, 400.0)  # drift 4.0
        record(right, "e", 100.0, 100.0)
        record(right, "e", 100.0, 12.5)  # 8x faster than calibrated: drift 0.125

        merged = PlanAccounting(capacity=2)
        merged.merge_snapshot(left.snapshot())
        merged.merge_snapshot(right.snapshot())
        stats = merged.stats()
        assert stats["requests"] == 4
        assert stats["engines"]["e"]["count"] == 4
        # Geometric mean of the four observed rates survives the merge.
        rates = [1000.0, 250.0, 1000.0, 8000.0]
        expected = math.exp(sum(math.log(rate) for rate in rates) / len(rates))
        assert stats["engines"]["e"]["units_per_second"] == pytest.approx(expected, rel=1e-3)
        # The union re-ranks by |log2(drift)|: 0.125 (severity 3) outranks 4.0.
        assert [entry["drift"] for entry in stats["top_drift"]] == [0.125, 4.0]

    def test_snapshot_round_trips_through_json(self):
        ledger = PlanAccounting()
        record(ledger, "e", 100.0, 250.0)
        snapshot = json.loads(json.dumps(ledger.snapshot()))
        merged = PlanAccounting()
        merged.merge_snapshot(snapshot)
        assert merged.stats()["requests"] == 1


@pytest.fixture
def auction_xml():
    return to_xml(auction_document(num_items=10, seed=3))


REQUESTS = [
    Request(doc="auction", query="Q(i) <- item(i), Child(i, p), payment(p)"),
    Request(doc="auction", xpath="//description//listitem"),
]


class TestServingIntegration:
    def test_batch_executor_stats_carry_the_ledger(self, auction_xml):
        ACCOUNTING.clear()
        executor = BatchExecutor()
        try:
            executor.store.register_xml("auction", auction_xml)
            results = executor.execute_batch(REQUESTS)
            assert all(result.ok for result in results)
            accounting = executor.stats()["plan_accounting"]
        finally:
            executor.close()
        assert accounting["requests"] == len(REQUESTS)
        assert accounting["top_drift"]
        entry = accounting["top_drift"][0]
        assert {"drift", "direction", "engine", "lowering", "estimated_cost", "stage_ms"} <= set(
            entry
        )

    def test_sharded_executor_merges_worker_ledgers(self, auction_xml):
        executor = ShardedExecutor(shards=2)
        try:
            executor.register_payload({"doc": "auction", "xml": auction_xml})
            results = executor.execute_batch(REQUESTS * 2)
            assert all(result.ok for result in results)
            accounting = executor.stats()["plan_accounting"]
        finally:
            executor.close()
        # Workers clear inherited state post-fork, so the merged ledger counts
        # exactly what this executor served.
        assert accounting["requests"] == 2 * len(REQUESTS)
        assert accounting["engines"]
        assert accounting["top_drift"]

    def test_results_carry_attribution_but_not_on_the_wire(self, auction_xml):
        executor = BatchExecutor()
        try:
            executor.store.register_xml("auction", auction_xml)
            result = executor.execute(REQUESTS[0])
        finally:
            executor.close()
        assert result.ok
        assert result.plan_attribution is not None
        assert set(result.plan_attribution) == {"lowering", "estimated_cost", "drift"}
        # The wire body must stay byte-identical to the pre-accounting era.
        assert sorted(result.to_json_dict()) == [
            "answers",
            "cache_hit",
            "count",
            "doc",
            "elapsed_ms",
            "engine",
            "propagator",
            "query_key",
            "truncated",
        ]

    def test_slow_log_entries_carry_plan_attribution(self, auction_xml):
        executor = BatchExecutor()
        threshold = SLOW_LOG.threshold_ms
        SLOW_LOG.threshold_ms = 0.0  # record everything for the duration
        try:
            executor.store.register_xml("auction", auction_xml)
            assert executor.execute(REQUESTS[0]).ok
            entry = SLOW_LOG.entries()[-1]
        finally:
            SLOW_LOG.threshold_ms = threshold
            executor.close()
        assert {"lowering", "estimated_cost", "drift"} <= set(entry)
        assert "routing" not in entry
        assert entry["engine"] is not None

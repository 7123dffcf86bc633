"""Tests for the sampling profiler: lifecycle, sampling, merging, HTTP control.

The profiler's contract: ``start``/``stop`` are idempotent and report whether
they changed anything; a busy thread shows up in the folded-stack table under
its function name; ``merge_snapshots`` sums fleet samples; the sharded
backend broadcasts control actions and merges worker snapshots; the HTTP
front end exposes ``GET/POST /profile`` over both backends; and a running
sampler at a moderate rate must not meaningfully slow the sampled workload down.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import BatchExecutor, ShardedExecutor
from repro.observability.profiler import (
    MAX_HZ,
    SamplingProfiler,
    merge_snapshots,
)
from repro.trees import to_xml
from repro.workloads import auction_document


def spin_briefly(deadline: float) -> int:
    """A distinctive busy loop the sampler can catch in the act."""
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestLifecycle:
    def test_start_stop_are_idempotent(self):
        profiler = SamplingProfiler()
        assert profiler.start() is True
        assert profiler.start() is False  # already running: no-op
        assert profiler.running
        assert profiler.stop() is True
        assert profiler.stop() is False  # already stopped: no-op
        assert not profiler.running

    def test_out_of_range_hz_is_rejected_before_any_state_change(self):
        profiler = SamplingProfiler()
        with pytest.raises(ValueError):
            profiler.start(hz=0)
        with pytest.raises(ValueError):
            profiler.start(hz=MAX_HZ + 1)
        assert not profiler.running

    def test_clear_keeps_a_running_sampler_running(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        try:
            spin_briefly(time.perf_counter() + 0.05)
            profiler.clear()
            assert profiler.running
            snapshot = profiler.snapshot()
            assert snapshot["samples"] == snapshot["dropped"] == 0
        finally:
            profiler.stop()

    def test_reset_forgets_a_dead_thread_handle(self):
        # A forked child inherits `_thread` pointing at a thread that does not
        # exist in the child; reset must make start() work again without a join.
        profiler = SamplingProfiler()
        profiler.start()
        profiler.reset()
        assert not profiler.running
        assert profiler.start() is True
        profiler.stop()

    def test_control_maps_actions_and_rejects_unknown_ones(self):
        profiler = SamplingProfiler()
        status = profiler.control("start", hz=200)
        assert status["action"] == "start" and status["changed"] is True
        assert status["hz"] == 200 and "stacks" not in status
        assert profiler.control("start")["changed"] is False
        assert profiler.control("stop")["changed"] is True
        assert profiler.control("clear")["changed"] is True
        with pytest.raises(ValueError):
            profiler.control("pause")


class TestSampling:
    def test_busy_function_appears_in_folded_stacks(self):
        profiler = SamplingProfiler(max_stacks=100)
        assert profiler.start(hz=500)
        try:
            spin_briefly(time.perf_counter() + 0.3)
        finally:
            profiler.stop()
        snapshot = profiler.snapshot()
        assert snapshot["samples"] > 0
        matching = [stack for stack in snapshot["stacks"] if "spin_briefly" in stack]
        assert matching, f"spin_briefly not sampled; got {list(snapshot['stacks'])[:5]}"
        # Folded stacks are root-first file:function frames joined with ';'.
        assert any(frame.startswith("test_profiler.py:") for frame in matching[0].split(";"))

    def test_stack_table_is_bounded_but_totals_stay_honest(self):
        profiler = SamplingProfiler(max_stacks=1)
        profiler._stacks = {"already:full": 1}
        profiler._samples = 1
        profiler._sample(skip_ident=-1)  # samples this test's thread and friends
        snapshot = profiler.snapshot()
        assert len(snapshot["stacks"]) == 1
        assert snapshot["samples"] == snapshot["dropped"] + sum(snapshot["stacks"].values())

    def test_sampler_overhead_is_bounded(self):
        # Wall-clock sampling at ~100 Hz must not meaningfully slow the
        # workload.  The bound is deliberately loose (2x) -- this guards
        # against a pathologically broken sampler, not a few percent.
        deadline = 0.2
        started = time.perf_counter()
        spin_briefly(started + deadline)
        baseline = time.perf_counter() - started

        profiler = SamplingProfiler()
        profiler.start(hz=100)
        try:
            started = time.perf_counter()
            spin_briefly(started + deadline)
            sampled = time.perf_counter() - started
        finally:
            profiler.stop()
        assert sampled < 2.0 * baseline

    def test_merge_sums_stacks_and_takes_max_active_seconds(self):
        left = {"running": True, "hz": 97, "samples": 3, "dropped": 1,
                "active_seconds": 1.5, "stacks": {"a;b": 2, "a;c": 1}}
        right = {"running": False, "hz": 97, "samples": 2, "dropped": 0,
                 "active_seconds": 2.5, "stacks": {"a;b": 1, "d": 1}}
        merged = merge_snapshots([left, right])
        assert merged["running"] is True
        assert merged["samples"] == 5 and merged["dropped"] == 1
        assert merged["active_seconds"] == 2.5
        assert merged["stacks"] == {"a;b": 3, "a;c": 1, "d": 1}


@pytest.fixture
def auction_xml():
    return to_xml(auction_document(num_items=10, seed=3))


class TestExecutorIntegration:
    def test_sharded_profile_control_reaches_workers_and_merges(self, auction_xml):
        executor = ShardedExecutor(shards=2)
        try:
            executor.register_payload({"doc": "auction", "xml": auction_xml})
            status = executor.profile_control("start", hz=500)
            assert status["running"] is True
            assert status["workers"] == 2
            # Worker main threads block on their control queues -- wall-clock
            # sampling sees them there, so samples accrue even while idle.
            time.sleep(0.3)
            snapshot = executor.profile_snapshot()
            assert snapshot["samples"] > 0
            assert snapshot["stacks"]
            status = executor.profile_control("stop")
            assert status["changed"] is True
        finally:
            executor.close()

    def test_batch_executor_profile_roundtrip(self, auction_xml):
        executor = BatchExecutor()
        try:
            executor.store.register_xml("auction", auction_xml)
            assert executor.profile_control("start", 500)["running"] is True
            time.sleep(0.1)
            snapshot = executor.profile_snapshot()
            assert snapshot["running"] is True and snapshot["samples"] > 0
            executor.profile_control("stop")
        finally:
            executor.close()


def _call(base: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestHTTPProfileRoute:
    def test_threaded_frontend_profile_route(self, serve):
        httpd = serve(BatchExecutor())
        host, port = httpd.server_address
        base = f"http://{host}:{port}"
        try:
            status, body = _call(base, "POST", "/profile", {"action": "start", "hz": 500})
            assert status == 200 and body["running"] is True
            time.sleep(0.05)
            status, body = _call(base, "GET", "/profile")
            assert status == 200 and body["running"] is True
            assert set(body) >= {"hz", "samples", "dropped", "active_seconds", "stacks"}
            status, body = _call(base, "POST", "/profile", {"action": "stop"})
            assert status == 200 and body["running"] is False
            # Malformed control payloads answer 400, not 500.
            status, body = _call(base, "POST", "/profile", {"action": "pause"})
            assert status == 400 and "error" in body
            status, body = _call(base, "POST", "/profile", {"action": "start", "bogus": 1})
            assert status == 400
            status, body = _call(base, "POST", "/profile", {"action": "start", "hz": True})
            assert status == 400
        finally:
            httpd.executor.profile_control("stop")

    def test_sharded_backend_profile_route(self, serve):
        backend = ShardedExecutor(shards=2)
        try:
            host, port = serve(backend).server_address
            base = f"http://{host}:{port}"
            status, body = _call(base, "POST", "/profile", {"action": "start", "hz": 500})
            assert status == 200 and body["running"] is True and body["workers"] == 2
            status, body = _call(base, "GET", "/profile")
            assert status == 200 and body["running"] is True
            status, body = _call(base, "POST", "/profile", {"action": "stop"})
            assert status == 200 and body["running"] is False
            status, body = _call(base, "POST", "/profile", {"action": "nope"})
            assert status == 400 and "error" in body
        finally:
            backend.profile_control("stop")
            backend.close()

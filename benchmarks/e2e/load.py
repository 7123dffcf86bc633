"""The closed-loop load generator: one process, one thread per connection.

Each client sends its next request only after the previous reply has been read
in full (API callers wait for their reply).  Nothing is parsed or checked on
the timed path; bodies picked for verification are kept and checked after the
round, while the server is idle.

Times are reported *at reference speed*, with the values as measured beside
them.  The box this benchmark was built on changes speed by up to 1.5x for
seconds to minutes at a time (other tenants of the host; nothing the guest can
see or control): over ten runs of one commit the interquartile spread of the
measured values was 7-23 % on ``qps`` and reached 29 % on ``latency_p95_ms``
and 43 % on ``latency_p50_ms``, more than the widest bound a benchmark may
declare.  A fixed
pure-Python loop is therefore timed before and after every measured interval,
and the interval's times are divided by how much slower than
:data:`REFERENCE_MS` the loop ran.

The reference is a constant on purpose.  One taken from the run itself (the
median or the fastest calibration of the run) follows the very drift it is
meant to take out: on the same ten runs it left spreads of 8-27 % and 8-18 %
where the constant left 2-14 %.  On another machine the scaled values are
therefore the reference box's, not that machine's; its own absolute numbers
are the ones printed as measured.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .check import Checker
from .serving import Connection
from .workloads import Req


#: The calibration loop's time on the reference box (CPython 3.11) when it is quiet.
REFERENCE_MS = 13.5


def calibration_ms() -> float:
    """Median of three runs of a fixed pure-Python loop, in milliseconds."""
    runs = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        runs.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(runs)


def slowdown(before_ms: float, after_ms: float) -> float:
    """The speed factor of an interval from the calibrations around it."""
    return (before_ms + after_ms) / (2.0 * REFERENCE_MS)


class Gauge:
    """How much slower than the reference the box is while the block runs.

    ``factor`` is the mean of the calibrations before and after the block over
    :data:`REFERENCE_MS`: 1.0 on a quiet reference box, 1.4 while a neighbour
    takes 40 % of the core.
    """

    factor = 1.0

    def __enter__(self) -> "Gauge":
        self._before_ms = calibration_ms()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.factor = slowdown(self._before_ms, calibration_ms())


@dataclass
class Sample:
    latency: float  # seconds, send -> last body byte
    status: int  # 0 = transport error
    size: int  # body bytes
    raw: bytes  # kept only when ``verify`` is set
    req: Req
    verify: bool


@dataclass
class RoundResult:
    samples: list[Sample]
    wall: float  # seconds, first send -> last reply over all clients
    #: The :class:`Gauge` factor of the interval the round ran in.
    slowdown: float = 1.0

    @property
    def qps(self) -> float:
        """Completed requests per second of wall time, as measured."""
        return len(self.samples) / self.wall

    def latencies_ms(self) -> list[float]:
        """Ascending client latencies, as measured."""
        return sorted(sample.latency * 1000.0 for sample in self.samples)


def percentile(ascending: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    return ascending[max(1, math.ceil(q * len(ascending))) - 1]


def _client(connection, sequence, keep_head, keep_every, barrier, out, marks) -> None:
    samples = []
    barrier.wait()
    started = time.perf_counter()
    for position, req in enumerate(sequence):
        sent = time.perf_counter()
        try:
            status, raw = connection.exchange(req.wire)
        except (OSError, ValueError):
            status, raw = 0, b""
        latency = time.perf_counter() - sent
        keep = position < keep_head or bool(keep_every and position % keep_every == 0)
        keep = keep or status != 200
        samples.append(Sample(latency, status, len(raw), raw if keep else b"", req, keep))
        if status == 0:
            try:
                connection.reconnect()
            except OSError:
                break
    marks.append((started, time.perf_counter()))
    out.append(samples)


def run_round(
    connections: list[Connection],
    sequences: list[list[Req]],
    checker: Checker,
    verify_head: int,
    verify_every: int,
) -> RoundResult:
    """Drive one round; verify the kept bodies once every client is done.

    The first ``verify_head`` exchanges of each client and every
    ``verify_every``-th after them are verified; all others count by status.
    """
    barrier = threading.Barrier(len(sequences))
    out: list[list[Sample]] = []
    marks: list[tuple[float, float]] = []
    threads = [
        threading.Thread(
            target=_client,
            args=(connection, sequence, verify_head, verify_every, barrier, out, marks),
            daemon=True,
        )
        for connection, sequence in zip(connections, sequences)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = [sample for client in out for sample in client]
    attempted = sum(len(sequence) for sequence in sequences)
    for sample in samples:
        if sample.verify:
            checker.verify(sample.status, sample.raw, sample.req)
        else:
            checker.count(sample.status, sample.req)
    # A client that lost its connection for good leaves requests unsent.
    for _ in range(attempted - len(samples)):
        checker.count(0, sequences[0][0])
    wall = max(end for _, end in marks) - min(start for start, _ in marks)
    return RoundResult(samples, wall)


def run_rounds(
    connections: list[Connection],
    rounds: Iterable[list[list[Req]]],
    checker: Checker,
    verify_head: int,
    verify_every: int,
) -> Iterator[RoundResult]:
    """Back-to-back rounds with one calibration between each two.

    Each round carries the slowdown factor of its own interval, so drift in
    the box's speed is followed round by round.
    """
    before_ms = calibration_ms()
    for sequences in rounds:
        result = run_round(connections, sequences, checker, verify_head, verify_every)
        after_ms = calibration_ms()
        result.slowdown = slowdown(before_ms, after_ms)
        before_ms = after_ms
        yield result

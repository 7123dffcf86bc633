"""Dependency-free metrics: counters, gauges, mergeable histograms, Prometheus text.

The serving stack needs operational visibility without growing a dependency:
this module is plain stdlib (``threading`` + ``bisect``) and provides the three
Prometheus metric kinds the ROADMAP's load-harness item asks for:

* :class:`Counter` -- monotone totals, optionally labelled
  (``requests_total{status="ok"}``);
* :class:`Gauge` -- point-in-time levels (resident documents);
* :class:`Histogram` -- **fixed-bucket** latency/size distributions.  Fixed
  buckets are the whole design: two histograms with the same bucket bounds
  merge by summing their bucket arrays, so worker processes can ship their
  histograms over the existing shard control channel and the parent adds them
  up -- fleet-wide p50/p99 without any sketch library.

Every metric lives in a :class:`MetricsRegistry`.  :meth:`MetricsRegistry.render`
emits the Prometheus text exposition format (``GET /metrics``);
:meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.merge_snapshot` are
the cross-process halves: a snapshot is a plain picklable dict of bucket
arrays and counter values, and merging sums value-by-value (gauges sum too --
per-shard levels aggregate to fleet levels).

All operations are thread-safe; the per-family lock is held for a dict update
and an array increment, so the hot-path cost of ``observe()`` is a bisect plus
two additions -- cheap enough to leave enabled in production (the service
benchmark gates the overhead at < 5%).

The module-level :data:`REGISTRY` is the process default every instrumented
subsystem records into; :data:`SLOW_LOG` is the slow-query ring buffer the
``/stats`` route surfaces.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import deque
from typing import Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "DEFAULT_LATENCY_BUCKETS",
    "REGISTRY",
    "SLOW_LOG",
    "percentile_from_buckets",
]

#: Default latency bucket upper bounds, in seconds: 100 microseconds to 10
#: seconds on a roughly-2.5x grid.  ``+Inf`` is implicit (the overflow slot).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Default bucket upper bounds for row/byte size distributions.
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_le(bound: float) -> str:
    """Bucket ``le`` label values (``0.005``, ``1``, ``+Inf``)."""
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


def percentile_from_buckets(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> Optional[float]:
    """Estimate the ``q``-percentile from fixed-bucket counts.

    ``bounds`` are the finite ascending upper bounds and ``counts`` the
    non-cumulative per-bucket tallies (``len(bounds) + 1`` slots, overflow
    last).  The estimate interpolates linearly *within* the bucket holding the
    rank -- the same scheme as Prometheus's ``histogram_quantile`` -- so it is
    exact to within one bucket width, which is all a fixed grid can promise.
    Observations in the ``+Inf`` overflow slot clamp to the last finite bound.
    Returns ``None`` on an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("percentile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for slot, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count:
            if slot >= len(bounds):
                return float(bounds[-1])
            lower = float(bounds[slot - 1]) if slot > 0 else 0.0
            upper = float(bounds[slot])
            fraction = max(0.0, rank - previous) / count
            return lower + (upper - lower) * fraction
    return float(bounds[-1])  # pragma: no cover - all mass in the overflow slot


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labelnames: Sequence[str], key: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label(value)}"' for name, value in zip(labelnames, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Family:
    """Common machinery: labelled sample keys behind one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        # Compared against each call's keyword names: no set is built per call.
        self._labelset = frozenset(self.labelnames)
        self._lock = threading.Lock()
        self._values: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if labels.keys() != self._labelset:
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple([str(labels[name]) for name in self.labelnames])

    def label_sets(self) -> list[tuple[str, ...]]:
        """Every label-value combination this family has seen, sorted."""
        with self._lock:
            return sorted(self._values)


class Counter(_Family):
    """A monotonically increasing total (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    def _render(self) -> Iterable[str]:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield f"{self.name}{_render_labels(self.labelnames, key)} {_format_value(value)}"

    def _snapshot_values(self) -> dict:
        with self._lock:
            return {json.dumps(list(key)): value for key, value in self._values.items()}

    def _merge_values(self, values: dict) -> None:
        with self._lock:
            for encoded, value in values.items():
                key = tuple(json.loads(encoded))
                self._values[key] = self._values.get(key, 0.0) + value


class Gauge(_Family):
    """A settable level.  Merging snapshots *sums* gauges: per-shard resident
    counts aggregate to the fleet total."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))

    _render = Counter._render
    _snapshot_values = Counter._snapshot_values
    _merge_values = Counter._merge_values


class Histogram(_Family):
    """A fixed-bucket distribution; bucket arrays merge across processes.

    ``buckets`` are ascending finite upper bounds; an implicit ``+Inf``
    overflow slot is appended.  Each label combination holds ``(counts, sum)``
    where ``counts[i]`` is the number of observations in bucket ``i`` (NOT
    cumulative -- cumulation happens at render time, summation at merge time).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be a non-empty ascending sequence")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            entry = self._values.get(key)
            if entry is None:
                entry = [[0] * (len(self.buckets) + 1), 0.0]
                self._values[key] = entry
            entry[0][slot] += 1
            entry[1] += value

    def totals(self, **labels: object) -> tuple[int, float]:
        """``(count, sum)`` for one label combination (0, 0.0 if unseen)."""
        with self._lock:
            entry = self._values.get(self._key(labels))
            if entry is None:
                return 0, 0.0
            return sum(entry[0]), float(entry[1])

    def bucket_counts(self, **labels: object) -> list[int]:
        """The raw (non-cumulative) bucket array, ``+Inf`` slot included."""
        with self._lock:
            entry = self._values.get(self._key(labels))
            return [0] * (len(self.buckets) + 1) if entry is None else list(entry[0])

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        """Approximate quantile: the upper bound of the bucket holding it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        counts = self.bucket_counts(**labels)
        total = sum(counts)
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        for slot, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank:
                return self.buckets[slot] if slot < len(self.buckets) else float("inf")
        return float("inf")  # pragma: no cover - defensive

    def percentile(self, q: float, **labels: object) -> Optional[float]:
        """Interpolated quantile (see :func:`percentile_from_buckets`)."""
        return percentile_from_buckets(self.buckets, self.bucket_counts(**labels), q)

    def _render(self) -> Iterable[str]:
        with self._lock:
            items = sorted((key, (list(entry[0]), entry[1])) for key, entry in self._values.items())
        bounds = self.buckets + (float("inf"),)
        for key, (counts, total) in items:
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                labels = _render_labels(
                    self.labelnames, key, extra=f'le="{_format_le(bound)}"'
                )
                yield f"{self.name}_bucket{labels} {cumulative}"
            plain = _render_labels(self.labelnames, key)
            yield f"{self.name}_sum{plain} {_format_value(total)}"
            yield f"{self.name}_count{plain} {cumulative}"

    def _snapshot_values(self) -> dict:
        with self._lock:
            return {
                json.dumps(list(key)): [list(entry[0]), entry[1]]
                for key, entry in self._values.items()
            }

    def _merge_values(self, values: dict) -> None:
        with self._lock:
            for encoded, (counts, total) in values.items():
                key = tuple(json.loads(encoded))
                entry = self._values.get(key)
                if entry is None:
                    entry = [[0] * (len(self.buckets) + 1), 0.0]
                    self._values[key] = entry
                if len(counts) != len(entry[0]):
                    raise ValueError(
                        f"histogram {self.name!r}: cannot merge {len(counts)} buckets "
                        f"into {len(entry[0])}"
                    )
                for slot, count in enumerate(counts):
                    entry[0][slot] += count
                entry[1] += total


class MetricsRegistry:
    """A named set of metric families, renderable and mergeable.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: instrumented
    modules can declare the same family independently and share it (redeclaring
    with a different configuration is an error, not a silent fork).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: "dict[str, _Family]" = {}

    def _get_or_create(self, factory, name: str, help: str, labelnames, **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, factory) or existing.labelnames != tuple(labelnames):
                    raise ValueError(f"metric {name!r} already registered with another shape")
                return existing
            family = factory(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda family: family.name)
        for family in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family._render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """A plain picklable dict of every family's configuration and values.

        This is what shard workers ship over the control channel; the parent
        feeds it to :meth:`merge_snapshot`.
        """
        with self._lock:
            families = list(self._families.values())
        payload: dict = {}
        for family in families:
            entry = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "values": family._snapshot_values(),
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
            payload[family.name] = entry
        return payload

    def merge_snapshot(self, snapshot: dict) -> None:
        """Sum a :meth:`snapshot` into this registry (creating families)."""
        factories = {"counter": self.counter, "gauge": self.gauge, "histogram": self.histogram}
        for name, entry in snapshot.items():
            factory = factories.get(entry["kind"])
            if factory is None:
                raise ValueError(f"unknown metric kind {entry['kind']!r} for {name!r}")
            if entry["kind"] == "histogram":
                family = factory(
                    name, entry["help"], entry["labelnames"], buckets=entry["buckets"]
                )
            else:
                family = factory(name, entry["help"], entry["labelnames"])
            family._merge_values(entry["values"])

    def reset(self) -> None:
        """Zero every family's samples, keeping the families registered.

        Values are cleared *in place* so module-level metric handles stay
        valid -- shard workers call this right after the fork to drop the
        counts inherited from the parent without orphaning the ``Counter`` /
        ``Histogram`` objects instrumented modules captured at import time.
        """
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with family._lock:
                family._values.clear()


class SlowQueryLog:
    """A bounded ring buffer of the slowest-looking requests.

    Requests at or above ``threshold_ms`` are recorded (newest last) with
    whatever attribution the caller passes -- the ``/stats`` route surfaces
    the entries so an operator sees *which* queries are slow, not just that
    the latency histogram has a tail.
    """

    def __init__(self, capacity: int = 64, threshold_ms: float = 100.0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        self._entries: "deque[dict]" = deque(maxlen=capacity)
        self._recorded = 0

    def maybe_record(self, elapsed_ms: float, **fields: object) -> bool:
        """Record iff ``elapsed_ms`` is at or over the threshold."""
        if elapsed_ms < self.threshold_ms:
            return False
        entry = {"elapsed_ms": round(elapsed_ms, 3), **fields}
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        return True

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "threshold_ms": self.threshold_ms,
                "recorded": self._recorded,
                "entries": list(self._entries),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._recorded = 0


#: The process-default registry every instrumented subsystem records into.
#: Shard worker processes reset it right after the fork, so worker snapshots
#: never double-count metrics inherited from the parent.
REGISTRY = MetricsRegistry()

#: The process-default slow-query ring buffer (surfaced under ``/stats``).
SLOW_LOG = SlowQueryLog()

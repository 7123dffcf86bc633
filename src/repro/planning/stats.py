"""Per-document statistics feeding the cost-based planner.

Measured once per tree (:meth:`DocumentStats.of_tree` is memoized, and
:meth:`DocumentStore.register_tree` calls it next to the axis index build, so
every input here is one O(n) array sweep away): node count, depth and fanout
profiles, and the label-frequency histogram.  Two derived quantities matter
downstream:

* the **average depth** doubles as the average descendant count -- summing
  ``|descendants(v)|`` over all nodes counts each node once per proper
  ancestor, i.e. ``sum(depth)`` -- which calibrates the subtree axes
  (``Child+``, ``Child*``, ``Ancestor``);
* the **label histogram** gives per-variable domain selectivities
  (``count(label) / n``).

SQL plans -- the only plans that read stats -- are cached per canonical query
x *stats bucket* (:meth:`DocumentStats.bucket`): a stable string of log-scale
size classes plus a digest of the log-bucketed histogram.  Re-registering a
document with a materially different tree lands in a different bucket, so
cached estimates invalidate naturally; cosmetic changes (a handful of nodes)
keep the bucket and reuse the plan.

Accel-only documents have no resident tree, only a node count
(:meth:`DocumentStats.approximate`): shape statistics fall back to
balanced-tree heuristics and unknown labels to the full domain, and the
bucket is marked approximate so it never collides with measured stats.
"""

from __future__ import annotations

import math
import weakref
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

from ..trees.tree import Tree


def _log_bucket(value: float) -> int:
    """A power-of-two size class: 0, 1, 2, 4, 8, ... collapse to 0, 1, 2, 3, 4."""
    if value < 1:
        return 0
    return int(value).bit_length()


@dataclass(frozen=True, eq=False)
class DocumentStats:
    """Cheap per-document shape statistics (one O(n) pass at registration)."""

    nodes: int
    depth_max: int
    depth_avg: float
    fanout_max: int
    fanout_avg: float
    #: Nodes per label name (the inverted-index sizes).
    label_counts: Mapping[str, int] = field(default_factory=dict)
    #: True when derived from a node count alone (accel-only documents).
    approximate: bool = False

    @classmethod
    def of_tree(cls, tree: Tree) -> "DocumentStats":
        """Measure a finalised tree, once: later calls return the same value.

        Trees are immutable, so the measurement never needs invalidation; the
        memo holds trees weakly and dies with them.
        """
        stats = _MEASURED.get(tree)
        if stats is None:
            stats = _MEASURED[tree] = cls._measure(tree)
        return stats

    @classmethod
    def _measure(cls, tree: Tree) -> "DocumentStats":
        n = len(tree)
        depths = tree.depth
        fanouts = [len(children) for children in tree.children_of]
        internal = sum(1 for fanout in fanouts if fanout)
        return cls(
            nodes=n,
            depth_max=max(depths),
            depth_avg=sum(depths) / n,
            fanout_max=max(fanouts),
            fanout_avg=(n - 1) / internal if internal else 0.0,
            label_counts={
                label: len(tree.nodes_with_label(label)) for label in sorted(tree.alphabet())
            },
        )

    @classmethod
    def approximate_from_nodes(cls, nodes: int) -> "DocumentStats":
        """Balanced-shape heuristics for a document known only by node count."""
        nodes = max(1, nodes)
        log_n = max(1.0, math.log2(nodes)) if nodes > 1 else 0.0
        return cls(
            nodes=nodes,
            depth_max=int(2 * log_n),
            depth_avg=log_n,
            fanout_max=max(2, int(log_n)),
            fanout_avg=2.0 if nodes > 1 else 0.0,
            label_counts={},
            approximate=True,
        )

    def label_count(self, label: str) -> Optional[int]:
        """Nodes carrying ``label``; ``None`` when unknown (approximate stats)."""
        if self.approximate and label not in self.label_counts:
            return None
        return self.label_counts.get(label, 0)

    def bucket(self) -> str:
        """The plan-cache key component: log-scale size classes plus a label digest.

        Stable across cosmetic re-registrations, different whenever the tree
        changed materially (node-count, depth or fanout size class, or any
        label's frequency class) -- which is exactly the plan-invalidation
        granularity the cache wants.  Computed once per (frozen) stats object:
        the plan cache asks on every request.
        """
        return self._bucket

    @cached_property
    def _bucket(self) -> str:
        histogram = sorted(
            (label, _log_bucket(count)) for label, count in self.label_counts.items()
        )
        digest = zlib.crc32(repr(histogram).encode("utf-8")) & 0xFFFFFFFF
        prefix = "~" if self.approximate else ""
        return (
            f"{prefix}n{_log_bucket(self.nodes)}"
            f"d{_log_bucket(self.depth_max)}"
            f"f{_log_bucket(self.fanout_max)}"
            f"L{digest:08x}"
        )

    def describe(self) -> dict:
        """A JSON-friendly rendering (the EXPLAIN surface)."""
        return {
            "nodes": self.nodes,
            "depth_max": self.depth_max,
            "depth_avg": round(self.depth_avg, 3),
            "fanout_max": self.fanout_max,
            "fanout_avg": round(self.fanout_avg, 3),
            "labels": len(self.label_counts),
            "approximate": self.approximate,
            "bucket": self.bucket(),
        }


#: :meth:`DocumentStats.of_tree`'s memo: every plan over one tree reads one value.
_MEASURED: "weakref.WeakKeyDictionary[Tree, DocumentStats]" = weakref.WeakKeyDictionary()

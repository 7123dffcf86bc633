"""The document store: trees registered once, per-tree artifacts kept resident.

Single-query evaluation rebuilds everything per call: the tree, its
:class:`~repro.trees.index.AxisIndex` (one O(n) pre/post sweep plus rank
arrays), and the per-label candidate sets the initial domains start from.  A
server answering a stream of queries over the same documents should pay those
costs once.  :class:`DocumentStore` registers trees under stable document ids
and keeps resident, per document:

* the finalised :class:`~repro.trees.tree.Tree` and its
  :class:`~repro.trees.structure.TreeStructure`,
* the tree's interval ``AxisIndex`` (forced eagerly at registration, so the
  first query does not pay the build),
* the label inverted index -- every label's candidate frozenset, warmed
  through :meth:`TreeStructure.unary_member_set` so initial-domain
  construction never re-materializes them.

Eviction is explicit (:meth:`evict`, :meth:`clear`) plus an optional LRU
``capacity`` bound, so an embedding process controls its own memory.  All
operations are thread-safe; the executor's worker threads share the store.

Documents larger than the resident budget can instead be registered
**accel-only** (:meth:`register_tree_accel_only`): the tree is written to the
SQLite accel backend and then dropped -- no resident ``Tree``, structure or
axis index -- leaving the document queryable exclusively through the SQL
engine's streamed, bounded-memory path.  :meth:`residency` reports which of
the two worlds a document lives in; documents found in a (file-backed,
possibly pre-populated) accel database attach lazily on first lookup.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..observability.metrics import REGISTRY
from ..planning import DocumentStats
from ..trees.builders import parse_sexpr
from ..trees.structure import TreeStructure
from ..trees.tree import Tree
from ..trees.xmlio import from_xml, from_xml_file

STORE_LOOKUPS = REGISTRY.counter(
    "cqtrees_store_lookups_total",
    "Resident-document lookups by result (hit / miss).",
    ("result",),
)
#: Refreshed by the executors at metrics-render time (the store itself does
#: not know when it is being scraped).
DOCUMENTS_RESIDENT = REGISTRY.gauge(
    "cqtrees_documents_resident",
    "Documents resident in this process's serving store.",
)


class DocumentNotFound(KeyError):
    """Raised when a request references a document id that is not resident."""

    def __init__(self, doc_id: str):
        super().__init__(doc_id)
        self.doc_id = doc_id

    def __str__(self) -> str:
        return f"unknown document id {self.doc_id!r}"


@dataclass
class StoredDocument:
    """One resident document: the tree plus its warm evaluation artifacts."""

    doc_id: str
    tree: Tree
    structure: TreeStructure
    source: str
    registered_at: float = field(default_factory=time.time)

    @property
    def nodes(self) -> int:
        return len(self.tree)

    def describe(self) -> dict:
        """A JSON-friendly summary (used by the HTTP front end and the CLI)."""
        return {
            "doc": self.doc_id,
            "nodes": self.nodes,
            "labels": len(self.tree.alphabet()),
            "source": self.source,
        }


class DocumentStore:
    """Registered trees with resident indexes and explicit eviction.

    Parameters
    ----------
    capacity:
        Optional LRU bound on the number of resident documents.  Registering
        beyond it evicts the least recently used document (use counts as a
        touch).  ``None`` means unbounded -- eviction is entirely explicit.
    accel_backend:
        Optional :class:`~repro.backends.sqlite.SQLiteBackend` every
        registered tree is mirrored into (via ``ensure_document``, so
        re-registering an unchanged document is a no-op).  A file-backed
        mirror makes registered documents queryable out-of-core and across
        restarts; eviction from the in-memory store never drops accel rows.
    """

    def __init__(self, capacity: Optional[int] = None, accel_backend=None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self.accel_backend = accel_backend
        self._documents: "OrderedDict[str, StoredDocument]" = OrderedDict()
        # Accel-only documents: doc id -> the approximate planner statistics
        # (all a node count gives), built once per registration or attach.
        self._accel_only: dict[str, DocumentStats] = {}
        self._lock = threading.RLock()
        self._registered = 0
        self._evicted = 0
        self._hits = 0
        self._misses = 0

    # -- registration ----------------------------------------------------------

    def register_tree(self, doc_id: str, tree: Tree, source: str = "tree") -> StoredDocument:
        """Register a finalised tree and warm its evaluation artifacts."""
        if not doc_id:
            raise ValueError("document id must be a non-empty string")
        structure = TreeStructure(tree)
        structure.index  # force the O(n) interval index build at registration
        for label in tree.alphabet():
            structure.unary_member_set(label)  # warm the label inverted index
        DocumentStats.of_tree(tree)  # measure the planner statistics now (memoized per tree)
        document = StoredDocument(doc_id, tree, structure, source)
        if self.accel_backend is not None:
            self.accel_backend.ensure_document(doc_id, tree)
        with self._lock:
            if doc_id in self._documents:
                # Re-registration replaces the resident artifacts in place.
                del self._documents[doc_id]
            # A resident registration upgrades a previously accel-only doc.
            self._accel_only.pop(doc_id, None)
            self._documents[doc_id] = document
            self._registered += 1
            if self.capacity is not None:
                while len(self._documents) > self.capacity:
                    evicted_id, _ = self._documents.popitem(last=False)
                    self._evicted += 1
        return document

    def register_tree_accel_only(self, doc_id: str, tree: Tree, source: str = "tree") -> dict:
        """Register a tree into the accel backend only: the out-of-core path.

        The tree is written to SQLite (rows + labels + rank columns) and
        nothing is kept resident -- callers typically discard the in-memory
        ``Tree`` right after, so a document far larger than RAM stays
        queryable through the SQL engine's streamed answers.  Returns the
        JSON-friendly summary :meth:`describe` would report.
        """
        if not doc_id:
            raise ValueError("document id must be a non-empty string")
        if self.accel_backend is None:
            raise ValueError("accel-only registration requires an accel backend")
        self.accel_backend.ensure_document(doc_id, tree)
        nodes = len(tree)
        with self._lock:
            self._accel_only[doc_id] = DocumentStats.approximate_from_nodes(nodes)
            self._registered += 1
        return {"doc": doc_id, "nodes": nodes, "source": source, "accel_only": True}

    def register_xml(self, doc_id: str, text: str) -> StoredDocument:
        """Parse an XML string and register the resulting tree."""
        return self.register_tree(doc_id, from_xml(text), source="xml")

    def register_xml_file(self, doc_id: str, path: str) -> StoredDocument:
        """Parse an XML file and register the resulting tree."""
        return self.register_tree(doc_id, from_xml_file(path), source=path)

    def register_sexpr(self, doc_id: str, text: str) -> StoredDocument:
        """Parse an s-expression tree and register it."""
        return self.register_tree(doc_id, parse_sexpr(text), source="sexpr")

    def register_payload(self, payload: dict, allow_files: bool = False) -> StoredDocument:
        """Register from a JSON payload (the HTTP and JSONL wire format).

        ``{"doc": id, "xml": text}`` or ``{"doc": id, "sexpr": text}``; with
        ``allow_files`` also ``{"doc": id, "xml_file": path}``.  File
        registration is opt-in because a path names a *server-side* resource
        -- the HTTP front end must not let remote clients read the server's
        filesystem, while the CLI (same trust domain) may.
        """
        doc_id = payload.get("doc")
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError("registration needs a non-empty 'doc' document id")
        allowed = ("xml", "xml_file", "sexpr") if allow_files else ("xml", "sexpr")
        sources = [key for key in allowed if payload.get(key) is not None]
        if len(sources) != 1:
            choices = ", ".join(f"'{key}'" for key in allowed)
            raise ValueError(f"provide exactly one of {choices}")
        source = sources[0]
        text = payload[source]
        if not isinstance(text, str):
            raise ValueError(f"'{source}' must be a string")
        if source == "xml":
            return self.register_xml(doc_id, text)
        if source == "xml_file":
            return self.register_xml_file(doc_id, text)
        return self.register_sexpr(doc_id, text)

    # -- lookup ----------------------------------------------------------------

    def get(self, doc_id: str) -> StoredDocument:
        """The resident document for ``doc_id`` (an LRU touch); raises otherwise."""
        with self._lock:
            document = self._documents.get(doc_id)
            if document is None:
                self._misses += 1
                STORE_LOOKUPS.inc(result="miss")
                raise DocumentNotFound(doc_id)
            self._documents.move_to_end(doc_id)
            self._hits += 1
            STORE_LOOKUPS.inc(result="hit")
            return document

    def stats_for(self, doc_id: str) -> DocumentStats:
        """Planner statistics for a document, wherever it lives.

        Resident documents return the exact registration-time statistics.
        Accel-only documents only have a node count in the registry (the tree
        itself was dropped), so they get the approximate profile --
        ``DocumentStats.approximate_from_nodes`` -- which the estimators treat
        conservatively (unknown labels fall back to full domains).  It is
        built once, when the document is registered or lazily attached.
        """
        with self._lock:
            document = self._documents.get(doc_id)
            if document is not None:
                return DocumentStats.of_tree(document.tree)
        residency = self.residency(doc_id)
        if residency == "resident":  # registered between the two lookups
            return self.stats_for(doc_id)
        if residency == "accel":
            with self._lock:
                stats = self._accel_only.get(doc_id)
            # ``None``: upgraded to resident between the two lookups.
            return stats if stats is not None else self.stats_for(doc_id)
        raise DocumentNotFound(doc_id)

    def residency(self, doc_id: str) -> Optional[str]:
        """Where a document lives: ``"resident"``, ``"accel"`` or ``None``.

        Documents present in the accel backend but never registered through
        this store (e.g. a file-backed database populated by another process
        or a previous run) attach lazily: the first lookup records them in
        the accel-only registry, so shards sharing one database file agree on
        residency without any registration broadcast.
        """
        with self._lock:
            if doc_id in self._documents:
                return "resident"
            if doc_id in self._accel_only:
                return "accel"
        if self.accel_backend is not None:
            nodes = self.accel_backend.document_nodes(doc_id)
            if nodes is not None:
                with self._lock:
                    if doc_id not in self._documents:
                        self._accel_only.setdefault(
                            doc_id, DocumentStats.approximate_from_nodes(nodes)
                        )
                        return "accel"
                return "resident"
        return None

    def accel_only(self, doc_id: str) -> bool:
        """True iff the document is queryable only through the accel backend."""
        return self.residency(doc_id) == "accel"

    def __contains__(self, doc_id: str) -> bool:
        return self.residency(doc_id) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents) + len(
                [doc for doc in self._accel_only if doc not in self._documents]
            )

    def doc_ids(self) -> list[str]:
        with self._lock:
            resident = list(self._documents)
            return resident + [doc for doc in self._accel_only if doc not in self._documents]

    def describe(self) -> list[dict]:
        with self._lock:
            described = [document.describe() for document in self._documents.values()]
            accel_only = {
                doc: stats.nodes
                for doc, stats in self._accel_only.items()
                if doc not in self._documents
            }
        backend = self.accel_backend
        for doc, nodes in accel_only.items():
            described.append(
                {
                    "doc": doc,
                    "nodes": nodes,
                    "labels": backend.document_label_count(doc) if backend is not None else 0,
                    "source": "accel",
                    "accel_only": True,
                }
            )
        return described

    # -- eviction --------------------------------------------------------------

    def evict(self, doc_id: str) -> bool:
        """Drop one document (and its artifacts); ``True`` iff it was resident."""
        with self._lock:
            if doc_id in self._documents:
                del self._documents[doc_id]
                self._evicted += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every resident document."""
        with self._lock:
            self._evicted += len(self._documents)
            self._documents.clear()

    # -- statistics ------------------------------------------------------------

    def refresh_metrics(self) -> None:
        """Push point-in-time levels into the metrics registry (pre-scrape)."""
        with self._lock:
            DOCUMENTS_RESIDENT.set(len(self._documents))

    def stats(self) -> dict:
        with self._lock:
            return {
                "documents": len(self._documents),
                "accel_only_documents": len(
                    [doc for doc in self._accel_only if doc not in self._documents]
                ),
                "resident_nodes": sum(d.nodes for d in self._documents.values()),
                "capacity": self.capacity,
                "registered": self._registered,
                "evicted": self._evicted,
                "hits": self._hits,
                "misses": self._misses,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DocumentStore({self.doc_ids()!r})"


def preload(store: DocumentStore, documents: Iterable[tuple[str, str]]) -> list[StoredDocument]:
    """Register ``(doc_id, xml_path)`` pairs (the CLI's ``--document`` flags)."""
    return [store.register_xml_file(doc_id, path) for doc_id, path in documents]

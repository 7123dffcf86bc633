"""Answer checking: an in-process oracle, a checker that can fail, a digest.

The oracle evaluates a request with the library's sequential ``evaluate()``
on the generated tree -- no server, no query cache, no plan -- and renders the
three fields the serving contract fixes (``answers`` sorted with ``limit``
applied after sorting, ``count`` before the limit, ``truncated``).  A response
passes only if its rendering of those fields is byte-for-byte the oracle's.
"""

from __future__ import annotations

import hashlib
import json

from repro.evaluation import Engine, evaluate
from repro.queries import parse_query, xpath_to_cq
from repro.trees import Tree, TreeStructure

from .workloads import Req

CHECKED_FIELDS = ("answers", "count", "truncated")


class Oracle:
    """Expected ``answers``/``count``/``truncated`` renderings, memoized per query.

    k-ary heads are enumerated over a join tree: the default per-candidate
    path is quadratic in the document there (minutes for ``accel_10k``'s
    binary heads).  ``kary_engine`` names which of the two join-tree engines
    does it -- the one the server under test does *not* answer from, so that
    no enumerator is checked against itself.
    """

    def __init__(self, trees: dict[str, Tree], kary_engine: Engine):
        self._structures = {doc: TreeStructure(tree) for doc, tree in trees.items()}
        self._kary_engine = kary_engine
        self._answers: dict[tuple, list] = {}

    def expected(self, spec: dict) -> str:
        key = (spec["doc"], spec.get("query"), spec.get("xpath"))
        if key not in self._answers:
            query = xpath_to_cq(spec["xpath"]) if "xpath" in spec else parse_query(spec["query"])
            engine = self._kary_engine if query.arity > 1 else Engine.AUTO
            structure = self._structures[spec["doc"]]
            self._answers[key] = sorted(evaluate(query, structure, engine=engine))
        answers = self._answers[key]
        limit = spec.get("limit")
        truncated = limit is not None and len(answers) > limit
        shown = answers[:limit] if truncated else answers
        return json.dumps(
            {"answers": [list(a) for a in shown], "count": len(answers), "truncated": truncated}
        )


def rendering(raw: bytes) -> str:
    """The checked fields of a response body, rendered like the oracle's."""
    body = json.loads(raw)
    return json.dumps({name: body[name] for name in CHECKED_FIELDS})


class Checker:
    """Counts attempts and failures; verifies the responses it is handed."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.verified = 0
        self.first_failures: list[str] = []
        self._digest = hashlib.sha256()

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(message)

    def count(self, status: int, req: Req) -> None:
        """Account one exchange by status alone (``0`` = transport error)."""
        self.attempted += 1
        if status != 200:
            self._fail(f"HTTP {status or 'transport error'} for {req.spec}")

    def verify(self, status: int, raw: bytes, req: Req, digest: bool = False) -> None:
        """Account one exchange and compare its body with the oracle's."""
        self.attempted += 1
        if status != 200:
            self._fail(f"HTTP {status or 'transport error'} for {req.spec}: {raw[:120]!r}")
            return
        self.verified += 1
        try:
            got = rendering(raw)
        except (ValueError, KeyError, TypeError) as error:
            self._fail(f"unreadable body for {req.spec}: {error!r}")
            return
        if digest:
            self._digest.update(req.wire)
            self._digest.update(got.encode("utf-8"))
        if got != self.oracle.expected(req.spec):
            self._fail(f"wrong answer for {req.spec}: got {got[:120]}")

    def digest(self) -> str:
        """SHA-256 over the requests and verified payloads of the warm-up pass."""
        return self._digest.hexdigest()

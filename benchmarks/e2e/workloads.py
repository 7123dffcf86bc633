"""The six end-to-end workloads: documents, deployments and request traffic.

Every workload is a closed-loop traffic mix against one deployment of the real
server.  Traffic is generated from the run's seed; the server only ever sees
the generated XML and the query text.  Requests carry ``doc``, ``query`` or
``xpath`` and ``limit`` -- never ``engine``/``propagator``/``routing``/``debug``
-- so the benchmark measures default routing.

The documents come from a fixed generator seed: measured in-process, the cost
of one pass over the ``kary_1k`` mix moves by 31 % (interquartile, ten
document seeds) with the random corpus, which would drown any bound this
benchmark could set.  The run's seed drives what a load generator varies --
request order and the churn queries.

A workload hands out traffic in *units* (one shuffled cycle of its mix, or one
block of fresh churn queries): rounds are whole numbers of units, so every
round of a workload has the same composition and per-round numbers are
comparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.queries import parse_query
from repro.queries.canonical import canonical_key
from repro.queries.simplify import simplify_query
from repro.service import shard_for
from repro.trees import Tree, to_xml
from repro.workloads import auction_document, random_corpus

from .serving import post_wire

#: Seed of the document generators (the one ``bench_service`` and
#: ``service_load`` use, so sizes and answer counts match the earlier files).
DOCUMENT_SEED = 42

#: Generator parameters per nominal size (actual node counts within ~6 %).
#: ``smoke`` is the ~300-node size of ``run.py --smoke``.
SIZES = {
    "smoke": {"auction": dict(num_items=17, num_people=9, num_bids=26), "sentences": 13},
    "1k": {"auction": dict(num_items=55, num_people=30, num_bids=85), "sentences": 45},
    "10k": {"auction": dict(num_items=560, num_people=300, num_bids=850), "sentences": 440},
}

#: The nine axes of the churn generator: the paper's ``Ax`` plus the two
#: document-order relations from the end of Section 4.
CHURN_AXES = (
    "Child",
    "Child+",
    "Child*",
    "NextSibling",
    "NextSibling+",
    "NextSibling*",
    "Following",
    "DocumentOrder",
    "SuccPre",
)

BIDDER_TRIANGLE = (
    "open_auction(a), Child(a, b1), bidder(b1), Child(a, b2), bidder(b2), Following(b1, b2)"
)
SENTENCE_PAIR = "S(s), Child+(s, x), NP(x), Child+(s, y), NN(y), Following(x, y)"

#: The mixed batch of ``bench_service.build_workload(10_000)`` with the
#: propagator overrides stripped: monadic and Boolean, datalog and XPath, an
#: alpha-renamed twin (slot 1) and a byte-identical resubmission (slot 11).
MIXED = (
    {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
    {"doc": "auction", "query": "R(it) <- payment(pay), item(it), Child(it, pay)"},
    {"doc": "auction", "xpath": "//description//listitem"},
    {"doc": "auction", "xpath": "//person[profile/interest]"},
    {"doc": "auction", "query": f"Q <- {BIDDER_TRIANGLE}"},
    {
        "doc": "auction",
        "query": "Q(i) <- item(i), Child(i, d), description(d), Child+(d, l), listitem(l)",
    },
    {"doc": "corpus", "query": "Q(x) <- NP(x), Child(x, y), NN(y)"},
    {"doc": "corpus", "xpath": "//NP[NN]"},
    {"doc": "corpus", "query": "Q(v) <- VP(v), Child(v, w), VB(w)"},
    {"doc": "corpus", "query": "Q <- NP(x), Following(x, y), PP(y)"},
    {"doc": "corpus", "xpath": "//VP[VB]/NP"},
    {"doc": "auction", "query": "Q(i) <- item(i), Child(i, p), payment(p)"},
)

#: Binary/ternary heads.  The first five run on the ``candidate_product``
#: path (tractable signature, one Boolean check per candidate head tuple),
#: the last two on the join-tree enumerator.
KARY = (
    {"doc": "auction", "query": "Q(d, l) <- description(d), Child+(d, l), listitem(l)"},
    {"doc": "auction", "query": "Q(i, p) <- item(i), Child(i, p), payment(p)"},
    {"doc": "corpus", "query": "Q(x, y) <- NP(x), Child(x, y), NN(y)"},
    {"doc": "corpus", "query": "Q(x, y) <- S(x), Child+(x, y), VB(y)"},
    {"doc": "corpus", "query": "Q(x, y) <- NP(x), Following(x, y), VB(y)", "limit": 10},
    {"doc": "auction", "query": f"Q(a, b1) <- {BIDDER_TRIANGLE}"},
    {"doc": "corpus", "query": f"Q(s, x, y) <- {SENTENCE_PAIR}"},
)

#: Large answer sets; each is sent unlimited and with ``limit: 10``.
ANSWERS = (
    {"doc": "auction", "query": "Q(x) <- Child+(r, x)"},
    {"doc": "auction", "query": "Q(x) <- item(i), Child+(i, x)"},
    {"doc": "auction", "xpath": "//description//listitem"},
    {"doc": "auction", "query": f"Q(a, b1, b2) <- {BIDDER_TRIANGLE}"},
    {"doc": "corpus", "query": f"Q(s, x, y) <- {SENTENCE_PAIR}"},
)

#: Shapes added to the mixed batch on the accel path (k-ary, streamed).
ACCEL_EXTRA = (
    {
        "doc": "auction",
        "query": "Q(i, l) <- item(i), Child(i, d), description(d), Child+(d, l), listitem(l)",
    },
    {"doc": "auction", "query": "Q(d, l) <- description(d), Child+(d, l), listitem(l)"},
)
#: On the accel path this one costs ~100 ms at 10k, so it is rationed.
ACCEL_RARE = {"doc": "auction", "xpath": "//description//listitem"}


@dataclass(frozen=True)
class Req:
    """One pre-encoded request: the bytes on the wire plus what the checker needs."""

    wire: bytes
    spec: dict = field(compare=False)
    #: Latency class for the per-class layer metrics ("novel", "limit", ...).
    klass: str = ""


def encode(spec: dict, klass: str = "") -> Req:
    return Req(post_wire("/query", json.dumps(spec).encode("utf-8")), spec, klass)


def body_of(req: Req) -> bytes:
    """The JSON body of a pre-encoded request (what the server validates)."""
    return req.wire.split(b"\r\n\r\n", 1)[1]


def balanced_doc_ids(doc_ids, shards: int) -> dict[str, str]:
    """Stable ids that spread the documents round-robin over the shards.

    Routing is by CRC-32 of the id; with two documents the hash may put both
    on one shard, and the benchmark would measure that coin flip instead of
    the architecture.  Ids are suffixed until each lands on its own shard.
    """
    mapping = {}
    for position, doc_id in enumerate(sorted(doc_ids)):
        suffix = 0
        candidate = doc_id
        while shard_for(candidate, shards) != position % shards:
            suffix += 1
            candidate = f"{doc_id}~{suffix}"
        mapping[doc_id] = candidate
    return mapping


class MixTraffic:
    """A fixed request mix; one unit is one seeded shuffle of the whole mix."""

    #: Verify the first unit of every client each round (covers every
    #: distinct request), nothing after it.
    verify_every = 0
    #: The warm-up pass, and so the answer digest, is the same for every seed.
    seeded_warmup = False

    def __init__(self, mix: list[Req], clients: int, seed: int, name: str):
        self.mix = mix
        self.unit_requests = len(mix)
        self._orders = []
        for client in range(clients):
            order = list(mix)
            random.Random(f"{seed}:{name}:{client}").shuffle(order)
            self._orders.append(order)

    def warmup(self) -> list[Req]:
        return list(self.mix)

    def round(self, units: int) -> list[list[Req]]:
        return [order * units for order in self._orders]


class ChurnTraffic:
    """Fresh random queries, each followed later by a renamed, shuffled twin.

    A unit is :attr:`unit_requests` requests per client, novel and renamed
    alternating.  Novel queries are never alpha-equivalent to an earlier one
    (deduplicated by canonical key across the whole run), so no query cache
    of any size can hit on them; every twin resubmits a novel query at most
    100 requests old under fresh variable names and atom order, so it misses
    the parse cache and hits the canonical entry.
    """

    unit_requests = 20
    #: Odd, so verification alternates between novel queries and twins.
    verify_every = 9
    seeded_warmup = True
    _TWIN_WINDOW = 50  # novel queries, i.e. <= 100 requests

    def __init__(self, trees: dict[str, Tree], clients: int, seed: int):
        self.clients = clients
        self._docs = sorted(trees)
        self._labels = {doc: sorted(tree.alphabet()) for doc, tree in trees.items()}
        self._seen: set[str] = set()
        # The warm-up pass feeds the frozen answer digest: it has its own
        # generator and is made once, so it is the same however many times a
        # run sets the server up and whatever traffic was drawn before.
        warmup_rng = random.Random(f"{seed}:churn:warmup")
        self._warmup = self._sequence(5 * self.unit_requests, warmup_rng)
        self._rng = random.Random(f"{seed}:churn")

    def _novel(self, rng: random.Random) -> tuple[str, str, list[str], list[str]]:
        """``(doc, head variable or "", variables, atoms)`` of an unseen query."""
        while True:
            doc = rng.choice(self._docs)
            variables = [f"v{i}" for i in range(rng.randint(2, 6))]
            atoms = [f"{rng.choice(self._labels[doc])}({v})" for v in variables]
            for i in range(1, len(variables)):
                pair = [variables[rng.randrange(i)], variables[i]]
                if rng.random() < 0.3:
                    pair.reverse()
                atoms.append(f"{rng.choice(CHURN_AXES)}({pair[0]}, {pair[1]})")
            if len(variables) >= 3 and rng.random() < 0.3:
                source, target = rng.sample(variables, 2)
                atoms.append(f"{rng.choice(CHURN_AXES)}({source}, {target})")
            head = variables[0] if rng.random() < 0.5 else ""
            key = canonical_key(simplify_query(parse_query(_render("Q", head, atoms))))
            if key not in self._seen:
                self._seen.add(key)
                return doc, head, variables, atoms

    def _twin(self, novel: tuple, serial: int, rng: random.Random) -> Req:
        doc, head, variables, atoms = novel
        fresh = [f"n{serial}_{i}" for i in range(len(variables))]
        rng.shuffle(fresh)
        renaming = dict(zip(variables, fresh))
        renamed = []
        for atom in atoms:
            predicate, arguments = atom[:-1].split("(")
            renamed.append(
                f"{predicate}({', '.join(renaming[a.strip()] for a in arguments.split(','))})"
            )
        rng.shuffle(renamed)
        text = _render("R", renaming.get(head, ""), renamed)
        return encode({"doc": doc, "query": text}, "renamed")

    def _sequence(self, length: int, rng: random.Random) -> list[Req]:
        recent: list[tuple] = []
        sequence: list[Req] = []
        while len(sequence) < length:
            novel = self._novel(rng)
            recent = (recent + [novel])[-self._TWIN_WINDOW :]
            doc, head, _variables, atoms = novel
            sequence.append(encode({"doc": doc, "query": _render("Q", head, atoms)}, "novel"))
            sequence.append(self._twin(rng.choice(recent), len(self._seen), rng))
        return sequence[:length]

    def warmup(self) -> list[Req]:
        return list(self._warmup)

    def round(self, units: int) -> list[list[Req]]:
        length = units * self.unit_requests
        return [self._sequence(length, self._rng) for _ in range(self.clients)]


def _render(name: str, head: str, atoms: list[str]) -> str:
    return f"{name}({head}) <- {', '.join(atoms)}" if head else f"{name} <- {', '.join(atoms)}"


def _answers_mix() -> list[tuple[dict, str]]:
    """Each query unlimited and with ``limit: 10``, plus one slot: 11 in all.

    With ten equally frequent requests the median falls exactly between the
    fifth and the sixth cheapest (12 and 18 ms here) and flips from run to
    run; the eleventh slot (the cheapest request once more) puts ``p50`` and
    ``p95`` inside a class of requests instead of on a boundary.
    """
    mix = []
    for spec in ANSWERS:
        mix.append((spec, "full"))
        mix.append(({**spec, "limit": 10}, "limit"))
    mix.append((ANSWERS[2], "full"))
    return mix


def _accel_mix() -> list[tuple[dict, str]]:
    """40 slots: 13 shapes x 3 with ``limit: 20`` on every other slot, plus the rare one."""
    shapes = [spec for spec in MIXED if spec != ACCEL_RARE] + list(ACCEL_EXTRA)
    mix = []
    for slot in range(3 * len(shapes)):
        spec = shapes[slot % len(shapes)]
        mix.append(({**spec, "limit": 20}, "limit") if slot % 2 else (spec, "full"))
    mix.append((ACCEL_RARE, "full"))
    return mix


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    clients: int
    serve_args: tuple[str, ...]
    why: str
    #: Documents live only in a pre-populated ``--accel-db`` (SQL engine).
    accel: bool = False
    shards: int = 0


WORKLOADS = (
    Workload(
        "mixed_10k",
        "10k",
        2,
        (),
        "reference traffic of every earlier BENCH file; evaluation is ~3/4 of a ~2.5 ms request",
    ),
    Workload(
        "point_1k_sharded",
        "1k",
        2,
        ("--async", "--shards", "2"),
        "evaluation ~0.2 ms, so async front end + shard IPC + encode dominate; "
        "a propagator speed-up must not move it",
        shards=2,
    ),
    Workload(
        "kary_1k",
        "1k",
        1,
        (),
        "k-ary heads: candidate_product enumeration (1-90 ms) beside the join-tree path (~2 ms)",
    ),
    Workload(
        "answers_10k",
        "10k",
        1,
        (),
        "up to 79 kB bodies sent unlimited and with limit 10: sort, encode, socket write; "
        "a limit-path gain that taxes the full path shows here",
    ),
    Workload(
        "churn_1k",
        "1k",
        1,
        (),
        "never-seen queries plus renamed twins bypass the query cache: "
        "parse, simplify, canonicalize, compile, decompose and plan dominate",
    ),
    Workload(
        "accel_10k",
        "10k",
        1,
        (),
        "accel-only documents: the only path through the SQLite backend "
        "(lowering, execution, streaming, COUNT under limit)",
        accel=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Instance:
    """One workload made concrete for a seed: documents plus traffic."""

    workload: Workload
    trees: dict[str, Tree]  # keyed by wire document id
    xml: dict[str, str]
    traffic: object


def instantiate(workload: Workload, seed: int, smoke: bool = False) -> Instance:
    params = SIZES["smoke" if smoke else workload.size]
    trees = {
        "auction": auction_document(seed=DOCUMENT_SEED, **params["auction"]),
        "corpus": random_corpus(seed=DOCUMENT_SEED, num_sentences=params["sentences"]),
    }
    ids = balanced_doc_ids(trees, workload.shards) if workload.shards else {d: d for d in trees}
    trees = {ids[doc]: tree for doc, tree in trees.items()}

    if workload.name == "churn_1k":
        traffic: object = ChurnTraffic(trees, workload.clients, seed)
    else:
        if workload.name == "kary_1k":
            mix = [(spec, "") for spec in KARY]
        elif workload.name == "answers_10k":
            mix = _answers_mix()
        elif workload.name == "accel_10k":
            mix = _accel_mix()
        else:
            mix = [(spec, "") for spec in MIXED]
        requests = [encode({**spec, "doc": ids[spec["doc"]]}, klass) for spec, klass in mix]
        traffic = MixTraffic(requests, workload.clients, seed, workload.name)
    xml = {doc: to_xml(tree) for doc, tree in trees.items()}
    return Instance(workload, trees, xml, traffic)

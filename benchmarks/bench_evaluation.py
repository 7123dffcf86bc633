"""Benchmark: engine comparison on the application workloads (Section 1).

Compares the planner's engines on realistic queries -- the Figure 1
linguistics query over a synthetic treebank corpus and the XML auction
queries -- covering acyclic (XPath-like) and cyclic (join) shapes.
"""

from __future__ import annotations

import pytest
from bench_config import scaled

from repro.evaluation import Engine, evaluate, is_satisfied
from repro.evaluation.backtracking import boolean_query_holds as bt_holds
from repro.trees import TreeStructure
from repro.workloads import (
    auction_document,
    busy_auction_query,
    described_items_query,
    figure1_query,
    items_with_payment_query,
    random_corpus,
    verb_with_object_query,
)

CORPUS = TreeStructure(random_corpus(scaled(25, 8), seed=0))
AUCTION = TreeStructure(
    auction_document(
        num_items=scaled(40, 8),
        num_people=scaled(20, 4),
        num_bids=scaled(40, 8),
        seed=0,
    )
)

LINGUISTIC_QUERIES = {
    "figure1": figure1_query(),
    "verb_object": verb_with_object_query(),
}

XML_QUERIES = {
    "items_with_payment": items_with_payment_query(),
    "described_items": described_items_query(),
    "busy_auction": busy_auction_query(),
}


@pytest.mark.parametrize("name", sorted(LINGUISTIC_QUERIES))
def test_linguistics_answers_planner(benchmark, name):
    query = LINGUISTIC_QUERIES[name]
    benchmark(lambda: evaluate(query, CORPUS))


@pytest.mark.parametrize("name", sorted(LINGUISTIC_QUERIES))
def test_linguistics_boolean_backtracking(benchmark, name):
    query = LINGUISTIC_QUERIES[name]
    benchmark(lambda: bt_holds(query, CORPUS))


@pytest.mark.parametrize("name", sorted(XML_QUERIES))
def test_xml_answers_planner(benchmark, name):
    query = XML_QUERIES[name]
    benchmark(lambda: evaluate(query, AUCTION))


@pytest.mark.parametrize("name", ["items_with_payment", "described_items"])
def test_xml_fixpoint_engine(benchmark, name):
    query = XML_QUERIES[name]
    benchmark(lambda: is_satisfied(query, AUCTION, engine=Engine.FIXPOINT))

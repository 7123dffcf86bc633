"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro.service import make_server
from repro.trees import Tree, from_nested, random_tree
from repro.trees.structure import TreeStructure


@pytest.fixture
def serve():
    """``serve(executor)``: the HTTP front end over ``executor`` on an ephemeral
    port, its loop on a thread; returns the server (``.server_address``).
    Every server started this way is stopped at teardown."""
    started = []

    def start(executor):
        httpd = make_server(executor)
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        started.append((httpd, thread))
        return httpd

    yield start
    for httpd, thread in started:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def sentence_tree() -> Tree:
    """The small parse tree used in many evaluation tests.

    Pre-order node ids::

        0 S
        1   NP
        2     DT
        3     NN
        4   VP
        5     VB
        6     NP
        7       NN
        8   PP
    """
    return from_nested(
        (
            "S",
            [
                ("NP", [("DT", []), ("NN", [])]),
                ("VP", [("VB", []), ("NP", [("NN", [])])]),
                ("PP", []),
            ],
        )
    )


@pytest.fixture
def sentence_structure(sentence_tree: Tree) -> TreeStructure:
    return TreeStructure(sentence_tree)


@pytest.fixture
def wide_tree() -> Tree:
    """A root with five leaf children labelled A..E (sibling-axis tests)."""
    return from_nested(("R", [("A", []), ("B", []), ("C", []), ("D", []), ("E", [])]))


@pytest.fixture
def medium_random_tree() -> Tree:
    return random_tree(40, alphabet=("A", "B", "C"), seed=7, unlabeled_probability=0.15)

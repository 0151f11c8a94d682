"""Shared fixtures: worked-example trees, and the deterministic random-tree
generator of ``random_trees`` re-exported for the tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from treetoric import graphs, trees
from treetoric.trees import ColoredTree, load_tree

from random_trees import random_tree  # noqa: F401  (re-exported for the tests)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

TREE_FIXTURES = [
    "colored_star",
    "uncolored_binary",
    "leafcolor_g1",
    "leafcolor_g2",
    "leafcolor_g3",
    "merge_adjacent",
    "merge_nonadjacent",
    "zeroed_block_g1",
    "zeroed_block_g2",
    "zeroed_block_g3",
    "path_star",
    "nonblock_toric_tree",
]


def fixture_tree(name: str) -> ColoredTree:
    return load_tree(FIXTURES / f"{name}.json")


@pytest.fixture
def colored_star():
    return fixture_tree("colored_star")


@pytest.fixture
def uncolored_binary():
    return fixture_tree("uncolored_binary")


@pytest.fixture
def path_star():
    return fixture_tree("path_star")


@pytest.fixture
def block_passes(monkeypatch):
    """Graphs passed to ``graphs._star_structure``, one per call."""
    calls = []
    original = graphs._star_structure

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "_star_structure", counted)
    return calls


@pytest.fixture
def leaf_lca_passes(monkeypatch):
    """Trees passed to ``trees._leaf_lca``, one per call."""
    calls = []
    original = trees._leaf_lca

    def counted(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(trees, "_leaf_lca", counted)
    return calls

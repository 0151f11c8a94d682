"""Tree parsing, validation, the leaf-pair lca table, paths and metrics.

The lca oracle (ancestor-set intersection, in ``oracles``) was implemented
first and used to compute the frozen tables below; it stays as the reference
for the randomized comparisons.
"""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric.errors import GraphError, TreeError
from treetoric.graphs import derive_graph, star_decomposition
from treetoric.monomials import path_map
from treetoric.trees import ColoredTree, parse_tree

from conftest import random_tree
from oracles import depth_oracle, image_exponents, lca_oracle, path_row_oracle


# ------------------------------------------------------------------ #
# parsing and validation                                               #
# ------------------------------------------------------------------ #

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)
_node_keys = st.integers(-1, 12).map(str) | st.text(max_size=3)
# Near-miss tree documents: every key optional, each value usually of the
# schema's shape but any JSON value at all some of the time.
_tree_documents = st.fixed_dictionaries(
    {},
    optional={
        "n_leaves": st.integers(-1, 6) | _json_values,
        "parents": st.dictionaries(_node_keys, st.integers(-1, 12) | _json_values, max_size=8)
        | _json_values,
        "colors": st.dictionaries(_node_keys, st.sampled_from("abc") | _json_values, max_size=8)
        | _json_values,
        "zeroed": st.lists(st.integers(-1, 12) | _json_values, max_size=3) | _json_values,
    },
)


class TestParse:
    def test_colored_star_document(self, colored_star):
        assert colored_star.n_leaves == 4
        assert colored_star.zeroed == {6}
        assert colored_star.color[1] == colored_star.color[2] == "cyan"
        assert colored_star.color[7] == "blue"
        assert colored_star.top_node() == 7

    def test_two_leaf_tree(self):
        t = parse_tree(
            json.dumps(
                {
                    "n_leaves": 2,
                    "parents": {"1": 3, "2": 3, "3": 0},
                    "colors": {"1": "a", "2": "b", "3": "c"},
                    "zeroed": [],
                }
            )
        )
        assert t.leaf_lca == {(0, 1): 0, (0, 2): 0, (1, 2): 3}

    def test_zeroed_top_node_rejected(self):
        doc = {
            "n_leaves": 2,
            "parents": {"1": 3, "2": 3, "3": 0},
            "colors": {"1": "a", "2": "b"},
            "zeroed": [3],
        }
        with pytest.raises(TreeError, match="zeroed top"):
            parse_tree(json.dumps(doc))

    def test_zeroed_leaf_rejected(self):
        with pytest.raises(TreeError):
            ColoredTree(2, {1: 3, 2: 3, 3: 0}, {2: "b", 3: "c"}, zeroed=[1])

    def test_shared_leaf_internal_color_rejected(self):
        with pytest.raises(TreeError, match="share colors"):
            ColoredTree(2, {1: 3, 2: 3, 3: 0}, {1: "a", 2: "b", 3: "a"})

    def test_color_on_zeroed_node_rejected(self):
        with pytest.raises(TreeError):
            ColoredTree(
                4,
                {1: 5, 2: 5, 3: 6, 4: 6, 5: 7, 6: 7, 7: 0},
                {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f", 7: "g"},
                zeroed=[6],
            )

    def test_disconnected_parent_map_rejected(self):
        with pytest.raises(TreeError):
            ColoredTree(2, {1: 3, 2: 4, 3: 0, 4: 4}, {1: "a", 2: "b", 3: "c", 4: "d"})

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            ColoredTree(
                2,
                {1: 3, 2: 4, 3: 4, 4: 3},
                {1: "a", 2: "b", 3: "c", 4: "d"},
            )

    def test_degenerate_chain_rejected(self):
        # internal node 4 with a single child
        with pytest.raises(TreeError, match="fewer than 2"):
            ColoredTree(
                2,
                {1: 4, 2: 3, 4: 3, 3: 0},
                {1: "a", 2: "b", 3: "c", 4: "d"},
            )

    def test_not_json(self):
        with pytest.raises(TreeError, match="JSON"):
            parse_tree("((1,2),3);")

    def test_noncontiguous_internal_ids_rejected_at_parse(self):
        doc = {
            "n_leaves": 2,
            "parents": {"1": 9, "2": 9, "9": 0},
            "colors": {"1": "a", "2": "b", "9": "c"},
        }
        with pytest.raises(TreeError, match="contiguous"):
            parse_tree(json.dumps(doc))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tree_documents.map(json.dumps) | _json_values.map(json.dumps) | st.text(max_size=20))
    def test_fuzzed_document_parses_or_raises_tree_error(self, text):
        try:
            tree = parse_tree(text)
        except TreeError:
            return
        assert isinstance(tree, ColoredTree)

    def test_single_leaf_tree(self):
        t = ColoredTree(1, {1: 0}, {1: "a"})
        assert t.leaf_lca == {(0, 1): 0}
        assert t.internal_nodes() == []


# ------------------------------------------------------------------ #
# lca                                                                  #
# ------------------------------------------------------------------ #

# Frozen from the ancestor-set oracle on the colored_star tree,
# over {0,1,2,3,4}: table[(i,j)] = lca.
COLORED_STAR_LCA = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0, (0, 4): 0,
    (1, 1): 1, (1, 2): 5, (1, 3): 6, (1, 4): 7,
    (2, 2): 2, (2, 3): 6, (2, 4): 7,
    (3, 3): 3, (3, 4): 7,
    (4, 4): 4,
}


def caterpillar(n: int) -> ColoredTree:
    """Leaves 1..n on a spine: internal node n+1 holds 1 and 2, and each
    next spine node holds one more leaf and the previous spine node."""
    parent = {1: n + 1, 2: n + 1}
    for k in range(3, n + 1):
        parent[k] = n + k - 1
        parent[n + k - 2] = n + k - 1
    parent[2 * n - 1] = 0
    return ColoredTree(n, parent, {i: f"c{i}" for i in parent})


def flat_star(n: int) -> ColoredTree:
    """Leaves 1..n all under the one internal node n+1."""
    parent = {i: n + 1 for i in range(1, n + 1)}
    parent[n + 1] = 0
    return ColoredTree(n, parent, {i: f"c{i}" for i in parent})


class TestLca:
    def test_colored_star_cherry(self, colored_star):
        assert colored_star.leaf_lca[1, 2] == 5

    def test_colored_star_table(self, colored_star):
        for (i, j), expected in COLORED_STAR_LCA.items():
            assert lca_oracle(colored_star, i, j) == expected
            assert lca_oracle(colored_star, j, i) == expected
        assert colored_star.leaf_lca == {
            (i, j): m for (i, j), m in COLORED_STAR_LCA.items() if i < j
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_oracle_on_random_trees(self, seed):
        t = random_tree(random.Random(seed), n_max=8)
        pairs = list(combinations([0] + t.leaves(), 2))
        assert t.leaf_lca == {(i, j): lca_oracle(t, i, j) for i, j in pairs}

    def test_matches_closed_form_on_wide_trees(self):
        # caterpillar: leaf j >= 3 meets every lower leaf at its parent n+j-1
        n = 300
        assert caterpillar(n).leaf_lca == {
            (i, j): max(n + 1, n + j - 1) if i else 0
            for i, j in combinations(range(n + 1), 2)
        }
        n = 400
        assert flat_star(n).leaf_lca == {
            (i, j): n + 1 if i else 0 for i, j in combinations(range(n + 1), 2)
        }


# ------------------------------------------------------------------ #
# paths and metrics                                                    #
# ------------------------------------------------------------------ #


class TestPaths:
    """Path-map rows against color counts over the BFS path."""

    def test_root_to_leaf(self, uncolored_binary):
        t = uncolored_binary
        m = path_map(t, derive_graph(t))
        row = image_exponents(m, ((("p", 0, 1), 1),))
        # the path 0-7-5-1 meets 7, 5 and 1 below its lca 0
        assert {tok: e for tok, e in zip(m.params, row) if e} == {"7": 1, "5": 1, "1": 1}
        assert row == path_row_oracle(t, m.params, 0, 1)

    def test_colored_star_cross_path_children(self, colored_star):
        t = colored_star
        m = path_map(t, derive_graph(t))
        row = image_exponents(m, ((("q", 1, 3), 1),))
        # the path 1-5-6-3 meets 1, 5 and 3 below its zeroed lca 6
        expected = {t.color[1]: 1, t.color[5]: 1, t.color[3]: 1}
        assert {tok: e for tok, e in zip(m.params, row) if e} == expected
        assert row == path_row_oracle(t, m.params, 1, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_path_matches_bfs_oracle(self, seed):
        t = random_tree(random.Random(seed), n_max=8)
        g = derive_graph(t)
        star = star_decomposition(g)
        if t.zeroed and star is None:  # no center coordinate
            with pytest.raises(GraphError):
                path_map(t, g)
            return
        m = path_map(t, g)
        center = star[0] if t.zeroed else None
        for i, j in combinations([0] + t.leaves(), 2):
            if (i, j) != (0, center):
                row = image_exponents(m, (((m.kind, i, j), 1),))
                assert row == path_row_oracle(t, m.params, i, j)


class TestMetrics:
    def test_depth_and_height_match_naive_oracle(self):
        rng = random.Random(41)
        trees = [random_tree(rng, n_max=12) for _ in range(60)] + [caterpillar(300)]
        for t in trees:
            assert t.depth(0) == 0
            for i in t.nodes():
                assert t.depth(i) == depth_oracle(t, i), i
        spine = caterpillar(300)
        assert spine.depth(1) == spine.depth(2) == 300  # below 299 spine nodes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_four_point_condition_on_leaf_quadruples(self, seed):
        # dist(a,b) = depth a + depth b - 2 depth lca(a,b), so the two largest
        # distance sums of a quadruple are its two smallest lca-depth sums
        t = random_tree(random.Random(seed), n_min=4, n_max=8)
        deep = {pair: t.depth(m) for pair, m in t.leaf_lca.items()}
        for a, b, c, d in combinations([0] + t.leaves(), 4):
            sums = sorted(
                (
                    deep[a, b] + deep[c, d],
                    deep[a, c] + deep[b, d],
                    deep[a, d] + deep[b, c],
                )
            )
            assert sums[0] == sums[1]

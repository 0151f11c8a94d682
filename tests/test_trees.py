"""Tree parsing, validation, lca, paths and metrics.

The lca oracle here (ancestor-set intersection) was implemented first and
used to compute the frozen tables below; it stays as the reference for the
randomized comparisons.
"""

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric.errors import TreeError
from treetoric.trees import ColoredTree, parse_tree

from conftest import random_tree


# ------------------------------------------------------------------ #
# oracles                                                              #
# ------------------------------------------------------------------ #


def ancestors(t: ColoredTree, i: int) -> list[int]:
    """Path from i up to the root 0, inclusive on both ends."""
    out = [i]
    while out[-1] != 0:
        out.append(t.parent[out[-1]])
    return out


def lca_oracle(t: ColoredTree, i: int, j: int) -> int:
    """Deepest element of the intersection of the two ancestor sets."""
    anc_i = ancestors(t, i)
    anc_j = set(ancestors(t, j))
    return next(a for a in anc_i if a in anc_j)


def bfs_path_oracle(t: ColoredTree, i: int, j: int) -> list[int]:
    """Vertex sequence of the i-j path by BFS on the undirected tree."""
    adj: dict[int, list[int]] = {0: []}
    for c, p in t.parent.items():
        adj.setdefault(c, []).append(p)
        adj.setdefault(p, []).append(c)
    prev = {i: None}
    frontier = [i]
    while j not in prev:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in prev:
                    prev[u] = v
                    nxt.append(u)
        frontier = nxt
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


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
        assert t.lca(1, 2) == 3

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
        assert t.lca(1, 1) == 1
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


def depth_oracle(t: ColoredTree, i: int) -> int:
    """Edges from i up to the root 0."""
    return len(ancestors(t, i)) - 1


def caterpillar(n: int) -> ColoredTree:
    """Leaves 1..n on a spine: internal node n+1 holds 1 and 2, and each
    next spine node holds one more leaf and the previous spine node."""
    parent = {1: n + 1, 2: n + 1}
    for k in range(3, n + 1):
        parent[k] = n + k - 1
        parent[n + k - 2] = n + k - 1
    parent[2 * n - 1] = 0
    return ColoredTree(n, parent, {i: f"c{i}" for i in parent})


class TestLca:
    def test_colored_star_cherry(self, colored_star):
        assert colored_star.lca(1, 2) == 5

    def test_colored_star_table(self, colored_star):
        for (i, j), expected in COLORED_STAR_LCA.items():
            assert colored_star.lca(i, j) == expected
            assert colored_star.lca(j, i) == expected
            assert lca_oracle(colored_star, i, j) == expected

    def test_reflexive(self, colored_star):
        for i in colored_star.nodes():
            assert colored_star.lca(i, i) == i

    def test_unknown_node(self, colored_star):
        with pytest.raises(TreeError, match="unknown"):
            colored_star.lca(1, 42)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_oracle_on_random_trees(self, seed):
        t = random_tree(random.Random(seed), n_max=8)
        queries = list(t.nodes()) + [0]
        for i in queries:
            for j in queries:
                assert t.lca(i, j) == lca_oracle(t, i, j)


# ------------------------------------------------------------------ #
# paths and metrics                                                    #
# ------------------------------------------------------------------ #


class TestPaths:
    def test_root_to_leaf(self, uncolored_binary):
        assert uncolored_binary.path_edges(0, 1) == [(0, 7), (7, 5), (5, 1)]

    def test_single_edge(self, colored_star):
        for i in colored_star.leaves():
            assert colored_star.path_edges(i, colored_star.parent[i]) == [
                (colored_star.parent[i], i)
            ]

    def test_colored_star_cross_path_children(self, colored_star):
        labels = {child for _, child in colored_star.path_edges(1, 3)}
        assert labels == {1, 5, 3}

    def test_same_endpoints_rejected(self, colored_star):
        with pytest.raises(TreeError):
            colored_star.path_edges(2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_path_matches_bfs_oracle(self, seed):
        t = random_tree(random.Random(seed), n_max=8)
        nodes = t.nodes() + [0]
        rng = random.Random(seed + 1)
        for _ in range(10):
            i, j = rng.sample(nodes, 2)
            edges = t.path_edges(i, j)
            verts = bfs_path_oracle(t, i, j)
            assert len(edges) == len(verts) - 1
            assert len(edges) == t.tree_distance(i, j)
            # every path edge joins consecutive oracle vertices
            steps = {frozenset(s) for s in zip(verts, verts[1:])}
            assert {frozenset(e) for e in edges} == steps


class TestMetrics:
    def test_distances(self, uncolored_binary):
        assert uncolored_binary.tree_distance(1, 2) == 2
        assert uncolored_binary.tree_distance(1, 3) == 4

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
        t = random_tree(random.Random(seed), n_min=4, n_max=8)
        for quad in combinations([0] + t.leaves(), 4):
            a, b, c, d = quad
            sums = sorted(
                (
                    t.tree_distance(a, b) + t.tree_distance(c, d),
                    t.tree_distance(a, c) + t.tree_distance(b, d),
                    t.tree_distance(a, d) + t.tree_distance(b, c),
                )
            )
            assert sums[1] == sums[2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_distance_is_a_metric(self, seed):
        t = random_tree(random.Random(seed), n_max=7)
        nodes = t.nodes() + [0]
        for i in nodes:
            assert t.tree_distance(i, i) == 0
            for j in nodes:
                assert t.tree_distance(i, j) == t.tree_distance(j, i)
                for k in nodes:
                    assert t.tree_distance(i, k) <= t.tree_distance(
                        i, j
                    ) + t.tree_distance(j, k)

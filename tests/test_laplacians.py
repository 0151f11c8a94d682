"""Reduced and G-derived Laplacian coordinate changes."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric.binomials import coord_var
from treetoric.graphs import derive_graph, edge, star_decomposition
from treetoric.laplacians import (
    g_derived_laplacian_map,
    gamma_graph,
    gamma_laplacian,
    pq_index_pairs,
    reduced_laplacian_map,
    sigma_index_pairs,
)
from treetoric.matrices import SymMatrix, pattern_from_tree

from conftest import random_tree
from oracles import fraction_inverse, sample_point_reference
from test_graphs import complete_graph, make_graph


def random_sym(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            rows[i][j] = rows[j][i] = v
    return SymMatrix.from_rows(rows)


class TestReducedLaplacian:
    def test_n2_hand_substitution(self):
        cmap = reduced_laplacian_map(2)
        point = cmap.apply(SymMatrix.from_rows([[1, 2], [2, 5]]))
        assert point[coord_var("p", 0, 1)] == 3
        assert point[coord_var("p", 0, 2)] == 7
        assert point[coord_var("p", 1, 2)] == -2

    def test_variable_orderings_have_equal_length(self):
        for n in range(1, 7):
            assert len(sigma_index_pairs(n)) == len(pq_index_pairs(n)) == n * (n + 1) // 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_roundtrip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        cmap = reduced_laplacian_map(n)
        m = random_sym(rng, n)
        assert cmap.unapply(cmap.apply(m)) == m


# Expected Gamma(G) weights for the path 1-3-2, straight from the worked
# example: linear forms as {q-index-pair: coefficient}.
PATH_WEIGHTS = {
    (1, 3): {(1, 3): 1},
    (2, 3): {(2, 3): 1},
    (1, 2): {(1, 2): -1},
    (0, 1): {(0, 1): 1, (1, 3): -1},
    (0, 2): {(0, 2): 1, (2, 3): -1},
    (0, 3): {(0, 3): 1, (1, 3): -1, (2, 3): -1},
}

PATH_LAPLACIAN = [
    [
        {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 3): -2, (2, 3): -2},
        {(0, 1): -1, (1, 3): 1},
        {(0, 2): -1, (2, 3): 1},
        {(0, 3): -1, (1, 3): 1, (2, 3): 1},
    ],
    [
        {(0, 1): -1, (1, 3): 1},
        {(0, 1): 1, (1, 2): -1},
        {(1, 2): 1},
        {(1, 3): -1},
    ],
    [
        {(0, 2): -1, (2, 3): 1},
        {(1, 2): 1},
        {(0, 2): 1, (1, 2): -1},
        {(2, 3): -1},
    ],
    [
        {(0, 3): -1, (1, 3): 1, (2, 3): 1},
        {(1, 3): -1},
        {(2, 3): -1},
        {(0, 3): 1},
    ],
]


class TestGammaGraph:
    def test_path_graph_weights(self):
        g = make_graph(3, [(1, 3), (2, 3)])
        assert gamma_graph(g) == PATH_WEIGHTS

    def test_path_graph_laplacian_matrix(self):
        g = make_graph(3, [(1, 3), (2, 3)])
        assert gamma_laplacian(g) == PATH_LAPLACIAN

    def test_complete_graph_weights_reduce(self):
        # all degrees are n-1: case-4 corrections are empty sums
        g = complete_graph(4)
        weights = gamma_graph(g)
        for i, j in combinations(range(1, 5), 2):
            assert weights[(i, j)] == {(i, j): 1}
        for i in range(1, 5):
            assert weights[(0, i)] == {(0, i): 1}


class TestGDerivedMap:
    def test_complete_graph_equals_reduced(self):
        for n in range(1, 6):
            derived = g_derived_laplacian_map(complete_graph(n))
            reduced = reduced_laplacian_map(n)
            assert derived.forward == reduced.forward
            assert derived.backward == reduced.backward

    def test_star_closed_form(self):
        # q_ij = -sigma_ij on edges, +sigma_ij off; q_0c = sigma_cc;
        # q_0i = sum_{j != c} sigma_ij otherwise.
        rng = random.Random(17)
        checked = 0
        while checked < 40:
            t = random_tree(rng, zero_mode="chain", leaf_mode="distinct")
            if not t.zeroed:
                continue
            g = derive_graph(t)
            if star_decomposition(g) is None:
                continue
            c = t.center_leaf()
            cmap = g_derived_laplacian_map(g)
            n = g.n
            assert list(cmap.forward) == pq_index_pairs(n)
            for (i, j), row in cmap.forward.items():
                if i == 0 and j == c:
                    expect = {(c, c): 1}
                elif i == 0:
                    expect = {edge(j, k): 1 for k in range(1, n + 1) if k != c}
                else:
                    expect = {(i, j): -1 if edge(i, j) in g.edges else 1}
                assert row == expect, (i, j)
            checked += 1

    @pytest.mark.parametrize("zero_mode", ["none", "chain", "random"])
    def test_forward_is_dense_inverse_of_backward(self, zero_mode):
        # The closed-form forward rows against exact Fraction inversion of
        # the densified backward rows, which are not symmetric, on derived
        # graphs of any classification.
        rng = random.Random(2412)
        for _ in range(40):
            t = random_tree(rng, zero_mode=zero_mode)
            g = derive_graph(t)
            for cmap in (g_derived_laplacian_map(g), reduced_laplacian_map(g.n)):
                sigma, coords = sigma_index_pairs(g.n), pq_index_pairs(g.n)
                backward = [[cmap.backward[s].get(x, 0) for x in coords] for s in sigma]
                forward = [[cmap.forward[x].get(s, 0) for s in sigma] for x in coords]
                assert forward == fraction_inverse(backward), t.to_dict()

    def test_path_star_roundtrip(self, path_star):
        g = derive_graph(path_star)
        cmap = g_derived_laplacian_map(g)
        rng = random.Random(5)
        for _ in range(100):
            m = random_sym(rng, 3)
            assert cmap.unapply(cmap.apply(m)) == m

    def test_colored_star_map_is_invertible_and_roundtrips(self, colored_star):
        cmap = g_derived_laplacian_map(derive_graph(colored_star))
        m = sample_point_reference(pattern_from_tree(colored_star), seed=9)
        assert cmap.unapply(cmap.apply(m)) == m

"""Reduced and G-derived Laplacian coordinate changes."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric.binomials import coord_var
from treetoric.classify import classify
from treetoric.errors import NotApplicableError
from treetoric.graphs import derive_graph, edge, star_decomposition
from treetoric.laplacians import (
    CoordinateMap,
    g_derived_laplacian_map,
    gamma_graph,
    gamma_laplacian,
    pq_index_pairs,
    sigma_index_pairs,
)
from treetoric.matrices import SymMatrix
from treetoric.pipeline import build_context

from conftest import random_tree
from oracles import (
    batch_of_one,
    fraction_inverse,
    gamma_weights_oracle,
    linear_forms_at,
    pattern_from_tree,
    sample_point_reference,
)
from random_trees import all_small_trees
from test_graphs import complete_graph, make_graph


def random_sym(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            rows[i][j] = rows[j][i] = v
    return SymMatrix(rows)


class TestReducedLaplacian:
    def test_n2_hand_substitution(self):
        cmap = g_derived_laplacian_map(complete_graph(2))
        point = cmap.apply(SymMatrix([[1, 2], [2, 5]]))
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
        cmap = g_derived_laplacian_map(complete_graph(n))
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

    def test_every_small_graph_matches_two_list_oracle(self):
        # every labeled graph on 1-5 vertices: the full-degree rule against
        # the two-list rule, forms and keys in the same insertion order
        graphs = 0
        for n in range(1, 6):
            pairs = list(combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                g = make_graph(n, [e for k, e in enumerate(pairs) if mask >> k & 1])
                got = [(k, list(w.items())) for k, w in gamma_graph(g).items()]
                want = [(k, list(w.items())) for k, w in gamma_weights_oracle(g).items()]
                assert got == want, sorted(g.edges)
                graphs += 1
        assert graphs == 1099


class TestGDerivedMap:
    def test_complete_graph_equals_reduced(self):
        # On a complete graph the map is the reduced Laplacian map (p); its
        # forms are pinned by TestReducedLaplacian and the unit weights by
        # test_complete_graph_weights_reduce.
        for n in range(1, 6):
            assert g_derived_laplacian_map(complete_graph(n)).kind == "p"

    def test_kind_matches_classification(self):
        # p exactly when the tree has no zeroed node
        rng = random.Random(1616)
        checked = 0
        for _ in range(300):
            try:
                ctx = build_context(random_tree(rng))
            except NotApplicableError:
                continue
            assert ctx.cmap.kind == ctx.report.coordinates, ctx.report.tree.to_dict()
            checked += 1
        assert checked > 100

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
            for cmap in map(g_derived_laplacian_map, (g, complete_graph(g.n))):
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

    def test_triangle_kernels_are_inverse(self):
        # the list kernels alone, on integer coordinate lists and integer
        # upper triangles of every derived graph's map
        rng = random.Random(23)
        for t in all_small_trees(5):
            cmap = g_derived_laplacian_map(derive_graph(t))
            size = len(sigma_index_pairs(cmap.n))
            assert size == len(pq_index_pairs(cmap.n))
            x = [rng.randint(-99, 99) for _ in range(size)]
            u = [rng.randint(-99, 99) for _ in range(size)]
            coordinates, sigma_upper = (
                partial(batch_of_one, kernel) for kernel in (cmap.coordinates, cmap.sigma_upper)
            )
            assert coordinates(sigma_upper(x)) == x, t.to_dict()
            assert sigma_upper(coordinates(u)) == u, t.to_dict()

    def test_triangle_kernels_match_per_form_oracle(self):
        # both directions on every applicable tree's map, at entries of the
        # size the round trip's adjugates reach
        rng = random.Random(31)
        bound = 2**200
        applicable = 0
        for t in all_small_trees(5):
            report = classify(t)
            if report.theorem == "NONE":
                continue
            applicable += 1
            cmap = g_derived_laplacian_map(report.graph)
            sigma, pq = sigma_index_pairs(cmap.n), pq_index_pairs(cmap.n)
            u = [rng.randint(-bound, bound) for _ in sigma]
            x = [rng.randint(-bound, bound) for _ in pq]
            coordinates = batch_of_one(cmap.coordinates, u)
            assert coordinates == linear_forms_at(cmap.forward, pq, sigma, u)
            assert batch_of_one(cmap.sigma_upper, x) == linear_forms_at(cmap.backward, sigma, pq, x)
        assert applicable == 1286

    def test_triangle_kernels_take_any_form(self):
        # the derived maps have only coefficients +-1 and no empty form; the
        # kernels do not rely on either
        forward = {
            (0, 1): {(1, 1): 3, (1, 2): -2},
            (0, 2): {},
            (1, 2): {(2, 2): -5},
        }
        backward = {
            (1, 1): {},
            (1, 2): {(0, 1): 2, (0, 2): -1, (1, 2): 7},
            (2, 2): {(1, 2): 1},
        }
        cmap = CoordinateMap(n=2, kind="q", forward=forward, backward=backward)
        sigma, pq = sigma_index_pairs(2), pq_index_pairs(2)
        for values in ([2**70, -3, 11], [Fraction(1, 3), Fraction(-5, 2), Fraction(7)]):
            coordinates, sigma_upper = (
                batch_of_one(kernel, values) for kernel in (cmap.coordinates, cmap.sigma_upper)
            )
            assert coordinates == linear_forms_at(forward, pq, sigma, values)
            assert sigma_upper == linear_forms_at(backward, sigma, pq, values)
        assert batch_of_one(cmap.coordinates, [4, 5, 6]) == [12 - 10, 0, -30]
        assert batch_of_one(cmap.sigma_upper, [4, 5, 6]) == [0, 8 - 5 + 42, 6]

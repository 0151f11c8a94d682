"""Patterns, exact sampling, inversion and the Jordan product."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric import linalg
from treetoric.errors import SamplingError, SingularMatrixError
from treetoric.graphs import completion, derive_graph
from treetoric.matrices import (
    MatrixPattern,
    SymMatrix,
    det_exact,
    invert_exact,
    jordan_product,
    pattern_contains,
    pattern_from_graph,
    pattern_from_tree,
    sample_point,
)
from treetoric.trees import ColoredTree

from conftest import fixture_tree, random_tree
from oracles import adjugate_inverse, det_cofactor


def rank_oracle(rows):
    """Plain Fraction Gaussian elimination, independent of Bareiss."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            for j in range(c, cols):
                work[i][j] -= f * work[rank][j]
        rank += 1
    return rank


class TestPatterns:
    def test_colored_star_pattern(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        c, r, y, b, g = "cyan", "red", "yellow", "blue", "green"
        assert p.classes == (
            (c, r, None, b),
            (r, c, None, b),
            (None, None, y, b),
            (b, b, b, g),
        )

    def test_uncolored_pattern(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        assert p.classes == (
            ("1", "5", "7", "7"),
            ("5", "2", "7", "7"),
            ("7", "7", "3", "6"),
            ("7", "7", "6", "4"),
        )

    def test_single_leaf(self):
        p = pattern_from_tree(ColoredTree(1, {1: 0}, {1: "a"}))
        assert p.classes == (("a",),)

    def test_tree_and_graph_constructions_agree(self):
        rng = random.Random(5)
        for _ in range(100):
            t = random_tree(rng)
            assert pattern_from_tree(t) == pattern_from_graph(derive_graph(t))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MatrixPattern(2, (("a", "b"), ("c", "a")))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            MatrixPattern(2, ((None, "b"), ("b", "a")))


class TestSampling:
    def test_sample_lies_in_pattern_and_is_invertible(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point(p, seed=1)
        assert pattern_contains(p, m)
        assert det_exact(m) != 0

    def test_deterministic(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        assert sample_point(p, seed=3) == sample_point(p, seed=3)
        assert sample_point(p, seed=3) != sample_point(p, seed=4)

    def test_forced_singular_pattern(self):
        # every entry in one shared class: rank-1 matrices only
        allsame = MatrixPattern(2, (("a", "a"), ("a", "a")))
        with pytest.raises(SamplingError):
            sample_point(allsame, seed=0)


class TestInversion:
    def test_identity(self):
        eye = SymMatrix.identity(3)
        assert invert_exact(eye) == eye

    def test_diagonal(self):
        m = SymMatrix.from_rows([[2, 0], [0, 4]])
        assert invert_exact(m) == SymMatrix.from_rows(
            [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
        )

    def test_matches_adjugate_oracle(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point(p, seed=7)
        inv = invert_exact(m)
        oracle = adjugate_inverse([list(r) for r in m.entries])
        assert [list(r) for r in inv.entries] == oracle

    def test_product_is_identity(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        m = sample_point(p, seed=2)
        inv = invert_exact(m)
        n = m.n
        for i in range(n):
            for j in range(n):
                acc = sum(m[i, k] * inv[k, j] for k in range(n))
                assert acc == (1 if i == j else 0)

    def test_involution(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        for seed in range(5):
            m = sample_point(p, seed=seed)
            assert invert_exact(invert_exact(m)) == m

    def test_singular_rejected(self):
        m = SymMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            invert_exact(m)


class TestJordan:
    def test_identity_is_unit(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        x = sample_point(p, seed=11)
        assert jordan_product(x, SymMatrix.identity(x.n)) == x

    def test_square(self):
        x = SymMatrix.from_rows([[1, 2], [2, 5]])
        sq = jordan_product(x, x)
        assert sq == SymMatrix.from_rows([[5, 12], [12, 29]])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            jordan_product(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_completion_patterns_are_jordan_closed(self):
        # the completion's linear space is closed under the Jordan product
        rng = random.Random(21)
        for trial in range(40):
            t = random_tree(rng, leaf_mode="random", zero_mode="none")
            pat = pattern_from_graph(completion(derive_graph(t)))
            a = sample_point(pat, seed=1000 + trial)
            b = sample_point(pat, seed=2000 + trial)
            assert pattern_contains(pat, jordan_product(a, b))


class TestSerialization:
    def test_num_den_strings(self):
        m = SymMatrix.from_rows([[Fraction(1, 2), 3], [3, Fraction(-7, 5)]])
        assert m.to_json() == [["1/2", "3"], ["3", "-7/5"]]

    def test_identity_compatible_assignment(self):
        # ones on the diagonal classes, zeros elsewhere: the identity matrix
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        values = {tok: Fraction(0) for tok in p.tokens()}
        for i, tok in enumerate(("1", "2", "3", "4")):
            values[tok] = Fraction(1)
        m = p.instantiate(values)
        assert m == SymMatrix.identity(4)
        assert det_exact(m) == 1


class TestPatternContains:
    def test_perturbed_entry_detected(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point(p, seed=1)
        rows = [list(r) for r in m.entries]
        # (0,3) shares the "blue" class with (1,3) and (2,3)
        rows[0][3] += Fraction(1, 7)
        rows[3][0] += Fraction(1, 7)
        assert not pattern_contains(p, SymMatrix.from_rows(rows))

    def test_structural_zero_violation_detected(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point(p, seed=1)
        rows = [list(r) for r in m.entries]
        rows[0][2] = Fraction(1)
        rows[2][0] = Fraction(1)
        assert not pattern_contains(p, SymMatrix.from_rows(rows))


class TestLinalg:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_bareiss_rank_matches_fraction_elimination(self, rows):
        assert linalg.rank_int(rows) == rank_oracle(rows)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 10**6),
    )
    def test_det_matches_cofactor_oracle(self, n, seed):
        rng = random.Random(seed)
        rows = [
            [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert linalg.det_fraction(rows) == det_cofactor(rows)

    def test_solve_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
            if linalg.det_fraction(rows) == 0:
                continue
            inv = linalg.invert_fraction(rows)
            for i in range(n):
                for j in range(n):
                    acc = sum(rows[i][k] * inv[k][j] for k in range(n))
                    assert acc == (1 if i == j else 0)

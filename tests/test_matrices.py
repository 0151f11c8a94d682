"""Patterns, exact sampling, inversion and Jordan closure."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric import linalg
from treetoric.classify import classify
from treetoric.errors import SamplingError, SingularMatrixError
from treetoric.graphs import derive_graph
from treetoric.matrices import (
    SAMPLE_BOUND,
    MatrixPattern,
    SymMatrix,
    invert_exact,
    pattern_contains,
    pattern_from_graph,
    sample_projective,
)
from treetoric.trees import ColoredTree

from conftest import fixture_tree, random_tree
from random_trees import all_small_trees
from oracles import (
    adjugate,
    adjugate_inverse,
    completion,
    det_cofactor,
    fraction_inverse,
    jordan_closed,
    jordan_closed_by_basis,
    pattern_from_lca,
    pattern_from_tree,
    sample_point_reference,
)


def identity(n):
    return SymMatrix([[int(i == j) for j in range(n)] for i in range(n)])


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
        # the pattern built from the (contracted) derived graph is L_T read
        # straight off the tree, under each zeroing mode; every other tree
        # gets an adjacent merge
        for zero_mode in ("none", "chain", "random"):
            rng = random.Random(5)
            contracted = 0
            for k in range(100):
                internal_mode = "adjacent" if k % 2 else None
                t = random_tree(rng, zero_mode=zero_mode, internal_mode=internal_mode)
                report = classify(t)
                contracted += report.contracted
                expected = pattern_from_lca(t)
                assert pattern_from_graph(report.graph) == expected, t.to_dict()
                assert pattern_from_tree(t) == expected, t.to_dict()
            assert contracted > 0, zero_mode

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MatrixPattern(2, (("a", "b"), ("c", "a")))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            MatrixPattern(2, ((None, "b"), ("b", "a")))


class TestSymMatrix:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(((1, 2), (2,)))
        with pytest.raises(ValueError, match="square"):
            SymMatrix(((1, 2),))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(((1, 2, 0), (2, 1, 0), (0, 1, 1)))

    def test_list_rows_accepted(self):
        m = SymMatrix([[1, 2], [2, 3]])
        assert m[0, 1] == m[1, 0] == 2
        assert SymMatrix([]).n == 0
        # list rows are stored as tuple rows: hashable, equal to the
        # tuple-built matrix, and closed to item assignment
        assert all(type(row) is tuple for row in m.entries)
        t = SymMatrix(((1, 2), (2, 3)))
        assert m == t and hash(m) == hash(t)
        with pytest.raises(TypeError):
            m.entries[0][1] = 9

    def test_integer_entries_kept(self):
        # the constructor keeps int entries, and the matrix equals and hashes
        # like the same matrix written in Fractions
        m = SymMatrix([[1, 2], [2, 5]])
        assert all(type(x) is int for row in m.entries for x in row)
        f = SymMatrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(5)]])
        assert m == f and hash(m) == hash(f)

    def test_immutable(self):
        m = identity(2)
        with pytest.raises(AttributeError, match="immutable"):
            m.entries = ((0, 0), (0, 0))
        assert m == identity(2)


class TestSampling:
    def test_sample_lies_in_pattern_and_is_invertible(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        sample = sample_projective(p, seed=1)
        assert pattern_contains(p, SymMatrix(p.rows(sample.values)))
        assert sample.det != 0

    def test_deterministic(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        assert sample_projective(p, seed=3) == sample_projective(p, seed=3)
        assert sample_projective(p, seed=3) != sample_projective(p, seed=4)

    def test_same_points_as_reference_sampler(self):
        # the integer retry loop draws exactly the Fraction sampler's points,
        # and sample_projective's adjugate is the inverse up to det
        rng = random.Random(13)
        for trial in range(60):
            t = random_tree(rng)
            for pat in (pattern_from_tree(t), pattern_from_graph(completion(derive_graph(t)))):
                m = sample_point_reference(pat, seed=trial)
                sample = sample_projective(pat, seed=trial)
                assert SymMatrix(pat.rows(sample.values)) == m
                c = Fraction(1, sample.det)
                assert fraction_inverse(m.entries) == [
                    [c * a for a in row] for row in sample.adjugate
                ]

    def test_integer_draws_within_hadamard_bound(self):
        # K is drawn with integer entries, so det K obeys Hadamard's bound
        # det(K)^2 <= prod_i sum_j K_ij^2 on K itself; a rational draw cleared
        # to integers by a common denominator would not
        rng = random.Random(41)
        trees = [random_tree(rng) for _ in range(40)]
        trees.append(random_tree(rng, 20, 20, "distinct", "distinct", "chain"))
        for idx, t in enumerate(trees):
            pat = pattern_from_tree(t)
            sample = sample_projective(pat, seed=idx)
            assert all(
                type(v) is int and -SAMPLE_BOUND <= v <= SAMPLE_BOUND
                for v in sample.values.values()
            ), t.to_dict()
            bound = 1
            for row in pat.rows(sample.values):
                bound *= sum(x * x for x in row)
            assert sample.det**2 <= bound, t.to_dict()
        assert trees[-1].n_leaves == 20 and trees[-1].zeroed

    def test_forced_singular_pattern(self):
        # every entry in one shared class: rank-1 matrices only
        allsame = MatrixPattern(2, (("a", "a"), ("a", "a")))
        with pytest.raises(SamplingError):
            sample_projective(allsame, seed=0)


class TestInversion:
    def test_identity(self):
        eye = identity(3)
        assert invert_exact(eye) == eye

    def test_diagonal(self):
        m = SymMatrix([[2, 0], [0, 4]])
        assert invert_exact(m) == SymMatrix(
            [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
        )

    def test_integer_and_fraction_entries_agree(self):
        # an int's denominator is 1, so integer K inverts as K in Fractions
        rng = random.Random(5)
        for n in range(1, 6):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-9, 9) + 20 * (i == j)
            fractions = SymMatrix([[Fraction(x) for x in r] for r in rows])
            assert invert_exact(SymMatrix(rows)) == invert_exact(fractions)

    def test_matches_adjugate_oracle(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point_reference(p, seed=7)
        inv = invert_exact(m)
        oracle = adjugate_inverse([list(r) for r in m.entries])
        assert [list(r) for r in inv.entries] == oracle

    def test_product_is_identity(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        m = sample_point_reference(p, seed=2)
        inv = invert_exact(m)
        n = m.n
        for i in range(n):
            for j in range(n):
                acc = sum(m[i, k] * inv[k, j] for k in range(n))
                assert acc == (1 if i == j else 0)

    def test_involution(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        for seed in range(5):
            m = sample_point_reference(p, seed=seed)
            assert invert_exact(invert_exact(m)) == m

    def test_singular_rejected(self):
        m = SymMatrix([[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            invert_exact(m)


class TestJordan:
    def test_completion_patterns_are_jordan_closed(self):
        # the symbolic decision agrees with the basis-pair oracle on raw and
        # completed patterns under each zeroing mode; completions are closed
        for zero_mode in ("none", "chain", "random"):
            rng = random.Random(21)
            outcomes = Counter()
            for _ in range(200):
                t = random_tree(rng, zero_mode=zero_mode)
                g = derive_graph(t)
                closure = pattern_from_graph(completion(g))
                assert jordan_closed(closure) and jordan_closed_by_basis(closure), t.to_dict()
                raw = pattern_from_graph(g)
                closed = jordan_closed(raw)
                assert closed == jordan_closed_by_basis(raw), t.to_dict()
                outcomes[closed] += 1
            assert outcomes[True] and outcomes[False], (zero_mode, outcomes)

    def test_structural_zero_square_not_closed(self):
        # X^2 puts x*x at the structural zero (0,1), though each class of X^2
        # is consistent
        p = MatrixPattern(3, (("a", None, "x"), (None, "a", "x"), ("x", "x", "b")))
        assert not jordan_closed(p)
        assert not jordan_closed_by_basis(p)


class TestSerialization:
    def test_identity_compatible_assignment(self):
        # ones on the diagonal classes, zeros elsewhere: the identity matrix
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        values = {tok: Fraction(0) for tok in p.tokens()}
        for i, tok in enumerate(("1", "2", "3", "4")):
            values[tok] = Fraction(1)
        m = SymMatrix(p.rows(values))
        assert m == identity(4)
        assert det_cofactor(m.entries) == 1


class TestPatternContains:
    def test_perturbed_entry_detected(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point_reference(p, seed=1)
        rows = [list(r) for r in m.entries]
        # (0,3) shares the "blue" class with (1,3) and (2,3)
        rows[0][3] += Fraction(1, 7)
        rows[3][0] += Fraction(1, 7)
        assert not pattern_contains(p, SymMatrix(rows))

    def test_structural_zero_violation_detected(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point_reference(p, seed=1)
        rows = [list(r) for r in m.entries]
        rows[0][2] = Fraction(1)
        rows[2][0] = Fraction(1)
        assert not pattern_contains(p, SymMatrix(rows))


# mostly zeros, so zero multipliers meet pivots p != prev in Bareiss
_SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


def _int_rows(entries):
    return st.lists(
        st.lists(entries, min_size=1, max_size=5), min_size=1, max_size=5
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestLinalg:
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            _int_rows(st.integers(-9, 9)),
            _int_rows(_SPARSE),
        )
    )
    def test_bareiss_rank_matches_fraction_elimination(self, rows):
        assert len(linalg.bareiss_echelon([list(row) for row in rows])) == rank_oracle(rows)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(_SPARSE, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    def test_bareiss_last_pivot_is_determinant(self, rows):
        # a skipped rescale keeps most ranks but not the last pivot, +-det(A)
        work = [list(row) for row in rows]
        det = det_cofactor(rows)
        assert (len(linalg.bareiss_echelon(work)) == len(rows)) == (det != 0)
        if det:
            assert abs(work[-1][-1]) == abs(det)

    def test_solve_roundtrip(self):
        rng = random.Random(3)
        inverted = 0
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    rows[i][j] = rows[j][i] = x
            try:
                inv = invert_exact(SymMatrix(rows))
            except SingularMatrixError:
                continue
            for i in range(n):
                for j in range(n):
                    acc = sum(rows[i][k] * inv[k, j] for k in range(n))
                    assert acc == (1 if i == j else 0)
            inverted += 1
        assert inverted >= 15

    def test_det_adjugate_matches_cofactor_oracle(self):
        rng = random.Random(17)
        cases = []
        for n in range(1, 8):
            for _ in range(4 if n < 7 else 2):
                dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                sparse = [
                    [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)
                ]
                cases += [dense, sparse]
            # zero leading pivots force row swaps: a signed permutation with
            # a_00 = 0, and the same matrix with its rows rotated
            perm = list(range(n))
            rng.shuffle(perm)
            if n > 1 and perm[0] == 0:
                perm[0], perm[1] = perm[1], perm[0]
            signed = [[rng.choice((-3, 2)) * (perm[i] == j) for j in range(n)] for i in range(n)]
            cases += [signed, signed[1:] + signed[:1]]
            # singular: a zero column, and a row that doubles another
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            cases.append([[0] + row[1:] for row in rows])
            if n > 1:
                cases.append(rows[:-1] + [[2 * x for x in rows[0]]])
        swapped = singular = 0
        for rows in cases:
            det, adj = linalg.det_adjugate(rows)
            assert det == det_cofactor(rows), rows
            if det == 0:
                assert adj is None
                singular += 1
                continue
            assert adj == tuple(map(tuple, adjugate(rows))), rows
            swapped += rows[0][0] == 0
        assert singular >= 13 and swapped >= 8

    @staticmethod
    def _symmetric(rows):
        n = len(rows)
        return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]

    def test_symmetric_sweep_matches_cofactor_oracle(self):
        rng = random.Random(19)
        cases = []
        for n in range(1, 8):
            for _ in range(4 if n < 7 else 2):
                dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                sparse = [
                    [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)
                ]
                cases += [self._symmetric(dense), self._symmetric(sparse)]
            if n > 1:
                # a zero leading diagonal: the first pivot is index 1
                rows = self._symmetric(dense)
                rows[0][0], rows[1][1] = 0, rng.choice((-7, 5))
                cases.append(rows)
                # singular: C D C^T with C of rank below n
                c = [[rng.randint(-4, 4) for _ in range(n - 1)] for _ in range(n)]
                d = [rng.choice((-2, 1, 3)) for _ in range(n - 1)]
                cases.append(
                    [[sum(c[i][r] * d[r] * c[j][r] for r in range(n - 1)) for j in range(n)]
                     for i in range(n)]
                )
            # singular: a zero row and column
            rows = self._symmetric(dense)
            rows[-1] = [0] * n
            cases.append([row[:-1] + [0] for row in rows])
        # stalls: every diagonal the sweep could pivot on is 0, at the start
        # or after sweeping index 0 (the Schur complement [[0, 1], [1, 0]])
        cases += [
            [[0, 1], [1, 0]],
            [[0, 2, 3], [2, 0, 5], [3, 5, 0]],
            [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
        ]
        leading_zero = stalled = singular = 0
        for rows in cases:
            det, adj = linalg.det_adjugate(rows)
            assert det == det_cofactor(rows), rows
            swept = linalg._sweep(rows)
            stalled += swept is None
            if swept is not None:
                assert swept == (det, adj), rows
            if det == 0:
                assert adj is None, rows
                singular += 1
                continue
            assert adj == tuple(map(tuple, adjugate(rows))), rows
            leading_zero += rows[0][0] == 0 and swept is not None
        assert stalled >= 3 and leading_zero >= 6 and singular >= 13

    def test_sweep_and_gauss_jordan_agree_on_pattern_samples(self):
        # small draws make singular samples and stalls common
        rng = random.Random(41)
        compared = singular = stalled = 0
        for t in all_small_trees(4):
            pattern = pattern_from_tree(t)
            for _ in range(3):
                values = {tok: rng.randint(-3, 3) for tok in pattern.tokens()}
                rows = pattern.rows(values)
                expected = linalg._gauss_jordan([list(row) for row in rows])
                assert linalg.det_adjugate(rows) == expected, rows
                swept = linalg._sweep(rows)
                if swept is None:
                    stalled += 1
                    continue
                assert swept == expected, rows
                compared += 1
                singular += swept[0] == 0
        assert compared >= 500 and singular >= 50 and stalled >= 5

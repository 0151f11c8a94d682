"""Patterns, exact sampling, inversion and Jordan closure."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric import linalg, matrices
from treetoric.classify import classify
from treetoric.errors import SamplingError, SingularMatrixError
from treetoric.graphs import derive_graph
from treetoric.matrices import (
    SAMPLE_BOUND,
    SAMPLE_LABEL,
    MatrixPattern,
    invert_exact,
    pattern_from_graph,
    sample_projectives,
    uniform_draws,
)
from treetoric.trees import ColoredTree

from conftest import fixture_tree, random_tree
from random_trees import all_small_trees
import oracles
from oracles import (
    adjugate,
    by_seed,
    contains_one,
    det_adjugate_list,
    adjugate_inverse,
    completion,
    det_cofactor,
    fraction_det,
    fraction_inverse,
    jordan_closed,
    jordan_closed_by_basis,
    pattern_from_lca,
    pattern_from_tree,
    pattern_of,
    pattern_rows,
    pattern_upper,
    rows_of,
    sample_point_reference,
    upper_of,
)


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


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
        assert p == pattern_of(
            (
                (c, r, None, b),
                (r, c, None, b),
                (None, None, y, b),
                (b, b, b, g),
            )
        )
        assert p.classes == (c, r, c, None, None, y, b, b, b, g)  # column by column
        tokens = p.tokens()
        assert tokens == [b, c, g, r, y]
        tokens.append("extra")
        assert p.tokens() == [b, c, g, r, y]  # a fresh list each call

    def test_uncolored_pattern(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        assert p == pattern_of(
            (
                ("1", "5", "7", "7"),
                ("5", "2", "7", "7"),
                ("7", "7", "3", "6"),
                ("7", "7", "6", "4"),
            )
        )

    def test_single_leaf(self):
        p = pattern_from_tree(ColoredTree(1, {1: 0}, {1: "a"}))
        assert p.classes == ("a",)

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

    def test_wrong_length_rejected(self):
        # a triangle of classes cannot be asymmetric, only of the wrong length
        for classes in ((), ("a", "b"), ("a", "b", "a", "c")):
            with pytest.raises(ValueError, match="triangle"):
                MatrixPattern(2, classes)

    def test_zero_diagonal_rejected(self):
        # the diagonal of a 3 x 3 triangle sits at positions 0, 2 and 5
        for n, classes in (
            (2, (None, "b", "a")),
            (2, ("a", "b", None)),
            (3, ("a", "b", None, "c", "d", "e")),
            (3, ("a", "b", "a", "c", "d", None)),
        ):
            with pytest.raises(ValueError, match="diagonal"):
                MatrixPattern(n, classes)
        assert MatrixPattern(3, ("a", None, "b", None, None, "c")).tokens() == ["a", "b", "c"]


class TestSampling:
    def test_sample_lies_in_pattern_and_is_invertible(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        (sample,) = by_seed(sample_projectives(p, [1]))
        assert contains_one(p, pattern_upper(p, sample.values))
        assert sample.det != 0

    def test_deterministic(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        first, again, other = by_seed(sample_projectives(p, [3, 3, 4]))
        assert first == again != other

    def test_same_points_as_reference_sampler(self):
        # the integer retry loop draws exactly the Fraction sampler's points,
        # and the sample's adjugate triangle is the inverse up to det
        rng = random.Random(13)
        for trial in range(60):
            t = random_tree(rng)
            for pat in (pattern_from_tree(t), pattern_from_graph(completion(derive_graph(t)))):
                m = sample_point_reference(pat, seed=trial)
                (sample,) = by_seed(sample_projectives(pat, [trial]))
                assert pattern_upper(pat, sample.values) == upper_of(m)
                c = Fraction(1, sample.det)
                assert fraction_inverse(m) == [
                    [c * a for a in row] for row in rows_of(pat.size, sample.adjugate)
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
            (sample,) = by_seed(sample_projectives(pat, [idx]))
            assert all(
                type(v) is int and -SAMPLE_BOUND <= v <= SAMPLE_BOUND
                for v in sample.values.values()
            ), t.to_dict()
            bound = 1
            for row in pattern_rows(pat, sample.values):
                bound *= sum(x * x for x in row)
            assert sample.det**2 <= bound, t.to_dict()
        assert trees[-1].n_leaves == 20 and trees[-1].zeroed

    def test_batched_retries_match_one_seed_samples(self, monkeypatch):
        # entries in {-1, 0, 1}, so first tries are often singular: each
        # seed's retries are its own, whatever else shares its batch
        monkeypatch.setattr(matrices, "SAMPLE_BOUND", 1)
        monkeypatch.setattr(oracles, "SAMPLE_BOUND", 1)
        rounds = []
        original = linalg.det_adjugates

        def recorded(n, entries):
            rounds.append(len(entries[0]))
            return original(n, entries)

        monkeypatch.setattr(linalg, "det_adjugates", recorded)
        retried = 0
        for name in ("colored_star", "uncolored_binary", "zeroed_block_g2"):
            p = pattern_from_tree(fixture_tree(name))
            seeds = list(range(100))
            samples = by_seed(sample_projectives(p, seeds))
            assert samples == [by_seed(sample_projectives(p, [seed]))[0] for seed in seeds], name
            for seed, sample in zip(seeds, samples):
                m = sample_point_reference(p, seed)
                assert pattern_upper(p, sample.values) == upper_of(m), (name, seed)
                tokens = p.tokens()
                first = oracles.hash_draws("forward_vanishing", seed, 0, len(tokens), -1, 1)
                retried += sample.values != dict(zip(tokens, first))
        assert retried >= 100
        # a pattern that forces singularity fails after 64 rounds of tries
        allsame = pattern_of((("a", "a"), ("a", "a")))
        rounds.clear()
        with pytest.raises(SamplingError, match="after 64 tries"):
            sample_projectives(allsame, [0, 1, 2])
        assert rounds == [3] * matrices.SAMPLE_RETRIES == [3] * 64

    def test_forced_singular_pattern(self):
        # every entry in one shared class: rank-1 matrices only
        allsame = pattern_of((("a", "a"), ("a", "a")))
        with pytest.raises(SamplingError):
            sample_projectives(allsame, [0])

    def test_no_seeds_give_empty_lists(self):
        # as the other batch kernels take an empty batch: one empty list
        # per token and per triangle entry, and no determinant
        for name in ("colored_star", "zeroed_block_g2"):
            p = pattern_from_tree(fixture_tree(name))
            samples = sample_projectives(p, [])
            assert samples.values == {tok: [] for tok in p.tokens()}
            assert samples.det == []
            assert samples.adjugate == [[] for _ in p.classes]
            assert by_seed(samples) == []


# SHA-256 over the comma-joined draws of test_first_draws_are_pinned: 640
# integers from 16 streams, 40 each.
GOLDEN_DRAWS = "2f4460656c6d09be63b43bc4015b9aba91251beab8947178036bcde7a4ed29c7"


class TestDraws:
    def test_slices_at_or_above_the_range_size_are_skipped(self):
        # [-2, 2] has 5 values and 3-bit slices, so slices 5, 6 and 7 are
        # rejected; block 0 keeps 104 of its 170 slices, so 200 draws also
        # read block 1
        slices = []
        for block in (0, 1):
            digest = hashlib.blake2b(f"label 7 3 {block}".encode()).digest()
            x = int.from_bytes(digest, "little")
            slices += [x >> (3 * i) & 7 for i in range(512 // 3)]
        kept = [s - 2 for s in slices if s < 5]
        assert len([s for s in slices[:170] if s < 5]) == 104
        draws = uniform_draws("label", 7, 3, 200, -2, 2)
        assert draws == kept[:200]
        assert draws != [s % 5 - 2 for s in slices[:200]]
        assert uniform_draws("label", 7, 3, 50, -2, 2) == draws[:50]
        assert uniform_draws("label", 7, 3, 0, -2, 2) == []

    def test_empty_range_raises_unless_no_draw_is_asked(self):
        for low, high in ((0, -1), (5, 4), (1, -(2**70))):
            with pytest.raises(ValueError, match="no integer"):
                uniform_draws("x", 0, 0, 1, low, high)
            assert uniform_draws("x", 0, 0, 0, low, high) == []

    @pytest.mark.parametrize(
        "low, high",
        [
            (0, 0), (-1, 1), (0, 7), (0, 8), (1, 10**4),
            (-SAMPLE_BOUND, SAMPLE_BOUND), (-(2**80), 2**80),
        ],
    )
    def test_every_draw_in_range_and_equal_to_the_reference(self, low, high):
        draws = uniform_draws(SAMPLE_LABEL, 11, 2, 300, low, high)
        assert len(draws) == 300
        assert all(type(x) is int and low <= x <= high for x in draws)
        assert draws == oracles.hash_draws(SAMPLE_LABEL, 11, 2, 300, low, high)
        if high - low < 10:
            assert set(draws) == set(range(low, high + 1))

    def test_label_seed_and_attempt_each_change_the_stream(self):
        draws = uniform_draws("a", 5, 0, 40, 1, 10**4)
        assert draws == uniform_draws("a", 5, 0, 40, 1, 10**4)
        for other in (("b", 5, 0), ("a", 6, 0), ("a", 5, 1), ("a", -5, 0)):
            assert uniform_draws(*other, 40, 1, 10**4) != draws, other

    def test_first_draws_are_pinned(self):
        # any change to the stream's layout shows here: both check labels,
        # seeds past 64 bits, and two attempts of each
        draws = []
        for seed in (0, 1, 1_000_003, 2**70):
            for attempt in (0, 1):
                draws += uniform_draws(
                    SAMPLE_LABEL, seed, attempt, 40, -SAMPLE_BOUND, SAMPLE_BOUND
                )
                draws += uniform_draws("roundtrip_parametrization", seed, attempt, 40, 1, 10**4)
        text = ",".join(map(str, draws))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DRAWS


class TestInversion:
    def test_identity(self):
        eye = upper_of(identity(3))
        assert invert_exact(3, eye) == eye

    def test_diagonal(self):
        m = upper_of([[2, 0], [0, 4]])
        assert invert_exact(2, m) == upper_of(
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
            fractions = upper_of([[Fraction(x) for x in r] for r in rows])
            assert invert_exact(n, upper_of(rows)) == invert_exact(n, fractions)

    def test_matches_adjugate_oracle(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        m = sample_point_reference(p, seed=7)
        inv = invert_exact(p.size, upper_of(m))
        oracle = adjugate_inverse(m)
        assert rows_of(p.size, inv) == oracle

    def test_product_is_identity(self):
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        m = sample_point_reference(p, seed=2)
        n = len(m)
        inv = rows_of(n, invert_exact(n, upper_of(m)))
        for i in range(n):
            for j in range(n):
                acc = sum(m[i][k] * inv[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)

    def test_involution(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        for seed in range(5):
            m = upper_of(sample_point_reference(p, seed=seed))
            assert invert_exact(p.size, invert_exact(p.size, m)) == m

    def test_singular_rejected(self):
        m = upper_of([[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError):
            invert_exact(2, m)

    def test_triangle_length_checked(self):
        # a triangle lists n(n + 1)/2 entries, as a pattern's classes do
        for n, upper in ((2, [1, 0]), (2, [1, 0, 1, 0]), (0, [1]), (1, [])):
            with pytest.raises(ValueError, match="triangle"):
                invert_exact(n, upper)
        assert invert_exact(0, []) == []


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
        p = pattern_of((("a", None, "x"), (None, "a", "x"), ("x", "x", "b")))
        assert not jordan_closed(p)
        assert not jordan_closed_by_basis(p)


class TestSerialization:
    def test_identity_compatible_assignment(self):
        # ones on the diagonal classes, zeros elsewhere: the identity matrix
        p = pattern_from_tree(fixture_tree("uncolored_binary"))
        values = {tok: Fraction(0) for tok in p.tokens()}
        for i, tok in enumerate(("1", "2", "3", "4")):
            values[tok] = Fraction(1)
        m = rows_of(p.size, pattern_upper(p, values))
        assert m == identity(4)
        assert det_cofactor(m) == 1


class TestPatternContains:
    def test_perturbed_entry_detected(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        rows = sample_point_reference(p, seed=1)
        # (0,3) shares the "blue" class with (1,3) and (2,3)
        rows[0][3] += Fraction(1, 7)
        rows[3][0] += Fraction(1, 7)
        assert not contains_one(p, upper_of(rows))

    def test_structural_zero_violation_detected(self):
        p = pattern_from_tree(fixture_tree("colored_star"))
        rows = sample_point_reference(p, seed=1)
        rows[0][2] = Fraction(1)
        rows[2][0] = Fraction(1)
        assert not contains_one(p, upper_of(rows))


# mostly zeros, so zero multipliers meet pivots p != prev in Bareiss
_SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


def _int_rows(entries):
    return st.lists(
        st.lists(entries, min_size=1, max_size=5), min_size=1, max_size=5
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)


def _pattern_samples() -> list[tuple[MatrixPattern, dict]]:
    """Three seeded draws from each pattern of ``all_small_trees(4)``; the
    small entries make singular samples and zero leading minors common."""
    rng = random.Random(41)
    samples = []
    for t in all_small_trees(4):
        pattern = pattern_from_tree(t)
        for _ in range(3):
            samples.append((pattern, {tok: rng.randint(-3, 3) for tok in pattern.tokens()}))
    return samples


def _adjacency(t: ColoredTree) -> tuple[tuple[int, ...], ...]:
    """The 0/1 adjacency matrix of the tree's derived graph.  Its diagonal
    is zero, so its build takes a congruence at step 0, and again at each
    later step whose leading minor is zero."""
    g = derive_graph(t)
    return tuple(
        tuple(int((min(i, j), max(i, j)) in g.edges) for j in g.vertices())
        for i in g.vertices()
    )


def _adjacency_matrices(leaves: int) -> list[tuple[tuple[int, ...], ...]]:
    """The distinct adjacency matrices of ``all_small_trees(leaves)``, sorted."""
    return sorted(set(map(_adjacency, all_small_trees(leaves))))


GOLDEN_CONGRUENCES = "9d3cfe4e5cfc3ecce8cd17333061410cc2d663211c198555a4e90124b775291e"


class TestLinalg:
    def test_triangle_order_is_the_bordering_order(self):
        # the triangle of each leading m x m block is a prefix of the n x n
        # one, and the position table finds entry (r, c) of the triangle
        for n in range(10):
            pairs = linalg.upper_pairs(n)
            assert pairs == upper_of([[(min(r, c), max(r, c)) for c in range(n)] for r in range(n)])
            for m in range(n + 1):
                assert pairs[: m * (m + 1) // 2] == linalg.upper_pairs(m), (m, n)
            lines = linalg._lines(n)
            assert len(lines) == n and all(len(line) == n for line in lines)
            for r, line in enumerate(lines):
                for c, t in enumerate(line):
                    assert t == pairs.index((min(r, c), max(r, c))), (r, c, n)

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
                inv = rows_of(n, invert_exact(n, upper_of(rows)))
            except SingularMatrixError:
                continue
            for i in range(n):
                for j in range(n):
                    acc = sum(rows[i][k] * inv[k][j] for k in range(n))
                    assert acc == (1 if i == j else 0)
            inverted += 1
        assert inverted >= 15

    @staticmethod
    def _symmetric(rows):
        n = len(rows)
        return [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]

    @staticmethod
    def _checked(rows, congruences):
        """det_adjugates on the upper triangle of the symmetric rows as a
        batch of one, against the cofactor oracle: (det, the congruences
        (j, k, c) taken, in order)."""
        congruences.clear()
        upper = upper_of(rows)
        det, adj = det_adjugate_list(len(rows), [upper])[0]
        assert upper == upper_of(rows), rows  # the input is left as it was
        assert det == det_cofactor(rows), rows
        taken = [(a, b, c) for a, b, c in congruences if a > b]
        if det == 0:
            assert adj is None and congruences == taken, rows
            return det, taken
        assert adj == upper_of(adjugate(rows)), rows
        # a nonsingular matrix undoes each congruence once, last first
        assert congruences == taken + [(b, a, c) for a, b, c in reversed(taken)], rows
        return det, taken

    def test_det_adjugate_matches_cofactor_oracle(self, congruences):
        rng = random.Random(17)
        cases = []
        raw = []
        for n in range(1, 8):
            for _ in range(4 if n < 7 else 2):
                dense = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                sparse = [
                    [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)
                ]
                raw += [dense, sparse]
            # a zero leading diagonal: a signed permutation with a_00 = 0, and
            # the same matrix with its rows rotated; symmetrized, they take
            # congruences
            perm = list(range(n))
            rng.shuffle(perm)
            if n > 1 and perm[0] == 0:
                perm[0], perm[1] = perm[1], perm[0]
            signed = [[rng.choice((-3, 2)) * (perm[i] == j) for j in range(n)] for i in range(n)]
            raw += [signed, signed[1:] + signed[:1]]
            # singular: a zero row and column, and a row and column that
            # double the first
            rows = self._symmetric([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            cases.append([row[:-1] + [0] for row in rows[:-1]] + [[0] * n])
            if n > 1:
                first = [2 * x for x in rows[0][:-1]]
                cases.append(
                    [row[:-1] + [y] for row, y in zip(rows[:-1], first)]
                    + [first + [2 * first[0]]]
                )
        cases += map(self._symmetric, raw)
        resolved = singular = 0
        for rows in cases:
            det, taken = self._checked(rows, congruences)
            singular += det == 0
            resolved += bool(taken)
        assert singular >= 13 and resolved >= 8

    def test_symmetric_cases_match_cofactor_oracle(self, congruences):
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
        # every diagonal that could be bordered on is 0, at the start or
        # after bordering index 0 (the Schur complement [[0, 1], [1, 0]])
        cases += [
            [[0, 1], [1, 0]],
            [[0, 2, 3], [2, 0, 5], [3, 5, 0]],
            [[1, 1, 1], [1, 1, 2], [1, 2, 1]],
        ]
        leading_zero = resolved = singular = 0
        for rows in cases:
            det, taken = self._checked(rows, congruences)
            resolved += bool(taken)
            singular += det == 0
            # a zero a_00 is resolved at step 0 by adding in a later index
            leading_zero += rows[0][0] == 0 and bool(taken) and taken[0][1] == 0
        assert resolved >= 3 and leading_zero >= 6 and singular >= 13

    def test_matches_cofactor_oracle_on_pattern_samples(self, congruences):
        compared = singular = resolved = 0
        for pattern, values in _pattern_samples():
            rows = pattern_rows(pattern, values)
            assert pattern_upper(pattern, values) == upper_of(rows)
            det, taken = self._checked(rows, congruences)
            compared += 1
            singular += det == 0
            resolved += bool(taken)
        assert compared >= 500 and singular >= 50 and resolved >= 5

    def test_undoes_several_congruences(self, congruences):
        matrices = _adjacency_matrices(5)
        resolved = two = 0
        for rows in matrices:
            det, taken = self._checked(rows, congruences)
            resolved += bool(taken)
            two += det != 0 and len(taken) == 2
        assert len(matrices) == 267 and resolved == 267 and two >= 24

    def test_matches_fraction_oracle_at_larger_n(self, congruences):
        # the sizes the round trip reaches (entries near 2^60 and 2^200) at
        # n = 8-10, where the cofactor oracle is out of reach; hollow
        # matrices and n = 8 adjacency matrices take congruences
        rng = random.Random(43)
        cases = []
        for n in (8, 9, 10):
            for bits in (60, 200):
                for hollow in (False, False, True):
                    rows = [[rng.randint(-(2**bits), 2**bits) for _ in range(n)] for _ in range(n)]
                    for i in range(n if hollow else 0):
                        rows[i][i] = 0
                    cases.append(self._symmetric(rows))
        adjacency = set()
        while len(adjacency) < 24:
            zero_mode = rng.choice(("chain", "random"))
            adjacency.add(_adjacency(random_tree(rng, 8, 8, zero_mode=zero_mode)))
        cases += sorted(adjacency)
        resolved = singular = 0
        for rows in cases:
            congruences.clear()
            upper = upper_of(rows)
            det, adj = det_adjugate_list(len(rows), [upper])[0]
            assert upper == upper_of(rows)
            resolved += bool(congruences)
            inverse = fraction_inverse(rows)
            if inverse is None:
                assert (det, adj) == (0, None), rows
                singular += 1
                continue
            d = fraction_det(rows)
            assert det == d, rows
            assert adj == upper_of([[d * x for x in row] for row in inverse]), rows
        # every hollow and adjacency case takes a congruence, and some of
        # the adjacency matrices are invertible
        assert len(cases) == 42 and resolved == 30 and 12 <= singular < 24

    def test_entry_major_batches_match_batches_of_one(self, congruences):
        # one batch per pattern of all_small_trees(4), held entry-major as
        # sample_projectives holds it: one list per token, shared by every
        # entry of its class, and one shared list of zeros.  Small draws
        # put singular matrices and matrices that take congruences in the
        # same batches as generic ones; the result is the cofactor
        # oracle's and each matrix's batch of one, and no list is changed
        rng = random.Random(59)
        mixed = 0
        for t in all_small_trees(4):
            pattern = pattern_from_tree(t)
            n = pattern.size
            column = {
                tok: [rng.randint(-2, 2) for _ in range(12)]
                + [rng.randint(-99, 99) for _ in range(4)]
                for tok in pattern.tokens()
            }
            zero = [0] * 16
            entries = [zero if tok is None else column[tok] for tok in pattern.classes]
            before = [list(x) for x in entries]
            congruences.clear()
            det, adj = linalg.det_adjugates(n, entries)
            assert [list(x) for x in entries] == before
            uppers = [list(u) for u in zip(*entries)]
            expected = []
            for upper in uppers:
                rows = rows_of(n, upper)
                d = det_cofactor(rows)
                expected.append((d, upper_of(adjugate(rows)) if d else None))
            built = [(x, list(y)) for x, y in zip(det, zip(*adj))]
            assert [(x, y if x else None) for x, y in built] == expected, pattern
            assert all(not any(y) for x, y in built if not x)  # 0 for a singular matrix
            assert [det_adjugate_list(n, [u])[0] for u in uppers] == expected, pattern
            mixed += bool(congruences) and 0 in det and any(det)
        assert mixed >= 150

    def test_congruence_sequence_is_pinned(self, congruences):
        # every congruence, in order, over the adjacency matrices and the
        # pattern samples: a change of the rule that picks (j, c) changes
        # the digest
        cases = _adjacency_matrices(5) + [
            pattern_rows(pattern, values) for pattern, values in _pattern_samples()
        ]
        digest = hashlib.sha256()
        for rows in cases:
            congruences.clear()
            det_adjugate_list(len(rows), [upper_of(rows)])
            digest.update(f"{congruences}\n".encode())
        assert digest.hexdigest() == GOLDEN_CONGRUENCES

    def test_batches_match_single_builds_and_cofactor_oracle(self, congruences):
        # mixed batches at each n = 0..6: the adjacency matrices (each takes
        # a congruence at a_00), and generic matrices with singular ones and
        # a zero a_00 among them; a congruence is taken exactly where a
        # leading principal minor is zero, and batches take the same ones
        rng = random.Random(47)
        cases = {n: [] for n in range(7)}
        for rows in _adjacency_matrices(5):
            cases[len(rows)].append(rows)
        for n, rows_list in cases.items():
            for _ in range(13):
                generic = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                generic = self._symmetric(generic)
                rows_list.append(generic)
            if n:
                # generic, with a zero a_00, and singular by a zero last row
                zero_lead = [list(row) for row in generic]
                zero_lead[0][0] = 0
                zero_last = [row[:-1] + [0] for row in generic[:-1]] + [[0] * n]
                rows_list += [zero_lead, zero_last]
            if n > 1:
                # singular by a last row and column that double the first
                first = [2 * x for x in generic[0][:-1]]
                rows_list.append(
                    [row[:-1] + [y] for row, y in zip(generic[:-1], first)]
                    + [first + [2 * first[0]]]
                )
            rng.shuffle(rows_list)
        leading_zero = singular = resolved = 0
        for n, rows_list in cases.items():
            uppers = [upper_of(rows) for rows in rows_list]
            expected = []
            for rows in rows_list:
                det = det_cofactor(rows)
                expected.append((det, upper_of(adjugate(rows)) if det else None))
            # alone: the first step of each matrix's congruences, against
            # its first zero leading principal minor (n - 1 has no congruence)
            taken = []
            for upper, rows, (det, _) in zip(uppers, rows_list, expected):
                congruences.clear()
                assert det_adjugate_list(n, [upper])[0][0] == det
                steps = [k for j, k, _ in congruences if j > k]
                minors = [det_cofactor([r[: m + 1] for r in rows[: m + 1]]) for m in range(n - 1)]
                zero = [m for m, minor in enumerate(minors) if not minor]
                assert steps[:1] == zero[:1] if det else steps[:1] in ([], zero[:1]), rows
                taken += congruences
            for size in (1, 5, len(uppers)):
                congruences.clear()
                built = []
                for start in range(0, len(uppers), size):
                    built += det_adjugate_list(n, uppers[start : start + size])
                assert built == expected, (n, size)
                assert sorted(congruences) == sorted(taken), (n, size)
            assert uppers == [upper_of(rows) for rows in rows_list]  # left as they were
            leading_zero += sum(not rows[0][0] for rows in rows_list if n)
            singular += sum(det == 0 for det, _ in expected)
            resolved += sum(j > k for j, k, _ in taken)
            assert det_adjugate_list(n, []) == []
        assert det_adjugate_list(0, [[], []]) == [(1, []), (1, [])]
        assert leading_zero >= 267 + 6 and singular >= 150 and resolved >= 267

    def test_planted_zero_minors_resolve_in_the_batch(self, congruences):
        # for n = 2..7 and each step k < n, matrices whose leading minor on
        # 0..k is 0 and whose earlier ones are not, among generic ones,
        # against the cofactor oracle (the Fraction oracles at n = 7): each
        # takes its first congruence at step k unless it is singular (k =
        # n - 1, or a last row and column that double the first); two
        # planted cases need c = -1 and j = k + 2
        rng = random.Random(53)
        moves = []
        planted_singular = resolved_singular = 0
        for n in range(2, 8):
            cases, steps = [], []
            for k in range(n):
                for double in (False, True)[: 1 + (k < n - 1)]:
                    minors = [0]
                    while not all(minors):
                        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                        rows = self._symmetric(rows)
                        # the block on 0..k is C diag(d) C^T with C of k columns
                        c = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k + 1)]
                        d = [rng.choice((-2, 1, 3)) for _ in range(k)]
                        for i in range(k + 1):
                            for j in range(k + 1):
                                rows[i][j] = sum(c[i][r] * d[r] * c[j][r] for r in range(k))
                        if double:
                            for i in range(n):
                                rows[i][-1] = rows[-1][i] = 2 * rows[i][0]
                            rows[-1][-1] = 4 * rows[0][0]
                        minors = [
                            det_cofactor([r[: m + 1] for r in rows[: m + 1]]) for m in range(k)
                        ]
                    cases.append(rows)
                    steps.append(k)
            if n == 2:
                cases.append([[0, 1], [1, -2]])  # 2 s_01 + s_11 = 0: c = -1
                steps.append(0)
            if n == 4:
                # s_01 = s_11 = 0: index 2 is added into index 0
                cases.append([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
                steps.append(0)
            for _ in range(6 if n < 7 else 2):
                generic = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                cases.append(self._symmetric(generic))
                steps.append(None)
            order = list(range(len(cases)))
            rng.shuffle(order)
            cases, steps = [cases[i] for i in order], [steps[i] for i in order]
            uppers = [upper_of(rows) for rows in cases]
            expected = []
            for rows, k in zip(cases, steps):
                det = det_cofactor(rows)
                if not det:
                    expected.append((0, None))
                elif n < 7:
                    expected.append((det, upper_of(adjugate(rows))))
                else:  # the cofactor adjugate is slow at n = 7
                    assert fraction_det(rows) == det, rows
                    inverse = fraction_inverse(rows)
                    expected.append((det, upper_of([[det * x for x in r] for r in inverse])))
                congruences.clear()
                assert det_adjugate_list(n, [upper_of(rows)]) == [expected[-1]], rows
                taken = [(j, s, c) for j, s, c in congruences if j > s]
                moves += taken
                if k is None:
                    continue
                assert [s for _, s, _ in taken[:1]] in (([k],) if det else ([], [k])), rows
                planted_singular += det == 0
                resolved_singular += det == 0 and bool(taken)
            for size in (1, 5, len(uppers)):
                built = []
                for start in range(0, len(uppers), size):
                    built += det_adjugate_list(n, uppers[start : start + size])
                assert built == expected, (n, size)
        assert (1, 0, -1) in moves and (2, 0, 1) in moves
        assert planted_singular >= 20 and resolved_singular >= 5

"""Path maps: exponent rows, kernel membership, rank, evaluation."""

import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

from treetoric.binomials import coord_var, parse_binomial
from treetoric.errors import GraphError
from treetoric.graphs import derive_graph
from treetoric.classify import classify
from treetoric.monomials import MonomialMap, exponent_rank, path_map
from treetoric.pipeline import build_context, kernel_membership
from treetoric.trees import ColoredTree

from conftest import combined_binomials, fixture_tree
from oracles import batch_of_one, image_exponents
from random_trees import all_small_trees
from test_matrices import rank_oracle


def tree_map(t):
    return path_map(t, derive_graph(t))


def images(mm, i, j):
    row = image_exponents(mm, ((coord_var(mm.kind, i, j), 1),))
    return {tok: e for tok, e in zip(mm.params, row) if e}


class TestPathMap:
    def test_uncolored_binary_images(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        assert mm.kind == "p"
        assert images(mm, 0, 1) == {"1": 1, "5": 1, "7": 1}
        assert images(mm, 2, 4) == {"2": 1, "4": 1, "5": 1, "6": 1}
        assert images(mm, 3, 4) == {"3": 1, "4": 1}

    def test_colored_star_images(self):
        mm = tree_map(fixture_tree("colored_star"))
        assert mm.kind == "q"
        assert images(mm, 0, 4) == {"green": 2}  # squared center
        assert images(mm, 1, 2) == {"cyan": 2}  # shared leaf color
        assert images(mm, 0, 1) == {"blue": 1, "red": 1, "cyan": 1}
        assert images(mm, 3, 4) == {"yellow": 1, "green": 1}

    def test_two_leaf_tree(self):
        t = ColoredTree(2, {1: 3, 2: 3, 3: 0}, {1: "1", 2: "2", 3: "3"})
        mm = tree_map(t)
        assert images(mm, 1, 2) == {"1": 1, "2": 1}
        assert images(mm, 0, 1) == {"1": 1, "3": 1}
        assert images(mm, 0, 2) == {"2": 1, "3": 1}

    def test_zeroed_non_star_rejected(self):
        with pytest.raises(GraphError):
            tree_map(fixture_tree("zeroed_block_g3"))

    def test_center_from_star_decomposition(self, monkeypatch):
        t = fixture_tree("colored_star")
        g = derive_graph(t)

        def forbidden(self):
            raise AssertionError("path_map asked the tree for its center leaf")

        monkeypatch.setattr(ColoredTree, "center_leaf", forbidden)
        assert images(path_map(t, g), 0, 4) == {"green": 2}

    def test_zeroed_nodes_have_no_parameter(self):
        mm = tree_map(fixture_tree("colored_star"))
        assert set(mm.params) == {"blue", "cyan", "green", "red", "yellow"}


class TestInKernel:
    def test_classical_quadric(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        assert mm.in_kernel(parse_binomial("p02*p13 - p01*p23"))

    def test_shared_color_linear(self):
        mm = tree_map(fixture_tree("leafcolor_g1"))
        assert mm.in_kernel(parse_binomial("p01 - p02"))

    def test_distinct_colors_reject_linear(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        assert not mm.in_kernel(parse_binomial("p01 - p02"))

    def test_unknown_variable(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        with pytest.raises(KeyError):
            mm.in_kernel(parse_binomial("q01 - q02"))
        with pytest.raises(KeyError):
            mm.in_kernel(parse_binomial("p05 - p06"))


    def test_packed_images_cannot_carry(self):
        # p01 maps to a and p02 to b, so p02 - p01^(2^20) is outside the
        # kernel; packed at a digit width of 20 bits the trail's image
        # 2^20 a would carry into b's digit and equal the lead's.  The
        # width follows the degree, 2^20 times the largest exponent 1
        mm = MonomialMap(kind="p", n=2, params=("a", "b"), rows=((1, 0), (0, 1), (1, 1)))
        big = 2**20
        bad = parse_binomial(f"p02 - p01^{big}")
        lead, trail = (image_exponents(mm, m) for m in bad)
        assert (lead, trail) == ((0, 1), (big, 0))
        narrow = [sum(e << (20 * k) for k, e in enumerate(v)) for v in (lead, trail)]
        assert narrow[0] == narrow[1]
        assert not mm.in_kernel(bad)
        assert mm.packed_rows(big) == [1, 1 << 21, 1 + (1 << 21)]
        good = parse_binomial(f"p01^{big}*p02^{big} - p12^{big}")
        assert mm.in_kernel(good)
        # kernel_membership packs at the width of its highest degree
        t = next(t for t in all_small_trees(2) if classify(t).applicable)
        ctx = replace(build_context(t), mmap=mm)
        assert kernel_membership(ctx, [good])["passed"]
        assert kernel_membership(ctx, [good, bad])["failing"] == [bad.text()]


class TestRank:
    def test_uncolored_binary_rank(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        assert exponent_rank(mm) == 7
        assert rank_oracle(mm.rows) == 7

    def test_colored_star_rank_equals_occurring(self):
        mm = tree_map(fixture_tree("colored_star"))
        assert exponent_rank(mm) == len(mm.params) == 5
        assert exponent_rank(mm) == rank_oracle(mm.rows)

    def test_equal_rows_rank_one(self):
        mm = MonomialMap(kind="p", n=2, params=("a",), rows=((1,), (1,), (1,)))
        assert exponent_rank(mm) == 1

    def test_duplicate_column_detected(self):
        # fault injection: a duplicated parameter column drops the rank
        # below the parameter count
        mm = MonomialMap(
            kind="p",
            n=2,
            params=("a", "b"),
            rows=((1, 1), (2, 2), (0, 0)),
        )
        assert exponent_rank(mm) == 1 < len(mm.params)


class TestEvaluate:
    def test_all_ones(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        point = mm.evaluate({tok: Fraction(1) for tok in mm.params})
        assert all(v == 1 for v in point.values())

    def test_prime_assignment(self):
        mm = tree_map(fixture_tree("uncolored_binary"))
        theta = dict(zip(mm.params, map(Fraction, [2, 3, 5, 7, 11, 13, 17])))
        point = mm.evaluate(theta)
        # p34 -> theta3 * theta4 = 5 * 7
        assert point[coord_var("p", 3, 4)] == 35

    def test_squared_center(self):
        mm = tree_map(fixture_tree("colored_star"))
        theta = {tok: Fraction(1) for tok in mm.params}
        theta["green"] = Fraction(3)
        assert mm.evaluate(theta)[coord_var("q", 0, 4)] == 9

    def test_point_is_the_product_of_powers(self):
        # every row of every applicable small tree, the squared center too
        rng = random.Random(13)
        for t in all_small_trees(5):
            report = classify(t)
            if report.theorem == "NONE":
                continue
            mm = path_map(report.working_tree, report.graph)
            theta = [rng.randint(1, 10**4) for _ in mm.params]
            expected = [
                prod(value**e for value, e in zip(theta, row)) for row in mm.rows
            ]
            assert batch_of_one(mm.point, theta) == expected, t.to_dict()

    def test_missing_parameter(self):
        mm = tree_map(fixture_tree("colored_star"))
        with pytest.raises(KeyError):
            mm.evaluate({"green": Fraction(1)})

    def test_generators_vanish_pointwise(self):
        # kernel membership implies exact vanishing at parametrized points
        for name in ("colored_star", "leafcolor_g1", "zeroed_block_g2"):
            t = fixture_tree(name)
            report = classify(t)
            gens, kind = combined_binomials(report)
            mm = path_map(report.working_tree, report.graph)
            assert mm.kind == kind
            rng = random.Random(hash(name) % 10**6)
            for _ in range(5):
                theta = {
                    tok: Fraction(rng.randint(1, 60), rng.randint(1, 20))
                    for tok in mm.params
                }
                point = mm.evaluate(theta)
                assert all(b.evaluate(point) == 0 for b in gens)

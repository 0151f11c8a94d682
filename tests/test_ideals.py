"""Generator families: cherry quadrics, block minors, completion linears,
the sigma -> p/q variable rule, and the combined construction."""

import random
from itertools import combinations

import pytest

from treetoric.binomials import Binomial, coord_var, monomial, parse_binomial
from treetoric.classify import classify, coordinate_kind
from treetoric.errors import NotApplicableError
from treetoric.graphs import derive_graph, star_decomposition
from treetoric.ideals import (
    _linear,
    _minor,
    block_minor_binomials,
    cherry_binomials,
    combined_from_classification,
    combined_generators,
    completion_binomials,
    generators_json,
    generators_m2,
    generators_text,
)
from treetoric.monomials import path_map
from treetoric.trees import ColoredTree

from conftest import TREE_FIXTURES, fixture_tree, random_tree
from oracles import (
    bfs_path_oracle,
    connected_components,
    combined_via_sigma,
    depth_oracle,
    embed,
    lca_oracle,
    minor_by_make,
)
from test_graphs import complete_graph, make_graph


def B(text: str) -> Binomial:
    return parse_binomial(text)


class TestMinor:
    @pytest.mark.parametrize("kind", ["p", "q"])
    def test_matches_monomial_construction(self, kind):
        # every (i<j, k<l) over the vertices 1..7: shared indices (the cut
        # vertex in both pairs), diagonal pairs sigma_cc -> x_0c, and
        # (i,j) = (k,l), which gives x_0i x_0j - x_ij^2
        pairs = list(combinations(range(1, 8), 2))
        for i, j in pairs:
            for k, l in pairs:
                want = embed(minor_by_make("s", i, j, k, l), kind)
                assert _minor(kind, i, j, k, l) == want, (i, j, k, l)
        assert _minor(kind, 1, 2, 1, 2) == B(f"{kind}01*{kind}02 - {kind}12^2")
        # four distinct indices over 0..6, as the cherry quadrics use them
        # (root leaf 0 included): no diagonal pair, so no renaming at all
        for i, j, k, l in combinations(range(7), 4):
            for a, b, c, d in ((i, j, k, l), (i, k, j, l), (i, l, j, k)):
                assert _minor(kind, a, b, c, d) == minor_by_make(kind, a, b, c, d)


class TestCherryBinomials:
    def test_uncolored_binary_is_the_classical_ideal(self):
        got = set(cherry_binomials(fixture_tree("uncolored_binary")))
        assert got == {
            B("p14*p23 - p13*p24"),
            B("p04*p23 - p03*p24"),
            B("p02*p14 - p01*p24"),
            B("p04*p13 - p03*p14"),
            B("p02*p13 - p01*p23"),
        }

    def test_star_tree_unresolved_quadruples(self):
        # one internal node: every quadruple of {0,1..4} containing >= 3
        # leaves is a star quartet and contributes all three pairings
        t = ColoredTree(
            4,
            {1: 5, 2: 5, 3: 5, 4: 5, 5: 0},
            {1: "a", 2: "b", 3: "c", 4: "d", 5: "e"},
        )
        gens = cherry_binomials(t)
        mm = path_map(t, derive_graph(t))
        assert len(gens) == 15  # five quadruples x three pairings
        assert all(mm.in_kernel(b) for b in gens)

    def test_small_trees_empty(self):
        t = ColoredTree(2, {1: 3, 2: 3, 3: 0}, {1: "a", 2: "b", 3: "c"})
        assert cherry_binomials(t) == []
        assert cherry_binomials(ColoredTree(1, {1: 0}, {1: "a"})) == []

    def test_kind_follows_zeroing(self):
        for name, kind in (("uncolored_binary", "p"), ("colored_star", "q")):
            t = fixture_tree(name)
            assert coordinate_kind(t) == kind
            gens = cherry_binomials(t)
            assert gens and all(v[0] == kind for b in gens for v in b.variables())

    def test_split_agrees_with_deepest_lca_pairing(self):
        # the rule cherry_binomials relies on, between two oracles: the
        # pairing of minimal BFS-path distance sum has maximal lca-depth sum
        rng = random.Random(31)
        for _ in range(60):
            t = random_tree(rng, n_min=4)
            universe = [0] + t.leaves()
            pairs = list(combinations(universe, 2))
            deep = {p: depth_oracle(t, lca_oracle(t, *p)) for p in pairs}
            dist = {p: len(bfs_path_oracle(t, *p)) - 1 for p in pairs}
            for quad in combinations(universe, 4):
                a, b, c, d = quad
                pairings = [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]
                depth_sums = [deep[p1] + deep[p2] for p1, p2 in pairings]
                dist_sums = [dist[p1] + dist[p2] for p1, p2 in pairings]
                best = max(depth_sums)
                assert {i for i, s in enumerate(depth_sums) if s == best} == {
                    i for i, s in enumerate(dist_sums) if s == min(dist_sums)
                }


class TestBlockMinors:
    def test_complete_graph_empty(self):
        assert block_minor_binomials(complete_graph(4), "p") == []

    def test_star_graph(self):
        g = make_graph(4, [(1, 2), (1, 4), (2, 4), (3, 4)])
        assert set(block_minor_binomials(g, "q")) == {
            B("q13*q24 - q14*q23"),
            B("q04*q13 - q14*q34"),
            B("q04*q23 - q24*q34"),
        }
        assert set(block_minor_binomials(g, "p")) == {
            embed(B("s13*s24 - s14*s23"), "p"),
            embed(B("s44*s13 - s14*s34"), "p"),
            embed(B("s44*s23 - s24*s34"), "p"),
        }

    def test_path_graph_diagonal_minor(self):
        g = make_graph(3, [(1, 3), (2, 3)])
        assert block_minor_binomials(g, "p") == [B("p03*p12 - p13*p23")]
        assert block_minor_binomials(g, "q") == [embed(B("s33*s12 - s13*s23"), "q")]

    def test_matches_bipartition_minor_oracle(self):
        # oracle: all 2x2 minors of every Sigma_{A u C, B u C} block, in
        # sigma-variables, then embedded into the tree's coordinates
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            t = random_tree(rng, zero_mode="chain", leaf_mode="distinct")
            g = derive_graph(t)
            if star_decomposition(g) is None:
                continue
            oracle: set[Binomial] = set()
            for c in g.vertices():
                comps = connected_components(g, removed=c)
                if len(comps) < 2:
                    continue
                for split in range(1, 2 ** len(comps) - 1):
                    rows_set, cols_set = {c}, {c}
                    for idx, comp in enumerate(comps):
                        (rows_set if split & (1 << idx) else cols_set).update(comp)
                    for i, j in combinations(sorted(rows_set), 2):
                        for k, l in combinations(sorted(cols_set), 2):
                            if {i, j} & {k, l} - {c}:
                                continue
                            bino = Binomial.make(
                                monomial([coord_var("s", i, k), coord_var("s", j, l)]),
                                monomial([coord_var("s", i, l), coord_var("s", j, k)]),
                            )
                            if bino:
                                oracle.add(bino)
            kind = coordinate_kind(t)
            assert set(block_minor_binomials(g, kind)) == {embed(b, kind) for b in oracle}
            checked += 1


class TestCompletionBinomials:
    def test_all_distinct_empty(self):
        g = derive_graph(fixture_tree("uncolored_binary"))
        assert completion_binomials(g, "p") == []

    def test_one_shared_pair(self):
        g = derive_graph(fixture_tree("leafcolor_g1"))  # 1,2 share a color
        sigma = {B("s13 - s23"), B("s14 - s24"), B("s11 - s22")}
        assert set(completion_binomials(g, "p")) == {
            B("p13 - p23"),
            B("p14 - p24"),
            B("p01 - p02"),
        }
        assert set(completion_binomials(g, "q")) == {embed(b, "q") for b in sigma}

    def test_three_shared_vertices(self):
        g = make_graph(3, [(1, 2), (1, 3), (2, 3)])
        g = type(g)(
            n=3,
            vertex_color={1: "a", 2: "a", 3: "a"},
            edge_color=g.edge_color,
        )
        # 3 off-diagonal differences + 3 diagonal relations
        sigma = {
            B("s13 - s23"),
            B("s12 - s23"),
            B("s12 - s13"),
            B("s11 - s22"),
            B("s11 - s33"),
            B("s22 - s33"),
        }
        assert set(completion_binomials(g, "q")) == {
            B("q13 - q23"),
            B("q12 - q23"),
            B("q12 - q13"),
            B("q01 - q02"),
            B("q01 - q03"),
            B("q02 - q03"),
        }
        assert set(completion_binomials(g, "p")) == {embed(b, "p") for b in sigma}


class TestEmbeddings:
    """The rule sigma_ij -> x_ij, sigma_ii -> x_0i, applied as each
    variable is built; checked against the old sigma literals embedded."""

    def test_offdiagonal(self):
        assert _linear("p", 1, 3, 2, 3) == B("p13 - p23") == embed(B("s13 - s23"), "p")

    def test_diagonal_reduces(self):
        for kind in ("p", "q"):
            got = _linear(kind, 1, 1, 2, 2)
            assert got == B(f"{kind}01 - {kind}02") == embed(B("s11 - s22"), kind)

    def test_diagonal_minor(self):
        got = _minor("q", 1, 4, 3, 4)
        assert got == B("q04*q13 - q14*q34") == embed(B("s44*s13 - s14*s34"), "q")


class TestCombined:
    def test_leafcolor_g1_exact_set(self):
        t = fixture_tree("leafcolor_g1")
        gens, kind = combined_generators(t)
        assert kind == "p"
        expected = set(cherry_binomials(t)) | {
            B("p14 - p24"),
            B("p13 - p23"),
            B("p01 - p02"),
        }
        assert set(gens) == expected

    def test_zeroed_block_g2_is_the_reference_seven(self):
        gens, kind = combined_generators(fixture_tree("zeroed_block_g2"))
        assert kind == "q"
        assert set(gens) == {
            B("q03*q24 - q02*q34"),
            B("q14*q23 - q13*q24"),
            B("q04*q23 - q24*q34"),
            B("q03*q14 - q01*q34"),
            B("q02*q14 - q01*q24"),
            B("q04*q13 - q14*q34"),
            B("q02*q13 - q01*q23"),
        }

    def test_colored_star_contains_reference_generators(self):
        gens, kind = combined_generators(fixture_tree("colored_star"))
        assert kind == "q"
        reference = {
            B("q14 - q24"),
            B("q13 - q23"),
            B("q01 - q02"),
            B("q03*q24 - q02*q34"),
            B("q04*q23 - q24*q34"),
        }
        assert reference <= set(gens)

    def test_not_applicable_attaches_report(self):
        with pytest.raises(NotApplicableError) as exc:
            combined_generators(fixture_tree("leafcolor_g3"))
        assert exc.value.report is not None
        assert exc.value.report.theorem == "NONE"

    def test_deterministic_order(self):
        t = fixture_tree("colored_star")
        assert combined_generators(t) == combined_generators(t)

    def test_matches_sigma_construction_oracle(self):
        # the p/q families, deduped and sorted once, equal the sigma
        # families embedded one binomial at a time, as an ordered list
        rng = random.Random(2718)
        trees = [fixture_tree(name) for name in TREE_FIXTURES]
        trees += [random_tree(rng, n_max=14) for _ in range(300)]
        applicable = 0
        for t in trees:
            report = classify(t)
            if not report.applicable:
                continue
            applicable += 1
            gens, kind = combined_from_classification(report)
            assert kind == report.coordinates
            assert gens == combined_via_sigma(report), t.to_dict()
        assert applicable >= 100


class TestExports:
    def test_text_lines(self):
        gens, _ = combined_generators(fixture_tree("zeroed_block_g2"))
        text = generators_text(gens)
        lines = text.strip().split("\n")
        assert len(lines) == len(gens)
        assert all(parse_binomial(ln) in set(gens) for ln in lines)

    def test_json_shape(self):
        gens, kind = combined_generators(fixture_tree("colored_star"))
        doc = generators_json(gens, kind)
        assert doc["coordinates"] == "q"
        assert doc["count"] == len(gens)
        assert {"plus", "minus"} <= set(doc["generators"][0])

    def test_m2_script(self):
        gens, kind = combined_generators(fixture_tree("colored_star"))
        script = generators_m2(gens, kind, 4)
        assert script.startswith("R = QQ[q01, q02, q03, q04, q12")
        assert "I = ideal(" in script
        assert gens[0].text() in script

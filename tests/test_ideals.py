"""Generator families: cherry quadrics, block minors, completion linears,
the sigma -> p/q variable rule, and the combined construction."""

import json
import random
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from treetoric import cli, ideals
from treetoric.binomials import Binomial, coord_var, monomial, parse_binomial
from treetoric.classify import classify, coordinate_kind
from treetoric.errors import NotApplicableError
from treetoric.graphs import derive_graph, star_decomposition
from treetoric.ideals import (
    _Builder,
    binomials,
    block_minor_binomials,
    cherry_binomials,
    combined_from_classification,
    completion_binomials,
    generator_lines,
    generators_json,
    generators_m2,
    generators_text,
)
from treetoric.monomials import path_map
from treetoric.trees import ColoredTree

from conftest import (
    TREE_FIXTURES,
    cherry_quadrics,
    combined_binomials,
    fixture_tree,
    random_tree,
)
from oracles import (
    bfs_path_oracle,
    cherry_reference,
    connected_components,
    combined_reference,
    combined_via_sigma,
    depth_oracle,
    embed,
    generators_doc,
    generators_json_reference,
    generators_m2_reference,
    generators_text_reference,
    key_of,
    lca_oracle,
    minor_by_make,
)
from random_trees import all_small_trees
from test_cli import GOLDEN_RANDOM_SEEDS
from test_graphs import complete_graph, make_graph


def B(text: str) -> Binomial:
    return parse_binomial(text)


def _minor(kind: str, i: int, j: int, k: int, l: int) -> Binomial:
    """One minor from a builder over the indices 0..7."""
    return binomials([_Builder(7).minor(i, j, k, l)], kind, 7)[0]


def _linear(kind: str, i: int, j: int, k: int, l: int) -> Binomial:
    """One linear from a builder over the indices 0..7."""
    return binomials([_Builder(7).linear(i, j, k, l)], kind, 7)[0]


def decoded(family, g, kind: str) -> list[Binomial]:
    """A graph family's keys decoded in the given kind."""
    return binomials(family(g), kind, g.n)


def relabel_leaves(t: ColoredTree, pi: dict[int, int]) -> ColoredTree:
    """The tree with leaf i renamed pi[i]; internal nodes keep their ids."""
    n = t.n_leaves
    return ColoredTree(
        n,
        {pi[v] if v <= n else v: p for v, p in t.parent.items()},
        {pi[v] if v <= n else v: c for v, c in t.color.items()},
        t.zeroed,
    )


def rename_leaves(b: Binomial, pi: dict[int, int]) -> Binomial:
    """The binomial with every x_ij renamed x_pi(i)pi(j) (pi fixes 0)."""

    def rename(m):
        return tuple(sorted((coord_var(v[0], pi[v[1]], pi[v[2]]), e) for v, e in m))

    return Binomial.make(rename(b.lead), rename(b.trail))


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


class TestBuilderKeys:
    def test_key_order_is_tuple_order(self):
        # minors and linears over one n, decoded in one kind, none deduped:
        # the keys must order exactly as the (lead, trail) tuples do
        rng = random.Random(4242)
        shapes = {"squared": 0, "diagonal": 0, "linear": 0}
        for _ in range(80):
            n, kind = rng.randint(2, 14), rng.choice("pq")
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
            keyed = []
            for _ in range(60):
                builder = _Builder(n)
                draw = rng.randrange(3)
                if draw == 0 and n >= 3:  # distinct indices, as the cherry quadrics
                    key = builder.minor(*rng.sample(range(n + 1), 4))
                elif draw == 1:  # i < j, k < l over the vertices, as the block minors
                    i, j = sorted(rng.sample(range(1, n + 1), 2))
                    k, l = sorted(rng.sample(range(1, n + 1), 2))
                    if rng.random() < 0.2:  # x_0i x_0j - x_ij^2
                        k, l = i, j
                    key = builder.minor(i, j, k, l)
                else:  # diagonal pairs land on x_0i, as the completion linears
                    (i, j), (k, l) = rng.sample(pairs, 2)
                    key = builder.linear(i, j, k, l)
                (got,) = binomials([key], kind, n)
                keyed.append((key, got))
                terms = got.lead + got.trail
                shapes["squared"] += any(e == 2 for _, e in terms)
                shapes["diagonal"] += any(v[1] == 0 for v, _ in terms) and draw > 0
                shapes["linear"] += len(got.lead) == 1
            by_key = [b for _, b in sorted(keyed, key=lambda kb: kb[0])]
            assert by_key == sorted(b for _, b in keyed), (kind, n)
            assert len({k for k, _ in keyed}) == len({b for _, b in keyed}), (kind, n)
        assert min(shapes.values()) >= 50, shapes


class TestCherryBinomials:
    def test_uncolored_binary_is_the_classical_ideal(self):
        got = set(cherry_quadrics(fixture_tree("uncolored_binary")))
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
        gens = cherry_quadrics(t)
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
            gens = cherry_quadrics(t)
            assert gens and all(v[0] == kind for b in gens for v, _ in b.lead + b.trail)

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

    @staticmethod
    def _keys_and_reference(t: ColoredTree) -> list[int]:
        keys = cherry_binomials(t)
        assert keys == cherry_reference(t), t.to_dict()
        return keys

    def test_closed_form_matches_reference_scan(self):
        # the same keys in the same order as the per-quadruple scan that
        # compares depth sums and then keys each pairing by _Builder.minor
        stars = resolved = 0
        trees = list(all_small_trees(5))
        trees += [random_tree(random.Random(s), n_min=8, n_max=14) for s in GOLDEN_RANDOM_SEEDS]
        rng = random.Random(3307)
        trees += [random_tree(rng, n_min=n, n_max=n) for n in range(6, 17) for _ in range(4)]
        for t in trees:
            keys = self._keys_and_reference(t)
            quads = comb(t.n_leaves + 1, 4)
            star = (len(keys) - quads) // 2  # a star quadruple gives three keys
            stars, resolved = stars + star, resolved + quads - star
        assert stars > 20000 and resolved > 50000, (stars, resolved)
        # as binomials, through the one decoder
        for t in trees[::25]:
            want = binomials(cherry_reference(t), coordinate_kind(t), t.n_leaves)
            assert cherry_quadrics(t) == want

    @pytest.mark.parametrize(
        "lows", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 1, 0), (0, 2, 1), (1, 0, 2)]
    )
    def test_four_point_guard(self, lows):
        # A stub over the leaves 0..3 whose pairings 01|23, 02|13 and 03|12
        # have lca-depth sums ``lows``: every pair with leaf 0 meets at the
        # root (depth 0), and the pairs (2, 3), (1, 3) and (1, 2) meet at
        # nodes of depths lows[0], lows[1] and lows[2].  No tree ties
        # exactly two deepest pairings, so only a stub reaches the guard.
        depth = {0: 0, 10: lows[0], 11: lows[1], 12: lows[2]}
        t = SimpleNamespace(
            n_leaves=3,
            leaf_lca={(0, 1): 0, (0, 2): 0, (0, 3): 0, (2, 3): 10, (1, 3): 11, (1, 2): 12},
            depth=depth.__getitem__,
            leaves=lambda: [1, 2, 3],
        )
        if lows.count(max(lows)) == 2:
            for build in (cherry_binomials, cherry_reference):
                with pytest.raises(AssertionError, match="two deepest pairings"):
                    build(t)
        else:
            keys = cherry_binomials(t)
            assert keys == cherry_reference(t)
            assert len(keys) == (3 if len(set(lows)) == 1 else 1)


class TestBlockMinors:
    def test_complete_graph_empty(self):
        assert block_minor_binomials(complete_graph(4)) == []

    def test_star_graph(self):
        g = make_graph(4, [(1, 2), (1, 4), (2, 4), (3, 4)])
        assert set(decoded(block_minor_binomials, g, "q")) == {
            B("q13*q24 - q14*q23"),
            B("q04*q13 - q14*q34"),
            B("q04*q23 - q24*q34"),
        }
        assert set(decoded(block_minor_binomials, g, "p")) == {
            embed(B("s13*s24 - s14*s23"), "p"),
            embed(B("s44*s13 - s14*s34"), "p"),
            embed(B("s44*s23 - s24*s34"), "p"),
        }

    def test_path_graph_diagonal_minor(self):
        g = make_graph(3, [(1, 3), (2, 3)])
        assert decoded(block_minor_binomials, g, "p") == [B("p03*p12 - p13*p23")]
        assert decoded(block_minor_binomials, g, "q") == [embed(B("s33*s12 - s13*s23"), "q")]

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
            assert set(decoded(block_minor_binomials, g, kind)) == {embed(b, kind) for b in oracle}
            checked += 1


class TestCompletionBinomials:
    def test_all_distinct_empty(self):
        g = derive_graph(fixture_tree("uncolored_binary"))
        assert completion_binomials(g) == []

    def test_one_shared_pair(self):
        g = derive_graph(fixture_tree("leafcolor_g1"))  # 1,2 share a color
        sigma = {B("s13 - s23"), B("s14 - s24"), B("s11 - s22")}
        assert set(decoded(completion_binomials, g, "p")) == {
            B("p13 - p23"),
            B("p14 - p24"),
            B("p01 - p02"),
        }
        assert set(decoded(completion_binomials, g, "q")) == {embed(b, "q") for b in sigma}

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
        assert set(decoded(completion_binomials, g, "q")) == {
            B("q13 - q23"),
            B("q12 - q23"),
            B("q12 - q13"),
            B("q01 - q02"),
            B("q01 - q03"),
            B("q02 - q03"),
        }
        assert set(decoded(completion_binomials, g, "p")) == {embed(b, "p") for b in sigma}


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
        gens, kind = combined_binomials(classify(t))
        assert kind == "p"
        expected = set(cherry_quadrics(t)) | {
            B("p14 - p24"),
            B("p13 - p23"),
            B("p01 - p02"),
        }
        assert set(gens) == expected

    def test_zeroed_block_g2_is_the_reference_seven(self):
        report = classify(fixture_tree("zeroed_block_g2"))
        gens, kind = combined_binomials(report)
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
        gens, kind = combined_binomials(classify(fixture_tree("colored_star")))
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
            combined_from_classification(classify(fixture_tree("leafcolor_g3")))
        assert exc.value.report is not None
        assert exc.value.report.theorem == "NONE"

    def test_deterministic_order(self):
        t = fixture_tree("colored_star")
        first = combined_from_classification(classify(t))
        assert combined_from_classification(classify(t)) == first

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
            gens, kind = combined_binomials(report)
            assert kind == report.coordinates
            assert gens == combined_via_sigma(report), t.to_dict()
        assert applicable >= 100

    def test_matches_set_and_sort_reference(self):
        # the keyed build against the families deduped by a set and sorted
        # by tuple comparison, as an ordered list
        trees = list(all_small_trees(5))
        trees += [
            random_tree(random.Random(seed), n_min=8, n_max=14)
            for seed in GOLDEN_RANDOM_SEEDS
        ]
        rng = random.Random(606)
        trees += [
            random_tree(rng, n_min=6, n_max=14, zero_mode=mode)
            for mode in ("none", "chain", "random")
            for _ in range(70)
        ]
        applicable = 0
        for t in trees:
            report = classify(t)
            if report.applicable:
                applicable += 1
                gens, _ = combined_binomials(report)
                assert gens == combined_reference(report), t.to_dict()
        assert applicable >= 1000

    def test_leaf_relabelling_is_equivariant(self):
        # renaming the leaves by a permutation keeps the theorem and the
        # coordinate kind, and renames the generators with the leaves
        rng = random.Random(5)
        checked = 0
        for t in all_small_trees(5):
            leaves = t.leaves()
            pi = dict(zip([0] + leaves, [0] + rng.sample(leaves, len(leaves))))
            report, moved = classify(t), classify(relabel_leaves(t, pi))
            assert (moved.theorem, moved.coordinates) == (
                report.theorem,
                report.coordinates,
            ), (t.to_dict(), pi)
            if report.applicable:
                gens, _ = combined_binomials(report)
                got, _ = combined_binomials(moved)
                renamed = {rename_leaves(b, pi) for b in gens}
                assert renamed == set(got), (t.to_dict(), pi)
                checked += 1
        assert checked >= 1000


class TestExports:
    def test_text_lines(self):
        keys, kind = combined_from_classification(classify(fixture_tree("zeroed_block_g2")))
        gens = binomials(keys, kind, 4)
        text = generators_text(keys, kind, 4)
        lines = text.strip().split("\n")
        assert len(lines) == len(gens)
        assert all(parse_binomial(ln) in set(gens) for ln in lines)

    def test_json_shape(self):
        keys, kind = combined_from_classification(classify(fixture_tree("colored_star")))
        doc = json.loads(generators_json(keys, kind, 4))
        assert doc["coordinates"] == "q"
        assert doc["count"] == len(keys)
        assert {"plus", "minus"} <= set(doc["generators"][0])

    def test_json_matches_dict_form_through_stdlib(self):
        reports = [classify(fixture_tree(name)) for name in TREE_FIXTURES]
        reports += map(classify, all_small_trees())
        reports += [
            classify(random_tree(random.Random(seed), n_min=8, n_max=14))
            for seed in GOLDEN_RANDOM_SEEDS
        ]
        cases = [
            (*combined_from_classification(report), report.graph.n)
            for report in reports
            if report.applicable
        ]
        assert {kind for _, kind, _ in cases} == {"p", "q"}
        two_digit = {
            v
            for keys, kind, n in cases
            for b in binomials(keys, kind, n)
            for v, _ in b.lead + b.trail
            if v[2] > 9
        }
        assert two_digit  # names such as q3_12
        squared = parse_binomial("q01*q23 - q12^2")
        # a constant monomial renders as an empty array
        constant = Binomial(((coord_var("p", 1, 2), 1),), ())
        for kind in ("p", "q"):
            cases += [
                ([], kind, 3),
                ([key_of(squared, 3)], kind, 3),
                (sorted([key_of(constant, 3), key_of(squared, 3)]), kind, 3),
            ]
        for keys, kind, n in cases:
            gens = binomials(keys, kind, n)
            expected = json.dumps(generators_doc(gens, kind), indent=2, sort_keys=True)
            assert generators_json(keys, kind, n) == expected + "\n"

    def test_m2_script(self):
        keys, kind = combined_from_classification(classify(fixture_tree("colored_star")))
        gens = binomials(keys, kind, 4)
        script = generators_m2(keys, kind, 4)
        assert script.startswith("R = QQ[q01, q02, q03, q04, q12")
        assert "I = ideal(" in script
        assert gens[0].text() in script

    def test_key_renderers_match_the_binomial_renderers(self):
        # every format rendered from the key digits, byte for byte against
        # the renderers of the decoded binomials, whose decoding is the
        # set-and-sort union of the families
        reports = [classify(fixture_tree(name)) for name in TREE_FIXTURES]
        reports += [
            classify(random_tree(random.Random(seed), n_min=8, n_max=14))
            for seed in GOLDEN_RANDOM_SEEDS
        ]
        reports += map(classify, all_small_trees(5))
        cases = []
        for report in reports:
            if report.applicable:
                keys, kind = combined_from_classification(report)
                n = report.graph.n
                assert binomials(keys, kind, n) == combined_reference(report), report.tree.to_dict()
                cases.append((keys, kind, n))
        assert len(cases) >= 1000
        # no emitted generator has a squared factor or a constant monomial
        squared = parse_binomial("q01*q23 - q12^2")
        constant = Binomial(((coord_var("q", 1, 2), 1),), ())
        assert binomials([key_of(squared, 3), key_of(constant, 3)], "q", 3) == [squared, constant]
        for kind in ("p", "q"):
            cases += [([], kind, 3), (sorted([key_of(constant, 3), key_of(squared, 3)]), kind, 3)]
        for keys, kind, n in cases:
            gens = binomials(keys, kind, n)
            assert generators_text(keys, kind, n) == generators_text_reference(gens)
            assert generators_json(keys, kind, n) == generators_json_reference(gens, kind)
            assert generators_m2(keys, kind, n) == generators_m2_reference(gens, kind, n)
            assert generator_lines(keys, kind, n) == [b.text() for b in gens]

    @pytest.mark.parametrize("fmt", ["text", "json", "m2-script"])
    def test_generators_command_builds_no_binomial(self, monkeypatch, capsys, tmp_path, fmt):
        trees = [fixture_tree(name) for name in TREE_FIXTURES]
        trees += [
            random_tree(random.Random(seed), n_min=8, n_max=14) for seed in GOLDEN_RANDOM_SEEDS
        ]
        paths = []
        for index, t in enumerate(trees):
            if classify(t).applicable:
                paths.append(tmp_path / f"{index}.json")
                paths[-1].write_text(json.dumps(t.to_dict()))
        expected = []
        for path in paths:
            assert cli.main(["generators", "--tree", str(path), "--format", fmt]) == 0
            expected.append(capsys.readouterr().out)

        def forbidden(*args, **kwargs):
            raise AssertionError("the generators command built a Binomial")

        monkeypatch.setattr(ideals, "Binomial", forbidden)
        for path, out in zip(paths, expected):
            assert cli.main(["generators", "--tree", str(path), "--format", fmt]) == 0
            assert capsys.readouterr().out == out

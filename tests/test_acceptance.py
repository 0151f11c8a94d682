"""Acceptance suite: one test per criterion, one printed line per pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is an exact rational identity; there are no tolerances
anywhere, so "pass" means equality and a single failure is a real defect.
"""

import json
import random
from collections import Counter

from treetoric.binomials import coord_var, parse_binomial
from treetoric.classify import (
    NONE,
    THM_BLOCK_UNCOLORED,
    THM_COLORED_COMPLETE,
    THM_MAIN,
    WARN_NON_ADJACENT_MERGE,
    WARN_NON_VERTEX_REGULAR,
    classify,
    contract_internal_colors,
)
from treetoric.cli import EXIT_OK, main
from treetoric.errors import NotApplicableError
from treetoric.graphs import (
    derive_graph,
    is_vertex_regular,
    star_decomposition,
)
from treetoric.ideals import cherry_binomials, combined_from_classification
from treetoric.matrices import pattern_from_graph
from treetoric.monomials import path_map
from treetoric.pipeline import (
    build_context,
    forward_vanishing,
    kernel_membership,
    verify_tree,
)

from conftest import FIXTURES, TREE_FIXTURES, fixture_tree, random_tree
from oracles import (
    completion,
    four_point_check,
    has_non_adjacent_internal_merge,
    jordan_closed,
    vertex_regular_via_parents,
)

SWEEP_SEED = 20240810
SWEEP_SIZE = 500


def report(num: int, message: str) -> None:
    print(f"[acceptance] criterion {num}: PASS - {message}")


def B(text):
    return parse_binomial(text)


def test_criterion_1_colored_star_pipeline():
    t = fixture_tree("colored_star")
    g = derive_graph(t)
    assert sorted(g.edges) == [(1, 2), (1, 4), (2, 4), (3, 4)]
    assert g.vertex_color[1] == g.vertex_color[2]
    assert len({g.vertex_color[3], g.vertex_color[4], g.vertex_color[1]}) == 3

    rep = classify(t)
    assert rep.theorem == THM_MAIN

    reference = [
        B("q14 - q24"),
        B("q13 - q23"),
        B("q01 - q02"),
        B("q03*q24 - q02*q34"),
        B("q04*q23 - q24*q34"),
    ]
    ctx = build_context(t)
    assert kernel_membership(ctx, reference)["passed"]

    combined, _ = combined_from_classification(classify(t))
    forward = forward_vanishing(ctx, trials=100, seed=0, generators=combined + reference)
    assert forward["passed"] and forward["trials"] == 100
    report(1, "colored star tree: THM_MAIN, 5 reference generators in kernel, "
              "100/100 exact forward vanishing")


def test_criterion_2_uncolored_regression():
    t = fixture_tree("uncolored_binary")
    got = set(cherry_binomials(t))
    assert got == {
        B("p14*p23 - p13*p24"),
        B("p04*p23 - p03*p24"),
        B("p02*p14 - p01*p24"),
        B("p04*p13 - p03*p14"),
        B("p02*p13 - p01*p23"),
    }
    mm = path_map(t, derive_graph(t))

    def image(i, j):
        return {
            tok: e
            for tok, e in zip(mm.params, mm.row_of(coord_var("p", i, j)))
            if e
        }

    assert image(0, 1) == {"1": 1, "5": 1, "7": 1}
    assert image(3, 4) == {"3": 1, "4": 1}
    assert image(2, 4) == {"2": 1, "4": 1, "5": 1, "6": 1}
    report(2, "classical 4-leaf tree: exactly the 5 quadrics, expected "
              "path-map monomials")


def test_criterion_3_leaf_coloring_regressions():
    # G1: combined generators = I_T plus the three linear symmetries
    t1 = fixture_tree("leafcolor_g1")
    gens1, kind1 = combined_from_classification(classify(t1))
    assert kind1 == "p"
    assert set(gens1) == set(cherry_binomials(t1)) | {
        B("p14 - p24"),
        B("p13 - p23"),
        B("p01 - p02"),
    }

    # G2: the five reference linear generators lie in the kernel of its map
    t2 = fixture_tree("leafcolor_g2")
    mm2 = path_map(t2, derive_graph(t2))
    reference = [
        B("p23 - p24"),
        B("p14 - p24"),
        B("p13 - p24"),
        B("p03 - p04"),
        B("p01 - p02"),
    ]
    assert all(mm2.in_kernel(b) for b in reference)

    # G3: no theorem, flagged as non-vertex-regular
    rep3 = classify(fixture_tree("leafcolor_g3"))
    assert rep3.theorem == NONE
    assert WARN_NON_VERTEX_REGULAR in rep3.warnings
    report(3, "leaf colorings: G1 set equality, G2 reference linears in "
              "kernel, G3 NONE with warning")


def test_criterion_4_zeroed_block_regressions():
    t = fixture_tree("zeroed_block_g2")
    reference = [
        B("q03*q24 - q02*q34"),
        B("q14*q23 - q13*q24"),
        B("q04*q23 - q24*q34"),
        B("q03*q14 - q01*q34"),
        B("q02*q14 - q01*q24"),
        B("q04*q13 - q14*q34"),
        B("q02*q13 - q01*q23"),
    ]
    ctx = build_context(t)
    assert ctx.report.theorem == THM_BLOCK_UNCOLORED
    assert kernel_membership(ctx, reference)["passed"]
    forward = forward_vanishing(ctx, trials=100, seed=0, generators=reference)
    assert forward["passed"]

    rep3 = classify(fixture_tree("zeroed_block_g3"))
    assert rep3.theorem == NONE
    assert any("block" in r for r in rep3.reasons)
    report(4, "zeroed caterpillar: 7 reference generators in kernel and "
              "vanishing 100/100; non-block zeroing is NONE")


def test_criterion_5_derived_laplacian_fixture():
    code = main(["laplacian", "--tree", str(FIXTURES / "path_star.json"),
                 "--out", "/dev/null"])
    assert code == EXIT_OK

    from treetoric.laplacians import gamma_graph, gamma_laplacian
    from test_graphs import make_graph
    from test_laplacians import PATH_LAPLACIAN, PATH_WEIGHTS, random_sym

    g = make_graph(3, [(1, 3), (2, 3)])
    assert gamma_graph(g) == PATH_WEIGHTS
    assert gamma_laplacian(g) == PATH_LAPLACIAN

    from treetoric.laplacians import g_derived_laplacian_map

    cmap = g_derived_laplacian_map(g)
    rng = random.Random(55)
    for _ in range(100):
        m = random_sym(rng, 3)
        assert cmap.unapply(cmap.apply(m)) == m
    report(5, "path graph: 6 expected weights, expected 4x4 Laplacian, "
              "100/100 exact round trips")


def test_criterion_6_structural_sweep():
    rng = random.Random(SWEEP_SEED)
    stats = Counter()
    for idx in range(SWEEP_SIZE):
        t = random_tree(rng)
        g = derive_graph(t)

        # (b) the star test agrees with the distance characterization of
        # block graphs: every block derived graph is a star (the lemma in
        # classify's docstring)
        star = star_decomposition(g)
        assert (star is not None) == four_point_check(g), t.to_dict()

        # (a) zeroed block derived graphs are stars at the center leaf
        if t.zeroed and star is not None:
            assert star[0] == t.center_leaf(), t.to_dict()
            stats["star_cases"] += 1

        # (c) vertex-regularity matches the parent criterion (no zeroing;
        # evaluated on the contracted tree, where edge classes are canonical)
        if not t.zeroed and not has_non_adjacent_internal_merge(t):
            t2 = contract_internal_colors(t)
            assert is_vertex_regular(g) == vertex_regular_via_parents(t2), t.to_dict()
            stats["vr_cases"] += 1

        # (d) completion patterns are Jordan-closed, decided exactly; the raw
        # derived-graph pattern often is not, so the decision discriminates
        assert jordan_closed(pattern_from_graph(completion(g))), t.to_dict()
        stats["raw_not_closed"] += not jordan_closed(pattern_from_graph(g))

        # (e) theorem-classified trees pass the full exact suite
        try:
            result = verify_tree(t, trials=25, seed=idx)
        except NotApplicableError:
            stats["none"] += 1
            continue
        stats[result.theorem] += 1
        failing = [c["check"] for c in result.checks if not c["passed"]]
        assert result.passed, (t.to_dict(), failing)

    # the sweep must actually exercise each regime
    assert stats["star_cases"] >= 20
    assert stats["vr_cases"] >= 100
    assert stats["raw_not_closed"] >= 300
    assert stats[THM_MAIN] >= 10
    assert stats[THM_BLOCK_UNCOLORED] >= 20
    assert stats[THM_COLORED_COMPLETE] >= 50
    report(6, f"{SWEEP_SIZE}-tree sweep, zero failures "
              f"({stats[THM_COLORED_COMPLETE]} complete / "
              f"{stats[THM_BLOCK_UNCOLORED]} block / {stats[THM_MAIN]} main)")


def test_criterion_7_negative_controls():
    ctx = build_context(fixture_tree("colored_star"))
    bad = B("q01 - q12")
    assert not ctx.mmap.in_kernel(bad)
    forward = forward_vanishing(ctx, trials=1, seed=0, generators=[bad])
    assert not forward["passed"] and forward["failures"]

    rep = classify(fixture_tree("merge_nonadjacent"))
    assert rep.theorem == NONE
    assert WARN_NON_ADJACENT_MERGE in rep.warnings
    report(7, "fault-injected binomial detected; non-adjacent merge flags NONE")


def test_criterion_8_determinism(tmp_path):
    def run_suite(tag: str) -> bytes:
        blobs = []
        for name in TREE_FIXTURES:
            tree = str(FIXTURES / f"{name}.json")
            out = tmp_path / f"{tag}_{name}_analyze.json"
            assert main(["analyze", "--tree", tree, "--out", str(out)]) == EXIT_OK
            blobs.append(out.read_bytes())
            if classify(fixture_tree(name)).applicable:
                gen = tmp_path / f"{tag}_{name}_gens.txt"
                assert main(["generators", "--tree", tree, "--out", str(gen)]) == EXIT_OK
                blobs.append(gen.read_bytes())
                ver = tmp_path / f"{tag}_{name}_verify.json"
                assert (
                    main(
                        [
                            "verify", "--tree", tree,
                            "--trials", "10", "--seed", "0",
                            "--out", str(ver),
                        ]
                    )
                    == EXIT_OK
                )
                blobs.append(ver.read_bytes())
        return b"\x00".join(blobs)

    assert run_suite("run1") == run_suite("run2")
    report(8, "two full CLI sweeps over all fixtures are byte-identical")

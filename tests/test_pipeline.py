"""Classification, contraction, and the exact verification checks."""

from collections import Counter
from dataclasses import asdict, fields, replace
import random

import pytest

from treetoric import ideals, linalg, matrices, pipeline
from treetoric.binomials import Binomial, coord_var, monomial, parse_binomial
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
from treetoric.errors import NotApplicableError, TreeError
from treetoric.graphs import derive_graph
from treetoric.ideals import cherry_binomials
from treetoric.laplacians import CoordinateMap
from treetoric.matrices import SymMatrix, sample_projectives
from treetoric.pipeline import (
    _SEED_STRIDE,
    TRIAL_CHUNK,
    _trial_seed,
    build_context,
    dimension_report,
    forward_vanishing,
    kernel_membership,
    roundtrip_parametrization,
    VerificationReport,
    verify_tree,
)
from treetoric.trees import ColoredTree

from conftest import fixture_tree, random_tree
from oracles import (
    by_seed,
    forward_vanishing_reference,
    key_of,
    pattern_from_tree,
    pattern_of,
    roundtrip_reference,
    rows_of,
)
from random_trees import all_small_trees


EXPECTED_CLASSIFICATION = {
    "colored_star": THM_MAIN,
    "uncolored_binary": THM_COLORED_COMPLETE,
    "leafcolor_g1": THM_COLORED_COMPLETE,
    "leafcolor_g2": THM_COLORED_COMPLETE,
    "leafcolor_g3": NONE,
    "merge_adjacent": THM_COLORED_COMPLETE,
    "merge_nonadjacent": NONE,
    "zeroed_block_g1": THM_COLORED_COMPLETE,
    "zeroed_block_g2": THM_BLOCK_UNCOLORED,
    "zeroed_block_g3": NONE,
    "path_star": THM_BLOCK_UNCOLORED,
    "nonblock_toric_tree": NONE,
}

# All-ones parameters pull back to a singular matrix on this tree
# (found by scanning; kept to pin the skip-not-fail behavior).
SINGULAR_PULLBACK_TREE = ColoredTree(
    6,
    {1: 7, 2: 9, 3: 9, 4: 7, 5: 8, 6: 11, 7: 8, 8: 10, 9: 10, 10: 11, 11: 0},
    {
        1: "L1", 2: "L2", 3: "L3", 4: "L4", 5: "L5", 6: "L6",
        7: "I7", 8: "I8", 9: "I9", 11: "I11",
    },
    zeroed=[10],
)


class TestClassify:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED_CLASSIFICATION.items()))
    def test_fixture_tags(self, name, expected):
        assert classify(fixture_tree(name)).theorem == expected

    def test_colored_star_details(self):
        rep = classify(fixture_tree("colored_star"))
        assert rep.star_center == 4
        assert rep.coordinates == "q"
        assert rep.block and rep.vertex_regular and not rep.complete

    def test_g3_warning(self):
        rep = classify(fixture_tree("leafcolor_g3"))
        assert WARN_NON_VERTEX_REGULAR in rep.warnings

    def test_nonadjacent_warning(self):
        rep = classify(fixture_tree("merge_nonadjacent"))
        assert WARN_NON_ADJACENT_MERGE in rep.warnings
        assert rep.theorem == NONE

    def test_block_g3_reason(self):
        rep = classify(fixture_tree("zeroed_block_g3"))
        assert any("block" in r for r in rep.reasons)
        assert not rep.warnings

    def test_report_is_json_ready(self):
        import json

        doc = classify(fixture_tree("colored_star")).to_dict()
        json.dumps(doc)  # must not raise
        assert doc["theorem"] == THM_MAIN


class TestContraction:
    def test_merge_adjacent_matches_explicit_quotient(self):
        t = fixture_tree("merge_adjacent")
        t2 = contract_internal_colors(t)
        assert t2.internal_nodes() == [5, 7]
        assert t2.parent == {1: 5, 2: 5, 5: 7, 3: 7, 4: 7, 7: 0}
        # same derived graph, same cherry ideal as the explicit quotient tree
        manual = ColoredTree(
            4,
            {1: 5, 2: 5, 5: 7, 3: 7, 4: 7, 7: 0},
            {1: "cyan", 2: "yellow", 3: "magenta", 4: "violet", 5: "red", 7: "blue"},
        )
        assert derive_graph(t2).to_dict() == derive_graph(t).to_dict()
        assert cherry_binomials(t2) == cherry_binomials(manual)

    def test_identity_contraction(self):
        t = fixture_tree("uncolored_binary")
        assert contract_internal_colors(t) is t

    def test_nonadjacent_rejected(self):
        with pytest.raises(TreeError, match="non-adjacent"):
            contract_internal_colors(fixture_tree("merge_nonadjacent"))

    def test_contraction_with_zeroed_nodes(self):
        # adjacent merge above a zeroed node keeps the matrix pattern
        t = ColoredTree(
            4,
            {1: 5, 2: 5, 3: 6, 4: 7, 5: 6, 6: 7, 7: 0},
            {1: "a", 2: "b", 3: "c", 4: "d", 6: "x", 7: "x"},
            zeroed=[5],
        )
        t2 = contract_internal_colors(t)
        assert t2.zeroed == {5}
        assert pattern_from_tree(t2) == pattern_from_tree(t)


class TestChecks:
    def test_kernel_membership_combined(self):
        result = kernel_membership(build_context(fixture_tree("colored_star")))
        assert result["passed"] and result["generators"] >= 10

    def test_forward_vanishing_colored_star(self):
        result = forward_vanishing(
            build_context(fixture_tree("colored_star")), trials=20, seed=0
        )
        assert result["passed"]
        assert result["trials"] == 20

    def test_forward_vanishing_uncolored(self):
        result = forward_vanishing(
            build_context(fixture_tree("uncolored_binary")), trials=20, seed=1
        )
        assert result["passed"]

    def test_fault_injected_generator_fails(self):
        ctx = build_context(fixture_tree("uncolored_binary"))
        bad = parse_binomial("p01 - p12")
        assert not ctx.mmap.in_kernel(bad)
        result = forward_vanishing(ctx, trials=1, seed=0, generators=[bad])
        assert not result["passed"]
        assert result["failures"]

    def test_roundtrip_colored_star(self):
        result = roundtrip_parametrization(
            build_context(fixture_tree("colored_star")), trials=20, seed=0
        )
        assert result["passed"]
        assert result["trials"] == 20

    def test_roundtrip_uncolored(self):
        result = roundtrip_parametrization(
            build_context(fixture_tree("uncolored_binary")), trials=20, seed=3
        )
        assert result["passed"]

    def test_roundtrip_skips_singular_points(self, monkeypatch):
        # force every sampled parameter to 1: the pullback is singular for
        # this tree, so every trial must be skipped, none failed
        monkeypatch.setattr(
            pipeline, "uniform_draws", lambda label, seed, attempt, count, low, high: [1] * count
        )
        result = roundtrip_parametrization(
            build_context(SINGULAR_PULLBACK_TREE), trials=3, seed=0
        )
        assert result["skipped_singular"] == 3
        assert result["passed"]

    def test_checks_draw_independent_streams_per_trial(self, monkeypatch):
        # each check reads its trial's draws under its own label, so the
        # round trip's parameters are not read off the forward check's K
        calls = []
        original = matrices.uniform_draws

        def recorded(label, seed, attempt, count, low, high):
            draws = original(label, seed, attempt, count, low, high)
            calls.append((label, seed, attempt, draws))
            return draws

        monkeypatch.setattr(matrices, "uniform_draws", recorded)
        monkeypatch.setattr(pipeline, "uniform_draws", recorded)
        assert verify_tree(fixture_tree("uncolored_binary"), trials=5, seed=2).passed
        trial_seeds = [_trial_seed(2, k) for k in range(5)]
        for label in (matrices.SAMPLE_LABEL, pipeline.ROUNDTRIP_LABEL):
            assert [s for lab, s, a, _ in calls if lab == label and a == 0] == trial_seeds
        assert matrices.SAMPLE_LABEL != pipeline.ROUNDTRIP_LABEL
        for s in trial_seeds:
            forward, roundtrip = (
                original(label, s, 0, 40, 1, pipeline.ROUNDTRIP_BOUND)
                for label in (matrices.SAMPLE_LABEL, pipeline.ROUNDTRIP_LABEL)
            )
            assert forward != roundtrip

    @pytest.mark.parametrize("check", [forward_vanishing, roundtrip_parametrization])
    def test_zero_trials_rejected(self, check):
        ctx = build_context(fixture_tree("colored_star"))
        with pytest.raises(ValueError, match="trials must be at least 1"):
            check(ctx, trials=0, seed=0)

    @pytest.mark.parametrize("check", [forward_vanishing, roundtrip_parametrization])
    @pytest.mark.parametrize(
        "trials, seed, message",
        [(1, -1, "seed must be non-negative"), (_SEED_STRIDE + 1, 0, "trials must be at most")],
    )
    def test_runs_that_repeat_trials_rejected(self, check, trials, seed, message):
        ctx = build_context(fixture_tree("colored_star"))
        # trial k of seed s draws from trial seed s * stride + k, so a trial
        # past the stride replays the next seed's first trial; seeds are the
        # non-negative integers, so each run's trial seeds are its own range
        past, next_first = by_seed(
            sample_projectives(ctx.pattern, [_trial_seed(0, _SEED_STRIDE), _trial_seed(1, 0)])
        )
        assert past == next_first
        with pytest.raises(ValueError, match=message):
            check(ctx, trials=trials, seed=seed)

    def test_dimension_report(self):
        result = dimension_report(build_context(fixture_tree("uncolored_binary")))
        assert result["rank"] == result["occurring_parameters"] == 7
        assert result["passed"]

    @pytest.mark.parametrize(
        "name", ["colored_star", "zeroed_block_g2", "uncolored_binary"]
    )
    def test_dimension_fails_on_lost_parameter(self, name):
        # fault injection: a path map that loses a parameter (its column
        # zeroed) has rank one below the pattern's dimension
        ctx = build_context(fixture_tree(name))
        rows = tuple(row[:-1] + (0,) for row in ctx.mmap.rows)
        result = dimension_report(replace(ctx, mmap=replace(ctx.mmap, rows=rows)))
        assert result["rank"] == result["occurring_parameters"] - 1
        assert not result["passed"]

    def test_small_tree_corpus(self):
        # every tree with 2-5 leaves, every zeroed set, two leaf colorings:
        # the path map's parameters are the pattern's tokens, and every check
        # passes on every applicable tree, seeded by its corpus index
        shapes = Counter()
        trees = applicable = 0
        for i, t in enumerate(all_small_trees(5)):
            trees += 1
            if not t.zeroed and t.color[1] == "L1":
                shapes[t.n_leaves] += 1
            if not classify(t).applicable:
                continue
            ctx = build_context(t)
            assert ctx.mmap.params == tuple(ctx.pattern.tokens()), t.to_dict()
            for result in (
                kernel_membership(ctx),
                forward_vanishing(ctx, 2, i),
                roundtrip_parametrization(ctx, 2, i),
                dimension_report(ctx),
            ):
                assert result["passed"], (result["check"], t.to_dict())
            applicable += 1
        assert shapes == {2: 1, 3: 4, 4: 26, 5: 236}
        assert (trees, applicable) == (2800, 1286)


class TestTrialChunks:
    def test_batches_are_bounded_and_failures_stay_in_order(self, monkeypatch):
        # at 1 000 trials no batch of matrices exceeds the chunk, and the
        # reports equal those of one trial per batch: failures by trial,
        # then in generator order (the failing (2, 2) generator's shape group
        # is checked before the failing (1, 1) one's)
        sizes = []
        original = linalg.det_adjugates

        def recorded(n, entries):
            sizes.append(len(entries[0]))
            return original(n, entries)

        monkeypatch.setattr(linalg, "det_adjugates", recorded)
        ctx = build_context(fixture_tree("uncolored_binary"))
        gens = [ctx.generators[0]] + [
            parse_binomial(text) for text in ("p01 - p12", "p01*p02 - p12*p13", "p01*p02 - p12")
        ]
        classes = rows_of(ctx.pattern.size, ctx.pattern.classes)
        classes[0][1] = classes[1][0] = None
        wrong = replace(ctx, pattern=pattern_of(classes))
        reports = {}
        for chunk in (TRIAL_CHUNK, 7, 1):
            monkeypatch.setattr(pipeline, "TRIAL_CHUNK", chunk)
            sizes.clear()
            forward = forward_vanishing(ctx, trials=1000, seed=3, generators=gens)
            assert max(sizes) <= chunk and sum(sizes) >= 1000
            sizes.clear()
            roundtrip = roundtrip_parametrization(wrong, trials=1000, seed=3)
            assert max(sizes) <= chunk and sum(sizes) == 1000
            reports[chunk] = forward, roundtrip
        forward, roundtrip = reports[TRIAL_CHUNK]
        assert reports[7] == reports[1] == reports[TRIAL_CHUNK]
        assert [(f["trial"], f["generator"]) for f in forward["failures"]] == [
            (k, gens[pos].text()) for k in range(1000) for pos in (1, 2, 3)
        ]
        # (0, 1) is a structural zero of the wrong pattern alone
        assert roundtrip["failures"] == list(range(1000))

    def test_chunks_are_balanced(self, monkeypatch):
        # 65 and 129 trials run in chunks of near-equal size, none of size 1,
        # and the reports equal those of one trial per chunk and of the
        # Fraction references
        sizes = []
        original = linalg.det_adjugates

        def recorded(n, entries):
            sizes.append(len(entries[0]))
            return original(n, entries)

        monkeypatch.setattr(linalg, "det_adjugates", recorded)
        ctx = build_context(fixture_tree("colored_star"))
        reports = {}
        for trials, chunks in ((65, [33, 32]), (129, [43, 43, 43])):
            assert [len(chunk) for chunk in pipeline._chunks(trials)] == chunks
            sizes.clear()
            roundtrip = roundtrip_parametrization(ctx, trials, seed=2)
            assert sizes == chunks
            sizes.clear()
            forward = forward_vanishing(ctx, trials, seed=2)
            assert 1 not in sizes and sum(sizes) >= trials
            assert forward == forward_vanishing_reference(ctx, trials, seed=2)
            assert roundtrip == roundtrip_reference(ctx, trials, seed=2)
            reports[trials] = forward, roundtrip
        monkeypatch.setattr(pipeline, "TRIAL_CHUNK", 1)
        for trials, (forward, roundtrip) in reports.items():
            assert forward_vanishing(ctx, trials, seed=2) == forward
            assert roundtrip_parametrization(ctx, trials, seed=2) == roundtrip

    def test_fixture_trials_take_no_congruence(self, congruences):
        # no matrix drawn or pulled back on the fixtures has a zero leading
        # principal minor
        names = [name for name, theorem in EXPECTED_CLASSIFICATION.items() if theorem != NONE]
        assert len(names) == 8
        for name in names:
            ctx = build_context(fixture_tree(name))
            assert forward_vanishing(ctx, trials=25, seed=0)["passed"], name
            assert roundtrip_parametrization(ctx, trials=25, seed=0)["passed"], name
        assert congruences == []


class TestVerifyTree:
    def test_full_pass(self):
        report = verify_tree(fixture_tree("colored_star"), trials=10, seed=0)
        assert report.passed
        assert report.theorem == THM_MAIN
        assert [c["check"] for c in report.checks] == [
            "kernel_membership",
            "forward_vanishing",
            "roundtrip_parametrization",
            "dimension",
        ]

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            verify_tree(fixture_tree("leafcolor_g3"), trials=1, seed=0)

    def test_reports_reproducible(self):
        a = verify_tree(fixture_tree("zeroed_block_g2"), trials=8, seed=5)
        b = verify_tree(fixture_tree("zeroed_block_g2"), trials=8, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_to_dict_is_every_field_in_order(self):
        report = verify_tree(fixture_tree("zeroed_block_g2"), trials=3, seed=5)
        doc = report.to_dict()
        assert list(doc) == [f.name for f in fields(VerificationReport)]
        assert doc == asdict(report)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_tree(fixture_tree("colored_star"), trials=0, seed=0)

    @pytest.mark.parametrize("name", ["colored_star", "merge_nonadjacent"])
    @pytest.mark.parametrize("trials, seed", [(1, -1), (_SEED_STRIDE + 1, 0)])
    def test_seed_and_trial_bounds_come_first(self, name, trials, seed):
        # also on a NONE tree: the check runs before classification
        with pytest.raises(ValueError):
            verify_tree(fixture_tree(name), trials=trials, seed=seed)


class TestDerivedFactsOnce:
    def test_one_block_pass_per_context(self, block_passes, leaf_lca_passes):
        # classification, block minors and the path map share the derived
        # graph's one star structure, and the working tree's one lca table
        rng = random.Random(41)
        built = contracted = 0
        for _ in range(60):
            t = random_tree(rng, n_min=4, zero_mode="chain")
            block_passes.clear()
            leaf_lca_passes.clear()
            try:
                ctx = build_context(t)
            except NotApplicableError:
                continue
            assert t.zeroed, t.to_dict()
            assert block_passes == [ctx.report.graph], t.to_dict()
            assert leaf_lca_passes == [ctx.report.working_tree], t.to_dict()
            built += 1
            contracted += ctx.report.working_tree is not t
        assert built >= 20
        assert contracted


class TestKeyPositions:
    """The checks read each generator's factors off its key; an explicit
    list of the same binomials gives the same reports."""

    @staticmethod
    def _same_reports(ctx, trials, seed):
        kernel = kernel_membership(ctx)
        forward = forward_vanishing(ctx, trials, seed)
        assert kernel == kernel_membership(ctx, list(ctx.generators))
        assert forward == forward_vanishing(ctx, trials, seed, generators=list(ctx.generators))
        return kernel, forward

    def test_small_tree_corpus(self):
        # every applicable tree of all_small_trees(5), and the same trees
        # with the failing x_01 - x_12 keyed among their generators
        checked = failing = 0
        for i, t in enumerate(all_small_trees(5)):
            if not classify(t).applicable:
                continue
            ctx = build_context(t)
            kernel, forward = self._same_reports(ctx, 2, i)
            assert kernel["passed"] and forward["passed"], t.to_dict()
            bad = parse_binomial(f"{ctx.report.coordinates}01 - {ctx.report.coordinates}12")
            wrong = replace(ctx, keys=sorted(ctx.keys + [key_of(bad, t.n_leaves)]))
            kernel, forward = self._same_reports(wrong, 2, i)
            assert kernel["failing"] == [bad.text()], t.to_dict()
            assert {f["generator"] for f in forward["failures"]} == {bad.text()}
            checked += 1
            failing += len(forward["failures"])
        assert checked == 1286 and failing == 2 * checked

    def test_random_trees_up_to_12_leaves(self):
        rng = random.Random(61)
        sizes = Counter()
        while sum(sizes.values()) < 30:
            t = random_tree(rng, 6, 12)
            try:
                ctx = build_context(t)
            except NotApplicableError:
                continue
            sizes[t.n_leaves] += 1
            kernel, forward = self._same_reports(ctx, 3, len(sizes))
            assert kernel["passed"] and forward["passed"], t.to_dict()
        assert max(sizes) >= 11

    def test_verify_decodes_no_binomial(self, monkeypatch):
        # every applicable fixture passes with the one decoder patched to
        # raise: the checks read the keys, the report renders them
        def forbidden(*args, **kwargs):
            raise AssertionError("a key was decoded to a Binomial")

        monkeypatch.setattr(ideals, "binomials", forbidden)
        monkeypatch.setattr(pipeline, "binomials", forbidden)
        applicable = [name for name, thm in EXPECTED_CLASSIFICATION.items() if thm != NONE]
        for name in applicable:
            assert verify_tree(fixture_tree(name), trials=10, seed=3).passed, name
        assert len(applicable) == 8
        with pytest.raises(AssertionError, match="decoded"):
            build_context(fixture_tree("colored_star")).generators


class TestIntegerChecksMatchReference:
    """The integer-projective checks report exactly what the Fraction
    checks report, failing binomials and their values included."""

    @staticmethod
    def _failing_of_every_shape(k):
        """Binomials outside the ideal whose lead degree d and trail degree
        e have d = e, d > e, d < e, and a constant trail (e = 0)."""
        return [
            parse_binomial(f"{k}01 - {k}12"),
            parse_binomial(f"{k}01 - {k}01*{k}12"),
            parse_binomial(f"{k}12 - {k}01*{k}02"),
            Binomial.make(monomial([coord_var(k, 0, 1)]), ()),
        ]

    @pytest.mark.parametrize("zero_mode", ["none", "chain", "random"])
    def test_same_reports(self, zero_mode):
        rng = random.Random(29)
        applicable = 0
        for idx in range(40):
            t = random_tree(rng, zero_mode=zero_mode)
            try:
                ctx = build_context(t)
            except NotApplicableError:
                continue
            applicable += 1
            k = ctx.report.coordinates
            # an injected x_0a - x_ab and non-homogeneous binomials, the
            # lead's degree above and below the trail's, one trail constant
            extra = self._failing_of_every_shape(k)
            gens = ctx.generators + extra
            forward = forward_vanishing(ctx, trials=3, seed=idx, generators=gens)
            assert forward == forward_vanishing_reference(ctx, 3, idx, gens), t.to_dict()
            failing = {f["generator"] for f in forward["failures"]}
            assert failing == {b.text() for b in extra}, t.to_dict()
            roundtrip = roundtrip_parametrization(ctx, trials=3, seed=idx)
            assert roundtrip == roundtrip_reference(ctx, 3, idx), t.to_dict()
        assert applicable >= 10

    @staticmethod
    def _times(b, v):
        """The binomial b multiplied by the variable v, still in the ideal."""
        lead, trail = (monomial([v, *(u for u, e in m for _ in range(e))]) for m in b)
        return Binomial.make(lead, trail)

    def test_same_reports_for_every_degree_shape(self):
        # quadrics, cubics with and without a squared variable, and failing
        # binomials of degree 2 and 3 before and after the passing ones
        rng = random.Random(31)
        squared = 0
        for idx in range(40):
            t = random_tree(rng)
            try:
                ctx = build_context(t)
            except NotApplicableError:
                continue
            quadrics = [b for b in ctx.generators if sum(e for _, e in b.lead) == 2]
            if not quadrics:
                continue
            k = ctx.report.coordinates
            v = quadrics[0].lead[0][0]
            cubics = [self._times(b, v) for b in quadrics[:4]]
            squared += any(e == 2 for b in cubics for _, e in b.lead + b.trail)
            failing = [
                parse_binomial(f"{k}01*{k}02 - {k}12^2"),
                parse_binomial(f"{k}01^2*{k}12 - {k}02^3"),
            ]
            gens = failing[:1] + ctx.generators + cubics + failing[1:]
            forward = forward_vanishing(ctx, trials=3, seed=idx, generators=gens)
            assert forward == forward_vanishing_reference(ctx, 3, idx, gens), t.to_dict()
            expected = [b.text() for b in gens if not ctx.mmap.in_kernel(b)]
            assert [f["generator"] for f in forward["failures"]] == expected * 3
        assert squared >= 5

    def test_uneven_generators_scale_before_comparing(self, monkeypatch):
        # at a sample whose adjugate has every coordinate 1 and det 2, the
        # lead and trail products of p01^2 - p01 and p12*p13 - p01 are
        # equal, 1 = 1, yet at K^{-1} both are 1/4 - 1/2
        ctx = build_context(fixture_tree("uncolored_binary"))
        ones = ctx.cmap.sigma_upper([[1, 1]] * len(ctx.cmap.index))
        assert ctx.cmap.coordinates(ones) == [[1, 1]] * len(ctx.cmap.index)
        monkeypatch.setattr(
            pipeline,
            "sample_projectives",
            lambda pattern, seeds: matrices.ProjectiveSamples({}, [2] * len(seeds), ones),
        )
        gens = [parse_binomial("p01^2 - p01"), parse_binomial("p12*p13 - p01")]
        forward = forward_vanishing(ctx, trials=2, seed=0, generators=gens)
        assert [(f["trial"], f["generator"], f["value"]) for f in forward["failures"]] == [
            (k, b.text(), "-1/4") for k in (0, 1) for b in gens
        ]

    def test_failing_values_come_from_the_products_alone(self, monkeypatch):
        # every shape's failing value is read off the integer column
        # products: no dict point, no Binomial.evaluate, no exact inverse
        rng = random.Random(37)
        cases = []
        while len(cases) < 8:
            t = random_tree(rng)
            try:
                ctx = build_context(t)
            except NotApplicableError:
                continue
            extra = self._failing_of_every_shape(ctx.report.coordinates)
            gens = extra[:2] + ctx.generators + extra[2:]
            seed = len(cases)
            reference = forward_vanishing_reference(ctx, 3, seed, gens)
            assert {f["generator"] for f in reference["failures"]} == {b.text() for b in extra}
            cases.append((ctx, gens, seed, reference))

        def forbidden(*args, **kwargs):
            raise AssertionError("forward vanishing left the integer path")

        monkeypatch.setattr(Binomial, "evaluate", forbidden)
        monkeypatch.setattr(CoordinateMap, "apply", forbidden)
        monkeypatch.setattr(matrices, "invert_exact", forbidden)
        monkeypatch.setattr(pipeline, "invert_exact", forbidden)
        for ctx, gens, seed, reference in cases:
            assert forward_vanishing(ctx, trials=3, seed=seed, generators=gens) == reference

    def test_trials_hold_every_matrix_as_its_upper_triangle(self, monkeypatch):
        # both sampling checks pass on every applicable fixture with the
        # row-matrix boundary patched to raise: no exact inverse, no
        # SymMatrix, no rows <-> triangle conversion on the trial path
        def forbidden(*args, **kwargs):
            raise AssertionError("a trial left the upper triangle")

        monkeypatch.setattr(matrices, "invert_exact", forbidden)
        monkeypatch.setattr(pipeline, "invert_exact", forbidden)
        monkeypatch.setattr(CoordinateMap, "apply", forbidden)
        monkeypatch.setattr(CoordinateMap, "unapply", forbidden)
        for name in ("__init__", "upper", "from_upper"):
            monkeypatch.setattr(SymMatrix, name, forbidden)
        applicable = [name for name, thm in EXPECTED_CLASSIFICATION.items() if thm != NONE]
        for name in applicable:
            report = verify_tree(fixture_tree(name), trials=10, seed=3)
            assert report.passed, name
        assert len(applicable) == 8

    def test_variable_outside_coordinates_raises_key_error(self):
        ctx = build_context(fixture_tree("colored_star"))
        for text in ("q01 - q0_99", "q01*q02 - q12*q0_99", "q01 - q02*q0_99", "p01 - p02"):
            with pytest.raises(KeyError):
                forward_vanishing(ctx, trials=1, seed=0, generators=[parse_binomial(text)])

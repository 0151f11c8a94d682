"""Command-line interface: subcommands, exit codes, determinism."""

from collections import Counter, OrderedDict, defaultdict
import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetoric import cli, ideals, pipeline
from treetoric.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXIT_OUT_OF_RESOURCES,
    main,
)
from treetoric.binomials import parse_binomial
from treetoric.classify import (
    NONE,
    THM_BLOCK_UNCOLORED,
    THM_COLORED_COMPLETE,
    THM_MAIN,
    classify,
    coordinate_kind,
)
from treetoric.errors import (
    NotApplicableError,
    SamplingError,
    SingularMatrixError,
    TreeError,
)
from treetoric.trees import parse_tree

from conftest import FIXTURES, TREE_FIXTURES, fixture_tree, random_tree


def tree_path(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


class TestAnalyze:
    def test_colored_star(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["analyze", "--tree", tree_path("colored_star"), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["theorem"] == "THM_MAIN"
        assert doc["star_center"] == 4

    def test_stdout(self, capsys):
        assert main(["analyze", "--tree", tree_path("leafcolor_g3")]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem"] == "NONE"

    def test_every_fixture_analyzes(self, tmp_path):
        for name in TREE_FIXTURES:
            out = tmp_path / f"{name}.json"
            assert (
                main(["analyze", "--tree", tree_path(name), "--out", str(out)])
                == EXIT_OK
            )


class TestGenerators:
    def test_text_format(self, tmp_path):
        out = tmp_path / "gens.txt"
        code = main(
            ["generators", "--tree", tree_path("zeroed_block_g2"), "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7
        assert "q02*q13 - q01*q23" in lines

    def test_json_format(self, capsys):
        code = main(
            ["generators", "--tree", tree_path("colored_star"), "--format", "json"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["coordinates"] == "q"

    def test_m2_format(self, capsys):
        code = main(
            ["generators", "--tree", tree_path("colored_star"), "--format", "m2-script"]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("R = QQ[")

    def test_one_block_pass(self, block_passes, leaf_lca_passes, capsys):
        for name in ("colored_star", "zeroed_block_g2"):
            block_passes.clear()
            leaf_lca_passes.clear()
            code = main(["generators", "--tree", tree_path(name), "--format", "json"])
            assert code == EXIT_OK
            assert len(block_passes) == 1
            assert len(leaf_lca_passes) == 1

    def test_not_applicable_exit_2(self, capsys):
        code = main(["generators", "--tree", tree_path("leafcolor_g3")])
        assert code == EXIT_NOT_APPLICABLE
        assert "not applicable" in capsys.readouterr().err


class TestVerify:
    def test_colored_star_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--tree",
                tree_path("colored_star"),
                "--trials",
                "5",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_not_applicable(self):
        code = main(
            ["verify", "--tree", tree_path("merge_nonadjacent"), "--trials", "1"]
        )
        assert code == EXIT_NOT_APPLICABLE

    def test_every_fixture_verifies_or_exits_2(self, tmp_path):
        from treetoric.classify import classify
        from treetoric.trees import load_tree

        for name in TREE_FIXTURES:
            expected = (
                EXIT_OK
                if classify(load_tree(tree_path(name))).applicable
                else EXIT_NOT_APPLICABLE
            )
            code = main(
                [
                    "verify", "--tree", tree_path(name),
                    "--trials", "3", "--seed", "1",
                    "--out", str(tmp_path / f"{name}.json"),
                ]
            )
            assert code == expected, name

    def test_bad_trials(self):
        code = main(["verify", "--tree", tree_path("colored_star"), "--trials", "0"])
        assert code == EXIT_INPUT_ERROR

    def test_bad_trials_on_not_applicable_tree(self):
        # the trials check comes before classification
        code = main(["verify", "--tree", tree_path("merge_nonadjacent"), "--trials", "0"])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("name", ["colored_star", "merge_nonadjacent"])
    def test_negative_seed(self, name, capsys):
        code = main(["verify", "--tree", tree_path(name), "--seed", "-1"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: seed must be non-negative\n"


class TestLaplacian:
    def test_path_star_weights(self, capsys):
        code = main(["laplacian", "--tree", tree_path("path_star")])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        weights = {tuple(w["edge"]): w["weight"] for w in doc["gamma_weights"]}
        assert weights[(0, 1)] == "q01 - q13"
        assert weights[(0, 3)] == "q03 - q13 - q23"
        assert weights[(1, 2)] == "-q12"
        assert doc["laplacian"][0][0] == "q01 + q02 + q03 - 2*q13 - 2*q23"
        assert len(doc["reduced"]) == 3


class TestKernel:
    def test_reference_generators_pass(self, tmp_path, capsys):
        gens = tmp_path / "gens.txt"
        gens.write_text(
            "q14 - q24\nq13 - q23\nq01 - q02\n"
            "q03*q24 - q02*q34\nq04*q23 - q24*q34\n"
        )
        code = main(
            [
                "kernel",
                "--tree",
                tree_path("colored_star"),
                "--generators",
                str(gens),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_in_kernel"] is True
        assert len(doc["results"]) == 5

    def test_wrong_generator_fails(self, tmp_path, capsys):
        gens = tmp_path / "gens.txt"
        gens.write_text("q01 - q12\n")
        code = main(
            ["kernel", "--tree", tree_path("colored_star"), "--generators", str(gens)]
        )
        assert code == EXIT_CHECK_FAILED
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["in_kernel"] is False

    @pytest.mark.parametrize(
        "line,message",
        [
            ("q01*q09 - q02*q19", "outside coordinate range"),
            ("p01 - p12", "has kind 'p', map is 'q'"),
        ],
        ids=["out_of_range", "wrong_kind"],
    )
    def test_foreign_variable_is_input_error(self, tmp_path, capsys, line, message):
        gens = tmp_path / "gens.txt"
        gens.write_text(line + "\n")
        code = main(
            ["kernel", "--tree", tree_path("colored_star"), "--generators", str(gens)]
        )
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_exponent_below_one_is_input_error(self, tmp_path, capsys):
        gens = tmp_path / "gens.txt"
        gens.write_text("q14 - q24\nq01^0 - q02\n")
        code = main(
            ["kernel", "--tree", tree_path("colored_star"), "--generators", str(gens)]
        )
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: exponent below 1")

    def test_builds_no_generators(self, tmp_path, capsys, monkeypatch):
        # kernel reads only the tree's path map: with the generator builder
        # made to raise, every fixture gives the exit code, stdout and
        # stderr pinned by GOLDEN_KERNEL, and a NONE tree the stderr that
        # the generators command gives it
        files, refusals = {}, {}
        for name in TREE_FIXTURES:
            kind = coordinate_kind(fixture_tree(name))
            code = main(["generators", "--tree", tree_path(name)])
            captured = capsys.readouterr()
            if code == EXIT_NOT_APPLICABLE:
                refusals[name] = captured.err
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(captured.out + f"{kind}01 - {kind}12\n")

        def refuse(*args, **kwargs):
            raise AssertionError("kernel built the tree's generators")

        monkeypatch.setattr(ideals, "_Builder", refuse)
        digest = hashlib.sha256()
        for name in TREE_FIXTURES:
            code = main(["kernel", "--tree", tree_path(name), "--generators", str(files[name])])
            captured = capsys.readouterr()
            if name in refusals:
                assert code == EXIT_NOT_APPLICABLE and captured.err == refusals[name]
            digest.update(f"{name} {code}\n".encode())
            digest.update(captured.out.encode())
            digest.update(captured.err.encode())
        assert len(refusals) == 4
        assert digest.hexdigest() == GOLDEN_KERNEL


# SHA-256 over each tree fixture's name, exit code, stdout and stderr of
# `kernel` on a file of its own generators (none for a NONE tree) followed
# by x01 - x12 in its coordinate kind, which lies in no fixture's kernel.
GOLDEN_KERNEL = "c4cc2e2f3fea3831b656bd50c9be6c2d76b34bb29f98eb20212cc0e0a7fed768"


TWO_LEAVES = {
    "n_leaves": 2,
    "parents": {"1": 3, "2": 3, "3": 0},
    "colors": {"1": "a", "2": "b", "3": "c"},
}
COLORED_STAR = json.loads((FIXTURES / "colored_star.json").read_text())


class TestErrors:
    def test_missing_file(self):
        assert main(["analyze", "--tree", "/nonexistent.json"]) == EXIT_INPUT_ERROR

    def test_malformed_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n_leaves\": 2}")
        assert main(["analyze", "--tree", str(bad)]) == EXIT_INPUT_ERROR

    def test_invariant_violation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "n_leaves": 2,
                    "parents": {"1": 3, "2": 3, "3": 0},
                    "colors": {"1": "a", "2": "b"},
                    "zeroed": [3],
                }
            )
        )
        assert main(["analyze", "--tree", str(bad)]) == EXIT_INPUT_ERROR

    def test_oversized_leaf_count_rejected_before_allocating(self, tmp_path):
        # n_leaves far beyond the parents map must fail on the size check,
        # not after materializing the leaf range 1..n.
        doc = json.dumps(
            {
                "n_leaves": 10**6,
                "parents": {"1": 3, "2": 3, "3": 0},
                "colors": {"1": "a", "2": "b", "3": "c"},
            }
        )
        tracemalloc.start()
        try:
            with pytest.raises(TreeError):
                parse_tree(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        bad = tmp_path / "huge.json"
        bad.write_text(doc)
        assert main(["analyze", "--tree", str(bad)]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "text",
        [
            '{"n_leaves": 2, "parents": []}',
            '{"n_leaves": 2, "parents": {"1": 3, "2": 3, "3": 0}, "colors": []}',
            '{"n_leaves": 1e400, "parents": {"1": 3, "2": 3, "3": 0}}',
            "[" * 100_000,
            json.dumps({**COLORED_STAR, "zeroed": "6"}),
            json.dumps({**TWO_LEAVES, "n_leaves": 2.9}),
            json.dumps({"n_leaves": True, "parents": {"1": 0}, "colors": {"1": "a"}}),
            json.dumps({**TWO_LEAVES, "colors": {"1": None, "2": "b", "3": "c"}}),
            json.dumps({**TWO_LEAVES, "parents": {"1": 3, "2": 3, "3": False}}),
            json.dumps({**COLORED_STAR, "zeroed": [6.0]}),
            # node id keys that int() reads as another key's node
            json.dumps(
                {
                    "n_leaves": 4,
                    "parents": {"1": 5, "2": 5, "3": 5, "4": 6, "5": 6, "6": 0, "03": 6},
                    "colors": {"1": "a", "2": "b", "3": "c", "4": "d", "5": "e", "6": "f"},
                }
            ),
            json.dumps({**TWO_LEAVES, "colors": {**TWO_LEAVES["colors"], "0_3": "z"}}),
            json.dumps({**TWO_LEAVES, "parents": {"1": 3, "+2": 3, "3": 0}}),
            json.dumps({**TWO_LEAVES, "colors": {" 1": "a", "2": "b", "3": "c"}}),
            # repeated keys, which plain json.loads resolves to the last value
            '{"n_leaves": 2, "parents": {"1": 3, "2": 3, "3": 0},'
            ' "colors": {"1": "a", "1": "b", "2": "c", "3": "d"}}',
            '{"n_leaves": 3, "n_leaves": 2, "parents": {"1": 3, "2": 3, "3": 0},'
            ' "colors": {"1": "a", "2": "b", "3": "c"}}',
        ],
        ids=[
            "parents_list", "colors_list", "n_leaves_overflow", "deep_nesting",
            "zeroed_string", "n_leaves_float", "n_leaves_bool", "color_null",
            "parent_bool", "zeroed_float", "key_leading_zero", "key_underscore",
            "key_plus_sign", "key_space", "repeated_color_key", "repeated_n_leaves",
        ],
    )
    def test_malformed_schema_is_input_error(self, tmp_path, capsys, text):
        # each document is misread or crashes without the schema checks
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["analyze", "--tree", str(bad)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "exc",
        [SamplingError("no sample"), SingularMatrixError("singular")],
        ids=["sampling", "singular"],
    )
    def test_uncertifiable_check_exits_1(self, monkeypatch, capsys, exc):
        def fail(pattern, seeds):
            raise exc

        monkeypatch.setattr(pipeline, "sample_projectives", fail)
        code = main(["verify", "--tree", tree_path("colored_star"), "--trials", "1"])
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc}\n"


    @pytest.mark.parametrize("exc", [MemoryError, RecursionError])
    def test_exhausted_resources_exit_4(self, monkeypatch, capsys, exc):
        def exhaust(report):
            raise exc("too large")

        monkeypatch.setattr(cli, "combined_from_classification", exhaust)
        code = main(["generators", "--tree", tree_path("colored_star")])
        assert code == EXIT_OUT_OF_RESOURCES == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of resources ({exc.__name__})\n"


class TestDeterminism:
    @pytest.mark.parametrize("name", ["colored_star", "zeroed_block_g2"])
    def test_byte_identical_artifacts(self, tmp_path, name):
        paths = []
        for run in (1, 2):
            rep = tmp_path / f"v{run}.json"
            gen = tmp_path / f"g{run}.txt"
            assert (
                main(
                    [
                        "verify",
                        "--tree",
                        tree_path(name),
                        "--trials",
                        "5",
                        "--seed",
                        "7",
                        "--out",
                        str(rep),
                    ]
                )
                == EXIT_OK
            )
            assert (
                main(
                    ["generators", "--tree", tree_path(name), "--out", str(gen)]
                )
                == EXIT_OK
            )
            paths.append((rep.read_bytes(), gen.read_bytes()))
        assert paths[0] == paths[1]


class TestEmit:
    def test_large_document_is_written_in_slices(self, tmp_path):
        # a text stream encodes each write whole, so one write of a 16 MiB
        # document would lift the peak by a second 16 MiB copy
        text = "0123456789abcde\n" * (1 << 20)
        out = tmp_path / "big.txt"
        tracemalloc.start()
        try:
            cli._emit(text, str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(text) // 4
        assert out.read_text(encoding="utf-8") == text

    def test_slices_join_to_the_document_on_stdout(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "WRITE_SLICE", 7)
        for text in ("", "abc", "0123456789" * 5 + "\n"):
            cli._emit(text, None)
            assert capsys.readouterr().out == text


def stdlib_json(obj) -> str:
    """The layout ``cli._json`` reproduces, from the standard library."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Strings built from JSON's structural characters, escapes, control
# characters and non-ASCII text, besides arbitrary text.
_strings = st.text(
    st.sampled_from('"\\[]{},: /') | st.characters(max_codepoint=0x1F)
    | st.characters(min_codepoint=0x80),
    max_size=6,
) | st.text(max_size=6)
_scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, -1, True, False, None])
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | _strings
)
# Short arrays over a few scalars that compare equal but render
# differently, so that equal arrays recur at one depth and at several.
_colliding = st.sampled_from([0, 1, True, False, None, "a"])
_leaf_arrays = st.lists(_colliding, max_size=2) | st.lists(_colliding, max_size=2).map(tuple)
_values = st.recursive(
    _scalars | _leaf_arrays,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_values)
    def test_matches_stdlib(self, value):
        assert cli._json(value) == stdlib_json(value)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(_leaf_arrays, min_size=2, max_size=10))
    def test_recurring_arrays_match_stdlib(self, value):
        # equal arrays at one depth that render differently: [1] and [True],
        # [0] and [False]
        assert cli._json(value) == stdlib_json(value)

    def test_empty_containers_at_every_depth(self):
        value = {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": [{}], "f": ({"g": []},)}}
        assert cli._json(value) == stdlib_json(value)
        for empty in ([], {}, ()):
            assert cli._json(empty) == stdlib_json(empty)

    def test_equal_scalars_that_render_differently(self):
        # 1 == True and 0 == False, but each renders its own way
        value = [[1, True], [True, 1], [0, False, None], (1,), (True,), [0], [False]]
        assert cli._json(value) == stdlib_json(value)
        assert cli._json({"x": (1, "a"), "y": [(True, "a")]}) == stdlib_json(
            {"x": (1, "a"), "y": [(True, "a")]}
        )

    @pytest.mark.parametrize("key", [1, 1.5, True, None, (1, 2)])
    def test_non_string_key_raises(self, key):
        # the standard library converts int, float, bool and None keys; the
        # writer accepts only strings, which every artifact uses
        with pytest.raises(TypeError):
            cli._json({key: "value"})

    @pytest.mark.parametrize(
        "value",
        [
            OrderedDict(a=1),
            defaultdict(list),
            type("Text", (str,), {})("a"),
            type("Items", (list,), {})([1]),
            type("Pair", (tuple,), {})((1, 2)),
        ],
    )
    def test_container_and_string_subclasses_raise(self, value):
        # the writer dispatches on exact types; no artifact holds a subclass
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json({"a": [value]})

    def test_unserializable_value_raises(self):
        # no artifact holds a float, so the writer has no float branch
        for value in ({1, 2}, 0.5, float("nan")):
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._json({"a": [value]})

    def test_every_fixture_document(self, monkeypatch, tmp_path, capsys):
        """Each JSON document the subcommands write, checked as it is written;
        the generators document, rendered by ``ideals.generators_json``, is
        checked from stdout."""
        real, written = cli._json, []

        def checked(obj):
            text = real(obj)
            assert text == stdlib_json(obj)
            written.append(text)
            return text

        monkeypatch.setattr(cli, "_json", checked)
        expected = 0
        for name in TREE_FIXTURES:
            tree = tree_path(name)
            gens = tmp_path / f"{name}.txt"
            main(["analyze", "--tree", tree])
            main(["laplacian", "--tree", tree])
            expected += 2
            if main(["generators", "--tree", tree, "--out", str(gens)]) != EXIT_OK:
                continue
            capsys.readouterr()
            main(["generators", "--tree", tree, "--format", "json"])
            text = capsys.readouterr().out
            assert stdlib_json(json.loads(text)) == text
            written.append(text)
            main(["verify", "--tree", tree, "--trials", "2"])
            main(["kernel", "--tree", tree, "--generators", str(gens)])
            expected += 3
        capsys.readouterr()
        assert len(written) == expected


# SHA-256 of stdout from analyze and from generators in text, json and
# m2-script format, with the exit codes, for every tree fixture.  Perf
# changes must leave every artifact byte-identical; a deliberate format
# change updates these digests and says so in CHANGES.md.
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
GOLDEN = {
    "colored_star": [
        (0, "0955d2ab0af1dbf790213ecaf7b67f94df3636c810c0f54788c5631a4c4582c2"),
        (0, "1ade543e7d2c407c5043bf432cf3b01ce5a3402541cf2a25ea976149577efbc3"),
        (0, "24e933c026186763b4759a3c08538ae85d44ac77193dc72343d4c46591a08ac7"),
        (0, "7ad6d40ed3e34aeba1efff10615c102d51b0fd6a0f64ee545035fe8a09ce5d72"),
    ],
    "uncolored_binary": [
        (0, "9b0994e71c782d1111ec8e8e4f1485bf01635a312d7fe0b3f02f51853896d5cf"),
        (0, "cffcf8b6e62b0b751b9280849a3f4d107de1b4ffc5e03ea3d2de8f9d2ee6f537"),
        (0, "4a4ba099a7c852e2a6d0f6729e5f7978a36d0c75656575fa9a4366f10a74ba86"),
        (0, "c412fd1661ef2ee1a124eff76c3937ac9e9cf07d0c69a4daa4f28de6ff3dbf5b"),
    ],
    "leafcolor_g1": [
        (0, "82fc685c1e868d2106d2a419c025279d9b2a9725149692fd2b93e5af93011f12"),
        (0, "32c811da43d37570a450e4c4a398862164c8d9015a21a2e9139fffc67c264f8a"),
        (0, "30d62a3e99c8d49923fe5d83f4e636e1b4f1f3e721a150365dfe71530af0e676"),
        (0, "a4dd6edf2d53b96dd5ebb43688f05fa32b99e4ccc997633d0e38f02b9634d12e"),
    ],
    "leafcolor_g2": [
        (0, "edf803d9df6452c41774aaca9af4554346e85e56ed5f969ccc0a2e20eb87d6ca"),
        (0, "00ba951575a62358a23a810ea4d755b101ee58673d97f492d2dc9ac230c57b10"),
        (0, "30f4f9c950f1699cbdbc22663f7b8f56e940a8f212d168e02b972dec366eb6e9"),
        (0, "e406db15e719887c058641a175ac5937f9855cb1d12eacb308620beaf94878f5"),
    ],
    "leafcolor_g3": [
        (0, "b3f350645536d8eca9a9f7b37fb8e124439cc70733bd547638d9fb67327678e5"),
        (2, _EMPTY),
        (2, _EMPTY),
        (2, _EMPTY),
    ],
    "merge_adjacent": [
        (0, "456725df9d8e8d2c5dde75bbaea1456525c87f1c9fc5ec490bd476d4e34f49e4"),
        (0, "c4d100efe13b65d3106d3b20a7f81ce52fe93575ba43d1179735ba526170fd90"),
        (0, "7875d7b545bc4e4a8af598b3d948790f5e1dcdef50ce0fe39ee8e1e18b453f7d"),
        (0, "829046b230bdfa18d7a10af516b431afe8916514ba32c42421afe0d3487c3a6b"),
    ],
    "merge_nonadjacent": [
        (0, "68108c8c4e26831ec608360839d83d87f0c8d22ee72a9e8b32e6dc22a91539ad"),
        (2, _EMPTY),
        (2, _EMPTY),
        (2, _EMPTY),
    ],
    "zeroed_block_g1": [
        (0, "efa2c9d07f4ed3b3e7e104d69fe08ee9c79b38ee5ef1de5351c2342e42e7e619"),
        (0, "95beb62eb0c85501fc9fdafde191f8456504f42853a67ab641b98ddd6e4c66ea"),
        (0, "be12dc0e14b460502608b3ba5b27b5ec8e8d402a6660be454bf4b4f1d1108128"),
        (0, "793f6badf954614a1ea0be0d5c4f6ba285bccbd1ab8105fdaab80bc325ca5b3e"),
    ],
    "zeroed_block_g2": [
        (0, "48736c06163125445173b2f545f9edd4f848060f84ba039acb321962e5a43e07"),
        (0, "4ad466734a25796830a65d33ef6bdceac902fe43602539d5ec97f48dbdb8cc22"),
        (0, "64d46578936944639a1c4ae9a1690f0a81c8232cc88e1639942e034b12c99646"),
        (0, "3e4b8fa3e3dd464ecc07abd397d956c68bc04d9cfc22ab8e099be45f208b24cd"),
    ],
    "zeroed_block_g3": [
        (0, "5fc0493268702066f1863cf598fd892863596d8bdcff1021172ca9f286879f3d"),
        (2, _EMPTY),
        (2, _EMPTY),
        (2, _EMPTY),
    ],
    "path_star": [
        (0, "c7dfeceb32d38236ca5113ec4d64ca46e4e250b8dabb6480125b0c5718c044bc"),
        (0, "affdf3321cd83d16a950ce80b7d6bc60233d7308c1b042adfd9dbc8a64783967"),
        (0, "9d55c9a8633bec77a191b010df48431b488f0d47b6feea30a6b60d42976af8d7"),
        (0, "6a38f4d7baf22a953b5f876d820ae7784d5a974b92b6ddd9e9b66f0b293f27bf"),
    ],
    "nonblock_toric_tree": [
        (0, "b96969944b646cb500da87581478f4147e772538d73102b8959394316538581a"),
        (2, _EMPTY),
        (2, _EMPTY),
        (2, _EMPTY),
    ],
}


# Seeds of random_trees.random_tree draws (n 8-14) and the SHA-256 over each
# draw's seed, `generators --format json` exit code and stdout: three
# THM_COLORED_COMPLETE trees (two with completion linears), four
# THM_BLOCK_UNCOLORED, four THM_MAIN (block minors and completion linears)
# and one NONE.
GOLDEN_RANDOM_SEEDS = (0, 2, 36, 3, 54, 82, 140, 12, 41, 99, 144, 1)
GOLDEN_RANDOM = "39dba340d675ebdfdc6560cf222412543c3bfbbadcfda15e224e457402794e9c"
# The SHA-256 over each of those draws' seed, format, exit code and stdout
# of `generators --format text`, then `--format m2-script`: the two formats
# that spell two-digit variable names (p3_12) outside the JSON.
GOLDEN_RANDOM_TEXT_M2 = "f55050e2ce388371dda043fb1569c22a5b9d7c6417b9d981a2b37bf52811674a"

# SHA-256 over the `verify_tree(trials=3)` reports of 166 random draws with
# n 2-8, zeroing modes none/chain/random in turn, each draw seeded by its
# index and verified under that seed: 100 applicable trees across the three
# theorem regimes, and a "NONE" line for each of the 66 others.
GOLDEN_RANDOM_VERIFY_DRAWS = 166
GOLDEN_RANDOM_VERIFY = "a821975e9a3a8d824ff98f7de891cdb11e8b4a143856a3944e754ea615457938"


# `laplacian` exit code and SHA-256 of its stdout, for every tree fixture.
GOLDEN_LAPLACIAN = {
    "colored_star": (0, "3e13117022f7e4e51fcc4d10f27a3e3379ea841e77105d848bb19b288aa74053"),
    "uncolored_binary": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "leafcolor_g1": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "leafcolor_g2": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "leafcolor_g3": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "merge_adjacent": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "merge_nonadjacent": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "zeroed_block_g1": (0, "433c3925429e821d54218ab791772b791bab11ee525341fa80d7e22bfe7e3995"),
    "zeroed_block_g2": (0, "3e13117022f7e4e51fcc4d10f27a3e3379ea841e77105d848bb19b288aa74053"),
    "zeroed_block_g3": (0, "abf42f483a55e68e41256a5c3d9ab106ae7b8e7ecde800207239b79baf71a8d4"),
    "path_star": (0, "e3cf3696f8a10a5e04bd357367cfe6a7c6b6c11c7fba47d35dd440b796ff6bee"),
    "nonblock_toric_tree": (0, "abf42f483a55e68e41256a5c3d9ab106ae7b8e7ecde800207239b79baf71a8d4"),
}


# `verify --trials 10 --seed 0` exit code and SHA-256 of its stdout, for
# every tree fixture, and the SHA-256 of the forward_vanishing report, as
# json.dumps(indent=2, sort_keys=True), for the injected q01 - q12 on
# colored_star (3 trials, seed 0), whose failures carry exact rational values.
GOLDEN_VERIFY = {
    "colored_star": (0, "e10dfe8d6f53a48bcf675e5ade3845c3a175dc05dd1c19444c28b1410c46ef0c"),
    "uncolored_binary": (0, "6c3932d309c4089326e6b3624d9283cbcbdd3be823228328972f0fb6332db7a2"),
    "leafcolor_g1": (0, "1af371b571f3bd1df1a4af2551ae184a3150afdf28c555dfc3dc49a8f45c78a7"),
    "leafcolor_g2": (0, "19383a29b21a9a883301652860ff177ab8480a658312976805e0ec9fd9a07389"),
    "leafcolor_g3": (2, _EMPTY),
    "merge_adjacent": (0, "695ea12cf7011c3f82a5ad06e2761dbf10b70552789fc9ce28a2917b292c987a"),
    "merge_nonadjacent": (2, _EMPTY),
    "zeroed_block_g1": (0, "bf27630d2e374bb596572bcaa63c6e956a5320b58f1cb9985af767720aed3717"),
    "zeroed_block_g2": (0, "5cb67ab672731d78e9fb3c1c8bc9d1521f915da14726ebafb8fbb35ae1b3da58"),
    "zeroed_block_g3": (2, _EMPTY),
    "path_star": (0, "66e831d103df3d342c57ae8858289a0d9848808cdf22fb54eaa6732aa31ed917"),
    "nonblock_toric_tree": (2, _EMPTY),
}
GOLDEN_INJECTED = "6995ef8674c1e592f5a0e1dfc7beaa520ee23f95baf80113cd6f34e78afb7595"


class TestGoldenArtifacts:
    @pytest.mark.parametrize("name", TREE_FIXTURES)
    def test_stdout_digests(self, capsys, name):
        got = []
        for argv in (
            ["analyze"],
            ["generators", "--format", "text"],
            ["generators", "--format", "json"],
            ["generators", "--format", "m2-script"],
        ):
            code = main([argv[0], "--tree", tree_path(name), *argv[1:]])
            out = capsys.readouterr().out
            got.append((code, hashlib.sha256(out.encode()).hexdigest()))
        assert got == GOLDEN[name]

    @pytest.mark.parametrize("name", TREE_FIXTURES)
    def test_laplacian_digests(self, capsys, name):
        code = main(["laplacian", "--tree", tree_path(name)])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_LAPLACIAN[name]

    @pytest.mark.parametrize("name", TREE_FIXTURES)
    def test_verify_digests(self, capsys, name):
        code = main(["verify", "--tree", tree_path(name), "--trials", "10", "--seed", "0"])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_VERIFY[name]

    def test_injected_binomial_report_digest(self):
        ctx = pipeline.build_context(fixture_tree("colored_star"))
        bad = parse_binomial("q01 - q12")
        report = pipeline.forward_vanishing(ctx, trials=3, seed=0, generators=[bad])
        assert len(report["failures"]) == 3
        text = json.dumps(report, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_INJECTED

    def test_random_tree_generators_digest(self, capsys, tmp_path):
        # beyond n = 4: block minors through cut vertices, with their
        # diagonal variables, and completion linears on larger trees
        digest = hashlib.sha256()
        theorems = set()
        for seed in GOLDEN_RANDOM_SEEDS:
            t = random_tree(random.Random(seed), n_min=8, n_max=14)
            theorems.add(classify(t).theorem)
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(t.to_dict()))
            code = main(["generators", "--tree", str(path), "--format", "json"])
            digest.update(f"{seed} {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
        assert theorems == {THM_BLOCK_UNCOLORED, THM_MAIN, THM_COLORED_COMPLETE, NONE}
        assert digest.hexdigest() == GOLDEN_RANDOM

    def test_random_tree_text_and_m2_digest(self, capsys, tmp_path):
        digest = hashlib.sha256()
        two_digit = False
        for seed in GOLDEN_RANDOM_SEEDS:
            t = random_tree(random.Random(seed), n_min=8, n_max=14)
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(t.to_dict()))
            for fmt in ("text", "m2-script"):
                code = main(["generators", "--tree", str(path), "--format", fmt])
                out = capsys.readouterr().out
                two_digit |= "_1" in out
                digest.update(f"{seed} {fmt} {code}\n".encode())
                digest.update(out.encode())
        assert two_digit  # names such as p3_12
        assert digest.hexdigest() == GOLDEN_RANDOM_TEXT_M2

    def test_random_tree_verify_digest(self):
        digest = hashlib.sha256()
        theorems = Counter()
        for seed in range(GOLDEN_RANDOM_VERIFY_DRAWS):
            zero_mode = ("none", "chain", "random")[seed % 3]
            t = random_tree(random.Random(seed), zero_mode=zero_mode)
            try:
                report = pipeline.verify_tree(t, trials=3, seed=seed)
            except NotApplicableError:
                digest.update(f"{seed} NONE\n".encode())
                continue
            assert report.passed, t.to_dict()
            theorems[report.theorem] += 1
            text = json.dumps(report.to_dict(), sort_keys=True)
            digest.update(f"{seed} {text}\n".encode())
        assert set(theorems) == {THM_BLOCK_UNCOLORED, THM_MAIN, THM_COLORED_COMPLETE}
        assert sum(theorems.values()) == 100
        assert digest.hexdigest() == GOLDEN_RANDOM_VERIFY

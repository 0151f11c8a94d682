"""Command-line interface: subcommands, exit codes, determinism."""

import json
import tracemalloc

import pytest

from treetoric.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT_ERROR,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    main,
)
from treetoric import pipeline
from treetoric.errors import SamplingError, SingularMatrixError, TreeError
from treetoric.trees import parse_tree

from conftest import FIXTURES, TREE_FIXTURES


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
        ],
        ids=[
            "parents_list", "colors_list", "n_leaves_overflow", "deep_nesting",
            "zeroed_string", "n_leaves_float", "n_leaves_bool", "color_null",
            "parent_bool", "zeroed_float", "key_leading_zero", "key_underscore",
            "key_plus_sign", "key_space",
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
        def fail(pattern, seed):
            raise exc

        monkeypatch.setattr(pipeline, "sample_projective", fail)
        code = main(["verify", "--tree", tree_path("colored_star"), "--trials", "1"])
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc}\n"


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

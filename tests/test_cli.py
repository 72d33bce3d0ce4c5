import json

import pytest

from patavoid.cli import main
from patavoid.counting import count_avoiders, count_avoiders_many, count_avoiders_tree, enumerate_avoiders
from patavoid.perms import format_perm
from patavoid.survey import enumerate_symmetry_classes, fill_counts, random_experiment, run_survey_to_file
from patavoid.templates import generate_family, parse_template_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "count", "--patterns", "132", "--max-n", "6")
        assert code == 0
        assert out.strip() == "1,1,2,5,14,42,132"

    def test_from_one_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "--patterns", "132", "--max-n", "6", "--from-one", "--emit", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"patterns": ["132"], "counts": [1, 2, 5, 14, 42, 132], "max_n": 6}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--patterns", "12,21", "--max-n", "3", "--emit", "csv")
        assert code == 0
        assert out.splitlines() == ["n,count", "0,1", "1,1", "2,0", "3,0"]

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "count", "--patterns", "12", "--max-n", "3", "--enumerate")
        assert code == 0
        assert out.split() == ["321"]

    @pytest.mark.parametrize("flags, named", [
        (["--emit", "json"], "--emit json"),
        (["--emit", "csv"], "--emit csv"),
        (["--from-one"], "--from-one"),
        (["--emit", "json", "--from-one"], "--emit json"),
    ])
    def test_enumerate_refuses_output_flags_it_cannot_honour(self, capsys, flags, named):
        code, out, err = run(capsys, "count", "--patterns", "123", "--max-n", "3", "--enumerate", *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named} does not apply to --enumerate")

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "count", "--patterns", "12345x", "--max-n", "3")
        assert code == 1
        assert "12345x" in err and "position" in err

    def test_negative_budget_rejected(self, capsys):
        code, out, err = run(capsys, "count", "--patterns", "132", "--max-n", "3", "--node-budget", "-5")
        assert (code, out, err) == (1, "", "error: node budget must be >= 0, got -5\n")

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "count", "--patterns", "132", "--max-n", "10", "--node-budget", "20"
        )
        assert code == 2
        assert "budget" in err

    def test_byte_determinism(self, capsys):
        _, out1, _ = run(capsys, "count", "--patterns", "4321,1234", "--max-n", "7", "--emit", "json")
        _, out2, _ = run(capsys, "count", "--patterns", "4321,1234", "--max-n", "7", "--emit", "json")
        assert out1 == out2


class TestTemplate:
    def test_gen(self, capsys):
        code, out, _ = run(capsys, "template", "gen", "--templates", "231:101", "--n", "3")
        assert code == 0
        assert out.split() == ["123", "213", "231", "312", "321"]

    @pytest.mark.parametrize("n", range(8))
    def test_gen_lists_sorted_family(self, capsys, n):
        expected = [format_perm(pi) for pi in sorted(generate_family(parse_template_list("12:11,21:11"), n))]
        _, text, _ = run(capsys, "template", "gen", "--templates", "12:11,21:11", "--n", str(n))
        _, out, _ = run(capsys, "template", "gen", "--templates", "12:11,21:11", "--n", str(n), "--emit", "json")
        assert text.splitlines() == expected
        assert json.loads(out) == {"templates": ["12:11", "21:11"], "n": n, "size": len(expected), "members": expected}

    def test_gen_long_members_comma_separated(self, capsys):
        expected = [format_perm(pi) for pi in sorted(generate_family(parse_template_list("231:101"), 10))]
        _, text, _ = run(capsys, "template", "gen", "--templates", "231:101", "--n", "10")
        assert len(expected) == 16796 and text == "".join(f"{line}\n" for line in expected)

    def test_gen_negative_n(self, capsys):
        code, out, err = run(capsys, "template", "gen", "--templates", "12:11", "--n", "-1")
        assert (code, out, err) == (1, "", "error: n must be >= 0\n")

    def test_certify_text(self, capsys):
        code, out, _ = run(
            capsys,
            "template", "certify",
            "--templates", "45312:10101",
            "--patterns", "2143,2413,3142",
        )
        assert code == 0
        assert out.strip() == "verified: true (bound 10)"

    def test_certify_json(self, capsys):
        code, out, _ = run(
            capsys,
            "template", "certify",
            "--templates", "12:11",
            "--patterns", "12",
            "--emit", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "templates": ["12:11"],
            "patterns": ["12"],
            "bound": 2,
            "verified": False,
            "witness": "12",
        }

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, "template")
        assert code == 1 and "subcommand" in err


class TestAnalyze:
    def test_fib_like_json(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--seq", "1,2,6,12,18,26,39,60,94,149,238,382,615"
        )
        assert code == 0
        assert json.loads(out) == {"verdict": "fib_like", "threshold": 6, "a": 0, "b": -5}

    def test_polynomial_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--seq", "5,5,5,5,5")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "polynomial" and data["degree"] == 0
        assert data["coefficients"] == ["5"]

    def test_bad_entry(self, capsys):
        code, _, err = run(capsys, "analyze", "--seq", "1,2,three")
        assert code == 1 and "entry 3" in err


class TestSurveyCommands:
    def test_run_wilf_polyscan(self, capsys, tmp_path):
        out_path = str(tmp_path / "s.jsonl")
        code, out, _ = run(
            capsys, "survey",
            "--num-patterns", "2", "--pattern-length", "3",
            "--max-n", "8", "--out", out_path,
        )
        assert code == 0 and "symmetry classes" in out

        code, out, _ = run(capsys, "survey", "wilf", "--in", out_path, "--emit", "json")
        assert code == 0
        data = json.loads(out)
        assert data["records"] == 5 and data["horizon"] == 8
        assert 1 <= data["distinct_fingerprints"] <= 5

        code, out, _ = run(
            capsys, "survey", "polyscan", "--in", out_path, "--max-degree", "5", "--emit", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_degree"] == 5
        # {123,321} leaves nothing past n=4: its fingerprint ends in zeros,
        # while the doubling classes are exponential; only genuinely
        # polynomial classes may appear here
        for entry in data["classes"]:
            assert 1 <= entry["degree"] <= 5

    def test_run_requires_out(self, capsys):
        code, _, err = run(capsys, "survey", "--num-patterns", "2", "--pattern-length", "3")
        assert code == 1 and "--out" in err

    def test_run_below_four_terms(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        code, out, err = run(
            capsys, "survey", "--num-patterns", "1", "--pattern-length", "3", "--max-n", "3", "--out", str(path)
        )
        assert code == 0 and err == ""
        assert "surveyed 2 symmetry classes" in out
        assert path.read_text().splitlines()[0] == '{"class": ["123"], "orbit": 2, "counts": [1, 2, 5]}'
        code, out, _ = run(capsys, "survey", "wilf", "--in", str(path), "--emit", "json")
        assert code == 0 and json.loads(out)["horizon"] == 3

    def test_run_max_n_zero_rejected(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        code, out, err = run(
            capsys, "survey", "--num-patterns", "1", "--pattern-length", "3", "--max-n", "0", "--out", str(path)
        )
        assert code == 1 and out == ""
        assert "max_n must be >= 1" in err
        assert not path.exists()

    def test_resume_rejects_failures_under_another_budget(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        survey = ["survey", "--num-patterns", "1", "--pattern-length", "3", "--max-n", "9", "--out", str(path)]
        code, out, _ = run(capsys, *survey, "--node-budget", "30")
        assert code == 0 and "(2 budget failures)" in out
        before = path.read_bytes()
        code, out, err = run(capsys, *survey)
        assert code == 1 and out == ""
        assert f"{path}, line 1: " in err and "node budget 30" in err and "node budget 100000000" in err
        assert path.read_bytes() == before

    def test_resume_rejects_another_surveys_classes(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        survey = ["survey", "--pattern-length", "3", "--max-n", "6", "--out", str(path)]
        assert run(capsys, *survey, "--num-patterns", "1")[0] == 0
        before = path.read_bytes()
        code, out, err = run(capsys, *survey, "--num-patterns", "2")
        assert code == 1 and out == ""
        assert f"{path}, line 1: class {{123}}" in err
        assert path.read_bytes() == before

    def test_run_negative_num_patterns_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "s.jsonl"
        code, out, err = run(capsys, "survey", "--num-patterns", "-1", "--max-n", "6", "--out", str(out_path))
        assert (code, out, err) == (1, "", "error: num_patterns must be >= 0, got -1\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("length", ["-1", "0"])
    def test_run_pattern_length_below_one_rejected(self, capsys, tmp_path, length):
        out_path = tmp_path / "s.jsonl"
        survey = ["survey", "--num-patterns", "2", "--pattern-length", length, "--max-n", "6", "--out", str(out_path)]
        code, out, err = run(capsys, *survey)
        assert (code, out, err) == (1, "", f"error: pattern_length must be >= 1, got {length}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("horizon", ["-3", "0"])
    def test_wilf_horizon_below_one_rejected(self, capsys, tmp_path, horizon):
        path = str(tmp_path / "s.jsonl")
        survey = ["survey", "--num-patterns", "2", "--pattern-length", "3", "--out", path]
        assert run(capsys, *survey, "--max-n", "8")[0] == 0
        code, out, err = run(capsys, "survey", "wilf", "--in", path, "--max-n", horizon)
        assert (code, out) == (1, "")
        assert err == f"error: horizon must be >= 1, got {horizon}\n"

    @pytest.mark.parametrize("command", ["wilf", "polyscan"])
    def test_missing_input_file(self, capsys, tmp_path, command):
        path = str(tmp_path / "missing.jsonl")
        code, out, err = run(capsys, "survey", command, "--in", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and path in err

    def test_output_path_is_a_directory(self, capsys, tmp_path):
        survey = ["survey", "--num-patterns", "1", "--pattern-length", "3", "--max-n", "4", "--out", str(tmp_path)]
        code, out, err = run(capsys, *survey)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(tmp_path) in err
        assert list(tmp_path.iterdir()) == []

    def test_one_horizon_on_either_side_of_the_subcommand(self, capsys, tmp_path):
        path = str(tmp_path / "s.jsonl")
        code, out, _ = run(capsys, "survey", "--num-patterns", "2", "--pattern-length", "3", "--out", path)
        assert code == 0 and "to n=10 " in out  # a run without --max-n counts to N=10
        for command, extra in [("wilf", []), ("polyscan", ["--max-degree", "1"])]:
            for before, after in [([], []), (["--max-n", "5"], []), ([], ["--max-n", "5"])]:
                code, out, err = run(capsys, "survey", *before, command, "--in", path, *extra, *after, "--emit", "json")
                assert (code, err) == (0, "")
                assert json.loads(out)["horizon"] == (5 if before or after else 10)

    @pytest.mark.parametrize("command", ["wilf", "polyscan"])
    @pytest.mark.parametrize("flag, value", [
        ("--out", "/nonexistent/x"), ("--num-patterns", "2"), ("--pattern-length", "3"), ("--node-budget", "5"),
    ])
    def test_subcommands_refuse_run_flags(self, capsys, tmp_path, command, flag, value):
        path = str(tmp_path / "s.jsonl")
        assert run(capsys, "survey", "--num-patterns", "1", "--pattern-length", "3", "--max-n", "6", "--out", path)[0] == 0
        code, out, err = run(capsys, "survey", flag, value, command, "--in", path)
        assert (code, out, err) == (1, "", f"error: {flag} applies to a survey run, not to survey {command}\n")

    def test_polyscan_needs_four_terms(self, capsys, tmp_path):
        path = str(tmp_path / "s.jsonl")
        survey = ["survey", "--num-patterns", "1", "--pattern-length", "3", "--out", path]
        assert run(capsys, *survey, "--max-n", "3")[0] == 0
        code, out, err = run(capsys, "survey", "polyscan", "--in", path, "--max-degree", "0")
        assert (code, out) == (1, "")
        assert err == "error: need max_n >= 4 for a confirmed fit of degree up to 0, got 3\n"

    def test_polyscan_past_the_stored_counts(self, capsys, tmp_path):
        path = str(tmp_path / "s.jsonl")
        survey = ["survey", "--num-patterns", "1", "--pattern-length", "3", "--out", path]
        assert run(capsys, *survey, "--max-n", "8")[0] == 0
        code, out, err = run(capsys, "survey", "polyscan", "--in", path, "--max-degree", "1", "--max-n", "9")
        assert (code, out) == (1, "")
        assert err == "error: record {123} has fewer than 9 counts\n"

    @pytest.mark.parametrize("max_degree", ["0", "1"])
    def test_polyscan_at_four_terms(self, capsys, tmp_path, max_degree):
        path = str(tmp_path / "s.jsonl")
        survey = ["survey", "--num-patterns", "1", "--pattern-length", "3", "--out", path]
        assert run(capsys, *survey, "--max-n", "4")[0] == 0
        code, out, err = run(capsys, "survey", "polyscan", "--in", path, "--max-degree", max_degree)
        assert (code, err) == (0, "")
        assert out == f"polynomial classes (degree 1..{max_degree}) at horizon 4: 0\n"


class TestExperiment:
    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "experiment",
            "--num-patterns", "12", "--max-n", "9",
            "--trials", "10", "--seed", "3", "--emit", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["trials"] == 10 and data["seed"] == 3
        assert sum(data["buckets"].values()) == 10

    def test_negative_num_patterns_rejected(self, capsys):
        code, out, err = run(capsys, "experiment", "--num-patterns", "-1", "--max-n", "6", "--trials", "2")
        assert (code, out) == (1, "") and "num_patterns must be in 0..24, got -1" in err

    def test_max_n_below_three_rejected(self, capsys):
        code, out, err = run(capsys, "experiment", "--num-patterns", "12", "--max-n", "2", "--trials", "2")
        assert (code, out) == (1, "") and "max_n must be >= 3" in err

    def test_determinism(self, capsys):
        args = ["experiment", "--num-patterns", "12", "--max-n", "9",
                "--trials", "8", "--seed", "7", "--emit", "json"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestReproduce:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fiblike")
        assert code == 0
        assert out.startswith("PASS fiblike")

    def test_catalan(self, capsys):
        code, out, _ = run(capsys, "reproduce", "catalan")
        assert code == 0 and out.startswith("PASS catalan")

    def test_unknown_lists_ids(self, capsys):
        code, _, err = run(capsys, "reproduce", "nosuch")
        assert code == 1
        for claim in ("catalan", "table1", "sym1524", "wilf1100", "prop4", "prop7",
                      "fiblike", "experiment820"):
            assert claim in err


class TestParsing:
    def test_no_command_shows_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1 and "COMMAND" in out

    def test_bad_flag(self, capsys):
        code, _, err = run(capsys, "count", "--paterns", "132", "--max-n", "3")
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["experiment", "--num-patterns", "12", "--max-n", "8", "--trials", "5"],
        ["reproduce", "fiblike"],
    ])
    def test_workers_flag_gone(self, capsys, command):
        code, out, err = run(capsys, *command, "--workers", "2")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --workers 2" in err

    @pytest.mark.parametrize("command, flag", [
        (["count", "--patterns", "132", "--max-n", "5", "--naive"], "--naive"),
        (["reproduce", "fiblike", "--seed", "7"], "--seed 7"),
    ], ids=["count-naive", "reproduce-seed"])
    def test_engine_and_seed_flags_gone(self, capsys, command, flag):
        code, out, err = run(capsys, *command)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flag}" in err

    def test_survey_has_no_workers_flag(self, capsys, tmp_path):
        out_path = tmp_path / "s.jsonl"
        survey = ["survey", "--num-patterns", "2", "--pattern-length", "3", "--max-n", "6", "--out", str(out_path)]
        code, out, err = run(capsys, *survey, "--workers", "2")
        assert code == 1 and out == "" and "invalid choice: '2'" in err  # 2 is read as a subcommand
        code, out, err = run(capsys, *survey, "--workers=2")
        assert code == 1 and out == "" and "unrecognized arguments: --workers=2" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["abc", "-1", "5"])
    def test_node_budget_environment_variable_is_ignored(self, capsys, monkeypatch, tmp_path, value):
        # the node budget has one channel, the argument / --node-budget
        def outputs():
            path = tmp_path / "s.jsonl"
            path.unlink(missing_ok=True)
            got = [
                count_avoiders([(1, 3, 2)], 7),
                count_avoiders_many([[(1, 3, 2)], [(1, 2, 3), (3, 2, 1)]], 7),
                enumerate_avoiders([(1, 3, 2)], 5),
                count_avoiders_tree([(1, 3, 2)], 7),
                fill_counts(enumerate_symmetry_classes(1, 3), 7),
                random_experiment(12, 8, 3, 42),
                run_survey_to_file(1, 3, 7, str(path)),
                path.read_bytes(),
            ]
            path.unlink()
            cli_runs = [
                ["count", "--patterns", "132", "--max-n", "7"],
                ["survey", "--num-patterns", "1", "--pattern-length", "3", "--max-n", "7", "--out", str(path)],
                ["experiment", "--num-patterns", "12", "--max-n", "8", "--trials", "3"],
                ["reproduce", "catalan"],
            ]
            return got + [run(capsys, *argv) for argv in cli_runs]

        monkeypatch.delenv("PATAVOID_NODE_BUDGET", raising=False)
        unset = outputs()
        monkeypatch.setenv("PATAVOID_NODE_BUDGET", value)
        assert outputs() == unset


class TestArtifactRoundTrips:
    def test_count_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "count", "--patterns", "1234,1243,1342,4231",
                        "--max-n", "8", "--emit", "json")
        from patavoid.perms import parse_pattern_list, pattern_set
        data = json.loads(out)
        parsed = parse_pattern_list(",".join(data["patterns"]))
        assert parsed == pattern_set([(1,2,3,4),(1,2,4,3),(1,3,4,2),(4,2,3,1)])
        assert len(data["counts"]) == data["max_n"] + 1

    def test_certificate_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "template", "certify", "--templates", "45312:10101",
                        "--patterns", "2143,2413,3142", "--emit", "json")
        from patavoid.perms import parse_pattern_list
        from patavoid.templates import parse_template_list
        data = json.loads(out)
        assert parse_template_list(",".join(data["templates"]))[0].slots == "10101"
        assert len(parse_pattern_list(",".join(data["patterns"]))) == 3
        assert data["witness"] is None

    def test_survey_jsonl_round_trips(self, capsys, tmp_path):
        from patavoid.survey import read_survey
        path = str(tmp_path / "s.jsonl")
        run(capsys, "survey", "--num-patterns", "1", "--pattern-length", "3",
            "--max-n", "8", "--out", path)
        records = read_survey(path)
        assert [r.patterns for r in records] == [((1, 2, 3),), ((1, 3, 2),)]


class TestTextRenderers:
    """The text and CSV forms, byte for byte."""

    @pytest.mark.parametrize("seq, expected", [
        ("1,2,6,12,18,26,39,60,94,149,238,382,615", "fib_like threshold=6 a=0 b=-5"),
        ("1,3,6,10,15,21", "polynomial threshold=0 degree=2 coefficients=['1', '3/2', '1/2']"),
        ("1,2,0,0,0,0", "zero threshold=2"),
        ("1,2,4,8,16,32,64", "unclassified"),
    ])
    def test_analyze_text(self, capsys, seq, expected):
        assert run(capsys, "analyze", "--seq", seq, "--emit", "text") == (0, expected + "\n", "")

    @pytest.fixture
    def survey_file(self, capsys, tmp_path):
        path = str(tmp_path / "s.jsonl")
        survey = ["survey", "--num-patterns", "3", "--pattern-length", "3", "--max-n", "8", "--out", path]
        assert run(capsys, *survey)[0] == 0
        return path

    def test_survey_wilf_text(self, capsys, survey_file):
        assert run(capsys, "survey", "wilf", "--in", survey_file) == (
            0, "records: 5  failed: 0  horizon: 8  distinct fingerprints (Wilf lower bound): 3\n", ""
        )

    def test_survey_polyscan_text(self, capsys, survey_file):
        code, out, err = run(capsys, "survey", "polyscan", "--in", survey_file, "--max-degree", "4")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "polynomial classes (degree 1..4) at horizon 8: 3",
            "  degree 1: {123,132,231}",
            "  degree 1: {123,231,312}",
            "  degree 1: {132,213,231}",
        ]

    def test_survey_polyscan_csv(self, capsys, survey_file):
        code, out, err = run(capsys, "survey", "polyscan", "--in", survey_file, "--max-degree", "4", "--emit", "csv")
        assert (code, err) == (0, "")
        assert out == (
            "patterns,counts,degree\r\n"
            "123 132 231,1 2 3 4 5 6 7 8,1\r\n"
            "123 231 312,1 2 3 4 5 6 7 8,1\r\n"
            "132 213 231,1 2 3 4 5 6 7 8,1\r\n"
        )

    def test_experiment_text(self, capsys):
        code, out, err = run(
            capsys, "experiment", "--num-patterns", "12", "--max-n", "9", "--trials", "10", "--seed", "3"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "10 trials of 12 random patterns, counts to n=9, seed 3:",
            "  zero                 4  ( 40.0%)",
            "  constant             1  ( 10.0%)",
            "  degree_1             1  ( 10.0%)",
            "  degree_2             0  (  0.0%)",
            "  degree_3             0  (  0.0%)",
            "  higher_poly          0  (  0.0%)",
            "  non_polynomial       4  ( 40.0%)",
            "  fib-like among non-polynomial: 0/4",
        ]

    def test_certify_text_with_witness(self, capsys):
        code, out, err = run(capsys, "template", "certify", "--templates", "45312:10101", "--patterns", "1324")
        assert (code, err) == (0, "")
        assert out == "verified: false (bound 10, witness 524361 of length 6 contains 1324)\n"

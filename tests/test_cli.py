import json

import pytest

from patavoid.cli import main
from patavoid.perms import format_perm
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

    def test_naive_flag(self, capsys):
        code, out, _ = run(capsys, "count", "--patterns", "132", "--max-n", "5", "--naive")
        assert code == 0
        assert out.strip() == "1,1,2,5,14,42"

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "count", "--patterns", "12", "--max-n", "3", "--enumerate")
        assert code == 0
        assert out.split() == ["321"]

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "count", "--patterns", "12345x", "--max-n", "3")
        assert code == 1
        assert "12345x" in err and "position" in err

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

    @pytest.mark.parametrize("horizon", ["-3", "0"])
    def test_wilf_horizon_below_one_rejected(self, capsys, tmp_path, horizon):
        path = str(tmp_path / "s.jsonl")
        survey = ["survey", "--num-patterns", "2", "--pattern-length", "3", "--out", path]
        assert run(capsys, *survey, "--max-n", "8")[0] == 0
        code, out, err = run(capsys, "survey", "wilf", "--in", path, "--max-n", horizon)
        assert (code, out) == (1, "")
        assert err == f"error: horizon must be >= 1, got {horizon}\n"

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

    def test_survey_has_no_workers_flag(self, capsys, tmp_path):
        out_path = tmp_path / "s.jsonl"
        survey = ["survey", "--num-patterns", "2", "--pattern-length", "3", "--max-n", "6", "--out", str(out_path)]
        code, out, err = run(capsys, *survey, "--workers", "2")
        assert code == 1 and out == "" and "invalid choice: '2'" in err  # 2 is read as a subcommand
        code, out, err = run(capsys, *survey, "--workers=2")
        assert code == 1 and out == "" and "unrecognized arguments: --workers=2" in err
        assert not out_path.exists()

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PATAVOID_NODE_BUDGET", "20")
        code, _, err = run(capsys, "count", "--patterns", "132", "--max-n", "9")
        assert code == 2


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

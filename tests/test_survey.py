import dataclasses
import gc
import hashlib
import itertools
import json
import math
import multiprocessing.pool
import random
import re

import pytest

from patavoid import survey
from patavoid.counting import BudgetExceededError, count_avoiders
from patavoid.perms import SYMMETRIES, all_perms, apply_symmetry, canonicalize_set, pattern_set, symmetry_orbit
from patavoid.seqanalysis import ClassificationReport, classify, detect_fib_like
from patavoid.survey import (
    SurveyRecord,
    bucket_of,
    cluster_fingerprints,
    enumerate_symmetry_classes,
    fill_counts,
    polynomial_scan,
    random_experiment,
    read_survey,
    run_survey_to_file,
    sample_pattern_subset,
    wilf_survey,
)


def burnside_class_count(num_patterns, pattern_length):
    """
    The number of symmetry classes by Burnside's lemma: (1/8) times the sum
    over the symmetries g of [x^m] of the product over the cycles of g on
    the length-pattern_length patterns of (1 + x^cycle length).
    """
    total = 0
    for g in SYMMETRIES:
        poly = [1]
        unseen = set(all_perms(pattern_length))
        while unseen:
            start = unseen.pop()
            length, p = 1, apply_symmetry(g, start)
            while p != start:
                unseen.remove(p)
                length, p = length + 1, apply_symmetry(g, p)
            padded = poly + [0] * length
            poly = [c + (padded[i - length] if i >= length else 0) for i, c in enumerate(padded)]
        total += poly[num_patterns] if num_patterns < len(poly) else 0
    assert total % 8 == 0
    return total // 8


class TestSymmetryClasses:
    def test_singletons_of_length_three(self):
        records = enumerate_symmetry_classes(1, 3)
        assert [(r.patterns, r.orbit_size) for r in records] == [
            (((1, 2, 3),), 2),
            (((1, 3, 2),), 4),
        ]

    def test_full_subset_is_one_class(self):
        records = enumerate_symmetry_classes(24, 4)
        assert len(records) == 1 and records[0].orbit_size == 1

    def test_orbit_bookkeeping(self):
        records = enumerate_symmetry_classes(2, 3)
        assert sum(r.orbit_size for r in records) == math.comb(6, 2)
        for r in records:
            assert 8 % r.orbit_size == 0
            # the stored orbit size is the real orbit size
            assert r.orbit_size == len(symmetry_orbit(r.patterns))

    def test_canonical_forms_are_canonical(self):
        for r in enumerate_symmetry_classes(2, 3):
            assert canonicalize_set(r.patterns) == r.patterns

    def test_canonical_forms_agree_with_the_classes(self):
        # every subset of the patterns of length <= 3, and seeded random
        # subsets of the length-4 patterns: canonicalize_set lands on a class
        # whose orbit size is the subset's own
        rng = random.Random(18)
        pool = sorted(all_perms(4))
        cases = [
            (m, k, list(itertools.combinations(all_perms(k), m)))
            for k in (1, 2, 3) for m in range(math.factorial(k) + 1)
        ]
        cases += [(m, 4, [rng.sample(pool, m) for _ in range(20)]) for m in range(1, 9)]
        for m, k, subsets in cases:
            classes = {r.patterns: r.orbit_size for r in enumerate_symmetry_classes(m, k)}
            for subset in subsets:
                assert classes.get(canonicalize_set(subset)) == len(symmetry_orbit(subset)), subset

    @pytest.mark.parametrize("m, k", [(m, k) for k in (1, 2, 3) for m in range(math.factorial(k) + 1)]
                             + [(m, 4) for m in range(6)])
    def test_class_counts_match_burnside(self, m, k):
        assert len(enumerate_symmetry_classes(m, k)) == burnside_class_count(m, k)

    def test_burnside_counts_for_length_four(self):
        counts = [burnside_class_count(m, 4) for m in range(4, 13)]
        assert counts == [1524, 5733, 17728, 44767, 94427, 166786, 249624, 316950, 343424]

    def test_negative_num_patterns_rejected(self):
        with pytest.raises(ValueError, match="num_patterns must be >= 0, got -1"):
            enumerate_symmetry_classes(-1, 4)

    @pytest.mark.parametrize("length", [-1, 0])
    def test_pattern_length_below_one_rejected(self, length):
        with pytest.raises(ValueError, match=f"pattern_length must be >= 1, got {length}"):
            enumerate_symmetry_classes(2, length)

    def test_budget(self, monkeypatch):
        import patavoid.survey as survey

        monkeypatch.setattr(survey, "SUBSET_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            enumerate_symmetry_classes(4, 4)

    @pytest.mark.parametrize("num_patterns", [0, math.factorial(11)])
    def test_budget_bounds_the_pattern_universe(self, monkeypatch, num_patterns):
        # one subset, but 11! patterns to map: refused before symmetry_classes starts
        monkeypatch.setattr(survey, "symmetry_classes", lambda *args: pytest.fail("symmetry_classes called"))
        with pytest.raises(BudgetExceededError, match="^39916800 patterns of length 11 exceed the survey budget 10000000$"):
            enumerate_symmetry_classes(num_patterns, 11)


class TestWilfSurvey:
    def test_orbit_members_share_fingerprints(self):
        rng = random.Random(21)
        pool = list(all_perms(4))
        for _ in range(50):
            sigma = pattern_set(rng.sample(pool, rng.randrange(1, 5)))
            orbit = symmetry_orbit(sigma)
            counts = {count_avoiders(member, 8).counts for member in orbit}
            assert len(counts) == 1

    def test_small_survey_clusters(self):
        records = enumerate_symmetry_classes(2, 3)
        clustering = wilf_survey(records, 7)
        assert clustering.horizon == 7
        assert 1 <= clustering.num_distinct <= len(records)
        assert not clustering.failed
        for fingerprint, group in clustering.clusters.items():
            for record in group:
                assert tuple(record.counts[:7]) == fingerprint

    def test_short_records_rejected(self, tmp_path):
        # records counted to n=6 cannot carry fingerprints to horizon 8
        path = str(tmp_path / "survey.jsonl")
        run_survey_to_file(2, 3, 6, path)
        with pytest.raises(ValueError, match="fewer than 8 counts"):
            wilf_survey(read_survey(path), 8)

    @pytest.mark.parametrize("max_n", [1, 2, 3])
    def test_horizons_below_four_terms(self, max_n):
        # too few counts to classify: the records carry counts, no verdict
        records = enumerate_symmetry_classes(2, 3)
        clustering = wilf_survey(records, max_n)
        assert all(len(r.counts) == max_n and r.report is None for r in records)
        assert sum(len(group) for group in clustering.clusters.values()) == len(records)

    def test_budget_failures_recorded_not_raised(self):
        records = enumerate_symmetry_classes(1, 3)
        fill_counts(records, 9, node_budget=30)
        clustering = cluster_fingerprints(records, 9)
        assert len(clustering.failed) == len(records)
        for record in records:
            assert record.error is not None


class TestPolynomialScan:
    def _record(self, patterns, counts):
        return SurveyRecord(patterns=pattern_set(patterns), orbit_size=1, counts=tuple(counts))

    def test_flags_full_range_fits_only(self):
        quad = [n * n for n in range(1, 11)]
        late = [99, 98] + [n * n for n in range(3, 11)]  # fits only from index 2
        records = [
            self._record([(1, 2, 3)], quad),
            self._record([(1, 3, 2)], late),
        ]
        flagged = polynomial_scan(records, 10, 7)
        assert flagged == [(((1, 2, 3),), 2)]

    def test_constants_excluded(self):
        records = [self._record([(1, 2)], [3] * 10)]
        assert polynomial_scan(records, 10, 7) == []

    def test_sorted_by_degree_then_class(self):
        records = [
            self._record([(1, 3, 2)], [n**2 for n in range(1, 11)]),
            self._record([(1, 2, 3)], [n**2 + 1 for n in range(1, 11)]),
            self._record([(2, 1, 3)], [n for n in range(1, 11)]),
        ]
        flagged = polynomial_scan(records, 10, 7)
        assert [d for _, d in flagged] == [1, 2, 2]
        assert flagged[1][0] == ((1, 2, 3),)

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            polynomial_scan([], 9, 7)

    def test_negative_max_degree_rejected_before_any_record(self):
        # the bound was once checked only on a record with counts, so a file
        # of budget failures passed it
        def records():
            yield SurveyRecord(patterns=pattern_set([(1, 2, 3)]), orbit_size=2, error="budget", node_budget=30)
            raise AssertionError("a record was read")

        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            polynomial_scan(records(), 9, -1)


class TestRandomExperiment:
    def test_deterministic_given_seed(self):
        a = random_experiment(12, 9, 25, seed=5)
        b = random_experiment(12, 9, 25, seed=5)
        assert a.bucket_counts == b.bucket_counts
        assert [t.patterns for t in a.results] == [t.patterns for t in b.results]

    def test_tallies_read_off_classified_trials(self, monkeypatch):
        calls = []
        monkeypatch.setattr(survey, "classify", lambda seq: calls.append(seq) or classify(seq))
        result = random_experiment(12, 13, 60, seed=1)
        assert [f.name for f in dataclasses.fields(result)] == ["num_patterns", "max_n", "seed", "results"]
        buckets = [t.bucket for t in result.results]
        nonpoly = [t.counts for t in result.results if t.bucket == "non_polynomial"]
        assert result.trials == len(result.results) == 60
        assert result.bucket_counts == {b: buckets.count(b) for b in survey.BUCKETS}
        assert list(result.bucket_counts) == list(survey.BUCKETS)
        assert result.fractions == {b: buckets.count(b) / 60 for b in survey.BUCKETS}
        assert result.fib_like_strict == sum(t.report.verdict == "fib_like" for t in result.results)
        assert result.fib_like_nonpoly == sum(detect_fib_like(c, min_confirmations=4) is not None for c in nonpoly)
        # this draw tells the three tallies apart
        assert (len(nonpoly), result.fib_like_nonpoly, result.fib_like_strict) == (6, 4, 1)
        # classified in the run, once per trial, and never again for a tally
        assert calls == [list(t.counts) for t in result.results]

    def test_different_seeds_differ(self):
        a = random_experiment(12, 9, 25, seed=5)
        b = random_experiment(12, 9, 25, seed=6)
        assert [t.patterns for t in a.results] != [t.patterns for t in b.results]

    def test_worker_count_invariance(self):
        # the workers keyword is ignored
        assert random_experiment(12, 9, 20, seed=9, workers=2) == random_experiment(12, 9, 20, seed=9)

    def test_avoiding_everything_dies_at_four(self):
        result = random_experiment(24, 5, 10, seed=1)
        for trial in result.results:
            assert trial.counts[:4] == (1, 1, 2, 6)
            assert all(c == 0 for c in trial.counts[4:])

    def test_subset_sampling_uniform_shape(self):
        subset = sample_pattern_subset(3, 0, 12)
        assert len(subset) == 12 and len(set(subset)) == 12
        with pytest.raises(ValueError):
            sample_pattern_subset(3, 0, 25)

    def test_trials_precondition(self):
        with pytest.raises(ValueError):
            random_experiment(12, 9, 0, seed=1)

    def test_negative_num_patterns_rejected(self):
        with pytest.raises(ValueError, match="num_patterns must be in 0..24, got -1"):
            sample_pattern_subset(3, 0, -1)

    def test_max_n_below_three_rejected_before_counting(self, monkeypatch):
        import patavoid.survey as survey

        def never(*args, **kwargs):
            raise AssertionError("counted before the max_n check")

        monkeypatch.setattr(survey, "count_avoiders", never)
        with pytest.raises(ValueError, match="max_n must be >= 3"):
            random_experiment(12, 2, 2, seed=1)

    def test_bucket_mapping(self):
        assert bucket_of(ClassificationReport(verdict="zero")) == "zero"
        assert bucket_of(ClassificationReport(verdict="polynomial", degree=0)) == "constant"
        assert bucket_of(ClassificationReport(verdict="polynomial", degree=2)) == "degree_2"
        assert bucket_of(ClassificationReport(verdict="polynomial", degree=5)) == "higher_poly"
        assert bucket_of(ClassificationReport(verdict="fib_like")) == "non_polynomial"
        assert bucket_of(ClassificationReport(verdict="unclassified")) == "non_polynomial"


class TestPersistence:
    def test_round_trip_and_resume(self, tmp_path):
        path = str(tmp_path / "survey.jsonl")
        records = run_survey_to_file(2, 3, 8, path)
        assert len(records) == 5
        assert all(r.counts is not None for r in records)

        loaded = read_survey(path)
        assert [(r.patterns, r.orbit_size, r.counts) for r in loaded] == [
            (r.patterns, r.orbit_size, r.counts) for r in records
        ]

        # resuming appends nothing new
        before = open(path).read()
        run_survey_to_file(2, 3, 8, path)
        assert open(path).read() == before

    def test_jsonl_schema(self, tmp_path):
        path = str(tmp_path / "survey.jsonl")
        run_survey_to_file(1, 3, 8, path)
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0]["class"] == ["123"]
        assert rows[0]["orbit"] == 2
        assert rows[0]["counts"][0] == 1
        assert "verdict" in rows[0]

    def test_short_horizon_round_trips(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        records = run_survey_to_file(1, 3, 3, str(path))
        assert path.read_text().splitlines() == [
            '{"class": ["123"], "orbit": 2, "counts": [1, 2, 5]}',
            '{"class": ["132"], "orbit": 4, "counts": [1, 2, 5]}',
        ]
        loaded = read_survey(str(path))
        assert [(r.counts, r.report) for r in loaded] == [(r.counts, r.report) for r in records]
        assert all(r.report is None for r in loaded)
        assert run_survey_to_file(1, 3, 3, str(path))[0].counts == (1, 2, 5)

    def test_max_n_below_one_rejected_before_the_file(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            run_survey_to_file(1, 3, 0, str(path))
        assert not path.exists()

    def test_resume_after_torn_write_at_every_byte(self, tmp_path):
        whole = tmp_path / "whole.jsonl"
        run_survey_to_file(2, 3, 6, str(whole))
        data = whole.read_bytes()
        expected = [(r.patterns, r.counts) for r in read_survey(str(whole))]
        cut = tmp_path / "cut.jsonl"
        for offset in range(len(data) + 1):
            cut.write_bytes(data[:offset])
            complete = data[:offset].count(b"\n")
            assert len(read_survey(str(cut))) == complete
            records = run_survey_to_file(2, 3, 6, str(cut))
            assert cut.read_bytes() == data, offset
            assert [(r.patterns, r.counts) for r in records] == expected

    def test_bad_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(2, 3, 6, str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:20] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"{path}, line 3: "):
            read_survey(str(path))
        with pytest.raises(ValueError, match=f"{path}, line 3: "):
            run_survey_to_file(2, 3, 6, str(path))

    @pytest.mark.parametrize("collecting", [True, False])
    def test_read_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, collecting):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(2, 3, 6, str(path))
        bad = tmp_path / "bad.jsonl"
        bad.write_text(path.read_text() + "{\n")
        seen = []
        real_record = survey.record_from_json_dict

        def record(data):
            seen.append(gc.isenabled())
            return real_record(data)

        monkeypatch.setattr(survey, "record_from_json_dict", record)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert len(read_survey(str(path))) == 5 and gc.isenabled() == collecting
            with pytest.raises(ValueError, match=f"{bad}, line 6: "):
                read_survey(str(bad))
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * 10  # off while the records are read

    @pytest.mark.parametrize("text, why", [
        ("1a3", "invalid character 'a' at position 2"),
        ("113", "not a bijection on 1..3"),
        ("1,2,x", "invalid literal 'x' at entry 3"),
        (123, "not a string"),
    ])
    def test_bad_pattern_text_names_file_line_and_text(self, tmp_path, text, why):
        # lines 1 and 2 fill the parse memo before the bad text on line 3
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(2, 3, 6, str(path))
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        row["class"][0] = text
        lines[2] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        message = f"{path}, line 3: not a survey record (bad permutation {text!r}: {why}"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_survey(str(path))

    @pytest.mark.parametrize("field, value, why", [
        ("class", "1", "'1' is not a list of pattern texts, in field 'class'"),
        ("class", "1234", "'1234' is not a list of pattern texts, in field 'class'"),
        ("class", {"12": 1}, "{'12': 1} is not a list of pattern texts, in field 'class'"),
        ("class", ["12", [2, 1]], "bad permutation [2, 1]: not a string, in field 'class'"),
        ("class", ["12", "1x"], "bad permutation '1x': invalid character 'x' at position 2, in field 'class'"),
        ("orbit", 1.9, "1.9 is not an int >= 1, in field 'orbit'"),
        ("orbit", True, "True is not an int >= 1, in field 'orbit'"),
        ("orbit", 0, "0 is not an int >= 1, in field 'orbit'"),
        ("orbit", "4", "'4' is not an int >= 1, in field 'orbit'"),
        ("counts", [1.5, "2", True, 1], "[1.5, '2', True, 1] is not a list of ints, in field 'counts'"),
        ("counts", [1, True], "[1, True] is not a list of ints, in field 'counts'"),
        ("counts", "1,2", "'1,2' is not a list of ints, in field 'counts'"),
        ("error", 3, "3 is not a string, in field 'error'"),
        ("node_budget", 30.0, "30.0 is not an int, in field 'node_budget'"),
        ("node_budget", None, "None is not an int, in field 'node_budget'"),
        ("node_budget", False, "False is not an int, in field 'node_budget'"),
    ])
    def test_fields_are_read_strictly(self, tmp_path, field, value, why):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(2, 3, 6, str(path))
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[field] = value
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: not a survey record ({why})")):
            read_survey(str(path))

    def test_survey4x4_bytes(self, tmp_path):
        # the 1524 classes of four length-4 patterns to n=10, as every change so far has written them
        path = tmp_path / "survey4x4.jsonl"
        run_survey_to_file(4, 4, 10, str(path))
        assert hashlib.md5(path.read_bytes()).hexdigest() == "8c70c18ce32e64377d0bfb362e63b81d"

    def test_records_share_the_parsed_patterns(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(3, 3, 6, str(path))
        loaded = read_survey(str(path))
        assert [r.patterns for r in loaded] == [r.patterns for r in enumerate_symmetry_classes(3, 3)]
        # one tuple per distinct text of the file
        assert len({id(p) for r in loaded for p in r.patterns}) == len({p for r in loaded for p in r.patterns})

    def test_resume_at_other_horizon_rejected(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(2, 3, 6, str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"{path}, line 1: .*n=6.*n=8"):
            run_survey_to_file(2, 3, 8, str(path))
        assert path.read_bytes() == before


    def test_error_records_state_their_budget(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(1, 3, 9, str(path), node_budget=30)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(row) for row in rows] == [["class", "orbit", "error", "node_budget"]] * 2
        assert [row["node_budget"] for row in rows] == [30, 30]
        assert [r.node_budget for r in read_survey(str(path))] == [30, 30]
        # the same budget reuses them
        before = path.read_bytes()
        records = run_survey_to_file(1, 3, 9, str(path), node_budget=30)
        assert path.read_bytes() == before
        assert all(r.error is not None for r in records)

    def test_resume_rejects_failures_under_another_budget(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(1, 3, 9, str(path), node_budget=30)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"{path}, line 1: .*node budget 30.*node budget 1000"):
            run_survey_to_file(1, 3, 9, str(path), node_budget=1000)
        assert path.read_bytes() == before
        # a failure stored without its budget cannot be reused either
        path.write_text(before.decode().replace(', "node_budget": 30', ""))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"{path}, line 1: .*no node budget.*node budget 30"):
            run_survey_to_file(1, 3, 9, str(path), node_budget=30)
        assert path.read_bytes() == before

    def test_resume_rejects_another_surveys_classes(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(1, 3, 6, str(path))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 1: class {{123}} is not one of the 5 classes")):
            run_survey_to_file(2, 3, 6, str(path))
        assert path.read_bytes() == before

    def test_record_without_counts_or_error_rejected(self, tmp_path):
        # the program never writes a class with neither; a resume once counted it again and appended it
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(1, 3, 5, str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = '{"class": ["123"], "orbit": 2}\n'
        path.write_text("".join(lines))
        before = path.read_bytes()
        message = f"{path}, line 1: not a survey record (neither 'counts' nor 'error' is present)"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_survey_to_file(1, 3, 5, str(path))
        assert path.read_bytes() == before
        with pytest.raises(ValueError, match=re.escape(message)):
            read_survey(str(path))

    def test_resume_rejects_a_class_stored_twice(self, tmp_path):
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(1, 3, 5, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[:1]))
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: class {{123}} is stored twice")):
            run_survey_to_file(1, 3, 5, str(path))
        assert path.read_bytes() == before

    def test_read_rejects_a_class_stored_twice(self, tmp_path):
        # every reader refuses the file the resume refuses, rather than counting the class twice
        path = tmp_path / "survey.jsonl"
        run_survey_to_file(2, 3, 5, str(path))
        path.write_text(path.read_text() * 2)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 6: class {{123,132}} is stored twice")):
            read_survey(str(path))


class TestWorkers:
    def test_survey_workers_start_no_pool(self, monkeypatch, tmp_path):
        # both still take a worker count, and ignore it: every count runs in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        default, two = tmp_path / "default.jsonl", tmp_path / "two.jsonl"
        run_survey_to_file(2, 3, 7, str(default))
        run_survey_to_file(2, 3, 7, str(two), workers=2)
        assert default.read_bytes() == two.read_bytes()
        assert random_experiment(12, 8, 6, seed=1, workers=2) == random_experiment(12, 8, 6, seed=1)

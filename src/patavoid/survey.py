"""
Survey campaigns over pattern sets: symmetry-class enumeration, Wilf
fingerprint clustering, polynomial scans, and randomized classification
experiments.

A survey works on one record per symmetry class, keyed on the canonical
representative ``perms.symmetry_classes`` lists for it (``perms`` owns the
canonical-form rule); counting one representative covers the whole class
because the eight symmetries preserve containment and hence avoidance
counts. A record's verdict is not stored state: its
``report`` is ``classify`` of its counts, computed when read, and None
below the 4 terms ``classify`` needs. Fingerprints (the counts at lengths
1..N) cluster classes that are indistinguishable up to the horizon: equal
fingerprints are necessary but not sufficient for Wilf equivalence, so the
number of distinct fingerprints is a lower bound on the number of Wilf
classes, and is always reported together with its horizon.

All the records of a survey are counted together, in insertion trees
shared between classes (``counting.count_avoiders_many``), then written,
verdict included, to a JSON Lines file, one record per line in record
order, so a rerun resumes by skipping the classes already on disk. Readers
take the counts, ignore the stored verdict and skip a final line torn by
an interrupted write, which a resumed survey cuts off. Errors in a
file name the file and line, and they are of two kinds:

- the file's own rules, checked by ``_load_survey`` for every reader
  (``read_survey``, ``survey wilf`` / ``polyscan`` and the resume): a line
  that does not parse, a field of another type than the program writes or
  a record with neither counts nor error (``record_from_json_dict``), and
  a class stored twice;
- the run's rules, checked by the resume in ``run_survey_to_file`` alone:
  a stored record counted to another horizon, a stored budget failure
  under another node budget, and a stored class that is not one of the
  survey's.

Pattern texts are read and written through the memos of ``perms``, so each
distinct text is parsed and formatted once per process.

An experiment is its trials: ``random_experiment`` draws, counts and
classifies each trial, once, and ``ExperimentResult`` reads every tally
(buckets, fractions, fib-like counts) off them.
"""
from __future__ import annotations

import gc
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .counting import DEFAULT_NODE_BUDGET, BudgetExceededError, check_node_budget, count_avoiders, count_avoiders_many
from .perms import (
    PatternSet,
    all_perms,
    format_braced,
    format_pattern_set,
    parse_pattern_set,
    pattern_set,
    pattern_set_key,
    symmetry_classes,
)
from .seqanalysis import ClassificationReport, classify, detect_fib_like, polynomial_tail

SUBSET_BUDGET = 10**7  # most subsets enumerate_symmetry_classes lets perms.symmetry_classes walk


@dataclass
class SurveyRecord:
    """One symmetry class: canonical pattern set, orbit size, and results."""

    patterns: PatternSet
    orbit_size: int
    counts: tuple[int, ...] | None = None  # avoidance counts at lengths 1..N
    error: str | None = None
    node_budget: int | None = None  # the budget an error was recorded under

    @property
    def report(self) -> ClassificationReport | None:
        """The classification of the counts; None without the 4 terms it needs."""
        if self.counts is None or len(self.counts) < 4:
            return None
        return classify(list(self.counts))

    def to_json_dict(self) -> dict:
        """The record's JSON object, as one line of a survey file."""
        out: dict = {
            "class": format_pattern_set(self.patterns),
            "orbit": self.orbit_size,
        }
        if self.counts is not None:
            out["counts"] = list(self.counts)
        report = self.report
        if report is not None:
            out["verdict"] = report.to_json_dict()
        if self.error is not None:
            out["error"] = self.error
            out["node_budget"] = self.node_budget
        return out


def enumerate_symmetry_classes(num_patterns: int, pattern_length: int) -> list[SurveyRecord]:
    """
    One record stub (counts not yet filled in) per symmetry class of the
    num_patterns-subsets of the length-pattern_length permutations, from
    ``perms.symmetry_classes``: sorted by canonical set, with orbit sizes
    adding up to the total number of subsets. More subsets than
    SUBSET_BUDGET raise BudgetExceededError.

    >>> [r.orbit_size for r in enumerate_symmetry_classes(1, 3)]
    [2, 4]
    """
    if num_patterns < 0:
        raise ValueError(f"num_patterns must be >= 0, got {num_patterns}")
    if pattern_length < 1:
        raise ValueError(f"pattern_length must be >= 1, got {pattern_length}")
    total = math.comb(math.factorial(pattern_length), num_patterns)
    if total > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{total} subsets exceed the survey budget {SUBSET_BUDGET}"
        )
    return [
        SurveyRecord(patterns=patterns, orbit_size=orbit_size)
        for patterns, orbit_size in symmetry_classes(num_patterns, pattern_length)
    ]


# ---------------------------------------------------------------------------
# Counting the records
# ---------------------------------------------------------------------------

def fill_counts(
    records: list[SurveyRecord],
    max_n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[SurveyRecord]:
    """
    Compute avoidance counts (lengths 1..max_n) in place for every record
    that has neither counts nor an error, in one ``count_avoiders_many``
    call, and return those records in record order. Budget failures are
    recorded on the record, with the budget, not raised.
    """
    todo = [r for r in records if r.counts is None and r.error is None]
    results = count_avoiders_many([r.patterns for r in todo], max_n, node_budget=node_budget)
    for record, result in zip(todo, results):
        if isinstance(result, BudgetExceededError):
            record.error = str(result)
            record.node_budget = node_budget
        else:
            record.counts = tuple(result.counts[1:])
    return todo


# ---------------------------------------------------------------------------
# Wilf fingerprint clustering
# ---------------------------------------------------------------------------

@dataclass
class WilfClustering:
    """Fingerprint clusters at a fixed horizon."""

    horizon: int
    clusters: dict[tuple[int, ...], list[SurveyRecord]]
    failed: list[SurveyRecord] = field(default_factory=list)

    @property
    def num_distinct(self) -> int:
        return len(self.clusters)


def wilf_survey(records: list[SurveyRecord], max_n: int) -> WilfClustering:
    """
    Count every record up to max_n and cluster them at horizon max_n.
    Records that blow the default node budget (``DEFAULT_NODE_BUDGET``) are
    collected under ``failed`` instead of aborting the survey.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    fill_counts(records, max_n)
    return cluster_fingerprints(records, max_n)


def cluster_fingerprints(records: Iterable[SurveyRecord], horizon: int) -> WilfClustering:
    """
    Group records by fingerprint, their counts at lengths 1..horizon (>= 1);
    those without counts go under ``failed``, and one with fewer counts raises.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    clusters: dict[tuple[int, ...], list[SurveyRecord]] = {}
    failed = []
    for record in records:
        if record.counts is None:
            failed.append(record)
        elif len(record.counts) < horizon:
            raise ValueError(f"record {format_braced(record.patterns)} has fewer than {horizon} counts")
        else:
            clusters.setdefault(tuple(record.counts[:horizon]), []).append(record)
    return WilfClustering(horizon=horizon, clusters=clusters, failed=failed)


def polynomial_scan(
    records: Iterable[SurveyRecord], max_n: int, max_degree: int
) -> list[tuple[PatternSet, int]]:
    """
    The records whose counting sequence matches a polynomial over the whole
    stored range (threshold 0: constant d-th differences from the first
    counted length on, witnessed by at least d + 3 terms, and never fewer
    than the 4 terms the detector needs) with degree between 1 and
    max_degree. Later-threshold fits are deliberately not counted here;
    they are visible through each record's classify() report. The degree
    and threshold come from ``seqanalysis.polynomial_tail``, the difference
    walk of ``detect_eventual_polynomial``, with no polynomial rebuilt.
    Sorted by degree, then canonical set. A record with fewer than max_n
    counts raises, as in cluster_fingerprints. A max_degree below 0 raises
    before any record is read.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    need = max(4, max_degree + 3)
    if max_n < need:
        raise ValueError(f"need max_n >= {need} for a confirmed fit of degree up to {max_degree}, got {max_n}")
    found = []
    for record in records:
        if record.counts is None:
            continue
        if len(record.counts) < max_n:
            raise ValueError(f"record {format_braced(record.patterns)} has fewer than {max_n} counts")
        tail = polynomial_tail(record.counts[:max_n], max_degree)
        if tail is not None:
            degree, threshold, _column = tail
            if threshold == 0 and degree >= 1:
                found.append((record.patterns, degree))
    found.sort(key=lambda item: (item[1], pattern_set_key(item[0])))
    return found


# ---------------------------------------------------------------------------
# Randomized classification experiments
# ---------------------------------------------------------------------------

BUCKETS = ("zero", "constant", "degree_1", "degree_2", "degree_3", "higher_poly", "non_polynomial")


def bucket_of(report: ClassificationReport) -> str:
    if report.verdict == "zero":
        return "zero"
    if report.verdict == "polynomial":
        if report.degree == 0:
            return "constant"
        if report.degree in (1, 2, 3):
            return f"degree_{report.degree}"
        return "higher_poly"
    return "non_polynomial"


@dataclass
class TrialResult:
    index: int
    patterns: PatternSet
    counts: tuple[int, ...]  # full sequence, lengths 0..max_n
    report: ClassificationReport

    @property
    def bucket(self) -> str:
        return bucket_of(self.report)


@dataclass
class ExperimentResult:
    """One experiment's trials; every tally is read off ``results``."""

    num_patterns: int
    max_n: int
    seed: int
    results: list[TrialResult]

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def bucket_counts(self) -> dict[str, int]:
        """Trials per bucket, in ``BUCKETS`` order."""
        tally = Counter(r.bucket for r in self.results)
        return {b: tally[b] for b in BUCKETS}

    @property
    def fractions(self) -> dict[str, float]:
        return {k: v / self.trials for k, v in self.bucket_counts.items()}

    @property
    def fib_like_strict(self) -> int:
        """Trials the classifier itself calls fib-like (five confirmations)."""
        return sum(r.report.verdict == "fib_like" for r in self.results)

    @property
    def fib_like_nonpoly(self) -> int:
        """
        Non-polynomial trials whose tail obeys the drift recurrence for at
        least six consecutive steps up to the horizon (two to solve for the
        drift, four confirming). The classifier proper wants five
        confirmations; on a 13-step horizon that misses sequences that only
        settle seven steps before the end, which the original by-eye survey
        counted. Every strict fit also passes this check.
        """
        return sum(
            r.bucket == "non_polynomial" and len(r.counts) >= 9 and detect_fib_like(r.counts, min_confirmations=4) is not None
            for r in self.results
        )

    def to_json_dict(self) -> dict:
        nonpoly = self.bucket_counts["non_polynomial"]
        return {
            "num_patterns": self.num_patterns,
            "max_n": self.max_n,
            "trials": self.trials,
            "seed": self.seed,
            "buckets": dict(self.bucket_counts),
            "fractions": {k: round(v, 6) for k, v in self.fractions.items()},
            "non_polynomial": {
                "total": nonpoly,
                "fib_like": self.fib_like_nonpoly,
                "fib_like_strict": self.fib_like_strict,
            },
        }


def sample_pattern_subset(seed: int, trial: int, num_patterns: int) -> PatternSet:
    """
    The trial's uniform random subset of the length-4 patterns. Each trial
    owns a generator seeded seed * 2**32 + trial (so trials are independent
    of execution order) and draws by partial Fisher-Yates over the sorted
    pattern list using randrange only, which is stable across python
    versions.
    """
    rng = random.Random(seed * (2**32) + trial)
    pool = sorted(all_perms(4))
    if not 0 <= num_patterns <= len(pool):
        raise ValueError(f"num_patterns must be in 0..{len(pool)}, got {num_patterns}")
    for i in range(num_patterns):
        j = rng.randrange(i, len(pool))
        pool[i], pool[j] = pool[j], pool[i]
    return pattern_set(pool[:num_patterns])


def random_experiment(
    num_patterns: int,
    max_n: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExperimentResult:
    """
    Draw ``trials`` random subsets of the length-4 patterns (with
    replacement across trials), count avoiders to max_n and classify each
    full counting sequence, once per trial; the result's properties tally
    the trials. Trials run in order in the calling process. ``workers`` is
    ignored, and kept only for callers that pass it (``bench/workload.py``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_n < 3:
        raise ValueError(f"max_n must be >= 3 for the 4 terms classify needs, got {max_n}")
    results = []
    for trial in range(trials):
        patterns = sample_pattern_subset(seed, trial, num_patterns)
        counts = count_avoiders(patterns, max_n, node_budget=node_budget).counts
        results.append(TrialResult(trial, patterns, counts, classify(list(counts))))
    return ExperimentResult(num_patterns=num_patterns, max_n=max_n, seed=seed, results=results)


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def record_from_json_dict(data: dict) -> SurveyRecord:
    """
    The record of a JSON object as ``SurveyRecord.to_json_dict`` writes it:
    ``class`` a list of pattern texts and ``orbit`` an int >= 1, then, if
    present, ``counts`` a list of ints, ``error`` a string and
    ``node_budget`` an int, with ``counts`` or ``error`` or both, as every
    record the program writes has. JSON's true and 1.0 are not ints. A
    missing class or orbit raises KeyError, a wrong value an error that
    ends with the field's name, and a record with neither counts nor error
    a ValueError.
    """
    texts = data["class"]
    if type(texts) is not list:
        raise _bad_field("class", texts, "a list of pattern texts")
    try:
        patterns = parse_pattern_set(texts)
    except (TypeError, ValueError) as e:
        raise type(e)(f"{e}, in field 'class'") from None
    orbit = data["orbit"]
    if type(orbit) is not int or orbit < 1:
        raise _bad_field("orbit", orbit, "an int >= 1")
    record = SurveyRecord(patterns, orbit)
    if "counts" in data:
        counts = data["counts"]
        if type(counts) is not list or not {*map(type, counts)} <= {int}:
            raise _bad_field("counts", counts, "a list of ints")
        record.counts = tuple(counts)
    if "error" in data:
        record.error = data["error"]
        if type(record.error) is not str:
            raise _bad_field("error", record.error, "a string")
    if "node_budget" in data:
        record.node_budget = data["node_budget"]
        if type(record.node_budget) is not int:
            raise _bad_field("node_budget", record.node_budget, "an int")
    if record.counts is None and record.error is None:
        raise ValueError("neither 'counts' nor 'error' is present")
    return record


def _bad_field(key: str, value, what: str) -> ValueError:
    return ValueError(f"{value!r} is not {what}, in field {key!r}")


def _load_survey(path: str) -> tuple[dict[PatternSet, tuple[int, SurveyRecord]], int]:
    """
    The records of a survey file keyed by class, in file order, each with
    its line number, and the byte length of its lines up to a torn final
    one (without its newline). The file's own rules are checked here, for
    every reader: each line a survey record, and no class stored twice.
    """
    records: dict[PatternSet, tuple[int, SurveyRecord]] = {}
    complete = 0
    collecting = gc.isenabled()
    gc.disable()  # no record holds a cycle, so a collection here would only walk the growing dict
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.endswith(b"\n"):
                    break  # torn by an interrupted write
                complete += len(raw)
                if not raw.strip():
                    continue
                try:
                    record = record_from_json_dict(json.loads(raw))
                except (KeyError, TypeError, ValueError) as e:
                    raise ValueError(f"{path}, line {lineno}: not a survey record ({e})") from None
                if record.patterns in records:
                    raise ValueError(f"{path}, line {lineno}: class {format_braced(record.patterns)} is stored twice")
                records[record.patterns] = lineno, record
    finally:
        if collecting:
            gc.enable()
    return records, complete


def read_survey(path: str) -> list[SurveyRecord]:
    """The records of a survey file, in file order, skipping a torn final line."""
    return [record for _lineno, record in _load_survey(path)[0].values()]


def run_survey_to_file(
    num_patterns: int,
    pattern_length: int,
    max_n: int,
    out_path: str,
    *,
    workers: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[SurveyRecord]:
    """
    Enumerate symmetry classes, count each representative to max_n, and
    write the records to out_path as JSON Lines. Classes already in the
    file are skipped and their records merged into the result (resume,
    under the rules of the module docstring). Errors, including a max_n
    below 1, are raised before the file is opened or changed. ``workers`` is
    ignored, and kept only for callers that pass it (``bench/workload.py``).
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    check_node_budget(max_n, node_budget)
    classes = enumerate_symmetry_classes(num_patterns, pattern_length)
    try:
        stored, complete = _load_survey(out_path)
    except FileNotFoundError:
        stored, complete = {}, 0
    wanted = {record.patterns for record in classes}
    for lineno, prior in stored.values():
        where = f"{out_path}, line {lineno}"
        if prior.patterns not in wanted:
            raise ValueError(
                f"{where}: class {format_braced(prior.patterns)} is not one of the "
                f"{len(classes)} classes of {num_patterns} patterns of length {pattern_length}"
            )
        if prior.counts is not None and len(prior.counts) != max_n:
            raise ValueError(f"{where}: counted to n={len(prior.counts)}, this survey to n={max_n}")
        if prior.error is not None and prior.node_budget != node_budget:
            stored_budget = "no node budget" if prior.node_budget is None else f"node budget {prior.node_budget}"
            raise ValueError(f"{where}: budget failure recorded under {stored_budget}, this survey has node budget {node_budget}")
    records = [stored[record.patterns][1] if record.patterns in stored else record for record in classes]
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.truncate(complete)
        for record in fill_counts(records, max_n, node_budget=node_budget):
            fh.write(json.dumps(record.to_json_dict()) + "\n")
            fh.flush()
    return records

"""
Survey campaigns over pattern sets: symmetry-class enumeration, Wilf
fingerprint clustering, polynomial scans, and randomized classification
experiments.

A survey works on one record per symmetry class. The canonical
representative is the least symmetry image of the set, as
``perms.canonicalize_set`` computes it; counting one representative covers
the whole class because the eight symmetries preserve containment and
hence avoidance counts. A record's verdict is not stored state: its
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
an interrupted write, which a resumed survey cuts off. A line
that does not parse, a stored record counted to another horizon, a stored
budget failure under another node budget, and a stored class that is not
one of the survey's are errors naming the file and line.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .counting import BudgetExceededError, count_avoiders, count_avoiders_many, resolve_node_budget
from .perms import (
    PatternSet,
    all_perms,
    canonicalize_set,
    format_pattern_set,
    parse_perm,
    pattern_set,
    pattern_set_key,
)
from .seqanalysis import ClassificationReport, classify, detect_eventual_polynomial, detect_fib_like

SUBSET_BUDGET = 10**7  # most subsets enumerate_symmetry_classes will canonicalize


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
    Group all num_patterns-subsets of the length-pattern_length permutations
    into symmetry classes by ``perms.canonicalize_set``. Returns one record
    stub per class (counts not yet filled in), sorted by canonical set;
    orbit sizes add up to the total number of subsets. More subsets than
    SUBSET_BUDGET raise BudgetExceededError.

    >>> [r.orbit_size for r in enumerate_symmetry_classes(1, 3)]
    [2, 4]
    """
    universe = sorted(all_perms(pattern_length))
    total = math.comb(len(universe), num_patterns)
    if total > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{total} subsets exceed the survey budget {SUBSET_BUDGET}"
        )
    orbit_counts: dict[PatternSet, int] = {}
    for combo in itertools.combinations(universe, num_patterns):
        canon = canonicalize_set(combo)
        orbit_counts[canon] = orbit_counts.get(canon, 0) + 1
    return [
        SurveyRecord(patterns=canon, orbit_size=orbit_counts[canon])
        for canon in sorted(orbit_counts, key=pattern_set_key)
    ]


def _braced(patterns: PatternSet) -> str:
    return "{" + ",".join(format_pattern_set(patterns)) + "}"


# ---------------------------------------------------------------------------
# Counting the records
# ---------------------------------------------------------------------------

def fill_counts(
    records: list[SurveyRecord],
    max_n: int,
    *,
    node_budget: int | None = None,
) -> list[SurveyRecord]:
    """
    Compute avoidance counts (lengths 1..max_n) in place for every record
    that has neither counts nor an error, in one ``count_avoiders_many``
    call, and return those records in record order. Budget failures are
    recorded on the record, with the budget, not raised.
    """
    budget = resolve_node_budget(node_budget)
    todo = [r for r in records if r.counts is None and r.error is None]
    results = count_avoiders_many([r.patterns for r in todo], max_n, node_budget=budget)
    for record, result in zip(todo, results):
        if isinstance(result, BudgetExceededError):
            record.error = str(result)
            record.node_budget = budget
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
    Records that blow the node budget (``PATAVOID_NODE_BUDGET`` or the
    default) are collected under ``failed`` instead of aborting the survey.
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
            raise ValueError(f"record {_braced(record.patterns)} has fewer than {horizon} counts")
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
    they are visible through each record's classify() report. Sorted by
    degree, then canonical set. A record with fewer than max_n counts
    raises, as in cluster_fingerprints.
    """
    need = max(4, max_degree + 3)
    if max_n < need:
        raise ValueError(f"need max_n >= {need} for a confirmed fit of degree up to {max_degree}, got {max_n}")
    found = []
    for record in records:
        if record.counts is None:
            continue
        if len(record.counts) < max_n:
            raise ValueError(f"record {_braced(record.patterns)} has fewer than {max_n} counts")
        counts = list(record.counts[:max_n])
        fit = detect_eventual_polynomial(counts, max_degree)
        if fit is not None and fit.threshold == 0 and 1 <= fit.degree <= max_degree:
            found.append((record.patterns, fit.degree))
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
    num_patterns: int
    max_n: int
    trials: int
    seed: int
    bucket_counts: dict[str, int]
    # non-polynomial trials whose tail obeys the drift recurrence for at
    # least six consecutive steps up to the horizon (the by-eye standard);
    # fib_like_strict applies the classifier's seven-step standard instead
    fib_like_nonpoly: int
    fib_like_strict: int
    results: list[TrialResult]

    @property
    def fractions(self) -> dict[str, float]:
        return {k: v / self.trials for k, v in self.bucket_counts.items()}

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
    if num_patterns > len(pool):
        raise ValueError(f"cannot draw {num_patterns} patterns from {len(pool)}")
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
    node_budget: int | None = None,
) -> ExperimentResult:
    """
    Draw ``trials`` random subsets of the length-4 patterns (with
    replacement across trials), count avoiders to max_n, classify each full
    counting sequence, and tabulate the verdict buckets. Trials run in
    order in the calling process. ``workers`` is ignored, and kept only for
    callers that pass it (``bench/workload.py``).

    The drift-recurrence tally over the non-polynomial trials accepts a
    tail of six consecutive recurrence steps (two to solve for the drift,
    four confirming). The classifier proper wants five confirmations; on a
    13-step horizon that misses sequences that only settle seven steps
    before the end, which the original by-eye survey counted. Both tallies
    are reported.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    budget = resolve_node_budget(node_budget)
    bucket_counts = {b: 0 for b in BUCKETS}
    results = []
    for trial in range(trials):
        patterns = sample_pattern_subset(seed, trial, num_patterns)
        counts = count_avoiders(patterns, max_n, node_budget=budget).counts
        results.append(TrialResult(trial, patterns, counts, classify(list(counts))))
        bucket_counts[results[-1].bucket] += 1
    nonpoly = [r.counts for r in results if r.bucket == "non_polynomial"]
    fib_strict = sum(r.report.verdict == "fib_like" for r in results)
    # every strict fit also passes the looser by-eye check
    fib = sum(len(c) >= 9 and detect_fib_like(c, min_confirmations=4) is not None for c in nonpoly)
    return ExperimentResult(
        num_patterns=num_patterns,
        max_n=max_n,
        trials=trials,
        seed=seed,
        bucket_counts=bucket_counts,
        fib_like_nonpoly=fib,
        fib_like_strict=fib_strict,
        results=results,
    )


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def record_from_json_dict(data: dict) -> SurveyRecord:
    patterns = pattern_set(parse_perm(t) for t in data["class"])
    record = SurveyRecord(patterns=patterns, orbit_size=int(data["orbit"]))
    if "counts" in data:
        record.counts = tuple(int(v) for v in data["counts"])
    if "error" in data:
        record.error = data["error"]
        record.node_budget = data.get("node_budget")
    return record


def _load_survey(path: str) -> tuple[list[tuple[int, SurveyRecord]], int]:
    """
    The records of a survey file with their line numbers, and the byte
    length of its lines up to a torn final one (without its newline).
    """
    records = []
    complete = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.endswith(b"\n"):
                break  # torn by an interrupted write
            complete += len(raw)
            if not raw.strip():
                continue
            try:
                records.append((lineno, record_from_json_dict(json.loads(raw))))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}, line {lineno}: not a survey record ({e})") from None
    return records, complete


def read_survey(path: str) -> list[SurveyRecord]:
    """The records of a survey file, skipping a torn final line."""
    return [record for _lineno, record in _load_survey(path)[0]]


def run_survey_to_file(
    num_patterns: int,
    pattern_length: int,
    max_n: int,
    out_path: str,
    *,
    workers: int = 1,
    node_budget: int | None = None,
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
    budget = resolve_node_budget(node_budget)
    classes = enumerate_symmetry_classes(num_patterns, pattern_length)
    try:
        stored, complete = _load_survey(out_path)
    except FileNotFoundError:
        stored, complete = [], 0
    wanted = {record.patterns for record in classes}
    done: dict[PatternSet, SurveyRecord] = {}
    for lineno, prior in stored:
        where = f"{out_path}, line {lineno}"
        if prior.patterns not in wanted:
            raise ValueError(
                f"{where}: class {_braced(prior.patterns)} is not one of the "
                f"{len(classes)} classes of {num_patterns} patterns of length {pattern_length}"
            )
        if prior.counts is not None and len(prior.counts) != max_n:
            raise ValueError(f"{where}: counted to n={len(prior.counts)}, this survey to n={max_n}")
        if prior.error is not None and prior.node_budget != budget:
            stored_budget = "no node budget" if prior.node_budget is None else f"node budget {prior.node_budget}"
            raise ValueError(f"{where}: budget failure recorded under {stored_budget}, this survey has node budget {budget}")
        done[prior.patterns] = prior
    records = [done.get(record.patterns, record) for record in classes]
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.truncate(complete)
        for record in fill_counts(records, max_n, node_budget=budget):
            fh.write(json.dumps(record.to_json_dict()) + "\n")
            fh.flush()
    return records

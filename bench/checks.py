"""
Correctness checks for the benchmark workloads.

Every check compares the program's output either with a computation made
here, independently of the program (brute-force containment over
``itertools.combinations``, the eight symmetries, finite differences, the
three-segment recurrence), with a value published in the paper, or with a
property the method must have. None compares with a stored copy of an
earlier run. The functions take plain data, so ``selftest.py`` can feed them
tiny inputs and deliberately wrong counts.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

Perm = tuple[int, ...]

# Table 1 of the paper: four patterns of length 4, counts at n = 1..10 and
# the degree of the polynomial they follow from n = 1.
TABLE1 = (
    ("1234,1243,1342,4231", (1, 2, 6, 20, 64, 187, 492, 1170, 2543, 5116), 6),
    ("1234,1243,1432,3412", (1, 2, 6, 20, 59, 148, 324, 638, 1157, 1966), 5),
    ("1234,1243,2341,4231", (1, 2, 6, 20, 64, 184, 469, 1072, 2235, 4318), 6),
    ("1234,1243,3241,3412", (1, 2, 6, 20, 58, 141, 297, 561, 975, 1588), 4),
    ("1234,1324,2413,4231", (1, 2, 6, 20, 60, 159, 379, 827, 1675, 3184), 6),
    ("1234,1342,1423,3421", (1, 2, 6, 20, 64, 182, 459, 1045, 2187, 4270), 7),
)

# The paper's shares of the 820 random 12-pattern trials, per verdict bucket.
EXPERIMENT_FRACTIONS = {"zero": 0.233, "constant": 0.326, "degree_1": 0.315, "degree_2": 0.080}


@dataclass
class Report:
    """Named pass/fail lines; ``ok`` is false once any line fails."""

    lines: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            self.failed.append(name)


# ---------------------------------------------------------------------------
# Independent computations
# ---------------------------------------------------------------------------

def parse_patterns(text: str) -> tuple[Perm, ...]:
    """``"123,231"`` -> ((1, 2, 3), (2, 3, 1)); single-digit entries only."""
    return tuple(sorted(tuple(int(c) for c in tok) for tok in text.split(",")))


def standardize(word: Sequence[int]) -> Perm:
    ranks = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(ranks[v] for v in word)


def contains_brute(pi: Sequence[int], sigma: Perm) -> bool:
    """Some k-subset of positions of pi reads as sigma after standardizing."""
    return any(
        standardize([pi[i] for i in combo]) == sigma
        for combo in itertools.combinations(range(len(pi)), len(sigma))
    )


def _reverse(p: Perm) -> Perm:
    return p[::-1]


def _complement(p: Perm) -> Perm:
    return tuple(len(p) + 1 - v for v in p)


def _inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def symmetries() -> list[Callable[[Perm], Perm]]:
    """The eight symmetries of the permutation matrix as plain functions."""
    out = []
    for inv, rev, comp in itertools.product((False, True), repeat=3):
        def g(p: Perm, inv=inv, rev=rev, comp=comp) -> Perm:
            if comp:
                p = _complement(p)
            if rev:
                p = _reverse(p)
            return _inverse(p) if inv else p
        out.append(g)
    return out


def orbit(patterns: Iterable[Perm]) -> set[tuple[Perm, ...]]:
    base = tuple(patterns)
    return {tuple(sorted(g(p) for p in base)) for g in symmetries()}


def polynomial_degree(seq: Sequence[int]) -> int | None:
    """
    The least d whose d-th differences of the whole sequence are constant
    over at least three values, or None.
    """
    diffs = list(seq)
    for d in range(len(seq) - 2):
        if len(set(diffs)) == 1:
            return d
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return None


def three_segment(max_n: int, variants: int) -> tuple[int, ...]:
    """Family sizes of a pinned pair splitting the word into three segments."""
    c = [1, 1]
    for n in range(2, max_n + 1):
        c.append(variants * sum(
            c[i - 1] * c[j - i - 1] * c[n - j] for i in range(1, n) for j in range(i + 1, n + 1)
        ))
    return tuple(c[: max_n + 1])


# ---------------------------------------------------------------------------
# survey4x4
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurveySpec:
    num_patterns: int
    pattern_length: int
    max_n: int
    classes: int
    prefix: tuple[int, ...]  # counts at n = 1, 2, ... that every class shares
    table: tuple  # (patterns text, counts at 1..max_n, polynomial degree)
    min_fingerprints: int
    poly_range: tuple[int, int]
    max_degree: int
    naive_sample: int
    naive_max_n: int
    symmetry_sample: int


def check_survey(
    spec: SurveySpec,
    seed: int,
    written: list[dict],
    read_back: list[dict],
    num_fingerprints: int,
    poly_flagged: list[tuple[tuple[Perm, ...], int]],
    count_naive: Callable[[tuple[Perm, ...], int], tuple[int, ...]],
    count_fast: Callable[[tuple[Perm, ...], int], tuple[int, ...]],
) -> Report:
    """
    ``written`` and ``read_back`` hold one dict per class with keys
    ``patterns`` (tuple of tuples), ``orbit``, ``counts`` (n = 1..max_n) and
    ``verdict``. ``count_naive`` and ``count_fast`` return counts at
    n = 0..max_n.
    """
    rep = Report()
    universe = math.factorial(spec.pattern_length)
    total = sum(r["orbit"] for r in written)
    rep.add(
        "classes",
        len(written) == spec.classes and total == math.comb(universe, spec.num_patterns),
        f"{len(written)} classes (expected {spec.classes}), orbit sizes sum to {total} "
        f"(expected C({universe},{spec.num_patterns}) = {math.comb(universe, spec.num_patterns)})",
    )
    bad = [r["patterns"] for r in written
           if r["counts"] is None or tuple(r["counts"][:len(spec.prefix)]) != spec.prefix]
    rep.add("prefix", not bad, f"{len(bad)} classes do not start {spec.prefix}")

    by_class = {r["patterns"]: r for r in written}
    flagged = dict(poly_flagged)
    for text, counts, degree in spec.table:
        hits = [by_class[s] for s in orbit(parse_patterns(text)) if s in by_class]
        got = tuple(hits[0]["counts"]) if len(hits) == 1 else None
        rep.add("published", got == counts, f"{text}: expected {counts}, got {got}")
        got_deg = None if got is None else polynomial_degree(got)
        scan_deg = flagged.get(hits[0]["patterns"]) if len(hits) == 1 else None
        rep.add(
            "published",
            got_deg == degree and scan_deg == degree,
            f"{text}: published degree {degree}, differences give {got_deg}, polynomial_scan {scan_deg}",
        )

    rng = random.Random(f"survey-{seed}")
    for r in rng.sample(written, min(spec.naive_sample, len(written))):
        want = tuple(count_naive(r["patterns"], spec.naive_max_n)[1:])
        got = tuple(r["counts"][: spec.naive_max_n])
        rep.add("naive", got == want, f"{r['patterns']} n<={spec.naive_max_n}: naive {want}, survey {got}")
    syms = symmetries()
    for r in rng.sample(written, min(spec.symmetry_sample, len(written))):
        g = rng.choice(syms)
        image = tuple(sorted(g(p) for p in r["patterns"]))
        want = tuple(count_fast(image, spec.max_n)[1:])
        rep.add(
            "symmetry",
            tuple(r["counts"]) == want,
            f"{r['patterns']} -> {image}: image counts {want}, class counts {tuple(r['counts'])}",
        )

    rep.add(
        "roundtrip",
        written == read_back,
        f"{len(read_back)} records read back, {sum(a != b for a, b in zip(written, read_back))} differ",
    )
    distinct = len({tuple(r["counts"]) for r in written if r["counts"] is not None})
    rep.add(
        "fingerprints",
        num_fingerprints == distinct and num_fingerprints >= spec.min_fingerprints,
        f"wilf_survey {num_fingerprints}, distinct count tuples {distinct}, expected >= {spec.min_fingerprints}",
    )
    lo, hi = spec.poly_range
    own = sum(
        1 for r in written
        if r["counts"] is not None and 1 <= (polynomial_degree(r["counts"]) or 0) <= spec.max_degree
    )
    rep.add(
        "polyscan",
        lo <= len(poly_flagged) <= hi and len(poly_flagged) == own,
        f"polynomial_scan {len(poly_flagged)}, by differences {own}, expected in [{lo}, {hi}]",
    )
    return rep


# ---------------------------------------------------------------------------
# experiment820
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    num_patterns: int
    max_n: int
    trials: int
    trial_seed: int  # seeds the trials; the benchmark seed only picks the checked sample
    workers: int
    prefix: tuple[int, ...]  # counts at n = 0, 1, ... that every trial shares
    fractions: dict[str, float]
    tolerance: float
    sample: int
    naive_max_n: int


def check_experiment(
    spec: ExperimentSpec,
    seed: int,
    bucket_counts: dict[str, int],
    trials: list[dict],
    recompute: Callable[[int], dict],
    count_naive: Callable[[tuple[Perm, ...], int], tuple[int, ...]],
) -> Report:
    """
    ``trials`` holds one dict per trial with keys ``index``, ``patterns``,
    ``counts`` (n = 0..max_n), ``verdict`` and ``bucket``; ``recompute(t)``
    returns the same dict for trial t, computed serially.
    """
    rep = Report()
    total = sum(bucket_counts.values())
    rep.add(
        "buckets",
        total == spec.trials == len(trials)
        and all(bucket_counts[b] == sum(t["bucket"] == b for t in trials) for b in bucket_counts),
        f"bucket counts {bucket_counts} sum to {total} over {len(trials)} trials, expected {spec.trials}",
    )
    bad = [t["index"] for t in trials if tuple(t["counts"][:len(spec.prefix)]) != spec.prefix]
    rep.add("prefix", not bad, f"{len(bad)} trials do not start {spec.prefix}")
    rng = random.Random(f"experiment-{seed}")
    for t in rng.sample(trials, min(spec.sample, len(trials))):
        serial = recompute(t["index"])
        rep.add("serial", serial == t, f"trial {t['index']}: pool and serial results agree")
        want = tuple(count_naive(t["patterns"], spec.naive_max_n))
        got = tuple(t["counts"][: spec.naive_max_n + 1])
        rep.add("naive", got == want, f"trial {t['index']} n<={spec.naive_max_n}: naive {want}, pool {got}")
    for bucket, target in spec.fractions.items():
        got = bucket_counts.get(bucket, 0) / spec.trials
        rep.add(
            "fractions",
            abs(got - target) <= spec.tolerance,
            f"{bucket}: {got:.1%}, published {target:.1%} +- {spec.tolerance:.0%}",
        )
    return rep


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifySpec:
    pairs: tuple  # (name, template texts, pattern texts, recurrence variants)
    bound: int
    sizes_max_n: int
    sample: int
    negative: tuple  # (template texts, pattern texts) the family contains


def check_certify(
    spec: CertifySpec,
    seed: int,
    certificates: list[dict],
    family: Callable[[tuple[str, ...], int], frozenset],
    recurrence: Callable[[int, int], tuple[int, ...]],
    negative: dict,
) -> Report:
    """
    ``certificates`` holds ``{"verified", "bound"}`` per pair of the spec;
    ``family(templates, n)`` returns the length-n members; ``negative`` is
    the certificate of ``spec.negative`` with its ``witness`` and
    ``witness_pattern``.
    """
    rep = Report()
    rng = random.Random(f"certify-{seed}")
    for (name, tmpl, pats, variants), cert in zip(spec.pairs, certificates):
        rep.add(
            "certificate",
            cert["verified"] is True and cert["bound"] == spec.bound,
            f"{name}: verified={cert['verified']} bound={cert['bound']}, expected verified at {spec.bound}",
        )
        sizes = tuple(len(family(tmpl, n)) for n in range(spec.sizes_max_n + 1))
        own = three_segment(spec.sizes_max_n, variants)
        prog = recurrence(spec.sizes_max_n, variants)
        rep.add(
            "sizes",
            sizes == own == prog,
            f"{name}: generated {sizes}, recurrence {own}, three_segment_counts {prog}",
        )
        patterns = parse_patterns(pats)
        checked, offenders = 0, []
        for n in range(spec.bound + 1):
            members = sorted(family(tmpl, n))
            for pi in rng.sample(members, min(spec.sample, len(members))):
                checked += 1
                offenders += [(pi, s) for s in patterns if contains_brute(pi, s)]
        rep.add(
            "members",
            not offenders,
            f"{name}: {checked} sampled members of lengths 0..{spec.bound}, "
            f"brute force finds {offenders[:3]} ({len(offenders)} occurrences)",
        )
    witness, pattern = negative["witness"], negative["witness_pattern"]
    rep.add(
        "negative",
        negative["verified"] is False
        and witness is not None
        and pattern in parse_patterns(spec.negative[1])
        and witness in family(spec.negative[0], len(witness))
        and contains_brute(witness, pattern),
        f"{spec.negative}: verified={negative['verified']}, witness {witness} of {pattern}",
    )
    return rep

"""
Named, runnable reproduction checks for the headline experimental results
this package is built around. Each claim compares a freshly computed value
against the published figure and reports expected vs actual; ``reproduce``
on the command line is a thin wrapper over this registry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from .counting import count_avoiders
from .perms import canonicalize_set, parse_pattern_list, parse_perm
from .seqanalysis import classify, detect_eventual_polynomial, detect_fib_like
from .survey import cluster_fingerprints, enumerate_symmetry_classes, fill_counts, polynomial_scan, random_experiment
from .templates import certify_avoidance, generate_family, parse_template_list, three_segment_counts

CATALAN_12 = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)

TABLE1 = (
    ("1234,1243,1342,4231", (1, 2, 6, 20, 64, 187, 492, 1170, 2543, 5116), 6),
    ("1234,1243,1432,3412", (1, 2, 6, 20, 59, 148, 324, 638, 1157, 1966), 5),
    ("1234,1243,2341,4231", (1, 2, 6, 20, 64, 184, 469, 1072, 2235, 4318), 6),
    ("1234,1243,3241,3412", (1, 2, 6, 20, 58, 141, 297, 561, 975, 1588), 4),
    ("1234,1324,2413,4231", (1, 2, 6, 20, 60, 159, 379, 827, 1675, 3184), 6),
    ("1234,1342,1423,3421", (1, 2, 6, 20, 64, 182, 459, 1045, 2187, 4270), 7),
)

FIB_EXAMPLE = (1, 2, 6, 12, 18, 26, 39, 60, 94, 149, 238, 382, 615)

EXPERIMENT_TARGETS = {"zero": 0.233, "constant": 0.326, "degree_1": 0.315, "degree_2": 0.080}


@dataclass
class ClaimResult:
    claim: str
    passed: bool = True
    lines: list[str] = field(default_factory=list)

    def add(self, ok: bool, text: str) -> None:
        self.passed = self.passed and ok
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {text}")


def check_catalan() -> ClaimResult:
    res = ClaimResult("catalan")
    got = count_avoiders([parse_perm("132")], 12).counts
    res.add(got == CATALAN_12, f"132-avoider counts to n=12: expected {CATALAN_12}, got {got}")
    return res


def check_table1() -> ClaimResult:
    res = ClaimResult("table1")
    for text, expected, degree in TABLE1:
        patterns = parse_pattern_list(text)
        got = count_avoiders(patterns, 10).counts[1:]
        res.add(got == expected, f"{text} counts n=1..10: expected {expected}, got {got}")
        fit = detect_eventual_polynomial(list(got), 7)
        got_deg = None if fit is None else fit.degree
        res.add(got_deg == degree, f"{text} degree: expected {degree}, got {got_deg}")
    return res


def check_sym1524() -> ClaimResult:
    res = ClaimResult("sym1524")
    records = enumerate_symmetry_classes(4, 4)
    total = sum(r.orbit_size for r in records)
    res.add(len(records) == 1524, f"symmetry classes: expected 1524, got {len(records)}")
    res.add(total == 10626, f"orbit sizes sum: expected 10626, got {total}")
    return res


@lru_cache(maxsize=1)
def _survey_4x4() -> tuple:
    """The 1524 classes counted to N=10, counted once per process for wilf1100 and polyscan."""
    records = enumerate_symmetry_classes(4, 4)
    fill_counts(records, 10)
    return tuple(records)


def check_wilf1100() -> ClaimResult:
    res = ClaimResult("wilf1100")
    distinct = cluster_fingerprints(_survey_4x4(), 10).num_distinct
    res.add(
        1100 <= distinct <= 1524,
        f"distinct fingerprints at horizon 10: expected in [1100, 1524], got {distinct}",
    )
    return res


def check_polyscan() -> ClaimResult:
    res = ClaimResult("polyscan")
    flagged = polynomial_scan(_survey_4x4(), 10, 7)
    total = len(flagged)
    res.add(50 <= total <= 75, f"polynomial classes at horizon 10: expected in [50, 75], got {total}")
    by_class = dict(flagged)
    for text, _counts, degree in TABLE1:
        # the survey keys on canonical representatives
        got = by_class.get(canonicalize_set(parse_pattern_list(text)))
        res.add(got == degree, f"{text} flagged with degree: expected {degree}, got {got}")
    return res


def _check_family(claim: str, templates: str, patterns: str, variants: int) -> ClaimResult:
    """A template family's certificate, its counting recurrence, and the lower bound it gives."""
    res = ClaimResult(claim)
    tset = parse_template_list(templates)
    sigma = parse_pattern_list(patterns)
    cert = certify_avoidance(tset, sigma)
    res.add(cert.verified and cert.bound == 10, f"certificate: expected verified at bound 10, got verified={cert.verified} bound={cert.bound}")
    rec = three_segment_counts(9, variants=variants)
    sizes = tuple(len(generate_family(tset, n)) for n in range(10))
    res.add(sizes == rec.counts, f"recurrence vs generated sizes n<=9: {rec.counts} vs {sizes}")
    avoid = count_avoiders(sigma, 9).counts
    ok = all(rec.counts[n] <= avoid[n] for n in range(10))
    res.add(ok, f"lower bound holds n<=9: family {rec.counts} <= class {avoid}")
    return res


def check_prop4() -> ClaimResult:
    return _check_family("prop4", "45312:10101", "2143,2413,3142", variants=1)


def check_prop7() -> ClaimResult:
    return _check_family("prop7", "14253:10101,15243:10101", "2341,2413,2431,3241", variants=2)


def check_fiblike() -> ClaimResult:
    res = ClaimResult("fiblike")
    fit = detect_fib_like(list(FIB_EXAMPLE))
    got = None if fit is None else (fit.a, fit.b, fit.threshold)
    res.add(got == (0, -5, 6), f"drift recurrence on the 13-term example: expected (a,b,threshold)=(0,-5,6), got {got}")
    verdict = classify(list(FIB_EXAMPLE)).verdict
    res.add(verdict == "fib_like", f"classifier verdict on the example: expected fib_like, got {verdict}")
    return res


def check_experiment820() -> ClaimResult:
    res = ClaimResult("experiment820")
    exp = random_experiment(12, 13, 820, 42)  # the targets are calibrated on seed 42's draw
    fracs = exp.fractions
    for bucket, target in EXPERIMENT_TARGETS.items():
        got = fracs[bucket]
        res.add(
            abs(got - target) <= 0.05,
            f"{bucket}: expected {target:.1%} +- 5pp, got {got:.1%}",
        )
    nonpoly = fracs["non_polynomial"]
    res.add(0.01 <= nonpoly <= 0.08, f"non-polynomial: expected in [1%, 8%], got {nonpoly:.1%}")
    total_nonpoly = exp.bucket_counts["non_polynomial"]
    share = exp.fib_like_nonpoly / total_nonpoly if total_nonpoly else 0.0
    res.add(
        share >= 0.5,
        f"fib-like share of non-polynomial: expected >= 50%, got "
        f"{exp.fib_like_nonpoly}/{total_nonpoly} = {share:.0%}",
    )
    return res


CLAIMS: dict[str, Callable[[], ClaimResult]] = {
    "catalan": check_catalan,
    "table1": check_table1,
    "sym1524": check_sym1524,
    "wilf1100": check_wilf1100,
    "polyscan": check_polyscan,
    "prop4": check_prop4,
    "prop7": check_prop7,
    "fiblike": check_fiblike,
    "experiment820": check_experiment820,
}


def run_claim(claim_id: str) -> ClaimResult:
    try:
        fn = CLAIMS[claim_id]
    except KeyError:
        raise ValueError(
            f"unknown claim {claim_id!r}; available: {', '.join(sorted(CLAIMS))}"
        ) from None
    return fn()

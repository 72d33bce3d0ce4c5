"""
Fast self-test of the benchmark's harness and checks, on tiny inputs.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Each workload runs in-process on a tiny spec (2-subsets of S3 to n=6, 20
random 12-pattern trials to n=8, the prop4 family with small samples) and
must pass its checks; then each check is fed a wrong count and must fail.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from tracing import Tracer  # noqa: E402

PV = workload.import_program()

# Simion and Schmidt (1985): |Av_n(123, 231)| = C(n, 2) + 1 and
# |Av_n(132, 213)| = 2^(n-1).
TINY_SURVEY = checks.SurveySpec(
    num_patterns=2,
    pattern_length=3,
    max_n=6,
    classes=5,
    prefix=(1, 2, 4),
    table=(("123,231", (1, 2, 4, 7, 11, 16), 2), ("132,213", (1, 2, 4, 8, 16, 32), None)),
    min_fingerprints=3,
    poly_range=(1, 1),
    max_degree=3,
    naive_sample=5,
    naive_max_n=6,
    symmetry_sample=5,
)

TINY_EXPERIMENT = dataclasses.replace(
    workload.EXPERIMENT820, max_n=8, trials=20, fractions={}, sample=2, naive_max_n=7
)

TINY_CERTIFY = dataclasses.replace(
    workload.CERTIFY,
    pairs=workload.CERTIFY.pairs[:1],
    sizes_max_n=6,
    sample=5,
    negative=(("231:101",), "123"),
)


def run_tiny(wl, trace: bool = False):
    """Set up, run and check one workload in-process; returns (out, report, tracer)."""
    workload.WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workload.WORK)
    try:
        inputs = wl.setup(PV, 7, workdir)
        tracer = Tracer(workdir) if trace else None
        if tracer is not None:
            workload.install_tracing(PV, tracer)
        try:
            out = wl.run(PV, inputs)
            layers = workload.layer_metrics(tracer) if tracer is not None else None
        finally:
            if tracer is not None:
                tracer.restore()
        return out, wl.check(PV, 7, out), layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fails(report: checks.Report, name: str) -> bool:
    return name in report.failed


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

def _survey_inputs():
    out, report, _ = run_tiny(workload.SurveyWorkload(TINY_SURVEY))
    assert report.ok, report.lines
    written = [workload._record_dict(r) for r in out["records"]]
    return {
        "written": written,
        "read_back": copy.deepcopy(written),
        "num_fingerprints": out["clustering"].num_distinct,
        "poly_flagged": out["flagged"],
        "count_naive": lambda ps, n: PV.counting.count_avoiders_naive(ps, n).counts,
        "count_fast": lambda ps, n: PV.counting.count_avoiders(ps, n).counts,
    }


def _check_survey(kw) -> checks.Report:
    return checks.check_survey(TINY_SURVEY, 7, **kw)


def test_survey_checks_catch_wrong_counts():
    kw = _survey_inputs()
    assert _check_survey(kw).ok

    # one wrong count in the class {123, 231}
    bad = copy.deepcopy(kw)
    rec = next(r for r in bad["written"] if r["patterns"] == ((1, 2, 3), (2, 3, 1)))
    rec["counts"] = rec["counts"][:4] + (rec["counts"][4] + 1,) + rec["counts"][5:]
    rep = _check_survey(bad)
    for name in ("published", "naive", "symmetry", "roundtrip"):
        assert fails(rep, name), (name, rep.lines)

    bad = copy.deepcopy(kw)
    bad["written"][0]["counts"] = (2,) + bad["written"][0]["counts"][1:]
    assert fails(_check_survey(bad), "prefix")

    bad = copy.deepcopy(kw)
    bad["written"][0]["orbit"] += 1
    assert fails(_check_survey(bad), "classes")

    bad = dict(kw, num_fingerprints=kw["num_fingerprints"] - 1)
    assert fails(_check_survey(bad), "fingerprints")

    bad = dict(kw, poly_flagged=[])
    rep = _check_survey(bad)
    assert fails(rep, "polyscan") and fails(rep, "published")


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_checks_catch_wrong_counts():
    wl = workload.ExperimentWorkload(TINY_EXPERIMENT)
    out, report, layers = run_tiny(wl, trace=True)
    assert report.ok, report.lines
    # the pool workers' spooled calls are merged into the totals
    assert layers["counting.calls"] == TINY_EXPERIMENT.trials
    assert layers["seqanalysis.classify.calls"] == TINY_EXPERIMENT.trials
    assert layers["counting.nodes"] == sum(sum(t.counts) for t in out.results)

    trials = [workload._trial_dict(t) for t in out.results]
    spec = dataclasses.replace(
        TINY_EXPERIMENT, fractions={b: c / len(trials) for b, c in out.bucket_counts.items()}
    )

    by_index = {t["index"]: t for t in trials}

    def check(bucket_counts, trial_dicts):
        return checks.check_experiment(
            spec, 7, bucket_counts, trial_dicts,
            recompute=lambda i: copy.deepcopy(by_index[i]),
            count_naive=lambda ps, n: PV.counting.count_avoiders_naive(ps, n).counts,
        )

    assert check(out.bucket_counts, trials).ok

    moved = dict(out.bucket_counts)
    src = max(moved, key=moved.get)
    dst = min(moved, key=moved.get)
    moved[src] -= 5
    moved[dst] += 5
    rep = check(moved, trials)
    assert fails(rep, "fractions") and fails(rep, "buckets"), rep.lines

    bad = copy.deepcopy(trials)
    for t in bad:
        t["counts"] = t["counts"][:5] + (t["counts"][5] + 1,) + t["counts"][6:]
    rep = check(out.bucket_counts, bad)
    assert fails(rep, "naive") and fails(rep, "serial"), rep.lines

    bad = copy.deepcopy(trials)
    bad[0]["counts"] = bad[0]["counts"][:4] + (11,) + bad[0]["counts"][5:]
    assert fails(check(out.bucket_counts, bad), "prefix")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_checks_catch_wrong_counts():
    wl = workload.CertifyWorkload(TINY_CERTIFY)
    out, report, layers = run_tiny(wl, trace=True)
    assert report.ok, report.lines
    assert layers["perms.contains.calls"] > 0 and layers["counting.calls"] == 0

    t = PV.templates

    def family(texts, n):
        return t.generate_family([t.parse_template(x) for x in texts], n)

    good_neg = t.certify_avoidance([t.parse_template("231:101")], [(1, 2, 3)])
    negative = {
        "verified": good_neg.verified,
        "witness": good_neg.witness,
        "witness_pattern": good_neg.witness_pattern,
    }
    certs = [{"verified": c.verified, "bound": c.bound} for c in out]

    def check(certs=certs, family=family, negative=negative):
        return checks.check_certify(
            TINY_CERTIFY, 7, certs, family,
            recurrence=lambda n, v: t.three_segment_counts(n, v).counts,
            negative=negative,
        )

    assert check().ok
    assert fails(check(certs=[{"verified": True, "bound": 9}]), "certificate")

    def short_family(texts, n):
        members = family(texts, n)
        return members - {min(members)} if n == 5 else members

    assert fails(check(family=short_family), "sizes")

    def tainted_family(texts, n):
        members = family(texts, n)
        return members | {(2, 1, 4, 3)} if n == 4 else members

    rep = check(family=tainted_family)
    assert fails(rep, "members") and fails(rep, "sizes"), rep.lines

    assert fails(check(negative=dict(negative, witness=(1, 2))), "negative")
    assert fails(check(negative=dict(negative, verified=True, witness=None)), "negative")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _round(**over):
    base = {
        "setup_s": 0.2, "wall_s": 1.0, "cpu_s": 2.0, "peak_rss_mb": 50.0,
        "attempted": 10, "failed": 0, "digest": "d",
        "layers": {name: 1 for name in run.PER_LAYER if name != "trace.overhead_s"},
    }
    base.update(over)
    return base


def test_summary_names_and_medians():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

    rounds = [_round(wall_s=1.0, correct=True), _round(wall_s=3.0), _round(wall_s=2.0)]
    res = run.summarize({"setups": [0.1, 0.3, 0.2], "untraced": [], "rounds": rounds}, trace=False)
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert res["metrics"]["wall_s"]["value"] == 2.0
    assert res["metrics"]["setup_s"]["value"] == 0.2
    assert res["attempted"] == 30 and res["failed"] == 0 and res["correct"] is True

    rounds[2]["digest"] = "other"
    res = run.summarize({"setups": [0.1], "untraced": [], "rounds": rounds}, trace=False)
    assert res["correct"] is False
    rounds[2]["digest"] = "d"
    rounds[0]["correct"] = False
    res = run.summarize({"setups": [0.1], "untraced": [], "rounds": rounds}, trace=False)
    assert res["correct"] is False

    runs = {"setups": [0.1], "untraced": [_round(wall_s=1.0, correct=True)], "rounds": [_round(wall_s=1.25)]}
    res = run.summarize(runs, trace=True)
    assert set(res["metrics"]) == set(run.PER_LAYER)
    assert res["metrics"]["trace.overhead_s"]["value"] == 0.25
    assert res["attempted"] == 20 and res["correct"] is True


def test_fails_without_program_sources():
    workload.WORK.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=workload.WORK))
    try:
        shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "run.py"), "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stdout.strip() == "", proc.stdout
        assert "no patavoid package" in proc.stderr
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as e:
            failed += 1
            print(f"FAIL {name}: {e}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

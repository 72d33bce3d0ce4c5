"""
One round of a benchmark workload, in a fresh process.

    python3 bench/workload.py --workload NAME --seed N --t0 T [--trace] [--check] [--setup-only]

``--t0`` is the CLOCK_MONOTONIC reading (``time.monotonic()``) that the
parent took just before starting this process, so ``setup_s`` covers the
interpreter start, the imports of numpy and ``patavoid`` (from ``src/`` of
this checkout, never from an installed copy) and building the inputs. The
timed region follows; with ``--check`` the correctness checks run after
it and are not counted. The last line of stdout is one JSON object with
the round's figures, a digest of its outputs and the checks' verdict.

Thread counts are left as the user's environment sets them, so the
oversubscription of OpenBLAS threads in the counting kernel shows in
``cpu_s`` and ``wall_s``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import checks
from checks import CertifySpec, ExperimentSpec, SurveySpec
from tracing import Tracer, read_threads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

SURVEY4X4 = SurveySpec(
    num_patterns=4,
    pattern_length=4,
    max_n=10,
    classes=1524,
    prefix=(1, 2, 6, 20),
    table=checks.TABLE1,
    min_fingerprints=1100,
    poly_range=(50, 75),
    max_degree=7,
    naive_sample=3,
    naive_max_n=8,
    symmetry_sample=20,
)

EXPERIMENT820 = ExperimentSpec(
    num_patterns=12,
    max_n=13,
    trials=820,
    trial_seed=42,
    workers=2,
    prefix=(1, 1, 2, 6, 12),
    fractions=checks.EXPERIMENT_FRACTIONS,
    tolerance=0.05,
    sample=3,
    naive_max_n=8,
)

CERTIFY = CertifySpec(
    pairs=(
        ("prop4", ("45312:10101",), "2143,2413,3142", 1),
        ("prop7", ("14253:10101", "15243:10101"), "2341,2413,2431,3241", 2),
    ),
    bound=10,
    sizes_max_n=9,
    sample=20,
    negative=(("45312:10101",), "1324"),
)


def import_program() -> SimpleNamespace:
    """The modules of ``patavoid`` from this checkout's ``src/``."""
    if not (SRC / "patavoid" / "__init__.py").is_file():
        raise SystemExit(f"error: no patavoid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported here so that setup_s covers it)
    from patavoid import counting, perms, seqanalysis, survey, templates

    if not Path(survey.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: patavoid imported from {survey.__file__}, not from {SRC}")
    return SimpleNamespace(
        counting=counting, perms=perms, seqanalysis=seqanalysis, survey=survey, templates=templates
    )


def install_tracing(pv: SimpleNamespace, tracer: Tracer) -> None:
    """Wrap each layer at the module attribute through which its caller reaches it."""
    survey, templates = pv.survey, pv.templates
    tracer.wrap(survey, "count_avoiders", "counting", work=lambda seq: sum(seq.counts), kernel=True)
    tracer.wrap(survey, "classify", "seqanalysis.classify")
    tracer.wrap(survey, "enumerate_symmetry_classes", "survey.enumerate")
    tracer.wrap(survey, "read_survey", "survey.read")
    tracer.wrap(survey, "wilf_survey", "survey.cluster")
    tracer.wrap(survey, "polynomial_scan", "survey.cluster")
    # certify_avoidance reaches generation through _family_at, not generate_family
    tracer.wrap(templates, "_family_at", "templates.generate", work=len)
    tracer.wrap(templates, "certify_avoidance", "templates.certify")
    tracer.wrap(templates, "contains", "perms.contains")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    calls, busy, work, threads = tracer.totals()
    nodes = work.get("counting", 0)
    counting_busy = busy.get("counting", 0.0)
    return {
        "counting.calls": calls.get("counting", 0),
        "counting.busy_s": counting_busy,
        "counting.nodes": nodes,
        "counting.nodes_per_s": nodes / counting_busy if counting_busy else 0.0,
        "seqanalysis.classify.calls": calls.get("seqanalysis.classify", 0),
        "seqanalysis.classify.busy_s": busy.get("seqanalysis.classify", 0.0),
        "survey.enumerate.busy_s": busy.get("survey.enumerate", 0.0),
        "survey.read.busy_s": busy.get("survey.read", 0.0),
        "survey.cluster.busy_s": busy.get("survey.cluster", 0.0),
        "templates.generate.busy_s": busy.get("templates.generate", 0.0),
        "templates.members": work.get("templates.generate", 0),
        "templates.certify.busy_s": busy.get("templates.certify", 0.0),
        "perms.contains.calls": calls.get("perms.contains", 0),
        "perms.contains.busy_s": busy.get("perms.contains", 0.0),
        "process.threads": threads if threads is not None else read_threads(),
    }


# ---------------------------------------------------------------------------
# Workloads: setup (counted in setup_s), run (timed), operations, check
# ---------------------------------------------------------------------------

def _record_dict(r) -> dict:
    return {
        "patterns": r.patterns,
        "orbit": r.orbit_size,
        "counts": r.counts,
        "verdict": None if r.report is None else r.report.to_json_dict(),
        "error": r.error,
    }


def _trial_dict(t) -> dict:
    return {
        "index": t.index,
        "patterns": t.patterns,
        "counts": t.counts,
        "verdict": t.report.to_json_dict(),
        "bucket": t.bucket,
    }


class SurveyWorkload:
    """``survey`` to a fresh JSONL file, read it back, then wilf and polyscan."""

    def __init__(self, spec: SurveySpec):
        self.spec = spec

    def setup(self, pv, seed: int, workdir: str) -> str:
        return os.path.join(workdir, "survey.jsonl")

    def run(self, pv, path: str) -> dict:
        s = self.spec
        records = pv.survey.run_survey_to_file(
            s.num_patterns, s.pattern_length, s.max_n, path, workers=1
        )
        loaded = pv.survey.read_survey(path)
        clustering = pv.survey.wilf_survey(loaded, s.max_n)
        flagged = pv.survey.polynomial_scan(loaded, s.max_n, s.max_degree)
        return {"records": records, "loaded": loaded, "clustering": clustering, "flagged": flagged, "path": path}

    def operations(self, out: dict) -> tuple[int, int]:
        return len(out["records"]), sum(r.error is not None for r in out["records"])

    def layers(self, out: dict) -> dict[str, float]:
        return {"survey.jsonl.bytes": os.path.getsize(out["path"])}

    def outputs(self, out: dict):
        return [
            [_record_dict(r) for r in out["records"]],
            out["clustering"].num_distinct,
            out["flagged"],
        ]

    def check(self, pv, seed: int, out: dict) -> checks.Report:
        return checks.check_survey(
            self.spec,
            seed,
            [_record_dict(r) for r in out["records"]],
            [_record_dict(r) for r in out["loaded"]],
            out["clustering"].num_distinct,
            out["flagged"],
            count_naive=lambda ps, n: pv.counting.count_avoiders_naive(ps, n).counts,
            count_fast=lambda ps, n: pv.counting.count_avoiders(ps, n).counts,
        )


class ExperimentWorkload:
    """
    ``random_experiment`` on the fork pool. The trials are drawn with the
    spec's fixed seed (the paper's 42), not the benchmark seed: the cost of
    820 trials differs by up to a quarter from one seed to the next, which
    would hide any change smaller than that.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec

    def setup(self, pv, seed: int, workdir: str) -> int:
        return self.spec.trial_seed

    def run(self, pv, trial_seed: int):
        s = self.spec
        return pv.survey.random_experiment(s.num_patterns, s.max_n, s.trials, trial_seed, workers=s.workers)

    def operations(self, out) -> tuple[int, int]:
        return len(out.results), 0

    def layers(self, out) -> dict[str, float]:
        return {"survey.jsonl.bytes": 0}

    def outputs(self, out):
        return [out.bucket_counts, [_trial_dict(t) for t in out.results]]

    def check(self, pv, seed: int, out) -> checks.Report:
        s = self.spec

        def recompute(t: int) -> dict:
            patterns = pv.survey.sample_pattern_subset(s.trial_seed, t, s.num_patterns)
            counts = pv.counting.count_avoiders(patterns, s.max_n).counts
            report = pv.seqanalysis.classify(list(counts))
            return {
                "index": t,
                "patterns": patterns,
                "counts": counts,
                "verdict": report.to_json_dict(),
                "bucket": pv.survey.bucket_of(report),
            }

        return checks.check_experiment(
            s,
            seed,
            out.bucket_counts,
            [_trial_dict(t) for t in out.results],
            recompute,
            count_naive=lambda ps, n: pv.counting.count_avoiders_naive(ps, n).counts,
        )


class CertifyWorkload:
    """``certify_avoidance`` for each template family of the spec."""

    def __init__(self, spec: CertifySpec):
        self.spec = spec

    def setup(self, pv, seed: int, workdir: str) -> list:
        return [
            ([pv.templates.parse_template(t) for t in tmpl], pv.perms.parse_pattern_list(pats))
            for _name, tmpl, pats, _variants in self.spec.pairs
        ]

    def run(self, pv, pairs: list) -> list:
        return [pv.templates.certify_avoidance(tmpl, pats) for tmpl, pats in pairs]

    def operations(self, out: list) -> tuple[int, int]:
        return len(out), 0

    def layers(self, out: list) -> dict[str, float]:
        return {"survey.jsonl.bytes": 0}

    def outputs(self, out: list):
        return [[c.verified, c.bound, c.witness, c.witness_pattern] for c in out]

    def check(self, pv, seed: int, out: list) -> checks.Report:
        t = pv.templates

        def family(texts, n):
            return t.generate_family([t.parse_template(x) for x in texts], n)

        neg_tmpl, neg_pats = self.spec.negative
        negative = t.certify_avoidance(
            [t.parse_template(x) for x in neg_tmpl], pv.perms.parse_pattern_list(neg_pats)
        )
        return checks.check_certify(
            self.spec,
            seed,
            [{"verified": c.verified, "bound": c.bound} for c in out],
            family,
            recurrence=lambda n, variants: t.three_segment_counts(n, variants).counts,
            negative={
                "verified": negative.verified,
                "witness": negative.witness,
                "witness_pattern": negative.witness_pattern,
            },
        )


WORKLOADS = {
    "survey4x4": SurveyWorkload(SURVEY4X4),
    "experiment820": ExperimentWorkload(EXPERIMENT820),
    "certify": CertifyWorkload(CERTIFY),
}


def run_round(workload, pv, inputs, seed: int, tracer: Tracer | None, check: bool) -> dict:
    """
    Time one run of the workload. Its outputs are digested, so that the
    rounds of a run can be compared, and checked if ``check`` is set.
    """
    if tracer is not None:
        install_tracing(pv, tracer)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    out = workload.run(pv, inputs)
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    self_cpu = (self1.ru_utime + self1.ru_stime) - (self0.ru_utime + self0.ru_stime)
    kids_cpu = (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
    attempted, failed = workload.operations(out)
    figures = {
        "wall_s": wall,
        "cpu_s": self_cpu + kids_cpu,
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "attempted": attempted,
        "failed": failed,
        "layers": None,
    }
    if tracer is not None:
        layers = layer_metrics(tracer)
        layers.update(workload.layers(out))
        layers["survey.pool.child_cpu_s"] = kids_cpu
        figures["layers"] = layers
    # zlib is loaded with numpy already; hashlib would add libcrypto to peak_rss_mb
    figures["digest"] = zlib.crc32(json.dumps(workload.outputs(out), sort_keys=True).encode())
    if check:
        report = workload.check(pv, seed, out)
        figures["correct"] = report.ok
        figures["check_lines"] = report.lines
    return figures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        pv = import_program()
        workload = WORKLOADS[args.workload]
        inputs = workload.setup(pv, args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            spool = os.path.join(workdir, "spool")
            os.mkdir(spool)
            tracer = Tracer(spool) if args.trace else None
            result.update(run_round(workload, pv, inputs, args.seed, tracer, args.check))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

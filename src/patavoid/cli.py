"""
Command-line entry point.

Subcommands: count, template gen, template certify, analyze, survey
(run / wilf / polyscan), experiment, reproduce. experiment draws from
--seed and reproduce from the paper's seed 42; all output is
byte-deterministic for a fixed invocation. Exit status: 0 success, 1
invalid input, a file that cannot be read or written, a closed stdout
(quietly), or failed reproduction, 2 resource budget exhausted.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from .claims import CLAIMS, run_claim
from .counting import DEFAULT_NODE_BUDGET, BudgetExceededError, count_avoiders, enumerate_avoiders
from .perms import format_pattern_set, format_perm, format_perm_rows, parse_pattern_list
from .seqanalysis import classify
from .survey import cluster_fingerprints, polynomial_scan, random_experiment, read_survey, run_survey_to_file
from .templates import _family_at, certify_avoidance, parse_template_list


class Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2) on bad flags
        raise ValueError(message)


class _RunOnly(argparse.Action):
    """Stores a survey run's flag and notes it was given, for wilf and polyscan to refuse."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.run_flags = [*getattr(namespace, "run_flags", []), self.option_strings[0]]


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(data) -> None:
    _emit(json.dumps(data, separators=(", ", ": ")))


def _parse_seq(text: str) -> list[int]:
    out = []
    for i, tok in enumerate(t.strip() for t in text.split(",")):
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"bad sequence: entry {i + 1} ({tok!r}) is not an integer") from None
    if not out:
        raise ValueError("empty sequence")
    return out


def build_parser() -> Parser:
    parser = Parser(prog="patavoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_count = sub.add_parser("count", help="count avoiders of a pattern set")
    p_count.add_argument("--patterns", required=True, help="e.g. 1234,1243,1342,4231")
    p_count.add_argument("--max-n", type=int, required=True)
    p_count.add_argument("--emit", choices=["text", "json", "csv"], default="text")
    p_count.add_argument("--from-one", action="store_true", help="drop the length-0 entry")
    p_count.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_count.add_argument("--enumerate", action="store_true", help="list the avoiders of length max-n")

    p_template = sub.add_parser("template", help="template family operations")
    tsub = p_template.add_subparsers(dest="template_cmd", metavar="SUBCOMMAND")
    p_gen = tsub.add_parser("gen", help="generate the length-n family members")
    p_gen.add_argument("--templates", required=True, help="e.g. 231:101 or 14253:10101,15243:10101")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--emit", choices=["text", "json"], default="text")
    p_cert = tsub.add_parser("certify", help="certify the family avoids a pattern set")
    p_cert.add_argument("--templates", required=True)
    p_cert.add_argument("--patterns", required=True)
    p_cert.add_argument("--emit", choices=["text", "json"], default="text")

    p_analyze = sub.add_parser("analyze", help="classify an integer sequence")
    p_analyze.add_argument("--seq", required=True, help="comma-separated integers, first term is index 0")
    p_analyze.add_argument("--max-degree", type=int, default=7)
    p_analyze.add_argument("--emit", choices=["text", "json"], default="json")

    p_survey = sub.add_parser("survey", help="symmetry-class survey campaigns")
    p_survey.add_argument("--num-patterns", type=int, default=4, action=_RunOnly)
    p_survey.add_argument("--pattern-length", type=int, default=4, action=_RunOnly)
    # one horizon on either side of wilf/polyscan: the subcommands' --max-n
    # sets it only when given, so their default never overwrites this one
    p_survey.add_argument(
        "--max-n", type=int, default=None, help="horizon (default: 10 for a run, the full stored counts for wilf/polyscan)"
    )
    p_survey.add_argument("--out", default=None, action=_RunOnly, help="JSONL output (resumable)")
    p_survey.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET, action=_RunOnly)
    ssub = p_survey.add_subparsers(dest="survey_cmd", metavar="SUBCOMMAND")
    p_wilf = ssub.add_parser("wilf", help="fingerprint clustering of a finished survey")
    p_wilf.add_argument("--in", dest="infile", required=True)
    p_wilf.add_argument("--max-n", type=int, default=argparse.SUPPRESS, help="horizon (default: full stored counts)")
    p_wilf.add_argument("--emit", choices=["text", "json"], default="text")
    p_scan = ssub.add_parser("polyscan", help="polynomial classes of a finished survey")
    p_scan.add_argument("--in", dest="infile", required=True)
    p_scan.add_argument("--max-degree", type=int, default=7)
    p_scan.add_argument("--max-n", type=int, default=argparse.SUPPRESS, help="horizon (default: full stored counts)")
    p_scan.add_argument("--emit", choices=["text", "json", "csv"], default="text")

    p_exp = sub.add_parser("experiment", help="random pattern-set classification experiment")
    p_exp.add_argument("--num-patterns", type=int, required=True)
    p_exp.add_argument("--max-n", type=int, required=True)
    p_exp.add_argument("--trials", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_exp.add_argument("--emit", choices=["text", "json"], default="text")

    p_rep = sub.add_parser("reproduce", help="run a named reproduction check")
    p_rep.add_argument("claim", help=f"one of: {', '.join(sorted(CLAIMS))}")

    return parser


def _cmd_count(args) -> int:
    if args.enumerate and (args.emit != "text" or args.from_one):
        flag = "--from-one" if args.emit == "text" else f"--emit {args.emit}"
        raise ValueError(f"{flag} does not apply to --enumerate, which lists the avoiders of length max-n as text")
    patterns = parse_pattern_list(args.patterns)
    if args.enumerate:
        members = enumerate_avoiders(patterns, args.max_n, node_budget=args.node_budget)
        for pi in sorted(members):
            _emit(format_perm(pi))
        return 0
    seq = count_avoiders(patterns, args.max_n, node_budget=args.node_budget)
    counts = list(seq.counts[1:] if args.from_one else seq.counts)
    if args.emit == "json":
        _emit_json({
            "patterns": format_pattern_set(seq.patterns),
            "counts": counts,
            "max_n": args.max_n,
        })
    elif args.emit == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "count"])
        start = 1 if args.from_one else 0
        for n, c in enumerate(counts, start=start):
            writer.writerow([n, c])
        sys.stdout.write(buf.getvalue())
    else:
        _emit(",".join(str(c) for c in counts))
    return 0


def _cmd_template(args) -> int:
    if args.template_cmd == "gen":
        templates = parse_template_list(args.templates)
        if args.n < 0:
            raise ValueError("n must be >= 0")
        members = format_perm_rows(_family_at(templates, args.n))
        if args.emit == "json":
            _emit_json({
                "templates": [str(t) for t in templates],
                "n": args.n,
                "size": len(members),
                "members": members,
            })
        else:
            for text in members:
                _emit(text)
        return 0
    if args.template_cmd == "certify":
        templates = parse_template_list(args.templates)
        patterns = parse_pattern_list(args.patterns)
        cert = certify_avoidance(templates, patterns)
        if args.emit == "json":
            _emit_json({
                "templates": [str(t) for t in cert.templates],
                "patterns": format_pattern_set(cert.patterns),
                "bound": cert.bound,
                "verified": cert.verified,
                "witness": None if cert.witness is None else format_perm(cert.witness),
            })
        else:
            if cert.verified:
                _emit(f"verified: true (bound {cert.bound})")
            else:
                _emit(
                    f"verified: false (bound {cert.bound}, witness {format_perm(cert.witness)} "
                    f"of length {cert.witness_length} contains {format_perm(cert.witness_pattern)})"
                )
        return 0
    raise ValueError("template requires a subcommand: gen or certify")


def _cmd_analyze(args) -> int:
    seq = _parse_seq(args.seq)
    if len(seq) < 4:
        raise ValueError("need at least 4 terms to classify")
    report = classify(seq, args.max_degree)
    if args.emit == "json":
        _emit_json(report.to_json_dict())
    else:
        fields = report.to_json_dict()
        verdict = fields.pop("verdict")
        rest = " ".join(f"{k}={v}" for k, v in fields.items())
        _emit(f"{verdict}{' ' + rest if rest else ''}")
    return 0


def _survey_records(args):
    records = read_survey(args.infile)
    if not records:
        raise ValueError(f"no survey records in {args.infile}")
    return records


def _horizon(args, records) -> int:
    if args.max_n is not None:
        return args.max_n
    lengths = [len(r.counts) for r in records if r.counts]
    if not lengths:
        raise ValueError("no record in the survey carries counts")
    return min(lengths)


def _cmd_survey(args) -> int:
    if args.survey_cmd and getattr(args, "run_flags", None):
        raise ValueError(f"{args.run_flags[0]} applies to a survey run, not to survey {args.survey_cmd}")
    if args.survey_cmd == "wilf":
        records = _survey_records(args)
        horizon = _horizon(args, records)
        clustering = cluster_fingerprints(records, horizon)
        failed = len(clustering.failed)
        payload = {
            "horizon": horizon,
            "records": len(records),
            "failed": failed,
            "distinct_fingerprints": clustering.num_distinct,
            "clusters": [
                {
                    "counts": list(fp),
                    "classes": [format_pattern_set(r.patterns) for r in group],
                }
                for fp, group in sorted(clustering.clusters.items())
            ],
        }
        if args.emit == "json":
            _emit_json(payload)
        else:
            _emit(
                f"records: {len(records)}  failed: {failed}  horizon: {horizon}  "
                f"distinct fingerprints (Wilf lower bound): {clustering.num_distinct}"
            )
        return 0
    if args.survey_cmd == "polyscan":
        records = _survey_records(args)
        horizon = _horizon(args, records)
        flagged = polynomial_scan(records, horizon, args.max_degree)
        if args.emit == "json":
            _emit_json({
                "horizon": horizon,
                "max_degree": args.max_degree,
                "total": len(flagged),
                "classes": [
                    {"class": format_pattern_set(ps), "degree": d} for ps, d in flagged
                ],
            })
        elif args.emit == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["patterns", "counts", "degree"])
            by_class = {r.patterns: r for r in records}
            for ps, d in flagged:
                counts = by_class[ps].counts[:horizon]
                writer.writerow([
                    " ".join(format_perm(p) for p in ps),
                    " ".join(str(c) for c in counts),
                    d,
                ])
            sys.stdout.write(buf.getvalue())
        else:
            _emit(f"polynomial classes (degree 1..{args.max_degree}) at horizon {horizon}: {len(flagged)}")
            for ps, d in flagged:
                _emit(f"  degree {d}: {{{','.join(format_perm(p) for p in ps)}}}")
        return 0
    # no subcommand: run the survey
    if args.out is None:
        raise ValueError("survey run requires --out (or use the wilf/polyscan subcommands)")
    max_n = 10 if args.max_n is None else args.max_n
    records = run_survey_to_file(
        args.num_patterns,
        args.pattern_length,
        max_n,
        args.out,
        node_budget=args.node_budget,
    )
    failed = sum(1 for r in records if r.error is not None)
    _emit(
        f"surveyed {len(records)} symmetry classes of {args.num_patterns} patterns "
        f"of length {args.pattern_length} to n={max_n} ({failed} budget failures) -> {args.out}"
    )
    return 0


def _cmd_experiment(args) -> int:
    result = random_experiment(
        args.num_patterns,
        args.max_n,
        args.trials,
        args.seed,
        node_budget=args.node_budget,
    )
    if args.emit == "json":
        _emit_json(result.to_json_dict())
    else:
        _emit(
            f"{args.trials} trials of {args.num_patterns} random patterns, counts to n={args.max_n}, "
            f"seed {args.seed}:"
        )
        for bucket, count in result.bucket_counts.items():
            _emit(f"  {bucket:15s} {count:6d}  ({count / args.trials:6.1%})")
        nonpoly = result.bucket_counts["non_polynomial"]
        _emit(f"  fib-like among non-polynomial: {result.fib_like_nonpoly}/{nonpoly}")
    return 0


def _cmd_reproduce(args) -> int:
    result = run_claim(args.claim)
    status = "PASS" if result.passed else "FAIL"
    _emit(f"{status} {result.claim}")
    for line in result.lines:
        _emit(f"  {line}")
    return 0 if result.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        handler = {
            "count": _cmd_count,
            "template": _cmd_template,
            "analyze": _cmd_analyze,
            "survey": _cmd_survey,
            "experiment": _cmd_experiment,
            "reproduce": _cmd_reproduce,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: stop quietly, and point stdout at
        # devnull so that the interpreter's flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BudgetExceededError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

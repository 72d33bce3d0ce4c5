"""
Command-line entry point.

Subcommands: count, template gen, template certify, analyze, survey
(run / wilf / polyscan), experiment, reproduce. experiment draws from
--seed and reproduce from the paper's seed 42; all output is
byte-deterministic for a fixed invocation. Exit status: 0 success, 1
invalid input, a file that cannot be read or written, a closed stdout
(quietly), or failed reproduction, 2 resource budget or memory exhausted.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Sequence

from .claims import CLAIMS, run_claim
from .counting import DEFAULT_NODE_BUDGET, BudgetExceededError, avoider_rows, count_avoiders
from .perms import format_braced, format_pattern_set, format_perm, format_perm_rows, parse_pattern_list
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


class _Unrecognized(argparse.Action):
    """
    A flag that is not taken, caught by name: left to argparse, the value
    after it would be read as the survey subcommand.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"unrecognized arguments: {option_string}")


def _emit_lines(lines: list[str]) -> None:
    # blocks of lines, not one write: a write far past stdout's buffer that a
    # closed pipe cuts short returns as if it were whole, with no error
    for start in range(0, len(lines), 256):
        sys.stdout.write("\n".join([*lines[start:start + 256], ""]))


def _emit_json(data) -> None:
    _emit_lines([json.dumps(data, separators=(", ", ": "))])


def _parse_seq(text: str) -> list[int]:
    """Comma-separated integers: ASCII digits, at most one leading '-', spaces around an entry allowed."""
    out = []
    for i, tok in enumerate(t.strip() for t in text.split(",")):
        digits = tok[1:] if tok.startswith("-") else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad sequence: entry {i + 1} ({tok!r}) is not an integer")
        out.append(int(tok))
    return out


def build_parser() -> Parser:
    parser = Parser(prog="patavoid", description=__doc__)
    parser.set_defaults(handler=lambda _: parser.print_help() or 1)  # no command
    sub = parser.add_subparsers(metavar="COMMAND")

    p_count = sub.add_parser("count", help="count avoiders of a pattern set")
    p_count.set_defaults(handler=_cmd_count)
    p_count.add_argument("--patterns", required=True, help="e.g. 1234,1243,1342,4231")
    p_count.add_argument("--max-n", type=int, required=True)
    p_count.add_argument("--emit", choices=["text", "json", "csv"], default="text")
    p_count.add_argument("--from-one", action="store_true", help="drop the length-0 entry")
    p_count.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_count.add_argument("--enumerate", action="store_true", help="list the avoiders of length max-n")

    p_template = sub.add_parser("template", help="template family operations")
    p_template.set_defaults(handler=_cmd_template)
    tsub = p_template.add_subparsers(metavar="SUBCOMMAND")
    p_gen = tsub.add_parser("gen", help="generate the length-n family members")
    p_gen.set_defaults(handler=_cmd_template_gen)
    p_gen.add_argument("--templates", required=True, help="e.g. 231:101 or 14253:10101,15243:10101")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--emit", choices=["text", "json"], default="text")
    p_cert = tsub.add_parser("certify", help="certify the family avoids a pattern set")
    p_cert.set_defaults(handler=_cmd_template_certify)
    p_cert.add_argument("--templates", required=True)
    p_cert.add_argument("--patterns", required=True)
    p_cert.add_argument("--emit", choices=["text", "json"], default="text")

    p_analyze = sub.add_parser("analyze", help="classify an integer sequence")
    p_analyze.set_defaults(handler=_cmd_analyze)
    p_analyze.add_argument("--seq", required=True, help="comma-separated integers, first term is index 0")
    p_analyze.add_argument("--max-degree", type=int, default=7)
    p_analyze.add_argument("--emit", choices=["text", "json"], default="json")

    p_survey = sub.add_parser("survey", help="symmetry-class survey campaigns")
    p_survey.set_defaults(handler=_cmd_survey)
    p_survey.add_argument("--num-patterns", type=int, default=4, action=_RunOnly)
    p_survey.add_argument("--pattern-length", type=int, default=4, action=_RunOnly)
    # one horizon on either side of wilf/polyscan: the subcommands' --max-n
    # sets it only when given, so their default never overwrites this one
    p_survey.add_argument(
        "--max-n", type=int, default=None, help="horizon (default: 10 for a run, the full stored counts for wilf/polyscan)"
    )
    p_survey.add_argument("--out", default=None, action=_RunOnly, help="JSONL output (resumable)")
    p_survey.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET, action=_RunOnly)
    p_survey.add_argument("--workers", nargs="?", action=_Unrecognized, help=argparse.SUPPRESS)
    ssub = p_survey.add_subparsers(dest="survey_cmd", metavar="SUBCOMMAND")
    p_wilf = ssub.add_parser("wilf", help="fingerprint clustering of a finished survey")
    p_wilf.set_defaults(handler=_cmd_wilf)
    p_wilf.add_argument("--in", dest="infile", required=True)
    p_wilf.add_argument("--max-n", type=int, default=argparse.SUPPRESS, help="horizon (default: full stored counts)")
    p_wilf.add_argument("--emit", choices=["text", "json"], default="text")
    p_scan = ssub.add_parser("polyscan", help="polynomial classes of a finished survey")
    p_scan.set_defaults(handler=_cmd_polyscan)
    p_scan.add_argument("--in", dest="infile", required=True)
    p_scan.add_argument("--max-degree", type=int, default=7)
    p_scan.add_argument("--max-n", type=int, default=argparse.SUPPRESS, help="horizon (default: full stored counts)")
    p_scan.add_argument("--emit", choices=["text", "json", "csv"], default="text")

    p_exp = sub.add_parser("experiment", help="random pattern-set classification experiment")
    p_exp.set_defaults(handler=_cmd_experiment)
    p_exp.add_argument("--num-patterns", type=int, required=True)
    p_exp.add_argument("--max-n", type=int, required=True)
    p_exp.add_argument("--trials", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_exp.add_argument("--emit", choices=["text", "json"], default="text")

    p_rep = sub.add_parser("reproduce", help="run a named reproduction check")
    p_rep.set_defaults(handler=_cmd_reproduce)
    p_rep.add_argument("claim", help=f"one of: {', '.join(sorted(CLAIMS))}")

    return parser


def _cmd_count(args) -> int:
    if args.enumerate and (args.emit != "text" or args.from_one):
        flag = "--from-one" if args.emit == "text" else f"--emit {args.emit}"
        raise ValueError(f"{flag} does not apply to --enumerate, which lists the avoiders of length max-n as text")
    patterns = parse_pattern_list(args.patterns)
    if args.enumerate:
        _emit_lines(format_perm_rows(avoider_rows(patterns, args.max_n, node_budget=args.node_budget)))
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
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "count"])
        writer.writerows(enumerate(counts, start=1 if args.from_one else 0))
    else:
        _emit_lines([",".join(map(str, counts))])
    return 0


def _cmd_template(args) -> int:
    raise ValueError("template requires a subcommand: gen or certify")


def _cmd_template_gen(args) -> int:
    templates = parse_template_list(args.templates)
    members = format_perm_rows(_family_at(templates, args.n))
    if args.emit == "json":
        _emit_json({
            "templates": [str(t) for t in templates],
            "n": args.n,
            "size": len(members),
            "members": members,
        })
    else:
        _emit_lines(members)
    return 0


def _cmd_template_certify(args) -> int:
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
    elif cert.verified:
        _emit_lines([f"verified: true (bound {cert.bound})"])
    else:
        _emit_lines([
            f"verified: false (bound {cert.bound}, witness {format_perm(cert.witness)} "
            f"of length {cert.witness_length} contains {format_perm(cert.witness_pattern)})"
        ])
    return 0


def _cmd_analyze(args) -> int:
    report = classify(_parse_seq(args.seq), args.max_degree)
    if args.emit == "json":
        _emit_json(report.to_json_dict())
    else:
        fields = report.to_json_dict()
        verdict = fields.pop("verdict")
        rest = " ".join(f"{k}={v}" for k, v in fields.items())
        _emit_lines([f"{verdict}{' ' + rest if rest else ''}"])
    return 0


def _finished_survey(args):
    """
    The records of the finished survey at --in and the horizon to read them
    at: --max-n, or else the fewest counts a record carries.
    """
    if getattr(args, "run_flags", None):
        raise ValueError(f"{args.run_flags[0]} applies to a survey run, not to survey {args.survey_cmd}")
    records = read_survey(args.infile)
    if not records:
        raise ValueError(f"no survey records in {args.infile}")
    if args.max_n is not None:
        return records, args.max_n
    lengths = [len(r.counts) for r in records if r.counts]
    if not lengths:
        raise ValueError("no record in the survey carries counts")
    return records, min(lengths)


def _cmd_survey(args) -> int:
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
    _emit_lines([
        f"surveyed {len(records)} symmetry classes of {args.num_patterns} patterns "
        f"of length {args.pattern_length} to n={max_n} ({failed} budget failures) -> {args.out}"
    ])
    return 0


def _cmd_wilf(args) -> int:
    records, horizon = _finished_survey(args)
    clustering = cluster_fingerprints(records, horizon)
    failed = len(clustering.failed)
    if args.emit == "json":
        _emit_json({
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
        })
    else:
        _emit_lines([
            f"records: {len(records)}  failed: {failed}  horizon: {horizon}  "
            f"distinct fingerprints (Wilf lower bound): {clustering.num_distinct}"
        ])
    return 0


def _cmd_polyscan(args) -> int:
    records, horizon = _finished_survey(args)
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
        by_class = {r.patterns: r for r in records}
        writer = csv.writer(sys.stdout)
        writer.writerow(["patterns", "counts", "degree"])
        writer.writerows(
            [" ".join(format_pattern_set(ps)), " ".join(map(str, by_class[ps].counts[:horizon])), d]
            for ps, d in flagged
        )
    else:
        _emit_lines([
            f"polynomial classes (degree 1..{args.max_degree}) at horizon {horizon}: {len(flagged)}",
            *(f"  degree {d}: {format_braced(ps)}" for ps, d in flagged),
        ])
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
        buckets = result.bucket_counts
        _emit_lines([
            f"{args.trials} trials of {args.num_patterns} random patterns, counts to n={args.max_n}, "
            f"seed {args.seed}:",
            *(f"  {bucket:15s} {count:6d}  ({result.fractions[bucket]:6.1%})" for bucket, count in buckets.items()),
            f"  fib-like among non-polynomial: {result.fib_like_nonpoly}/{buckets['non_polynomial']}",
        ])
    return 0


def _cmd_reproduce(args) -> int:
    result = run_claim(args.claim)
    status = "PASS" if result.passed else "FAIL"
    _emit_lines([f"{status} {result.claim}", *(f"  {line}" for line in result.lines)])
    return 0 if result.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
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
    except MemoryError as e:  # numpy's failed allocations included
        print(f"memory exhausted: {str(e) or 'no detail'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

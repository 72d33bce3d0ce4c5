"""
The patavoid benchmark.

    python3 bench/run.py --workload {survey4x4,experiment820,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Every round runs in a fresh process
(``workload.py``), so the caches of ``counting`` and ``templates`` start
empty, as in a user's run. Rounds repeat until their timed regions add up
to ``--seconds``, and an untraced run makes at least two, so that a survey
round of about 20 s is still a median of two. Before them, seven processes only set
up, so that ``setup_s`` is a median over several start-ups. The first round
runs the correctness checks; every later round must produce the same
outputs (compared by digest).

``--trace 0`` reports the end-to-end metrics (medians over rounds):
``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``. ``--trace 1`` runs
pairs (at least one) of one untraced and one traced round and reports the per-layer
metrics of the traced rounds and ``trace.overhead_s``, the traced minus the
untraced wall time. The last line of stdout is one JSON object; every
round's figures go to ``bench/results/``. The exit code is 0 when every
round ran and passed its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORKLOADS = ("survey4x4", "experiment820", "certify")
SETUPS = 7
MIN_ROUNDS = 2
ROUND_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "counting.calls": "count",
    "counting.busy_s": "s",
    "counting.nodes": "count",
    "counting.nodes_per_s": "nodes/s",
    "seqanalysis.classify.calls": "count",
    "seqanalysis.classify.busy_s": "s",
    "survey.enumerate.busy_s": "s",
    "survey.read.busy_s": "s",
    "survey.cluster.busy_s": "s",
    "survey.jsonl.bytes": "B",
    "survey.pool.child_cpu_s": "s",
    "process.threads": "count",
    "templates.generate.busy_s": "s",
    "templates.members": "count",
    "templates.certify.busy_s": "s",
    "perms.contains.calls": "count",
    "perms.contains.busy_s": "s",
    "trace.overhead_s": "s",
}


class RoundFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one fresh ``workload.py`` process and return its JSON line."""
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload, "--seed", str(seed), *flags]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout can stop the pool workers too
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"{workload} round exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setups = [spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUPS)]
    rounds, untraced = [], []
    timed = 0.0
    while len(rounds) < (1 if trace else MIN_ROUNDS) or timed < seconds:
        check = () if rounds else ("--check",)
        if trace:
            untraced.append(spawn(workload, seed, *check))
            rounds.append(spawn(workload, seed, "--trace"))
            timed += untraced[-1]["wall_s"]
        else:
            rounds.append(spawn(workload, seed, *check))
        timed += rounds[-1]["wall_s"]
    return {"setups": setups, "rounds": rounds, "untraced": untraced}


def summarize(runs: dict, trace: bool) -> dict:
    """
    The result line. A run is correct when its first round passed the
    checks and every other round produced the same outputs.
    """
    rounds, untraced = runs["rounds"], runs["untraced"]
    every = untraced + rounds
    if trace:
        values = {
            name: statistics.median_low(r["layers"][name] for r in rounds)
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median_low(
            t["wall_s"] - u["wall_s"] for t, u in zip(rounds, untraced)
        )
        units = PER_LAYER
    else:
        values = {name: statistics.median(r[name] for r in rounds) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(runs["setups"] + [r["setup_s"] for r in rounds])
        units = END_TO_END
    return {
        "correct": every[0]["correct"] and all(r["digest"] == every[0]["digest"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="patavoid benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    try:
        runs = measure(args.workload, args.seed, args.seconds, trace)
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result = summarize(runs, trace)
    first = (runs["untraced"] + runs["rounds"])[0]
    for line in first["check_lines"]:
        if line.startswith("FAIL"):
            print(line, file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"args": vars(args), **runs, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""
The benchmark's self-test, the demos and the command line, each run in a
fresh interpreter, the way a reader would run them from the repository root.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=300
    )


def run_script(path: Path) -> subprocess.CompletedProcess:
    return run_python(str(path))


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    return run_python("-m", "patavoid.cli", *argv)


def test_bench_selftest_passes():
    proc = run_script(ROOT / "bench" / "selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "5/5 passed"


def test_demos_found():
    assert DEMOS, "no demos/*.py to run"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_script(demo)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_reproduce_passes():
    proc = run_cli("reproduce", "fiblike")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("PASS fiblike\n")


def test_cli_experiment_same_bytes_on_two_runs():
    experiment = ["experiment", "--num-patterns", "12", "--max-n", "9", "--trials", "8"]
    one = run_cli(*experiment)
    two = run_cli(*experiment)
    assert (one.returncode, two.returncode) == (0, 0), one.stderr + two.stderr
    assert two.stdout == one.stdout
    assert one.stdout.startswith("8 trials of 12 random patterns, counts to n=9, seed 42:\n")


def test_cli_invalid_input_exits_one():
    proc = run_cli("count", "--patterns", "132", "--max-n", "-1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: max_n must be >= 0\n")


def test_cli_closed_stdout_exits_quietly():
    # the reader takes one line of a listing far larger than the pipe's buffer, then closes
    listings = [
        (["template", "gen", "--templates", "14253:10101,15243:10101", "--n", "9"], b"123456789\n"),
        (["count", "--patterns", "1234", "--max-n", "9", "--enumerate"], b"129876543\n"),
    ]
    for argv, first_line in listings:
        proc = subprocess.Popen(
            [sys.executable, "-m", "patavoid.cli", *argv],
            cwd=ROOT, env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=300)
        err = proc.stderr.read()
        proc.stderr.close()
        assert (code, first, err) == (1, first_line, b""), argv

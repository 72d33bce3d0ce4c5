"""
Randomized classification experiments
=====================================

Draw random 12-subsets of the 24 length-4 patterns, count avoiders to
n = 13, classify every sequence, and tabulate what comes out. With 12
forbidden patterns almost everything collapses to a polynomial; the
leftovers tend to follow drifted Fibonacci recurrences. Everything is
reproducible from the seed.

The published 820-trial campaign is `patavoid reproduce experiment820`;
this demo runs a shorter one.
"""
from patavoid import random_experiment

TRIALS = 120

result = random_experiment(12, 13, TRIALS, seed=42)
print(f"{TRIALS} random 12-pattern sets, counted to n = 13, seed 42:\n")
for bucket, count in result.bucket_counts.items():
    bar = "#" * round(50 * count / TRIALS)
    print(f"  {bucket:15s} {count:5d}  {count / TRIALS:6.1%}  {bar}")

nonpoly = result.bucket_counts["non_polynomial"]
print(f"\nnon-polynomial trials following the drift recurrence: "
      f"{result.fib_like_nonpoly}/{nonpoly}")
print(f"(strict five-confirmation standard: {result.fib_like_strict}/{nonpoly})")

# one concrete non-polynomial trial
for trial in result.results:
    if trial.bucket == "non_polynomial":
        print(f"\nexample: patterns {[''.join(map(str, p)) for p in trial.patterns]}")
        print(f"counts: {list(trial.counts)}")
        print(f"verdict: {trial.report.to_json_dict()}")
        break

# determinism: the same seed always gives the same tallies
again = random_experiment(12, 13, TRIALS, seed=42)
assert again.bucket_counts == result.bucket_counts
print("\nsame seed, second run: identical tallies")

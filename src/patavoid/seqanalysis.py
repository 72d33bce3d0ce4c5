"""
Classification of integer counting sequences.

Each shape is a trailing run of equal values in one row of numbers, and the
run start is its threshold. In precedence order:

- eventually zero: the sequence ends in a run of at least three zeros;
- eventually polynomial of degree d: the d-th differences end in a run of
  at least three values (d + 1 terms from the threshold on pin the
  polynomial down, the rest confirm it). Smallest degree wins;
- Fibonacci-with-drift: f(n) = f(n-1) + f(n-2) + a*n + b past a threshold,
  i.e. the differences of the excess f(n) - f(n-1) - f(n-2) end in a run of
  a's, at least six long by default (two terms fix (a, b), five confirm).

Each difference row is built once, from the one before, in one walk
(``polynomial_tail``) that both the polynomial detector and the survey's
polynomial scan take. Everything is exact integer arithmetic (floating
point would misread near-degenerate difference tables): a polynomial is
rebuilt in integers scaled by d!, and only its coefficients become
Fractions, one division each. Sequences are indexed from 0 at their first
term; thresholds and coefficients refer to that indexing.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence


class PolynomialFit(NamedTuple):
    degree: int
    threshold: int
    coefficients: tuple[Fraction, ...]  # ascending powers of the term index


class FibLikeFit(NamedTuple):
    a: int
    b: int
    threshold: int


@dataclass(frozen=True)
class ClassificationReport:
    """
    verdict is one of "zero", "polynomial", "fib_like", "unclassified";
    the remaining fields are populated per verdict. evidence counts the
    trailing terms that confirm the verdict beyond what was needed to fit
    it (trailing zeros / terms past the interpolation window / recurrence
    confirmations).
    """

    verdict: str
    threshold: int | None = None
    degree: int | None = None
    coefficients: tuple[Fraction, ...] | None = None
    a: int | None = None
    b: int | None = None
    evidence: int = 0

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.threshold is not None:
            out["threshold"] = self.threshold
        if self.degree is not None:
            out["degree"] = self.degree
        if self.coefficients is not None:
            out["coefficients"] = [str(c) for c in self.coefficients]
        if self.a is not None:
            out["a"] = self.a
            out["b"] = self.b
        return out


def _diff(seq: Sequence[int]) -> list[int]:
    return list(map(operator.sub, seq[1:], seq))


def _run_start(values: Sequence[int]) -> int:
    """The index where the longest run of equal values ending ``values`` begins."""
    start = len(values)
    while start > 0 and values[start - 1] == values[-1]:
        start -= 1
    return start


def _interpolate_tail(column: Sequence[int], n0: int) -> tuple[Fraction, ...]:
    """
    Exact polynomial of degree d = len(column) - 1 through the terms from n0
    on, as a polynomial in the sequence index, given column[k], the k-th
    difference at n0: Newton's forward form at n0, the sum over k of
    column[k] times C(x - n0, k). Scaled by d!, its k-th term is the integer
    column[k] * d!/k! times the falling factorial (x - n0)...(x - n0 - k + 1),
    so the form is nested in integers from k = d down, and each coefficient
    is divided by d! once.
    """
    degree = len(column) - 1
    weight = 1  # d!/k!
    poly = [column[-1]]  # ascending powers of x
    for k in range(degree - 1, -1, -1):
        weight *= k + 1
        # poly * (x - n0 - k) + column[k] * d!/k!
        poly = [a - (n0 + k) * b for a, b in zip([0, *poly], [*poly, 0])]
        poly[0] += column[k] * weight
    scale = math.factorial(degree)
    return tuple(Fraction(c, scale) for c in poly)


def eval_poly(coeffs: Sequence[Fraction], x: int) -> Fraction:
    total = Fraction(0)
    for c in reversed(tuple(coeffs)):
        total = total * x + c
    return total


def polynomial_tail(seq: Sequence[int], max_degree: int) -> tuple[int, int, tuple[int, ...]] | None:
    """
    The one walk down the difference table: the smallest degree d <= max_degree
    whose d-th differences end in a run of at least three equal values, the
    threshold where that run starts, and the column of 0th..d-th differences
    at the threshold. None if no degree qualifies.

    >>> polynomial_tail([9, 1, 4, 9, 16, 25, 36], 3)
    (2, 1, (1, 3, 2))
    """
    if len(seq) < 4:
        raise ValueError("need at least 4 terms")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    row = list(seq)
    rows = [row]  # rows[d] holds the d-th differences
    for d in range(max_degree + 1):
        if len(row) >= 3 and row[-1] == row[-2] == row[-3]:  # a run of at least three
            n0 = _run_start(row)
            return d, n0, tuple(r[n0] for r in rows)
        row = _diff(row)
        rows.append(row)
    return None


def detect_eventual_polynomial(
    seq: Sequence[int], max_degree: int
) -> PolynomialFit | None:
    """
    Smallest degree first, then smallest threshold, requiring at least
    three equal difference values on the tail (``polynomial_tail``), with
    the polynomial through the tail. Returns None if nothing qualifies.

    >>> detect_eventual_polynomial([5, 5, 5, 5, 5, 5, 5], 3)
    PolynomialFit(degree=0, threshold=0, coefficients=(Fraction(5, 1),))
    """
    tail = polynomial_tail(seq, max_degree)
    if tail is None:
        return None
    degree, n0, column = tail
    return PolynomialFit(degree, n0, _interpolate_tail(column, n0))


def detect_fib_like(seq: Sequence[int], min_confirmations: int = 5) -> FibLikeFit | None:
    """
    Find the smallest threshold n0 such that f(n) = f(n-1) + f(n-2) + a*n + b
    holds from n0 on, where (a, b) is fixed by n = n0, n0+1 and the rest
    of the sequence confirms it (at least five confirmations by default;
    the randomized survey's tally lowers the bar to four, matching the
    by-eye standard short windows were originally judged with).

    >>> detect_fib_like([1, 1, 2, 3, 5, 8, 13, 21, 34])
    FibLikeFit(a=0, b=0, threshold=2)
    """
    if len(seq) < 9:
        raise ValueError("need at least 9 terms")
    # excess[i] is e(i + 2); e(n) = a*n + b from n0 on iff its differences
    # equal a from index n0 - 2 on
    excess = [seq[n] - seq[n - 1] - seq[n - 2] for n in range(2, len(seq))]
    slopes = _diff(excess)
    start = _run_start(slopes)
    if len(slopes) - start < min_confirmations + 1:
        return None
    a = slopes[-1]
    n0 = start + 2
    return FibLikeFit(a, excess[start] - a * n0, n0)


def classify(seq: Sequence[int], max_degree: int = 7) -> ClassificationReport:
    """
    Classify with precedence: eventually zero, then eventually polynomial
    (smallest degree), then Fibonacci-with-drift, else unclassified.

    >>> classify([1, 2, 2, 0, 0, 0, 0]).verdict
    'zero'
    >>> classify([1, 2, 4, 6, 8, 10, 12, 14]).degree
    1
    """
    if len(seq) < 4:
        raise ValueError("need at least 4 terms")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    length = len(seq)

    start = _run_start(seq)
    if seq[-1] == 0 and length - start >= 3:
        return ClassificationReport(verdict="zero", threshold=start, evidence=length - start)

    fit = detect_eventual_polynomial(seq, max_degree)
    if fit is not None:
        return ClassificationReport(
            verdict="polynomial",
            threshold=fit.threshold,
            degree=fit.degree,
            coefficients=fit.coefficients,
            evidence=length - fit.threshold - fit.degree - 1,
        )

    if length >= 9:
        fib = detect_fib_like(seq)
        if fib is not None:
            return ClassificationReport(
                verdict="fib_like",
                threshold=fib.threshold,
                a=fib.a,
                b=fib.b,
                evidence=length - fib.threshold - 2,
            )

    return ClassificationReport(verdict="unclassified")

"""
Classification of integer counting sequences.

Three shapes are recognized, in precedence order:

- eventually zero: the sequence ends in a run of at least three zeros;
- eventually polynomial: past some threshold the d-th finite differences
  are constant, witnessed by at least three difference values (so at least
  d + 3 terms from the threshold on: the polynomial is pinned down by d + 1
  of them and confirmed by the rest). Smallest degree wins, then smallest
  threshold;
- Fibonacci-with-drift: f(n) = f(n-1) + f(n-2) + a*n + b past a threshold,
  with at least five confirming terms beyond the two used to solve for
  (a, b).

Everything is exact: differences and recurrence checks in integer
arithmetic, polynomial reconstruction in Fractions (floating point would
misread near-degenerate difference tables). Sequences are indexed from 0
at their first term; thresholds and coefficients refer to that indexing.
"""
from __future__ import annotations

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
    return [b - a for a, b in zip(seq, seq[1:])]


def _interpolate_tail(seq: Sequence[int], n0: int, degree: int) -> tuple[Fraction, ...]:
    """
    Exact polynomial through seq[n0 .. n0+degree], as a polynomial in the
    sequence index: Newton's forward form at n0, the sum over k of the k-th
    difference at n0 times C(x - n0, k).
    """
    coeffs = [Fraction(0)] * (degree + 1)
    basis = [Fraction(1)]  # C(x - n0, k) in ascending powers of x
    diffs = list(seq[n0:])
    for k in range(degree + 1):
        for i, b in enumerate(basis):
            coeffs[i] += diffs[0] * b
        # C(x - n0, k + 1) = C(x - n0, k) * (x - n0 - k) / (k + 1)
        basis = [(a - (n0 + k) * b) / (k + 1) for a, b in zip([0, *basis], [*basis, 0])]
        diffs = _diff(diffs)
    return tuple(coeffs)


def eval_poly(coeffs: Sequence[Fraction], x: int) -> Fraction:
    total = Fraction(0)
    for c in reversed(tuple(coeffs)):
        total = total * x + c
    return total


def detect_eventual_polynomial(
    seq: Sequence[int], max_degree: int
) -> PolynomialFit | None:
    """
    Smallest degree first, then smallest threshold, requiring at least
    three equal difference values on the tail. Returns None if nothing
    qualifies.

    >>> detect_eventual_polynomial([5, 5, 5, 5, 5, 5, 5], 3)
    PolynomialFit(degree=0, threshold=0, coefficients=(Fraction(5, 1),))
    """
    seq = list(seq)
    if len(seq) < 4:
        raise ValueError("need at least 4 terms")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    length = len(seq)
    for d in range(max_degree + 1):
        diffs = list(seq)
        for _ in range(d):
            diffs = _diff(diffs)
        # diffs[i] is the d-th difference of the tail starting at term i;
        # the range keeps at least three difference values on the tail
        for n0 in range(length - d - 2):
            values = diffs[n0:]
            if all(v == values[0] for v in values):
                return PolynomialFit(d, n0, _interpolate_tail(seq, n0, d))
    return None


def detect_fib_like(seq: Sequence[int], min_confirmations: int = 5) -> FibLikeFit | None:
    """
    Find the smallest threshold n0 such that f(n) = f(n-1) + f(n-2) + a*n + b
    holds from n0 on, where (a, b) is solved from n = n0, n0+1 and the rest
    of the sequence confirms it (at least five confirmations by default;
    the randomized survey's tally lowers the bar to four, matching the
    by-eye standard short windows were originally judged with).

    >>> detect_fib_like([1, 1, 2, 3, 5, 8, 13, 21, 34])
    FibLikeFit(a=0, b=0, threshold=2)
    """
    seq = list(seq)
    if len(seq) < 9:
        raise ValueError("need at least 9 terms")
    length = len(seq)
    excess = [seq[n] - seq[n - 1] - seq[n - 2] for n in range(2, length)]
    for n0 in range(2, length - 1 - min_confirmations):
        d1 = excess[n0 - 2]
        d2 = excess[n0 - 1]
        a = d2 - d1
        b = d1 - a * n0
        if all(excess[n - 2] == a * n + b for n in range(n0 + 2, length)):
            return FibLikeFit(a, b, n0)
    return None


def classify(seq: Sequence[int], max_degree: int = 7) -> ClassificationReport:
    """
    Classify with precedence: eventually zero, then eventually polynomial
    (smallest degree), then Fibonacci-with-drift, else unclassified.

    >>> classify([1, 2, 2, 0, 0, 0, 0]).verdict
    'zero'
    >>> classify([1, 2, 4, 6, 8, 10, 12, 14]).degree
    1
    """
    seq = list(seq)
    if len(seq) < 4:
        raise ValueError("need at least 4 terms")
    length = len(seq)

    zeros = 0
    for v in reversed(seq):
        if v != 0:
            break
        zeros += 1
    if zeros >= 3:
        return ClassificationReport(
            verdict="zero", threshold=length - zeros, evidence=zeros
        )

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

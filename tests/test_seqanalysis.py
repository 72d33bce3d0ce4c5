import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patavoid.perms import pattern_set
from patavoid.seqanalysis import (
    _interpolate_tail,
    classify,
    detect_eventual_polynomial,
    detect_fib_like,
    eval_poly,
    polynomial_tail,
)
from patavoid.survey import SurveyRecord, polynomial_scan

FIB_DRIFT = [1, 2, 6, 12, 18, 26, 39, 60, 94, 149, 238, 382, 615]

coeff_lists = st.lists(
    st.integers(min_value=-20, max_value=20), min_size=1, max_size=8
).filter(lambda c: c[-1] != 0)


def sample_poly(coeffs, start, length):
    return [int(eval_poly([Fraction(c) for c in coeffs], x)) for x in range(start, start + length)]


class TestPolynomialDetection:
    def test_constant(self):
        fit = detect_eventual_polynomial([5, 5, 5, 5, 5, 5, 5], 3)
        assert (fit.degree, fit.threshold) == (0, 0)
        assert fit.coefficients == (Fraction(5),)

    def test_known_degree_four_row(self):
        row = [1, 2, 6, 20, 58, 141, 297, 561, 975, 1588]
        fit = detect_eventual_polynomial(row, 7)
        assert (fit.degree, fit.threshold) == (4, 0)

    def test_requires_three_difference_values(self):
        # degree 2 on 5 terms leaves only 3 second differences: accepted;
        # on 4 terms only 2: rejected
        quad = sample_poly([1, 2, 3], 1, 5)
        assert detect_eventual_polynomial(quad, 7).degree == 2
        with_fewer = sample_poly([1, 2, 3], 1, 4)
        assert detect_eventual_polynomial(with_fewer, 7) is None

    def test_no_fit_on_exponential(self):
        assert detect_eventual_polynomial([2**n for n in range(12)], 7) is None

    def test_max_degree_respected(self):
        cubic = sample_poly([0, 0, 0, 1], 1, 10)
        assert detect_eventual_polynomial(cubic, 2) is None
        assert detect_eventual_polynomial(cubic, 3).degree == 3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            detect_eventual_polynomial([1, 2, 3], 2)
        with pytest.raises(ValueError):
            detect_eventual_polynomial([1, 2, 3, 4], -1)

    @given(coeff_lists)
    def test_round_trip(self, coeffs):
        degree = len(coeffs) - 1
        seq = sample_poly(coeffs, 1, degree + 6)
        fit = detect_eventual_polynomial(seq, 7)
        assert fit is not None
        assert fit.degree == degree
        # reported coefficients are in the 0-based term index; term k = p(k+1)
        poly = [Fraction(c) for c in coeffs]
        assert all(
            eval_poly(fit.coefficients, k) == eval_poly(poly, k + 1)
            for k in range(len(seq))
        )

    @given(coeff_lists, st.integers(min_value=1, max_value=3))
    def test_shift_robustness(self, coeffs, k):
        degree = len(coeffs) - 1
        seq = sample_poly(coeffs, 1, degree + 6 + k)
        for i in range(k):
            seq[i] += 1 + i + seq[i] % 7  # knock the prefix off the polynomial
        fit = detect_eventual_polynomial(seq, 7)
        assert fit is not None
        assert fit.degree == degree
        assert fit.threshold <= k + 1

    @given(coeff_lists)
    def test_degree_minimality(self, coeffs):
        degree = len(coeffs) - 1
        seq = sample_poly(coeffs, 1, degree + 8)
        fit = detect_eventual_polynomial(seq, 7)
        assert fit is not None and fit.degree <= degree


class TestFibLike:
    def test_known_drift_sequence(self):
        fit = detect_fib_like(FIB_DRIFT)
        assert (fit.a, fit.b, fit.threshold) == (0, -5, 6)

    def test_pure_fibonacci(self):
        fit = detect_fib_like([1, 1, 2, 3, 5, 8, 13, 21, 34])
        assert (fit.a, fit.b, fit.threshold) == (0, 0, 2)

    def test_quadratic_is_not_fib_like(self):
        seq = sample_poly([3, 1, 2], 1, 13)
        assert detect_fib_like(seq) is None

    def test_needs_nine_terms(self):
        with pytest.raises(ValueError):
            detect_fib_like([1, 2, 3, 5, 8, 13, 21, 34])

    @given(
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=9, max_value=16),
    )
    def test_synthesized_recurrences_recovered(self, a, b, f0, f1, length):
        seq = [f0, f1]
        for n in range(2, length):
            seq.append(seq[-1] + seq[-2] + a * n + b)
        fit = detect_fib_like(seq)
        assert fit is not None
        assert (fit.a, fit.b) == (a, b)
        assert fit.threshold == 2


class TestClassify:
    def test_zero_precedence(self):
        report = classify([1, 2, 2, 0, 0, 0, 0])
        assert report.verdict == "zero"
        assert report.threshold == 3
        assert report.evidence == 4

    def test_zero_beats_constant(self):
        assert classify([1, 1, 0, 0, 0, 0, 0]).verdict == "zero"

    def test_arithmetic_tail(self):
        report = classify([1, 2, 4, 6, 8, 10, 12, 14])
        assert report.verdict == "polynomial"
        assert report.degree == 1

    def test_drift_recurrence(self):
        report = classify(FIB_DRIFT)
        assert report.verdict == "fib_like"
        assert (report.a, report.b, report.threshold) == (0, -5, 6)

    def test_unclassified(self):
        assert classify([2**n + n % 3 for n in range(13)]).verdict == "unclassified"

    def test_two_trailing_zeros_not_zero_verdict(self):
        assert classify([1, 2, 6, 0, 0]).verdict != "zero"

    def test_json_dict(self):
        data = classify(FIB_DRIFT).to_json_dict()
        assert data == {"verdict": "fib_like", "threshold": 6, "a": 0, "b": -5}

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            classify([1, 2, 3])

    @pytest.mark.parametrize("seq", [[0, 0, 0, 0], [1, 2, 2, 0, 0, 0, 0], [1, 2, 3, 4], FIB_DRIFT])
    def test_negative_max_degree_rejected_for_every_verdict(self, seq):
        with pytest.raises(ValueError, match="max_degree must be >= 0"):
            classify(seq, -1)


# ---------------------------------------------------------------------------
# The trailing-run rule against the direct scans it replaced
# ---------------------------------------------------------------------------

def reference_polynomial(seq, max_degree):
    """(degree, threshold): re-difference per degree, test every threshold."""
    length = len(seq)
    for d in range(max_degree + 1):
        diffs = list(seq)
        for _ in range(d):
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        for n0 in range(length - d - 2):
            values = diffs[n0:]
            if all(v == values[0] for v in values):
                return d, n0
    return None


def reference_fib_like(seq, min_confirmations):
    """(a, b, threshold): solve (a, b) at every threshold, check the tail."""
    length = len(seq)
    excess = [seq[n] - seq[n - 1] - seq[n - 2] for n in range(2, length)]
    for n0 in range(2, length - 1 - min_confirmations):
        a = excess[n0 - 1] - excess[n0 - 2]
        b = excess[n0 - 2] - a * n0
        if all(excess[n - 2] == a * n + b for n in range(n0 + 2, length)):
            return a, b, n0
    return None


def reference_classify(seq, max_degree=7):
    """The report's fields, with the coefficients left out."""
    length = len(seq)
    zeros = 0
    for v in reversed(seq):
        if v != 0:
            break
        zeros += 1
    if zeros >= 3:
        return ("zero", length - zeros, None, None, None, zeros)
    fit = reference_polynomial(seq, max_degree)
    if fit is not None:
        d, n0 = fit
        return ("polynomial", n0, d, None, None, length - n0 - d - 1)
    if length >= 9:
        fib = reference_fib_like(seq, 5)
        if fib is not None:
            a, b, n0 = fib
            return ("fib_like", n0, None, a, b, length - n0 - 2)
    return ("unclassified", None, None, None, None, 0)


def assert_polynomial_matches(seq, max_degree):
    fit = detect_eventual_polynomial(seq, max_degree)
    expected = reference_polynomial(seq, max_degree)
    if expected is None:
        assert fit is None
        return
    assert (fit.degree, fit.threshold) == expected
    # a polynomial of degree d is pinned down by d + 1 terms of the tail
    assert len(fit.coefficients) == fit.degree + 1
    assert all(eval_poly(fit.coefficients, n) == seq[n] for n in range(fit.threshold, len(seq)))


def assert_classify_matches(seq, max_degree=7):
    report = classify(seq, max_degree)
    fields = (report.verdict, report.threshold, report.degree, report.a, report.b, report.evidence)
    assert fields == reference_classify(seq, max_degree)
    if report.verdict == "polynomial":
        assert report.coefficients == detect_eventual_polynomial(seq, max_degree).coefficients
    else:
        assert report.coefficients is None


def assert_all_shapes_match(seq):
    for max_degree in range(9):
        assert_polynomial_matches(seq, max_degree)
    if len(seq) >= 9:
        for min_confirmations in range(3, 8):
            fit = detect_fib_like(seq, min_confirmations)
            expected = reference_fib_like(seq, min_confirmations)
            assert (fit and tuple(fit)) == expected
    assert_classify_matches(seq)


def perturbed(seq, bumps):
    seq = list(seq)
    for i, delta in bumps:
        seq[i % len(seq)] += delta
    return seq


bumps = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15), st.sampled_from([-3, -1, 1, 2])), max_size=2
)
repeat_rich = st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, -1, 3]), min_size=4, max_size=16)


@st.composite
def perturbed_polynomials(draw):
    coeffs = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6))
    length = draw(st.integers(min_value=4, max_value=16))
    start = draw(st.integers(min_value=-3, max_value=3))
    return perturbed(sample_poly(coeffs, start, length), draw(bumps))


@st.composite
def perturbed_drift(draw):
    a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    seq = [draw(st.integers(-5, 5)), draw(st.integers(-5, 5))]
    for n in range(2, draw(st.integers(min_value=4, max_value=16))):
        seq.append(seq[-1] + seq[-2] + a * n + b)
    return perturbed(seq, draw(bumps))


class TestTrailingRunRule:
    @settings(max_examples=500)
    @given(st.one_of(repeat_rich, perturbed_polynomials(), perturbed_drift()))
    def test_matches_direct_scans(self, seq):
        assert_all_shapes_match(seq)

    def test_constant_sequence(self):
        seq = [4] * 8
        assert_all_shapes_match(seq)
        report = classify(seq)
        assert (report.verdict, report.degree, report.threshold, report.evidence) == ("polynomial", 0, 0, 7)

    def test_two_against_three_trailing_zeros(self):
        two = [3, 1, 4, 1, 5, 0, 0]
        three = [3, 1, 4, 1, 5, 0, 0, 0]
        assert classify(two).verdict != "zero"
        report = classify(three)
        assert (report.verdict, report.threshold, report.evidence) == ("zero", 5, 3)
        assert_all_shapes_match(two)
        assert_all_shapes_match(three)

    @pytest.mark.parametrize("max_degree", [5, 6, 40])
    def test_max_degree_past_the_sequence(self, max_degree):
        # the difference rows run out, and empty rows have no run
        assert detect_eventual_polynomial([1, 2, 4, 8, 16], max_degree) is None
        assert_polynomial_matches([1, 2, 4, 8, 16], max_degree)

    def test_fib_fit_on_nine_terms(self):
        seq = [2, 3]
        for n in range(2, 9):
            seq.append(seq[-1] + seq[-2] + 2 * n - 1)
        assert tuple(detect_fib_like(seq)) == (2, -1, 2)
        # a bumped first term leaves five recurrence steps: too few for
        # five confirmations, enough for four
        bumped = [seq[0] + 1, *seq[1:]]
        assert detect_fib_like(bumped) is None
        assert tuple(detect_fib_like(bumped, min_confirmations=4)) == (2, -1, 3)
        assert_all_shapes_match(seq)
        assert_all_shapes_match(bumped)


# ---------------------------------------------------------------------------
# Integer interpolation and the shared difference walk
# ---------------------------------------------------------------------------

def fraction_interpolate_tail(column, n0):
    """Newton's forward form at n0 summed in Fractions, one basis polynomial at a time."""
    coeffs = [Fraction(0)] * len(column)
    basis = [Fraction(1)]  # C(x - n0, k) in ascending powers of x
    for k, delta in enumerate(column):
        for i, b in enumerate(basis):
            coeffs[i] += delta * b
        # C(x - n0, k + 1) = C(x - n0, k) * (x - n0 - k) / (k + 1)
        basis = [(a - (n0 + k) * b) / (k + 1) for a, b in zip([0, *basis], [*basis, 0])]
    return tuple(coeffs)


class TestIntegerInterpolation:
    @settings(max_examples=300)
    @given(
        st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=10),
    )
    def test_matches_the_fraction_form(self, column, n0):
        got = _interpolate_tail(column, n0)
        assert got == fraction_interpolate_tail(column, n0)
        assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("degree", range(8))
    def test_negative_differences_every_degree(self, degree):
        column = [-(k + 1) ** 3 for k in range(degree + 1)]
        for n0 in range(11):
            assert _interpolate_tail(column, n0) == fraction_interpolate_tail(column, n0)

    def test_reports_keep_their_text(self):
        # differences 1, 3, 2, 7 at n0 = 4: a cubic with fractional coefficients
        tail = [sum(d * math.comb(j, k) for k, d in enumerate((1, 3, 2, 7))) for j in range(6)]
        report = classify([9, 8, 7, 5, *tail])
        assert (report.degree, report.threshold) == (3, 4)
        expected = fraction_interpolate_tail((1, 3, 2, 7), 4)
        assert any(c.denominator > 1 for c in expected)
        assert report.to_json_dict()["coefficients"] == [str(c) for c in expected]


def scan_one(seq, max_degree):
    record = SurveyRecord(patterns=pattern_set([(1, 2)]), orbit_size=1, counts=tuple(seq))
    return polynomial_scan([record], len(seq), max_degree)


def assert_scan_matches_filter(seq, max_degree):
    """polynomial_scan against the detect_eventual_polynomial filter it replaced."""
    fit = detect_eventual_polynomial(seq, max_degree)
    flagged = fit is not None and fit.threshold == 0 and 1 <= fit.degree <= max_degree
    assert scan_one(seq, max_degree) == ([(((1, 2),), fit.degree)] if flagged else [])
    tail = polynomial_tail(seq, max_degree)
    assert (tail and tail[:2]) == (fit and (fit.degree, fit.threshold)) == reference_polynomial(seq, max_degree)


@st.composite
def prefixed_polynomials(draw):
    """A polynomial tail behind 0-3 arbitrary terms: fits at thresholds 0 to 3."""
    coeffs = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6))
    prefix = draw(st.lists(st.integers(min_value=-50, max_value=50), max_size=3))
    length = draw(st.integers(min_value=len(coeffs) + 2, max_value=12))
    return prefix + sample_poly(coeffs, len(prefix), length)


class TestPolynomialScanWalk:
    @settings(max_examples=300)
    @given(
        st.one_of(repeat_rich, perturbed_polynomials(), perturbed_drift(), prefixed_polynomials()),
        st.integers(min_value=0, max_value=8),
    )
    def test_matches_the_detector_filter(self, seq, max_degree):
        if len(seq) >= max(4, max_degree + 3):
            assert_scan_matches_filter(seq, max_degree)

    @pytest.mark.parametrize("seq", [
        [4] * 8,
        [3, 1, 4, 1, 5, 0, 0],
        [3, 1, 4, 1, 5, 0, 0, 0],
        [1, 2, 4, 8, 16],
        [n * n for n in range(1, 11)],
        [99, 98] + [n * n for n in range(3, 11)],
        [2, 2, 3, 4, 5, 6],
        [7] + [n * n for n in range(1, 9)],
        [1, 2, 6, 20, 58, 141, 297, 561, 975, 1588],
        FIB_DRIFT,
    ])
    def test_on_the_trailing_run_references(self, seq):
        for max_degree in range(len(seq) - 2):
            assert_scan_matches_filter(seq, max_degree)

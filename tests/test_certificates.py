"""
Certification soundness probes past the theorem bound: generate the family
for several lengths beyond the certified bound and confirm no member
contains any of the patterns. The two-template family grows too fast for
tuple-at-a-time checks at the larger lengths, so these tests use the
package's vectorized containment kernel, ``counting.rows_containing`` (the
one ``certify_avoidance`` runs on), after checking it against the reference
``perms.contains``.
"""
import random

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from patavoid.counting import rows_containing
from patavoid.perms import all_perms, avoids, contains
from patavoid.templates import (
    _family_at,
    generate_family,
    parse_template,
    template_set,
    three_segment_counts,
    verify_family_avoids,
)

T_FIVE = parse_template("45312:10101")
T_PAIR = (parse_template("14253:10101"), parse_template("15243:10101"))


def family_rows(templates, n: int) -> np.ndarray:
    members = sorted(generate_family(templates, n))
    return np.array(members, dtype=np.int16).reshape(len(members), n)


def first_hit(rows, hits, patterns):
    """The first row the kernel flags, and the patterns ``perms.contains`` finds in it."""
    pi = tuple(rows[np.argmax(hits)].tolist())
    return pi, [sigma for sigma in patterns if contains(pi, sigma)]


class TestBulkChecker:
    def test_matches_reference_containment(self):
        rng = random.Random(99)  # 1200 rows: more than one chunk of the kernel at n=8
        perms = [tuple(rng.sample(range(1, 9), 8)) for _ in range(1200)]
        rows = np.array(perms, dtype=np.int16)
        for sigma in [(1, 2), (2, 1, 3), (1, 4, 3, 2), (2, 4, 1, 3), (1, 2, 3, 4, 5)]:
            got = rows_containing(rows, [sigma])
            want = np.array([contains(pi, sigma) for pi in perms])
            assert (got == want).all(), sigma

    def test_short_rows(self):
        rows = np.array([[1, 2], [2, 1]], dtype=np.int16)
        assert not rows_containing(rows, [(1, 2, 3)]).any()
        assert rows_containing(rows, [(1, 2)]).tolist() == [True, False]

    def test_edge_cases(self):
        assert rows_containing(np.zeros((1, 0), dtype=np.int16), [()]).tolist() == [True]
        assert rows_containing(np.zeros((1, 0), dtype=np.int16), [(1,)]).tolist() == [False]
        perms3 = list(all_perms(3))
        rows = np.array(perms3, dtype=np.int16)
        assert rows_containing(rows, [()]).all()  # k=0
        assert rows_containing(rows, [(1,)]).all()  # k=1
        assert not rows_containing(rows, [(1, 2, 3, 4)]).any()  # k>n
        assert rows_containing(rows, [(2, 3, 1)]).tolist() == [pi == (2, 3, 1) for pi in perms3]  # k=n
        for sigma in [(), (1,), (1, 2), (1, 2, 3, 4)]:
            got = rows_containing(np.zeros((0, 3), dtype=np.int16), [sigma])
            assert got.shape == (0,) and got.dtype == bool

    @given(
        st.integers(0, 9).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(1, n + 1)), max_size=12))
        ),
        st.lists(st.integers(0, 5).flatmap(lambda k: st.permutations(range(1, k + 1)).map(tuple)), max_size=4),
    )
    @example((3, [(1, 2, 3), (3, 1, 2)]), [()])
    @example((3, [(1, 2, 3), (3, 1, 2)]), [(1,)])
    @example((3, [(1, 2, 3), (3, 1, 2)]), [])
    def test_matches_contains_property(self, sized, sigma):
        n, perms = sized
        rows = np.array(perms, dtype=np.int16).reshape(len(perms), n)
        want = [not avoids(pi, sigma) for pi in perms]
        assert rows_containing(rows, sigma).tolist() == want


class TestSoundnessPastBound:
    def test_132_shape_three_past_bound(self):
        ok, witness = verify_family_avoids([parse_template("231:101")], [(1, 3, 2)], 8)
        assert ok and witness is None

    def test_single_template_three_past_bound(self):
        # certified bound is 10; probe lengths 0..13
        patterns = [(2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2)]
        for n in range(14):
            rows = family_rows([T_FIVE], n)
            hits = rows_containing(rows, patterns)
            assert not hits.any(), (n, first_hit(rows, hits, patterns))

    def test_pair_template_three_past_bound(self):
        # certified bound is 10; probe to 13. Lengths 12-13 hold ~683k/2.7M
        # members, read as the memoized arrays certify_avoidance itself checks
        patterns = [(2, 3, 4, 1), (2, 4, 1, 3), (2, 4, 3, 1), (3, 2, 4, 1)]
        expected = three_segment_counts(13, variants=2)
        for n in range(14):
            rows = _family_at(template_set(T_PAIR), n)
            # every member comes from exactly one split, so the distinct
            # members must number what the counting recurrence says
            assert len(rows) == expected.counts[n], (n, len(rows), expected.counts[n])
            hits = rows_containing(rows, patterns)
            assert not hits.any(), (n, first_hit(rows, hits, patterns))

    def test_checker_can_find_witnesses(self):
        # sanity: the probe is not vacuous; a family built on the identity
        # shape immediately realizes increasing patterns
        rows = family_rows([parse_template("12:11")], 4)
        assert rows_containing(rows, [(1, 2)]).any()

"""
Certification soundness probes past the theorem bound: generate the family
for several lengths beyond the certified bound and confirm no member
contains any of the patterns. The two-template family grows too fast for
tuple-at-a-time checks at the larger lengths, so these tests use the
package's vectorized containment kernel, ``counting.rows_containing`` (the
one ``certify_avoidance`` runs on), after checking it against the reference
``perms.contains``.
"""
import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patavoid import counting
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
PROP7 = [(2, 3, 4, 1), (2, 4, 1, 3), (2, 4, 3, 1), (3, 2, 4, 1)]


def family_rows(templates, n: int) -> np.ndarray:
    members = sorted(generate_family(templates, n))
    return np.array(members, dtype=np.int16).reshape(len(members), n)


def first_hit(rows, hits, patterns):
    """The first row the kernel flags, and the patterns ``perms.contains`` finds in it."""
    pi = tuple(rows[np.argmax(hits)].tolist())
    return pi, [sigma for sigma in patterns if contains(pi, sigma)]


def with_max_at(parent, gaps):
    """The rows of ``parent`` with its new maximum inserted at each gap."""
    n = len(parent) + 1
    return [tuple(parent[:g]) + (n,) + tuple(parent[g:]) for g in gaps]


@st.composite
def rows_sharing_parents(draw, n):
    """Random length-n rows, up to about 250 of them, most sharing their max-deleted parent with others."""
    rows = []
    if n:
        for parent in draw(st.lists(st.permutations(range(1, n)), max_size=40)):
            rows += with_max_at(parent, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6)))
    return rows + draw(st.lists(st.permutations(range(1, n + 1)).map(tuple), max_size=12))


def contains_naively(rows, patterns):
    return [not avoids(tuple(pi), patterns) for pi in rows]


def contains_by_embedding(rows, patterns):
    """
    The direct bulk check, as a reference: every row at every embedding of
    every pattern, its entries there compared in the pattern's value order,
    one gather per pattern length and chunk of about 500k cells. Patterns
    of length 0 and 1 embed in every row at least as long.
    """
    count, n = rows.shape
    out = np.zeros(count, dtype=bool)
    for k in {len(sigma) for sigma in patterns if len(sigma) <= n}:
        if k <= 1:
            out[:] = True
            continue
        combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
        orders = [sorted(range(k), key=sigma.__getitem__) for sigma in patterns if len(sigma) == k]
        chunk = max(1, 500_000 // combos.size)
        for start in range(0, count, chunk):
            cols = rows[start:start + chunk, combos.T]  # (chunk, k, embeddings)
            for order in orders:
                rising = cols[:, order[0]] < cols[:, order[1]]
                for below, above in zip(order[1:], order[2:]):
                    rising &= cols[:, below] < cols[:, above]
                out[start:start + chunk] |= rising.any(axis=1)
    return out


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
        st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), rows_sharing_parents(n))),
        st.lists(st.integers(0, 5).flatmap(lambda k: st.permutations(range(1, k + 1)).map(tuple)), max_size=4),
    )
    @example((3, [(1, 2, 3), (3, 1, 2)]), [()])
    @example((3, [(1, 2, 3), (3, 1, 2)]), [(1,)])
    @example((3, [(1, 2, 3), (3, 1, 2)]), [])
    def test_matches_contains_property(self, sized, sigma):
        n, perms = sized
        rows = np.array(perms, dtype=np.int16).reshape(len(perms), n)
        assert rows_containing(rows, sigma).tolist() == contains_naively(perms, sigma)

    @pytest.mark.parametrize("n", [5, 6])
    def test_whole_symmetric_group_twice(self, n):
        # every row shares its parent with n others, and every row appears twice
        perms = sorted(all_perms(n)) * 2
        rows = np.array(perms, dtype=np.int16)
        for sigma in [[], [()], [(1,)], [(2, 1)], [(1, 3, 2)], [(2, 4, 1, 3), (3, 1, 4, 2)],
                      [(3, 1, 2, 5, 4)], [tuple(range(n, 0, -1))], [(2, 1, 3, 4, 5, 6, 7)]]:
            assert rows_containing(rows, sigma).tolist() == contains_naively(perms, sigma), sigma
            assert contains_by_embedding(rows, sigma).tolist() == contains_naively(perms, sigma), sigma

    def test_distinct_parents(self):
        # the parents rows_containing recurses on: each row with its maximum deleted by mask
        perms = sorted(all_perms(6)) * 2
        rows = np.array(perms, dtype=np.int16)
        parents, inverse = counting._distinct_rows(rows[rows != 6].reshape(len(rows), 5))
        assert parents.tolist() == [list(p) for p in sorted(all_perms(5))]
        assert inverse.dtype == np.int32
        assert parents[inverse].tolist() == [[v for v in pi if v != 6] for pi in perms]
        distinct, inverse = counting._distinct_rows(rows)
        assert distinct.tolist() == [list(p) for p in sorted(all_perms(6))]
        assert inverse.tolist() == list(range(720)) * 2
        # every width where the bits per entry or the number of uint64 words changes;
        # past one word, rows that differ only in the last word (in the last two
        # entries where that word holds one) must still sort and split apart
        rng = random.Random(16)
        for n in (0, 1, 2, 8, 9, 16, 17, 24, 25, 32, 33, 40, 41, 64, 65):
            per_word = 64 // max(1, (n - 1).bit_length())
            perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)]
            if n > per_word:
                head = min((n - 1) // per_word * per_word, n - 2)
                for p in perms[:4]:
                    perms += [p[:head] + tuple(rng.sample(p[head:], n - head)) for _ in range(6)]
            perms += perms[::3] + perms[:5]
            rng.shuffle(perms)
            distinct, inverse = counting._distinct_rows(np.array(perms, dtype=np.int16))
            assert distinct.tolist() == [list(p) for p in sorted(set(perms))], n
            assert inverse.dtype == np.int32, n
            assert distinct[inverse].tolist() == [list(p) for p in perms], n

    def test_recursion_reaches_its_base(self, monkeypatch):
        # any number of rows recurses on its parents, down to rows of the
        # shortest pattern's length and never below; each recorded shape is
        # the parents' (rows that recursed, their length - 1)
        calls = []
        distinct_rows = counting._distinct_rows
        monkeypatch.setattr(counting, "_distinct_rows", lambda rows: calls.append(rows.shape) or distinct_rows(rows))
        perms6 = np.array(sorted(all_perms(6)), dtype=np.int16)
        rows_containing(perms6[:1], [(1, 2)])
        assert calls == [(1, 5), (1, 4), (1, 3), (1, 2), (1, 1)]
        calls.clear()
        rows_containing(perms6, [(1, 2)])
        assert calls == [(720, 5), (120, 4), (24, 3), (6, 2), (2, 1)]
        calls.clear()
        rows_containing(perms6, [(1, 3, 2, 4), (2, 1, 3)])
        assert calls == [(720, 5), (120, 4), (24, 3), (6, 2)]  # rows of length 2 hold no length-3 pattern
        calls.clear()
        for sigma in [[(1, 2, 3, 4, 5, 6, 7)], [()], [(), (1, 2)], []]:
            rows_containing(perms6, sigma)
            assert calls == [], sigma  # rows shorter than every pattern, or a set holding the empty one
        rows_containing(np.tile(np.arange(1, 19, dtype=np.int16), (64, 1)), [(1, 2)])
        assert calls == [(64, 17)] + [(1, n) for n in range(16, 0, -1)]  # 64 equal rows, one parent
        calls.clear()
        rng = random.Random(18)
        rows = np.array([rng.sample(range(1, 19), 18) for _ in range(64)], dtype=np.int16)
        rows_containing(rows, [(1, 2)])
        assert calls[:2] == [(64, 17), (64, 16)]  # two words a row, then one
        assert [shape[1] for shape in calls] == list(range(17, 0, -1))

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_long_rows_around_the_key_limit(self, n):
        # parents of length 15 and 16 pack into one uint64 word, of length 17 into two
        rng = random.Random(n)
        perms = []
        for _ in range(30):
            perms += with_max_at(rng.sample(range(1, n), n - 1), rng.sample(range(n), 4))
        perms += perms[:10] + [tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
        rows = np.array(perms, dtype=np.int16)
        for sigma in [[()], [(1,)], [(2, 1)], [(1, 2, 3, 4, 5, 6)], [(3, 1, 4, 2), (2, 4, 1, 3)],
                      [tuple(range(n, 0, -1))], [tuple(range(1, n + 2))]]:
            assert rows_containing(rows, sigma).tolist() == contains_naively(perms, sigma), (n, sigma)

    def test_prop7_family_at_eleven(self):
        # 172,032 members: the recursion against the direct bulk check on all
        # of them, and against perms.contains on every 64th
        rows = _family_at(template_set(T_PAIR), 11)
        patterns = [PROP7, [(1, 2, 3, 4)], [(4, 3, 2, 1), (1, 3, 2, 4, 5)]]
        got = [rows_containing(rows, sigma) for sigma in patterns]
        sample = [tuple(pi) for pi in rows[::64].tolist()]
        for sigma, hits in zip(patterns, got):
            assert hits[::64].tolist() == contains_naively(sample, sigma), sigma
            assert (contains_by_embedding(rows, sigma) == hits).all(), sigma
        assert not got[0].any() and got[1].any() and not got[1].all()


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

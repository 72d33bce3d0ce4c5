import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patavoid import perms
from patavoid.perms import (
    SYMMETRIES,
    all_perms,
    apply_symmetry,
    apply_symmetry_to_set,
    avoids,
    canonicalize_set,
    contains,
    flatten,
    format_braced,
    format_pattern_set,
    format_perm,
    format_perm_rows,
    parse_pattern_list,
    parse_pattern_set,
    parse_perm,
    pattern_set,
    pattern_set_key,
    perm,
    symmetry_orbit,
)

distinct_words = st.lists(
    st.integers(min_value=-50, max_value=50), max_size=8, unique=True
)


class TestFlatten:
    def test_known_word(self):
        assert flatten((2, 9, 7, 5)) == (1, 4, 3, 2)

    def test_already_flat(self):
        assert flatten((1, 2, 3)) == (1, 2, 3)

    def test_empty(self):
        assert flatten(()) == ()

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            flatten((1, 3, 3))

    @given(distinct_words)
    def test_idempotent(self, word):
        assert flatten(flatten(word)) == flatten(word)

    @given(distinct_words)
    def test_result_is_perm(self, word):
        assert perm(flatten(word)) == flatten(word)


class TestContains:
    def test_known_containment(self):
        assert contains((2, 1, 9, 3, 7, 8, 6, 4, 5), (1, 4, 3, 2))

    def test_increasing_misses_132(self):
        assert not contains((1, 2, 3), (1, 3, 2))

    def test_self_containment(self):
        for n in range(1, 6):
            for pi in all_perms(n):
                assert contains(pi, pi)

    def test_empty_pattern_always_contained(self):
        assert contains((), ())
        assert contains((3, 1, 2), ())

    def test_too_short(self):
        assert not contains((1, 2), (1, 2, 3))

    def test_transitivity_sampled(self):
        rng = random.Random(7)
        for _ in range(300):
            ks = sorted(rng.randrange(1, 8) for _ in range(3))
            sigma = tuple(rng.sample(range(1, ks[0] + 1), ks[0]))
            pi = tuple(rng.sample(range(1, ks[1] + 1), ks[1]))
            tau = tuple(rng.sample(range(1, ks[2] + 1), ks[2]))
            if contains(pi, sigma) and contains(tau, pi):
                assert contains(tau, sigma)


class TestAvoids:
    def test_known_example(self):
        assert not avoids((2, 1, 9, 3, 7, 8, 6, 4, 5), [(1, 4, 3, 2)])

    def test_empty_set_vacuous(self):
        assert avoids((3, 1, 2), [])

    def test_short_perm_avoids_long_patterns(self):
        assert avoids((2, 1), list(all_perms(3)))


def closure_orbit(patterns):
    """
    The images of a pattern set under the group that reverse, complement
    and inverse generate, written out here and closed by search, so that
    nothing is shared with perms' symmetry table.
    """
    generators = [
        lambda p: p[::-1],
        lambda p: tuple(len(p) + 1 - v for v in p),
        lambda p: tuple(sorted(range(1, len(p) + 1), key=lambda i: p[i - 1])),
    ]
    start = frozenset(tuple(p) for p in patterns)
    seen, todo = {start}, [start]
    while todo:
        image = todo.pop()
        for g in generators:
            other = frozenset(map(g, image))
            if other not in seen:
                seen.add(other)
                todo.append(other)
    return seen


class TestSymmetries:
    def test_eight_elements(self):
        assert len(SYMMETRIES) == 8
        assert SYMMETRIES[0] == "identity"

    def test_basic_actions(self):
        assert apply_symmetry("reverse", (1, 2, 3)) == (3, 2, 1)
        assert apply_symmetry("complement", (2, 3, 1)) == (2, 1, 3)
        assert apply_symmetry("inverse", (2, 3, 1)) == (3, 1, 2)
        assert apply_symmetry("identity", (2, 3, 1)) == (2, 3, 1)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            apply_symmetry("transpose", (1, 2))

    @pytest.mark.parametrize("g", ["reverse", "complement", "inverse"])
    def test_generators_are_involutions(self, g):
        for n in range(6):
            for pi in all_perms(n):
                assert apply_symmetry(g, apply_symmetry(g, pi)) == pi

    def test_composition_matches_action(self):
        # closure: the action of any symmetry after any other is the action
        # of a symmetry, exhaustively on lengths <= 5
        test_perms = [pi for n in range(6) for pi in all_perms(n)]
        actions = {tuple(apply_symmetry(g, pi) for pi in test_perms) for g in SYMMETRIES}
        assert len(actions) == 8
        for g in SYMMETRIES:
            for h in SYMMETRIES:
                composite = tuple(apply_symmetry(g, apply_symmetry(h, pi)) for pi in test_perms)
                assert composite in actions, (g, h)

    def test_group_axioms(self):
        # identity and two-sided inverses, on the actions over lengths <= 5
        test_perms = [pi for n in range(6) for pi in all_perms(n)]
        assert [apply_symmetry("identity", pi) for pi in test_perms] == test_perms
        for g in SYMMETRIES:
            inverses = [
                h for h in SYMMETRIES
                if all(apply_symmetry(g, apply_symmetry(h, pi)) == pi == apply_symmetry(h, apply_symmetry(g, pi))
                       for pi in test_perms)
            ]
            assert len(inverses) == 1, (g, inverses)

    def test_symmetry_preserves_containment(self):
        # exhaustive for |pi| <= 6, |sigma| <= 4, via a precomputed table
        table = {}
        pis = [pi for n in range(7) for pi in all_perms(n)]
        sigmas = [s for k in range(5) for s in all_perms(k)]
        for pi in pis:
            for s in sigmas:
                table[pi, s] = contains(pi, s)
        for g in SYMMETRIES:
            for pi in pis:
                gpi = apply_symmetry(g, pi)
                for s in sigmas:
                    assert table[gpi, apply_symmetry(g, s)] == table[pi, s]


class TestPatternSets:
    def test_dedup_and_order(self):
        assert pattern_set([(1, 3, 2), (2, 1), (1, 3, 2)]) == ((2, 1), (1, 3, 2))

    def test_length_lex_order(self):
        key = pattern_set_key(pattern_set([(2, 1, 3), (1, 2), (3, 1, 2)]))
        assert key == ((2, (1, 2)), (3, (2, 1, 3)), (3, (3, 1, 2)))

    def test_canonicalize_idempotent(self):
        rng = random.Random(3)
        pool = list(all_perms(4))
        for _ in range(40):
            sigma = pattern_set(rng.sample(pool, 4))
            canon = canonicalize_set(sigma)
            assert canonicalize_set(canon) == canon

    def test_canonicalize_orbit_invariant(self):
        rng = random.Random(4)
        pool = list(all_perms(4))
        for _ in range(40):
            sigma = pattern_set(rng.sample(pool, 3))
            canon = canonicalize_set(sigma)
            for g in SYMMETRIES:
                assert canonicalize_set(apply_symmetry_to_set(g, sigma)) == canon

    @given(st.lists(
        st.integers(min_value=0, max_value=5).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple),
        max_size=6,
    ))
    @example([])
    @example([()])
    @example([(1,), (), (1,)])
    @example([(2, 3, 1), (2, 1), (1,)])
    def test_canonicalize_is_least_orbit_member(self, patterns):
        orbit = closure_orbit(patterns)
        least = min(orbit, key=lambda image: sorted((len(p), p) for p in image))
        assert canonicalize_set(patterns) == tuple(sorted(least, key=lambda p: (len(p), p)))
        assert len(symmetry_orbit(patterns)) == len(orbit)

    @given(st.lists(st.lists(
        st.integers(min_value=0, max_value=4).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple),
        max_size=4,
    ), max_size=5))
    def test_shared_check_table(self, sets):
        # the table is perms' process-wide check memo: one miss per distinct pattern
        perms._checked.cache_clear()
        got = [pattern_set(s) for s in sets]
        assert perms._checked.cache_info().misses == len({p for s in sets for p in s})
        assert got == [tuple(sorted(set(s), key=lambda p: (len(p), p))) for s in sets]

    def test_shared_check_table_still_rejects(self):
        pattern_set([(1, 2), [2, 1]])
        for _ in range(2):  # a failed check is not remembered
            with pytest.raises(ValueError, match=r"not a permutation of 1..2: \(2, 2\)"):
                pattern_set([(1, 2), (2, 2)])
        # tuples equal to a permutation all get its one checked value, in ints
        for values in [(True, 2.0), (1, 2), np.array([1, 2])]:
            got = perm(values)
            assert got == (1, 2) and {type(v) for v in got} == {int}

    def test_memos_are_bounded(self):
        for memo in (perms._checked, perms._parsed, perms._formatted):
            assert memo.cache_info().maxsize == perms._MEMO_SIZE < 10**4

    def test_orbit_sizes_divide_eight(self):
        rng = random.Random(5)
        pool = list(all_perms(4))
        for _ in range(40):
            sigma = pattern_set(rng.sample(pool, rng.randrange(1, 5)))
            assert 8 % len(symmetry_orbit(sigma)) == 0


class TestTextFormat:
    def test_compact_round_trip(self):
        for n in range(10):
            for pi in itertools.islice(all_perms(n), 30):
                assert parse_perm(format_perm(pi)) == pi

    def test_long_round_trip(self):
        pi = tuple([10] + list(range(1, 10)))
        text = format_perm(pi)
        assert "," in text
        assert parse_perm(text) == pi

    def test_any_sequence_formats_alike(self):
        # the memo is keyed on the tuple, so a list or a numpy row is not hashed itself
        for pi, text in [((2, 3, 1), "231"), (tuple(range(10, 0, -1)), "10,9,8,7,6,5,4,3,2,1")]:
            for p in (pi, list(pi), np.array(pi, dtype=np.int16)):
                assert format_perm(p) == text

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 12, 20, 100])
    def test_rows_in_bulk(self, n, monkeypatch):
        # blocks of 7 rows: the last block is short, and 0 rows make none
        monkeypatch.setattr(perms, "_FORMAT_ROWS", 7)
        rng = random.Random(n)
        for count in (0, 1, 7, 30):
            rows = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(count)]
            got = format_perm_rows(np.array(rows, dtype=np.int16).reshape(count, n))
            assert got == [format_perm(pi) for pi in rows], (n, count)

    def test_pattern_set_texts_through_tables(self):
        # the tables are perms' process-wide memos, one per direction
        perms._formatted.cache_clear()
        perms._parsed.cache_clear()
        sets = [((1, 2), (2, 1)), ((2, 1), tuple(range(10, 0, -1)))]
        formatted = [format_pattern_set(s) for s in sets]
        assert formatted == [["12", "21"], ["21", "10,9,8,7,6,5,4,3,2,1"]]
        assert perms._formatted.cache_info().misses == 3  # each distinct tuple formatted once
        assert [parse_pattern_set(reversed(f)) for f in formatted] == sets
        assert parse_pattern_set(["21", "21", ""]) == ((), (2, 1))
        assert perms._parsed.cache_info().misses == 4  # each distinct text parsed once
        assert [format_braced(s) for s in sets] == ["{12,21}", "{21,10,9,8,7,6,5,4,3,2,1}"]

    @pytest.mark.parametrize("text, match", [
        ("1x2", "'1x2': invalid character 'x' at position 2"),
        ("212", "'212': not a bijection on 1..3"),
        ("1,,2", "'1,,2': invalid literal"),
        (12, "12: not a string"),
        ([2, 1], r"\[2, 1\]: not a string"),
    ])
    def test_parse_table_errors_name_the_text(self, text, match):
        parse_pattern_set(["12", "21"])
        cached = perms._parsed.cache_info().currsize
        error = TypeError if match.endswith("not a string") else ValueError
        for _ in range(2):  # a bad text is never cached, so it fails the same way again
            with pytest.raises(error, match=match):
                parse_pattern_set(["12", text])
            with pytest.raises(error, match=match):
                parse_perm(text)
        assert perms._parsed.cache_info().currsize == cached

    def test_parse_set_names_its_first_bad_text(self):
        with pytest.raises(ValueError, match="'1x'"):
            parse_pattern_set(["12", "1x", 12])
        with pytest.raises(TypeError, match="12: not a string"):
            parse_pattern_set(iter(["12", 12, "1x"]))

    def test_bad_character_names_position(self):
        with pytest.raises(ValueError, match="position 5"):
            parse_perm("1234x")

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            parse_perm("122")

    def test_pattern_list(self):
        assert parse_pattern_list("132,21") == ((2, 1), (1, 3, 2))
        assert parse_pattern_list("10,1,2,3,4,5,6,7,8,9;123") == (
            (1, 2, 3),
            (10, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        )

    def test_pattern_list_errors(self):
        with pytest.raises(ValueError, match="entry 2"):
            parse_pattern_list("132,1x2")
        with pytest.raises(ValueError, match="empty"):
            parse_pattern_list("132,,21")

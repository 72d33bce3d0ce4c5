import ctypes
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patavoid import counting
from patavoid.counting import (
    BudgetExceededError,
    CountSequence,
    count_avoiders,
    count_avoiders_many,
    count_avoiders_naive,
    count_avoiders_tree,
    enumerate_avoiders,
    resolve_node_budget,
)
from patavoid.perms import all_perms, apply_symmetry_to_set, contains, flatten, pattern_set

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


def random_pattern_sets(seed, count, max_patterns=12, lengths=(3, 4, 5)):
    rng = random.Random(seed)
    pools = {k: list(all_perms(k)) for k in lengths}
    out = []
    for _ in range(count):
        num = rng.randrange(1, max_patterns + 1)
        chosen = []
        for _ in range(num):
            k = rng.choice(lengths)
            chosen.append(rng.choice(pools[k]))
        out.append(pattern_set(chosen))
    return out


class TestCountAvoiders:
    def test_catalan(self):
        assert count_avoiders([(1, 3, 2)], 6).counts == CATALAN[:7]

    def test_single_point_pattern(self):
        assert count_avoiders([(1,)], 3).counts == (1, 0, 0, 0)

    def test_both_length_two(self):
        assert count_avoiders([(1, 2), (2, 1)], 4).counts == (1, 1, 0, 0, 0)

    def test_empty_pattern_kills_everything(self):
        assert count_avoiders([()], 3).counts == (0, 0, 0, 0)

    def test_no_patterns_counts_factorials(self):
        assert count_avoiders([], 6).counts == tuple(math.factorial(n) for n in range(7))

    def test_max_n_zero(self):
        assert count_avoiders([(1, 2)], 0).counts == (1,)

    def test_negative_max_n(self):
        with pytest.raises(ValueError):
            count_avoiders([(1, 2)], -1)

    def test_engines_agree(self):
        for sigma in random_pattern_sets(11, 12):
            vec = count_avoiders(sigma, 6).counts
            tree = count_avoiders_tree(sigma, 6).counts
            assert vec == tree, sigma


class TestNaiveOracle:
    def test_catalan_small(self):
        assert count_avoiders_naive([(1, 3, 2)], 5).counts == (1, 1, 2, 5, 14, 42)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            count_avoiders_naive([(1, 3, 2)], 9)

    def test_monotone_pair_dies_out(self):
        counts = count_avoiders_naive([(3, 2, 1), (1, 2, 3)], 8).counts
        assert counts[4] > 0
        assert counts[5:] == (0, 0, 0, 0)

    def test_oracle_matches_engines(self):
        for sigma in random_pattern_sets(13, 10):
            naive = count_avoiders_naive(sigma, 5).counts
            assert count_avoiders(sigma, 5).counts == naive, sigma
            assert count_avoiders_tree(sigma, 5).counts == naive, sigma


class TestTreeOracle:
    @pytest.mark.parametrize("sigma", [[], [()], [(1,)], [(1, 2), (2, 1)]], ids=repr)
    def test_edge_sets_match_naive(self, sigma):
        assert count_avoiders_tree(sigma, 8).counts == count_avoiders_naive(sigma, 8).counts

    def test_env_budget_matches_engine(self, monkeypatch):
        monkeypatch.setenv("PATAVOID_NODE_BUDGET", "40")
        with pytest.raises(BudgetExceededError) as engine:
            count_avoiders([(1, 3, 2)], 10)
        with pytest.raises(BudgetExceededError) as oracle:
            count_avoiders_tree([(1, 3, 2)], 10)
        assert str(oracle.value) == str(engine.value) == "insertion tree exceeded node budget 40 at length 5"


class TestEnumerate:
    def test_known_class(self):
        got = enumerate_avoiders([(1, 3, 2)], 3)
        assert got == {(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}

    def test_no_patterns(self):
        assert enumerate_avoiders([], 2) == {(1, 2), (2, 1)}

    def test_only_decreasing(self):
        assert enumerate_avoiders([(1, 2)], 3) == {(3, 2, 1)}

    def test_size_matches_counts(self):
        for sigma in random_pattern_sets(14, 6):
            members = enumerate_avoiders(sigma, 5)
            assert len(members) == count_avoiders(sigma, 5).counts[5]

    def test_members_are_avoiders(self):
        from patavoid.perms import avoids

        for sigma in random_pattern_sets(15, 5):
            for pi in enumerate_avoiders(sigma, 5):
                assert avoids(pi, sigma)

    def test_monotone_pruning_soundness(self):
        # deleting the maximum of an avoider yields an avoider one level up
        for sigma in random_pattern_sets(16, 5):
            level = enumerate_avoiders(sigma, 6)
            parents = enumerate_avoiders(sigma, 5)
            for pi in level:
                shrunk = flatten(tuple(v for v in pi if v != 6))
                assert shrunk in parents


class TestInvariants:
    def test_counts_bounded_by_factorial(self):
        for sigma in random_pattern_sets(17, 8):
            for n, c in enumerate(count_avoiders(sigma, 6).counts):
                assert 0 <= c <= math.factorial(n)

    def test_superset_never_counts_more(self):
        rng = random.Random(18)
        pool = list(all_perms(4))
        for _ in range(10):
            small = pattern_set(rng.sample(pool, 3))
            big = pattern_set(list(small) + [rng.choice(pool)])
            a = count_avoiders(small, 7).counts
            b = count_avoiders(big, 7).counts
            assert all(x >= y for x, y in zip(a, b))

    def test_symmetry_invariance_of_counts(self):
        from patavoid.perms import SYMMETRIES

        for sigma in random_pattern_sets(19, 6, max_patterns=4, lengths=(3, 4)):
            base = count_avoiders(sigma, 7).counts
            for g in SYMMETRIES:
                assert count_avoiders(apply_symmetry_to_set(g, sigma), 7).counts == base


class TestBudget:
    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            count_avoiders([(1, 3, 2)], 10, node_budget=50)

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("PATAVOID_NODE_BUDGET", "40")
        assert resolve_node_budget(None) == 40
        with pytest.raises(BudgetExceededError):
            count_avoiders([(1, 3, 2)], 10)
        # explicit argument still wins
        assert count_avoiders([(1, 3, 2)], 6, node_budget=10**6).counts == CATALAN[:7]


class TestBlasThreads:
    def test_import_holds_openblas_to_one_thread(self):
        # in a fresh interpreter, so that no other import or setting has run first
        libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
        if not any(hasattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_") for lib in libs):
            pytest.skip("numpy has no bundled OpenBLAS exporting scipy_openblas_get_num_threads64_")
        probe = (
            "import ctypes, sys, patavoid\n"
            "for lib in sys.argv[1:]:\n"
            "    print(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(counting.__file__).parents[1]), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", probe, *map(str, libs)], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"] * len(libs)


class TestCountSequence:
    def test_sequence_protocol(self):
        seq = CountSequence(counts=(1, 1, 2), patterns=((1, 3, 2),))
        assert len(seq) == 3
        assert seq[2] == 2
        assert list(seq) == [1, 1, 2]
        assert seq.max_n == 2


class TestLargeAgreement:
    def test_engines_agree_through_chunked_levels(self):
        # levels past ~30k rows split into several numpy chunks; the tree
        # oracle must see identical counts through them
        vec = count_avoiders([(1, 3, 2)], 11).counts
        tree = count_avoiders_tree([(1, 3, 2)], 11).counts
        assert vec == tree == CATALAN[:12]


# ---------------------------------------------------------------------------
# count_avoiders_many: many sets in shared trees
# ---------------------------------------------------------------------------

SHORT = [p for k in range(1, 5) for p in all_perms(k)]  # the 33 patterns of length 1..4
LENGTH5 = list(all_perms(5))


@lru_cache(maxsize=None)
def _deletions(n):
    """(n!, n) indices into all_perms(n - 1) of the one-point deletions of each of all_perms(n)."""
    index = {p: i for i, p in enumerate(all_perms(n - 1))}
    rows = [[index[flatten(pi[:i] + pi[i + 1:])] for i in range(n)] for pi in all_perms(n)]
    return np.array(rows).reshape(-1, n)


@lru_cache(maxsize=None)
def _containing(pattern):
    """
    Per length n <= 8, which of all_perms(n) contain the pattern: those that
    are the pattern, and those with a one-point deletion that contains it.
    """
    k = len(pattern)
    out = [np.zeros(math.factorial(n), dtype=bool) for n in range(k)]
    out.append(np.array([pi == pattern for pi in all_perms(k)]))
    for n in range(k + 1, 9):
        out.append(out[-1][_deletions(n)].any(axis=1))
    return out


def naive_counts(sigma):
    """The avoiders of each length 0..8 among all n! permutations, as count_avoiders_naive(sigma, 8) counts them."""
    counts = []
    for n in range(9):
        contained = np.zeros(math.factorial(n), dtype=bool)
        for p in sigma:
            contained |= _containing(p)[n]
        counts.append(int((~contained).sum()))
    return tuple(counts)


def same_outcome(got, patterns, max_n, node_budget=None):
    """``got`` is what count_avoiders(patterns, max_n) returns, or the error it raises."""
    try:
        want = count_avoiders(patterns, max_n, node_budget=node_budget)
    except BudgetExceededError as e:
        return isinstance(got, BudgetExceededError) and str(got) == str(e)
    return isinstance(got, CountSequence) and got == want


def with_duplicates(sets, picks):
    return sets + [sets[i % len(sets)] for i in picks]


short_sets = st.lists(st.sampled_from(SHORT), min_size=1, max_size=4)


class TestCountAvoidersMany:
    def test_naive_filter_helper(self):
        for sigma in [(), ((1,),), ((2, 1), (1, 2, 3)), ((1, 3, 2), (1, 2, 3, 4))]:
            assert naive_counts(sigma) == count_avoiders_naive(sigma, 8).counts

    @settings(max_examples=30)
    @given(st.lists(short_sets, min_size=1, max_size=5), st.lists(st.integers(0, 9), max_size=3))
    @example([[(1, 3, 2)], [(1, 3, 2), (2, 1, 3, 4)], [(2, 1, 3, 4), (1,)]], [0, 2])
    @example([[(1,)], [(1, 2), (2, 1)], [(1, 2), (3, 2, 1)]], [])
    def test_matches_naive_to_8(self, sets, picks):
        sets = with_duplicates(sets, picks)
        got = count_avoiders_many(sets, 8)
        assert len(got) == len(sets)
        for patterns, seq in zip(sets, got):
            assert seq.patterns == pattern_set(patterns)
            assert seq.counts == naive_counts(pattern_set(patterns)), patterns

    @settings(max_examples=30)
    @given(
        st.lists(short_sets, min_size=1, max_size=5),
        st.lists(st.integers(0, 9), max_size=3),
        st.lists(st.sampled_from(LENGTH5), max_size=80, unique=True),
        st.integers(0, 3000),
    )
    @example([[(1, 3, 2)], [(1, 2), (2, 1)], [(1, 2, 3), (3, 2, 1)]], [0], [], 100)
    @example([[(1, 2, 3)]], [], LENGTH5[:70], 3000)
    def test_matches_count_avoiders_under_budget(self, sets, picks, wide, budget):
        # the length-5 singletons give up to 80 groups of their own, so the
        # sets spill into a second tree; most of them fail the budget
        sets = with_duplicates(sets, picks) + [[p] for p in wide]
        got = count_avoiders_many(sets, 10, node_budget=budget)
        for patterns, outcome in zip(sets, got):
            assert same_outcome(outcome, patterns, 10, node_budget=budget), (patterns, outcome)

    def test_budget_failures_leave_other_sets_counting(self):
        got = count_avoiders_many([[(1, 3, 2)], [(1, 2), (2, 1)], [(1, 2, 3), (3, 2, 1)]], 10, node_budget=100)
        assert isinstance(got[0], BudgetExceededError)
        assert str(got[0]) == "insertion tree exceeded node budget 100 at length 6"
        assert got[1].counts == (1, 1) + (0,) * 9
        assert got[2].counts == (1, 1, 2, 4, 4) + (0,) * 6

    def test_more_than_64_groups_pack_into_trees(self):
        sets = [pattern_set([(1, 2, 3), p]) for p in LENGTH5[:70]]
        assert len(list(counting._pack_trees(sets, list(range(len(sets)))))) == 2
        for patterns, seq in zip(sets, count_avoiders_many(sets, 10)):
            assert seq == count_avoiders(patterns, 10), patterns

    def test_empty_sets_and_the_empty_pattern(self):
        sets = [[], [()], [(), (1, 2)], [(2, 1)]]
        got = count_avoiders_many(sets, 6)
        for patterns, seq in zip(sets, got):
            assert seq == count_avoiders(patterns, 6), patterns

    def test_no_sets_and_max_n_zero(self):
        assert count_avoiders_many([], 5) == []
        assert [s.counts for s in count_avoiders_many([[(1,)], [(1, 2)]], 0)] == [(1,), (1,)]
        with pytest.raises(ValueError):
            count_avoiders_many([[(1, 2)]], -1)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("PATAVOID_NODE_BUDGET", "40")
        (got,) = count_avoiders_many([[(1, 3, 2)]], 10)
        assert str(got) == "insertion tree exceeded node budget 40 at length 5"

import ctypes
import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from patavoid import counting, perms
from patavoid.counting import (
    BudgetExceededError,
    CountSequence,
    avoider_rows,
    count_avoiders,
    count_avoiders_many,
    count_avoiders_naive,
    count_avoiders_tree,
    enumerate_avoiders,
)
from patavoid.perms import all_perms, apply_symmetry_to_set, avoids, contains, flatten, pattern_set
from patavoid.survey import enumerate_symmetry_classes, sample_pattern_subset

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

    @pytest.mark.parametrize("env_budget", ["abc", "-1"])
    def test_ignores_the_node_budget(self, monkeypatch, env_budget):
        # the oracle reads no budget
        monkeypatch.setenv("PATAVOID_NODE_BUDGET", env_budget)
        assert count_avoiders_naive([(1, 3, 2)], 5).counts == (1, 1, 2, 5, 14, 42)

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
        for sigma in random_pattern_sets(15, 5):
            for pi in enumerate_avoiders(sigma, 5):
                assert avoids(pi, sigma)

    def test_empty_levels_stay_empty(self):
        assert enumerate_avoiders([(1, 2), (2, 1)], 4) == frozenset()
        assert enumerate_avoiders([()], 3) == frozenset()

    def test_length_zero(self):
        assert enumerate_avoiders([(1, 3, 2)], 0) == {()}

    @pytest.mark.parametrize("sigma, n", [
        ([(1, 3, 2)], 6), ([(1, 2, 3, 4)], 7), ([(1, 2), (2, 1)], 4), ([(1, 3, 2)], 0),
        ([(1, 3, 2), (2, 3, 1)], 12), ([(1, 3, 2), (2, 3, 1)], 17),  # one packed key per row up to 16 entries
    ], ids=repr)
    def test_rows_in_lexicographic_order(self, sigma, n):
        rows = avoider_rows(sigma, n)
        assert rows.shape == (count_avoiders(sigma, n).counts[n], n)
        assert list(map(tuple, rows.tolist())) == sorted(enumerate_avoiders(sigma, n))

    def test_budget_message_matches_count_avoiders(self):
        with pytest.raises(BudgetExceededError) as counted:
            count_avoiders([(1, 3, 2)], 10, node_budget=40)
        with pytest.raises(BudgetExceededError) as listed:
            enumerate_avoiders([(1, 3, 2)], 10, node_budget=40)
        assert str(listed.value) == str(counted.value) == "insertion tree exceeded node budget 40 at length 5"

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

    def test_budget_zero_allows_the_root_only(self):
        assert count_avoiders([(1, 2)], 0, node_budget=0).counts == (1,)
        with pytest.raises(BudgetExceededError):
            count_avoiders([(1, 2)], 1, node_budget=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="node budget must be >= 0, got -5"):
            count_avoiders([(1, 3, 2)], 3, node_budget=-5)

    @pytest.mark.parametrize("counter", [
        lambda n: count_avoiders([(1, 2)], n),
        lambda n: enumerate_avoiders([(1, 2)], n),
        lambda n: count_avoiders_many([[(1, 2)]], n),
        lambda n: count_avoiders_tree([(1, 2)], n),
        lambda n: count_avoiders_naive([(1, 2)], n),
    ], ids=["count", "enumerate", "many", "tree", "naive"])
    def test_every_counter_rejects_negative_max_n(self, counter):
        with pytest.raises(ValueError, match="^max_n must be >= 0$"):
            counter(-1)


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


class TestLargeAgreement:
    def test_engines_agree_through_chunked_levels(self):
        # levels past ~30k rows split into several numpy chunks; the tree
        # oracle must see identical counts through them
        vec = count_avoiders([(1, 3, 2)], 11).counts
        tree = count_avoiders_tree([(1, 3, 2)], 11).counts
        assert vec == tree == CATALAN[:12]


SHARED_123 = [(1, 2, 3, 4), (1, 2, 4, 3), (1, 4, 2, 3), (4, 1, 2, 3)]  # every one reduces to 123


def sharing_set(rng):
    """Random patterns of lengths 1-5, at least two of which share their reduced pattern."""
    k = rng.randrange(1, 5)
    reduced = tuple(rng.sample(range(1, k + 1), k))
    shared = [reduced[:m] + (k + 1,) + reduced[m:] for m in rng.sample(range(k + 1), rng.randrange(2, k + 2))]
    lengths = rng.choices(range(1, 6), weights=[1, 4, 8, 8, 8], k=rng.randrange(4))
    return pattern_set(shared + [tuple(rng.sample(range(1, j + 1), j)) for j in lengths])


class TestKernel:
    def test_bad_gaps_match_contains(self):
        # the rows avoid the set, so a gap is bad iff the child it makes contains a pattern
        rng = random.Random(20)
        checked = 0
        for _ in range(300):
            sigma = sharing_set(rng)
            n = rng.randrange(10)
            rows = [pi for pi in (tuple(rng.sample(range(1, n + 1), n)) for _ in range(30)) if avoids(pi, sigma)][:8]
            level = np.array(rows, dtype=np.int16).reshape(len(rows), n)
            bad = counting._level_bad_gaps(level, counting._plan([sigma]))
            want = [[any(contains(pi[:p] + (n + 1,) + pi[p:], s) for s in sigma) for p in range(n + 1)] for pi in rows]
            assert bad.tolist() == want, (sigma, rows)
            checked += bad.size
        assert checked > 1000

    def test_one_order_check_per_level_for_a_shared_reduced_pattern(self, monkeypatch):
        rows_per_call = []
        real = counting._matches

        def counted(cols, order):
            rows_per_call.append(cols.shape[0])
            return real(cols, order)

        monkeypatch.setattr(counting, "_matches", counted)
        assert count_avoiders(SHARED_123, 8).counts == (1, 1, 2, 6, 20, 70, 252, 924, 3432)
        assert rows_per_call == [6, 20, 70, 252, 924]  # the levels of length 3..7, one chunk each

    def test_gap_memo_capped_on_a_deep_thin_count(self, monkeypatch):
        # 123, 132 and 231 leave n avoiders of length n, whose checks take two (C(n, 2), n+1)
        # gap matrices a level: past the 2000-cell cap from n=15 on, so the memo empties as the
        # count deepens; one row per chunk, so a lookup per chunk would show
        cap = 2000
        monkeypatch.setattr(counting, "_GAP_CELLS", cap)
        monkeypatch.setattr(counting, "_MATCH_CELLS", 100)
        monkeypatch.setattr(counting, "_gap_memo", {})
        level_cells, held, lookups = {}, [], []
        build = counting._gap_matrix

        def watched(n, k, m_idxs):
            matrix = build(n, k, m_idxs)
            level_cells[n, m_idxs] = matrix.size
            lookups.append((n, k, m_idxs))
            held.append((n, sum(m.size for m in counting._gap_memo.values())))
            return matrix

        monkeypatch.setattr(counting, "_gap_matrix", watched)
        sigma = [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
        assert count_avoiders(sigma, 26) == count_avoiders_tree(sigma, 26)
        one_level = {n: sum(size for (m, _), size in level_cells.items() if m == n) for n, _ in held}
        assert all(cells <= cap + one_level[n] for n, cells in held)
        assert sum(level_cells.values()) > 10 * cap  # so the memo was emptied many times over
        assert len(lookups) == len(set(lookups)) == 2 * 24  # once a level for all its chunks, lengths 2..25

    def test_shared_reduced_pattern_matches_tree_oracle(self):
        # the oracle takes about 3 s to n=9 here, and about 12 s to n=10
        assert count_avoiders(SHARED_123, 9) == count_avoiders_tree(SHARED_123, 9)

    @pytest.mark.parametrize("trial", range(5))
    def test_experiment_sets_match_tree_oracle(self, trial):
        sigma = sample_pattern_subset(42, trial, 12)
        assert count_avoiders(sigma, 10) == count_avoiders_tree(sigma, 10)

    def test_many_with_groups_of_one_reduced_pattern(self):
        # 1234 and 1243 form one group, 1423 and 4123 another; each reduces to 123
        sets = [SHARED_123, SHARED_123 + [(2, 1, 4, 3)], [(2, 1, 4, 3)], SHARED_123[:2] + [(1, 3, 2)]]
        for patterns, seq in zip(sets, count_avoiders_many(sets, 10)):
            assert seq == count_avoiders(patterns, 10), patterns

    def test_count_avoiders_builds_no_discarded_level(self, monkeypatch):
        calls = []
        real = counting._insert_max

        def counted(parents, keep):
            calls.append(parents.shape[1])
            return real(parents, keep)

        monkeypatch.setattr(counting, "_insert_max", counted)
        for max_n in range(7):
            calls.clear()
            assert count_avoiders([(1, 3, 2)], max_n).counts == CATALAN[:max_n + 1]
            assert calls == list(range(max_n - 1))  # the levels of length 1..max_n-1
            calls.clear()
            assert len(enumerate_avoiders([(1, 3, 2)], max_n)) == CATALAN[max_n]
            assert calls == list(range(max_n))

    def test_growth_stops_at_an_empty_level(self, monkeypatch):
        calls = []
        real = counting._level_bad_gaps
        monkeypatch.setattr(counting, "_level_bad_gaps", lambda level, plan: calls.append(len(level)) or real(level, plan))
        assert count_avoiders([(1, 2), (2, 1)], 9).counts == (1, 1) + (0,) * 8
        assert calls == [1, 1]  # the levels of length 0 and 1; the one of length 2 is empty
        calls.clear()
        assert avoider_rows([(1, 2, 3), (3, 2, 1)], 9).shape == (0, 9)
        assert calls == [1, 1, 2, 4, 4]
        assert count_avoiders([()], 4).counts == (0,) * 5 and avoider_rows([()], 4).shape == (0, 4)
        with pytest.raises(BudgetExceededError, match="budget 11 at length 4"):
            count_avoiders([(1, 2, 3), (3, 2, 1)], 9, node_budget=11)

    def test_insert_max_matches_reference(self):
        # gap by gap and, within a gap, in row order: the order _next_level's child masks follow
        def reference(parents, keep):
            n = parents.shape[1]
            return [pi[:p] + [n + 1] + pi[p:] for p in range(n + 1)
                    for pi, kept in zip(parents.tolist(), keep.tolist()) if kept[p]]

        rng = np.random.default_rng(21)
        cases = [
            (np.zeros((1, 0), dtype=np.int16), np.ones((1, 1), dtype=bool)),  # the n = 0 root
            (np.zeros((1, 0), dtype=np.int16), np.zeros((1, 1), dtype=bool)),
            (np.zeros((0, 4), dtype=np.int16), np.zeros((0, 5), dtype=bool)),  # zero rows
            (np.array(sorted(all_perms(3)), dtype=np.int16), np.zeros((6, 4), dtype=bool)),  # no kept gap
        ]
        for n in range(1, 10):
            for density in (0.1, 0.5, 0.9):
                parents = np.array([rng.permutation(n) + 1 for _ in range(rng.integers(1, 40))], dtype=np.int16)
                cases.append((parents, rng.random((len(parents), n + 1)) < density))
        for parents, keep in cases:
            children = counting._insert_max(parents, keep)
            assert children.dtype == np.int16 and children.shape == (keep.sum(), parents.shape[1] + 1)
            assert children.tolist() == reference(parents, keep), (parents.tolist(), keep.tolist())


def per_group_masks(block, masks, groups):
    """The child masks as the shared grower first built them: one ``_level_bad_gaps`` per group, on rows whose bit is clear."""
    want = np.repeat(masks[:, None], block.shape[1] + 1, axis=1)
    for j, group in enumerate(groups):
        bit = np.uint64(1 << j)
        clear = (masks & bit) == 0
        want[clear] |= counting._level_bad_gaps(block[clear], counting._plan([group])) * bit
    return want


def dense_tally(distinct, hist, set_masks, nodes, budget):
    """``_tally`` as every set against every distinct mask."""
    disjoint = (set_masks[:, None] & distinct[None, :]) == 0
    got = np.rint(disjoint.astype(np.float64) @ hist).astype(np.int64)
    over = nodes + got > budget
    return got, over, disjoint[~over].any(axis=0)


def random_groups(rng):
    """
    Up to 64 pattern groups, most of them empty so that the others sit on
    high bits; two groups share a reduced pattern, and lengths run from 0 to 5.
    """
    k = rng.randrange(0, 4)
    reduced = tuple(rng.sample(range(1, k + 2), k + 1))
    slots = rng.sample(range(64), rng.randrange(2, 9))
    groups = {j: [] for j in slots}
    for j in slots[:2]:
        m = rng.randrange(k + 2)
        groups[j].append(reduced[:m] + (k + 2,) + reduced[m:])
    for j in slots:
        for length in rng.choices(range(6), weights=[1, 1, 3, 6, 6, 6], k=rng.randrange(3)):
            groups[j].append(tuple(rng.sample(range(1, length + 1), length)))
    return [groups.get(j, []) for j in range(max(slots) + 1)]


def reference_prepare(patterns):
    """Per pattern of the set, its maximum's index and the pattern with the maximum deleted (the empty pattern skipped)."""
    sigma = pattern_set(patterns)
    prepped = []
    for s in sigma:
        if len(s) == 0:
            continue
        m_idx = s.index(len(s))
        prepped.append((s, m_idx, s[:m_idx] + s[m_idx + 1:]))
    return sigma, prepped


def reference_group_plan(entries):
    """One (reduced, m_idxs) check per distinct reduced pattern of ``reference_prepare``'s entries, shortest first."""
    m_idxs = {}
    for _sigma, m_idx, reduced in entries:
        m_idxs.setdefault(reduced, set()).add(m_idx)
    return [(reduced, tuple(sorted(m_idxs[reduced]))) for reduced in sorted(m_idxs, key=lambda r: (len(r), r))]


def reference_plan(groups):
    """
    ``_plan`` in three steps, as the shared tree once built it: each group's
    patterns prepared and merged into a group plan, then the group plans
    merged into (reduced, bits, m_idxs) checks, shortest first.
    """
    merged = {}
    for j, group in enumerate(groups):
        for reduced, m_idxs in reference_group_plan(reference_prepare(group)[1]):
            merged.setdefault(reduced, []).append((1 << j, m_idxs))
    return [
        (reduced, [bit for bit, _ in merged[reduced]], tuple(m for _, m in merged[reduced]))
        for reduced in sorted(merged, key=lambda r: (len(r), r))
    ]


class TestSharedKernel:
    @pytest.mark.parametrize("match_cells", [counting._MATCH_CELLS, 60])
    def test_child_masks_match_per_group_formula(self, monkeypatch, match_cells):
        # a small _MATCH_CELLS splits the rows into many chunks
        monkeypatch.setattr(counting, "_MATCH_CELLS", match_cells)
        rng = random.Random(21)
        seen = set()
        for _ in range(200):
            groups = random_groups(rng)
            n = rng.randrange(10)
            block = np.array([rng.sample(range(1, n + 1), n) for _ in range(rng.randrange(1, 30))], dtype=np.int16)
            live = [j for j, group in enumerate(groups) if group]
            masks = np.array([sum(1 << j for j in live if rng.random() < 0.3) for _ in block], dtype=np.uint64)
            plan = counting._plan(groups)
            got = counting._child_masks(block, masks, plan)
            assert got.tolist() == per_group_masks(block, masks, groups).tolist(), (groups, block, masks)
            seen |= {len(reduced) for reduced, _bits, _m_idxs in plan}
            seen.add("shared" if any(len(bits) > 1 for _r, bits, _m in plan) else "alone")
            seen.add("high bit" if max(live) > 32 else "low bits")
        assert seen >= {0, 1, 2, 3, 4, "shared", "high bit"}

    def test_plan_matches_three_step_reference(self):
        rng = random.Random(24)
        seen = set()
        for _ in range(400):
            groups = random_groups(rng)
            plan = counting._plan(groups)
            assert all(bits.dtype == np.uint64 for _r, bits, _m in plan)
            got = [(reduced, bits.tolist(), m_idxs) for reduced, bits, m_idxs in plan]
            assert got == reference_plan(groups), groups
            seen |= {len(reduced) for reduced, _bits, _m_idxs in plan}
            seen.add("shared" if any(len(bits) > 1 for _r, bits, _m in plan) else "alone")
            seen.add("empty pattern" if any(() in group for group in groups) else "no empty pattern")
            seen.add("64 groups" if len(groups) == 64 else "fewer groups")
        assert seen >= {0, 1, 2, 3, 4, "shared", "empty pattern", "64 groups"}

    @pytest.mark.parametrize("tally_cells", [counting._TALLY_CELLS, 50])
    def test_tally_matches_dense_formula(self, monkeypatch, tally_cells):
        # a small _TALLY_CELLS splits each part of the sets into many chunks
        monkeypatch.setattr(counting, "_TALLY_CELLS", tally_cells)
        rng = random.Random(22)
        for case in range(60):
            places = rng.sample(range(64), rng.randrange(1, 12))  # mostly above bit 32
            def draw(p):
                return sum(1 << b for b in places if rng.random() < p)
            distinct = np.unique(np.array([draw(0.3) for _ in range(0 if case % 10 == 0 else rng.randrange(1, 200))], dtype=np.uint64))
            hist = np.array([rng.randrange(1, 1000) for _ in distinct], dtype=np.float64)
            sets = [0, 1 << places[0]] + [draw(rng.random()) for _ in range(rng.randrange(1, 40))]
            sets += rng.choices(sets, k=5)  # duplicate set masks
            set_masks = np.array(sets, dtype=np.uint64)
            nodes = np.array([rng.randrange(100) for _ in sets], dtype=np.int64)
            budget = rng.randrange(50, 10 * len(distinct) + 200)  # some sets pass it
            got = counting._tally(distinct, hist, set_masks, nodes, budget)
            want = dense_tally(distinct, hist, set_masks, nodes, budget)
            for g, w in zip(got, want):
                assert g.tolist() == w.tolist(), (distinct, hist, set_masks, nodes, budget)

    def test_one_order_check_per_reduced_pattern_for_all_groups(self, monkeypatch):
        sets = [sample_pattern_subset(42, trial, 12) for trial in range(10)]
        assert {p for s in sets for p in s} == set(all_perms(4))
        per_level = []
        real_masks, real_matches = counting._child_masks, counting._matches

        def masks_counted(block, masks, plan):
            assert len(plan) == 6 < sum(len(bits) for _r, bits, _m in plan)  # more groups than checks
            per_level.append(0)
            return real_masks(block, masks, plan)

        def matches_counted(cols, order):
            per_level[-1] += 1
            return real_matches(cols, order)

        monkeypatch.setattr(counting, "_child_masks", masks_counted)
        monkeypatch.setattr(counting, "_matches", matches_counted)
        count_avoiders_many(sets, 7)
        assert per_level == [0, 0, 0, 6, 6, 6, 6]  # levels of length 0..6, one chunk each

    def test_many_matches_count_avoiders_on_survey_and_experiment_sets(self):
        classes = [r.patterns for r in enumerate_symmetry_classes(4, 4)][::15]
        sets = classes[:100] + [sample_pattern_subset(42, trial, m) for m in (12, 8) for trial in range(20)]
        assert len(sets) == 140 and [len(s) for s in sets[100:]] == [12] * 20 + [8] * 20
        for patterns, seq in zip(sets, count_avoiders_many(sets, 9)):
            assert seq == count_avoiders(patterns, 9), patterns


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


def reference_pack(sigmas):
    """
    ``_pack_trees`` by bitmask signatures: a pattern's signature has the bit
    of each place in the tree of a set that holds it, equal signatures are
    one group, and the groups are numbered as the tree first meets them.
    """
    trees, tree, owners = [], [], {}
    for sigma in sigmas:
        grown = dict(owners)
        for p in sigma:
            grown[p] = grown.get(p, 0) | 1 << len(tree)
        if tree and len(set(grown.values())) > 64:
            trees.append((tree, owners))
            tree, grown = [], {p: 1 for p in sigma}
        tree.append(sigma)
        owners = grown
    if tree:
        trees.append((tree, owners))
    packed = []
    for tree, owners in trees:
        bit_of = {}
        for owned in owners.values():
            bit_of.setdefault(owned, len(bit_of))
        groups = [[] for _ in bit_of]
        for p, owned in owners.items():
            groups[bit_of[owned]].append(p)
        masks = [sum(1 << j for owned, j in bit_of.items() if owned >> place & 1) for place in range(len(tree))]
        packed.append((tree, groups, masks))
    return packed


def depth_first_counts(plan, set_masks, max_n, split, block_rows):
    """
    Per-set counts of one shared tree with no node budget, grown only by the
    level step's three pieces: breadth-first to length ``split``, then each
    block of ``block_rows`` rows of that level on its own to max_n, its
    counts added.
    """
    counts = np.zeros((len(set_masks), max_n + 1), dtype=np.int64)
    counts[:, 0] = 1
    nodes = np.zeros(len(set_masks), dtype=np.int64)

    def grow(level, masks, stop):
        for n in range(level.shape[1], stop):
            if len(level) == 0:
                break
            distinct, hist, blocks = counting._level_masks(level, masks, plan, n + 1 < max_n)
            got, _over, keep = counting._tally(distinct, hist, set_masks, nodes, 2**62)
            counts[:, n + 1] += got
            if n + 1 < max_n:
                level, masks = counting._next_level(level, blocks, distinct, keep, int(hist[keep].sum()))
        return level, masks

    level, masks = grow(np.zeros((1, 0), dtype=np.int16), np.zeros(1, dtype=np.uint64), split)
    for start in range(0, len(level), block_rows):
        grow(level[start:start + block_rows], masks[start:start + block_rows], max_n)
    return counts


class TestCountAvoidersMany:
    def test_pack_trees_matches_signature_reference(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(300):
            pool = rng.sample([()] + SHORT + LENGTH5, rng.choice([6, 24, 1 + len(SHORT + LENGTH5)]))
            sets = [pattern_set(rng.sample(pool, rng.randint(1, 5))) for _ in range(rng.randint(1, 80))]
            got = [(tree, groups, masks.tolist()) for tree, groups, masks in counting._pack_trees(sets)]
            assert got == reference_pack(sets), sets
            assert [sigma for tree, _groups, _masks in got for sigma in tree] == sets  # consecutive runs, in order
            seen.add(len(got))
        assert seen == {1, 2}  # one tree, and lists that spill past 64 groups

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

    @pytest.mark.parametrize("block_rows", [1, 7, counting._BLOCK_ROWS])
    def test_next_level_written_block_by_block(self, monkeypatch, block_rows):
        # small blocks write each next level from many blocks, and the sets
        # that pass the budget drop out on a middle level and on the last
        monkeypatch.setattr(counting, "_BLOCK_ROWS", block_rows)
        sets = [[(1, 3, 2)], [(1, 2, 3, 4)], [(1, 2), (2, 1)]] + random_pattern_sets(31, 25, max_patterns=5, lengths=(3, 4))
        got = count_avoiders_many(sets, 8, node_budget=2000)
        for patterns, outcome in zip(sets, got):
            assert same_outcome(outcome, patterns, 8, node_budget=2000), (patterns, outcome)
        failed_at = {str(e).rsplit(" ", 1)[1] for e in got if isinstance(e, BudgetExceededError)}
        assert {"7", "8"} <= failed_at

    @pytest.mark.parametrize("split, block_rows", [(0, 1), (4, 1), (5, 97)])
    def test_level_step_grows_depth_first_blocks(self, split, block_rows):
        # the subtrees below a level are independent given their rows and
        # masks, so a depth-first driver of the same step counts the same
        sets = [r.patterns for r in enumerate_symmetry_classes(4, 4)]
        (tree, groups, set_masks), = counting._pack_trees(sets)
        assert tree == sets  # length-4 patterns make at most 24 groups: one tree
        got = depth_first_counts(counting._plan(groups), set_masks, 9, split, block_rows)
        assert [tuple(row) for row in got.tolist()] == [seq.counts for seq in count_avoiders_many(sets, 9)]

    def test_last_level_holds_no_child_masks(self, monkeypatch):
        steps, written = [], []
        real_level_masks, real_next_level = counting._level_masks, counting._next_level

        def level_masks(level, masks, plan, hold):
            distinct, hist, blocks = real_level_masks(level, masks, plan, hold)
            steps.append((level.shape[1], hold, len(blocks)))
            return distinct, hist, blocks

        def next_level(level, *args):
            written.append(level.shape[1])
            return real_next_level(level, *args)

        monkeypatch.setattr(counting, "_level_masks", level_masks)
        monkeypatch.setattr(counting, "_next_level", next_level)
        count_avoiders_many([[(1, 3, 2)], [(1, 2, 3, 4)]], 7)
        assert written == [0, 1, 2, 3, 4, 5]  # never from the length-6 level, whose children are the last
        assert steps == [(n, True, 1) for n in range(6)] + [(6, False, 0)]

    def test_survey_count_traced_peak(self):
        # tracemalloc sees numpy's buffers, not the heap's layout, so the
        # bound holds on any machine: one level's copy held twice, or the
        # tally's large tiles, would pass it (14.9 MiB before both went)
        sets = [r.patterns for r in enumerate_symmetry_classes(4, 4)]
        tracemalloc.start()
        try:
            count_avoiders_many(sets, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

    def test_budget_failures_leave_other_sets_counting(self):
        got = count_avoiders_many([[(1, 3, 2)], [(1, 2), (2, 1)], [(1, 2, 3), (3, 2, 1)]], 10, node_budget=100)
        assert isinstance(got[0], BudgetExceededError)
        assert str(got[0]) == "insertion tree exceeded node budget 100 at length 6"
        assert got[1].counts == (1, 1) + (0,) * 9
        assert got[2].counts == (1, 1, 2, 4, 4) + (0,) * 6

    def test_more_than_64_groups_pack_into_trees(self):
        sets = [pattern_set([(1, 2, 3), p]) for p in LENGTH5[:70]]
        assert len(list(counting._pack_trees(sets))) == 2
        for patterns, seq in zip(sets, count_avoiders_many(sets, 10)):
            assert seq == count_avoiders(patterns, 10), patterns

    def test_empty_sets_and_the_empty_pattern(self):
        sets = [[], [()], [(), (1, 2)], [(2, 1)]]
        got = count_avoiders_many(sets, 6)
        for patterns, seq in zip(sets, got):
            assert seq == count_avoiders(patterns, 6), patterns

    @pytest.mark.parametrize("block_rows", [1, 7, counting._BLOCK_ROWS])
    @settings(max_examples=25)
    @given(
        st.lists(st.tuples(st.booleans(), st.lists(st.sampled_from(SHORT), max_size=4)), min_size=2, max_size=6),
        st.integers(0, 400),
    )
    @example([(True, [(1, 2)]), (False, [(1, 3, 2)]), (True, []), (False, [(2, 1)])], 30)
    @example([(True, [(1, 2, 3, 4)]), (False, [(1, 2, 3, 4)]), (True, [(1,)])], 0)
    def test_empty_pattern_sets_share_trees(self, block_rows, flagged, budget):
        # the sets holding () go into the trees of the others, the empty
        # pattern's group bit on the root's mask, under budgets that most fail
        assume(any(empty for empty, _ in flagged) and not all(empty for empty, _ in flagged))
        sets = [[()] + patterns if empty else patterns for empty, patterns in flagged]
        with mock.patch.object(counting, "_BLOCK_ROWS", block_rows):
            got = count_avoiders_many(sets, 8, node_budget=budget)
        assert len(list(counting._pack_trees([pattern_set(s) for s in sets]))) == 1
        for patterns, outcome in zip(sets, got):
            assert same_outcome(outcome, patterns, 8, node_budget=budget), (patterns, outcome)

    def test_empty_pattern_sets_among_two_trees(self):
        # length-5 singletons spill past 64 groups into a second tree; the
        # sets holding () sit in both, and the results keep the input order
        wide = [[(1, 2, 3), p] for p in LENGTH5[:70]]
        sets = [[()]] + wide[:30] + [[(), (2, 1)]] + wide[30:] + [[(), (1, 3, 2)], [(1, 3, 2)]]
        packed = counting._pack_trees([pattern_set(s) for s in sets])
        trees = [[list(sigma) for sigma in tree] for tree, _groups, _masks in packed]
        assert [len(tree) for tree in trees] == [63, 11]
        assert [()] in trees[0] and [(), (2, 1)] in trees[0] and [(), (1, 3, 2)] in trees[1]
        got = count_avoiders_many(sets, 8, node_budget=2000)
        for patterns, outcome in zip(sets, got):
            assert same_outcome(outcome, patterns, 8, node_budget=2000), (patterns, outcome)
        assert got[0].counts == got[31].counts == got[-2].counts == (0,) * 9
        assert str(got[-1]) == "insertion tree exceeded node budget 2000 at length 8"
        assert {type(outcome) for outcome in got[1:31] + got[32:-2]} == {CountSequence, BudgetExceededError}

    def test_each_pattern_checked_once_per_call(self):
        # and once per process: the check is perms' memo, cleared here
        with pytest.raises(ValueError, match=r"not a permutation of 1..3: \(1, 3, 3\)"):
            count_avoiders_many([[(1, 2)], [(1, 2), (1, 3, 3)]], 4)
        perms._checked.cache_clear()
        sets = [[(1, 2, 3), (2, 1)], [[2, 1], (1, 3, 2)], [(1, 3, 2), (1, 2, 3)]]
        got = count_avoiders_many(sets, 5)
        assert perms._checked.cache_info().misses == 3
        assert got == [count_avoiders(s, 5) for s in sets]

    def test_no_sets_and_max_n_zero(self):
        assert count_avoiders_many([], 5) == []
        assert [s.counts for s in count_avoiders_many([[(1,)], [(1, 2)]], 0)] == [(1,), (1,)]
        with pytest.raises(ValueError):
            count_avoiders_many([[(1, 2)]], -1)

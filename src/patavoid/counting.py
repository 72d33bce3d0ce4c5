"""
Exact counting and enumeration of pattern-avoiding permutations.

The workhorse is an insertion tree: the nodes at depth n are exactly the
length-n avoiders, and the children of pi are the copies of pi with the new
maximum n+1 inserted into each of its n+1 gaps, keeping a child iff it still
avoids the pattern set. The pruning is sound because deleting the maximum of
an avoider yields an avoider, so every avoider is reached from its parent.
The payoff is that the work is proportional to the number of avoiders, not
to n!.

Checking a child only requires looking for pattern occurrences that use the
newly inserted maximum (anything else would already occur in the parent).
An occurrence of sigma using the new maximum at gap p is the same thing as
an embedding, in the parent, of sigma with its maximum deleted, positioned
so that gap p splits the embedding exactly at the deleted maximum.

``count_avoiders`` and ``enumerate_avoiders`` process whole tree levels as
numpy arrays, testing all candidate embeddings of each reduced pattern with
one gather and one matrix product per pattern. Two independent oracles back
them in the tests: ``count_avoiders_naive`` filters all n! permutations (up
to n=8), and ``count_avoiders_tree`` grows the same tree one permutation at
a time, for lengths past that, keeping a child iff ``perms.avoids`` says so.
That oracle never uses the gap rule above, which ``_gap_matrix`` alone
states. The gather and order check (``_matches``) is the one vectorized
containment kernel; ``rows_containing`` reduces its matches to one bit per
row for the template certificates.

``count_avoiders_many`` counts many pattern sets at once (a survey's
classes). Every set's tree is a subtree of the tree of all permutations,
so the sets share one tree whose rows carry a bitmask of the pattern groups
they contain (West's generating trees, with one mask bit per group of
patterns that belong to exactly the same sets). A set counts the rows whose
mask is disjoint from its own, a subset sum over the histogram of masks, as
in Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets Möbius" (STOC
2007). The 1524 classes of four length-4 patterns to n=10 grow 28.7M nodes
as separate trees and 823k rows as one shared tree.
"""
from __future__ import annotations

import ctypes
import itertools
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .perms import PatternSet, Perm, all_perms, avoids, pattern_set

DEFAULT_NODE_BUDGET = 10**8
NODE_BUDGET_ENV_VAR = "PATAVOID_NODE_BUDGET"


class BudgetExceededError(RuntimeError):
    """A configured resource budget (tree nodes, subset count) ran out."""


def resolve_node_budget(node_budget: int | None) -> int:
    """Explicit argument, else the PATAVOID_NODE_BUDGET env var, else 10**8."""
    if node_budget is not None:
        return node_budget
    return int(os.environ.get(NODE_BUDGET_ENV_VAR, DEFAULT_NODE_BUDGET))


@dataclass(frozen=True)
class CountSequence:
    """
    Counts indexed by length n = 0..max_n, with the pattern set they count
    (None for sequences that do not come from avoidance counting). Behaves
    as a read-only sequence of ints.
    """

    counts: tuple[int, ...]
    patterns: PatternSet | None = None

    @property
    def max_n(self) -> int:
        return len(self.counts) - 1

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, n):
        return self.counts[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)


# ---------------------------------------------------------------------------
# Shared preprocessing
# ---------------------------------------------------------------------------

def _prepare(patterns: Iterable[Sequence[int]]) -> tuple[PatternSet, list[tuple[Perm, int, Perm]]]:
    """
    Normalize the pattern set and precompute, for each pattern, the index of
    its maximum and the pattern with the maximum deleted (already a
    permutation of 1..l-1 since the maximum is the largest value).
    """
    sigma = pattern_set(patterns)
    prepped = []
    for s in sigma:
        if len(s) == 0:
            continue  # the growers start from no rows: nothing avoids the empty pattern
        m_idx = s.index(len(s))
        reduced = s[:m_idx] + s[m_idx + 1:]
        prepped.append((s, m_idx, reduced))
    return sigma, prepped


# ---------------------------------------------------------------------------
# Vectorized tree engine
# ---------------------------------------------------------------------------

_DTYPE = np.int16
# cap on rows * combos * pattern length per _matches call: against 1M, 500k
# cuts the 820-trial experiment's peak RSS by 3% at no measured cost in time
_MATCH_CELLS = 500_000


def _pin_blas_threads() -> None:
    """
    Hold numpy's bundled OpenBLAS, where it and its setter exist, to one
    thread: the kernel's matmuls are too small to share between threads.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_blas_threads()


@lru_cache(maxsize=None)
def _combo_index(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) as a (C, k) index array, lexicographic."""
    combos = list(itertools.combinations(range(n), k))
    return np.array(combos, dtype=np.intp).reshape(len(combos), k)


@lru_cache(maxsize=None)
def _gap_matrix(n: int, k: int, m_idx: int) -> np.ndarray:
    """
    (C, n+1) float32 matrix: 1 where inserting the new maximum at gap p
    completes embedding c of a reduced pattern, whose maximum was at
    ``m_idx``, to an occurrence of the full pattern. The entries before the
    deleted maximum must land left of p and the rest right of it, so p runs
    from one past the entry before it to the position of the entry after it
    (0 and n where there is none).
    """
    combos = _combo_index(n, k)
    c = combos.shape[0]
    lo = np.zeros(c, dtype=np.int64)
    hi = np.full(c, n, dtype=np.int64)
    if m_idx >= 1:
        lo = combos[:, m_idx - 1] + 1
    if m_idx < k:
        hi = combos[:, m_idx]
    gaps = np.arange(n + 1)
    return ((gaps >= lo[:, None]) & (gaps <= hi[:, None])).astype(np.float32)


@lru_cache(maxsize=None)
def _value_order(pattern: Perm) -> tuple[int, ...]:
    """Positions of the pattern sorted by value (for chain checks)."""
    return tuple(sorted(range(len(pattern)), key=pattern.__getitem__))


def _matches(rows: np.ndarray, combos: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Boolean (rows, C): each row's entries at combination c rise in ``order``, a pattern's value order."""
    if len(order) == 1:
        return np.ones((rows.shape[0], combos.shape[0]), dtype=bool)
    # gather one pattern position at a time: (rows, C) arrays, compared whole
    above = rows[:, combos[:, order[1]]]
    match = rows[:, combos[:, order[0]]] < above
    for b in order[2:]:
        below, above = above, rows[:, combos[:, b]]
        match &= below < above
    return match


def _level_bad_gaps(level: np.ndarray, prepped: list[tuple[Perm, int, Perm]]) -> np.ndarray:
    """Boolean (rows, n+1) array of gaps killed by some pattern."""
    rows, n = level.shape
    bad = np.zeros((rows, n + 1), dtype=bool)
    for _sigma, m_idx, reduced in prepped:
        k = len(reduced)
        if k > n:
            continue
        if k == 0:
            bad[:] = True  # the pattern is a single element; every gap realizes it
            break
        combos = _combo_index(n, k)
        gaps = _gap_matrix(n, k, m_idx)
        order = _value_order(reduced)
        chunk = max(1, _MATCH_CELLS // (combos.shape[0] * k))
        for start in range(0, rows, chunk):
            match = _matches(level[start:start + chunk], combos, order)
            hits = match.astype(np.float32) @ gaps
            bad[start:start + chunk] |= hits > 0.5
    return bad


def rows_containing(rows: np.ndarray, pattern: Sequence[int]) -> np.ndarray:
    """
    Which rows of a (count, n) array of permutations contain ``pattern``:
    ``perms.contains`` for a whole array at once, on the counting kernel.

    >>> rows_containing(np.array([[1, 3, 2], [3, 2, 1], [2, 1, 3]]), (1, 2)).tolist()
    [True, False, True]
    """
    count, n = rows.shape
    k = len(pattern)
    if k == 0 or k > n:
        return np.full(count, k == 0)
    combos = _combo_index(n, k)
    order = _value_order(tuple(pattern))
    out = np.zeros(count, dtype=bool)
    chunk = max(1, _MATCH_CELLS // (combos.shape[0] * k))
    for start in range(0, count, chunk):
        out[start:start + chunk] = _matches(rows[start:start + chunk], combos, order).any(axis=1)
    return out


def _insert_max(parents: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """
    The children of (rows, n) ``parents``: n+1 inserted at every gap that
    (rows, n+1) ``keep`` marks, gap by gap and, within a gap, in row order.
    """
    n = parents.shape[1]
    children = np.empty((int(keep.sum()), n + 1), dtype=_DTYPE)
    out = 0
    for p in range(n + 1):
        sel = keep[:, p]
        m = int(sel.sum())
        if m == 0:
            continue
        children[out:out + m, :p] = parents[sel, :p]
        children[out:out + m, p] = n + 1
        children[out:out + m, p + 1:] = parents[sel, p:]
        out += m
    return children


def _grow_vector(
    patterns: PatternSet,
    prepped: list[tuple[Perm, int, Perm]],
    max_n: int,
    budget: int,
) -> Iterator[np.ndarray]:
    """Yield levels 0..max_n as (count, n) int arrays."""
    if not avoids((), patterns):
        for n in range(max_n + 1):
            yield np.zeros((0, n), dtype=_DTYPE)
        return
    level = np.zeros((1, 0), dtype=_DTYPE)
    nodes = 1
    yield level
    for n in range(max_n):
        if level.shape[0] == 0:
            level = np.zeros((0, n + 1), dtype=_DTYPE)
            yield level
            continue
        keep = ~_level_bad_gaps(level, prepped)
        nodes += int(keep.sum())
        if nodes > budget:
            raise BudgetExceededError(
                f"insertion tree exceeded node budget {budget} at length {n + 1}"
            )
        level = _insert_max(level, keep)
        yield level


# ---------------------------------------------------------------------------
# Shared tree for many pattern sets
# ---------------------------------------------------------------------------
#
# A row is kept while its mask is disjoint from the mask of some set still
# counting. Masks only grow down the tree, so that pruning is exact.

_MASK_BITS = 64
_BLOCK_ROWS = 16_384  # parents grown at once
_TALLY_CELLS = 1 << 20  # cap on (sets x distinct masks) per disjointness test


def _pack_trees(sigmas: list[PatternSet], indices: list[int]) -> Iterator[tuple[list[int], dict[Perm, int]]]:
    """
    Split ``indices`` greedily, in order, into trees of at most 64 groups.
    Yields each tree's set indices and, per pattern, the bitmask of the
    places in the tree of the sets that hold it (equal bitmasks: one group).
    """
    tree: list[int] = []
    owners: dict[Perm, int] = {}
    for i in indices:
        grown = dict(owners)
        for p in sigmas[i]:
            grown[p] = grown.get(p, 0) | 1 << len(tree)
        if tree and len(set(grown.values())) > _MASK_BITS:
            yield tree, owners
            tree, grown = [], {p: 1 for p in sigmas[i]}
        tree.append(i)
        owners = grown
    if tree:
        yield tree, owners


def _child_masks(
    block: np.ndarray, masks: np.ndarray, groups: list[list[tuple[Perm, int, Perm]]]
) -> np.ndarray:
    """(rows, n+1) masks of the children of ``block``: the parent's plus the groups each gap kills."""
    out = np.repeat(masks[:, None], block.shape[1] + 1, axis=1)
    for j, prepped in enumerate(groups):
        bit = np.uint64(1 << j)
        clear = (masks & bit) == 0
        if clear.all():
            out |= _level_bad_gaps(block, prepped) * bit
        elif clear.any():
            live = np.flatnonzero(clear)
            out[live] |= _level_bad_gaps(block[live], prepped) * bit
    return out


def _tally(
    distinct: np.ndarray, hist: np.ndarray, set_masks: np.ndarray, nodes: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Per set, the rows whose mask is disjoint from the set's, and whether that
    takes its nodes past the budget; per distinct mask, whether a set that
    stays within budget still counts it.
    """
    got = np.zeros(len(set_masks), dtype=np.int64)
    over = np.zeros(len(set_masks), dtype=bool)
    keep = np.zeros(len(distinct), dtype=bool)
    step = max(1, _TALLY_CELLS // max(1, len(distinct)))
    for start in range(0, len(set_masks), step):
        chunk = slice(start, start + step)
        disjoint = (set_masks[chunk, None] & distinct[None, :]) == 0
        # exact: every partial sum is an integer below 2**53
        got[chunk] = np.rint(disjoint.astype(np.float64) @ hist)
        over[chunk] = nodes[chunk] + got[chunk] > budget
        keep |= disjoint[~over[chunk]].any(axis=0)
    return got, over, keep


def _grow_shared(
    groups: list[list[tuple[Perm, int, Perm]]], set_masks: np.ndarray, max_n: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """
    Counts (sets, max_n+1) of one shared tree, and per set the length at
    which its nodes passed the budget (0 if they never did).
    """
    counts = np.zeros((len(set_masks), max_n + 1), dtype=np.int64)
    counts[:, 0] = 1
    failed_at = np.zeros(len(set_masks), dtype=np.int64)
    level = np.zeros((1, 0), dtype=_DTYPE)
    masks = np.zeros(1, dtype=np.uint64)
    for n in range(max_n):
        live = np.flatnonzero(failed_at == 0)
        if level.shape[0] == 0 or live.size == 0:
            break
        last = n + 1 == max_n
        blocks, pieces = [], []
        for start in range(0, level.shape[0], _BLOCK_ROWS):
            child = _child_masks(level[start:start + _BLOCK_ROWS], masks[start:start + _BLOCK_ROWS], groups)
            pieces.append(np.unique(child, return_counts=True))
            if not last:
                blocks.append(child)
        distinct, where = np.unique(np.concatenate([u for u, _ in pieces]), return_inverse=True)
        hist = np.bincount(where, weights=np.concatenate([c for _, c in pieces]))
        nodes = counts[live, :n + 1].sum(axis=1)
        got, over, keep = _tally(distinct, hist, set_masks[live], nodes, budget)
        counts[live, n + 1] = got
        failed_at[live[over]] = n + 1
        if last:
            break
        children, child_masks = [], []
        for b, child in enumerate(blocks):
            k = keep[np.searchsorted(distinct, child)]
            children.append(_insert_max(level[b * _BLOCK_ROWS:(b + 1) * _BLOCK_ROWS], k))
            child_masks.append(child.T[k.T])  # gap-major, as _insert_max orders the rows
        level, masks = np.concatenate(children), np.concatenate(child_masks)
    return counts, failed_at


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _levels(
    patterns: Iterable[Sequence[int]], max_n: int, node_budget: int | None
) -> tuple[PatternSet, Iterator[np.ndarray]]:
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    sigma, prepped = _prepare(patterns)
    return sigma, _grow_vector(sigma, prepped, max_n, resolve_node_budget(node_budget))


def count_avoiders(
    patterns: Iterable[Sequence[int]],
    max_n: int,
    *,
    node_budget: int | None = None,
) -> CountSequence:
    """
    The number of permutations of each length 0..max_n avoiding every
    pattern of the set. Exact (python ints never overflow).

    >>> count_avoiders([(1, 3, 2)], 6).counts
    (1, 1, 2, 5, 14, 42, 132)
    >>> count_avoiders([(1,)], 3).counts
    (1, 0, 0, 0)
    """
    sigma, levels = _levels(patterns, max_n, node_budget)
    counts = tuple(len(level) for level in levels)
    return CountSequence(counts=counts, patterns=sigma)


def count_avoiders_many(
    pattern_sets: Iterable[Iterable[Sequence[int]]],
    max_n: int,
    *,
    node_budget: int | None = None,
) -> list[CountSequence | BudgetExceededError]:
    """
    For each pattern set in order, what ``count_avoiders`` gives for it: its
    CountSequence, or the BudgetExceededError it would raise (returned, not
    raised). The sets share insertion trees of at most 64 pattern groups
    each, so related sets cost about one tree, not one tree each.

    >>> [s.counts for s in count_avoiders_many([[(1, 3, 2)], [(1, 2), (2, 1)]], 4)]
    [(1, 1, 2, 5, 14), (1, 1, 0, 0, 0)]
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    budget = resolve_node_budget(node_budget)
    prepared = [_prepare(patterns) for patterns in pattern_sets]
    sigmas = [sigma for sigma, _ in prepared]
    results: list[CountSequence | BudgetExceededError] = [
        CountSequence(counts=(0,) * (max_n + 1), patterns=sigma) for sigma in sigmas
    ]
    rooted = [i for i, sigma in enumerate(sigmas) if avoids((), sigma)]  # the others hold the empty pattern
    prepped = {entry[0]: entry for _, entries in prepared for entry in entries}
    for tree, owners in _pack_trees(sigmas, rooted):
        bit_of: dict[int, int] = {}
        for owned in owners.values():
            bit_of.setdefault(owned, len(bit_of))
        groups: list[list[tuple[Perm, int, Perm]]] = [[] for _ in bit_of]
        for p, owned in owners.items():
            groups[bit_of[owned]].append(prepped[p])
        set_masks = np.array(
            [sum(1 << j for owned, j in bit_of.items() if owned >> place & 1) for place in range(len(tree))],
            dtype=np.uint64,
        )
        counts, failed_at = _grow_shared(groups, set_masks, max_n, budget)
        for place, i in enumerate(tree):
            if failed_at[place]:
                results[i] = BudgetExceededError(
                    f"insertion tree exceeded node budget {budget} at length {failed_at[place]}"
                )
            else:
                results[i] = CountSequence(counts=tuple(int(c) for c in counts[place]), patterns=sigmas[i])
    return results


def enumerate_avoiders(
    patterns: Iterable[Sequence[int]],
    n: int,
    *,
    node_budget: int | None = None,
) -> frozenset[Perm]:
    """
    The full set of length-n avoiders. Memory is the caller's problem;
    the node budget is the safety net.

    >>> sorted(enumerate_avoiders([(1, 2)], 3))
    [(3, 2, 1)]
    """
    _sigma, levels = _levels(patterns, n, node_budget)
    last = None
    for last in levels:
        pass
    return frozenset(tuple(int(v) for v in row) for row in last)


def count_avoiders_naive(patterns: Iterable[Sequence[int]], max_n: int) -> CountSequence:
    """
    Count by filtering all n! permutations. Oracle only: max_n is capped at
    8 to keep misuse from burning hours.
    """
    if max_n > 8:
        raise ValueError(f"naive counting is capped at max_n=8, got {max_n}")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    sigma = pattern_set(patterns)
    counts = tuple(
        sum(1 for pi in all_perms(n) if avoids(pi, sigma)) for n in range(max_n + 1)
    )
    return CountSequence(counts=counts, patterns=sigma)


def count_avoiders_tree(patterns: Iterable[Sequence[int]], max_n: int) -> CountSequence:
    """
    Count by growing the insertion tree one permutation at a time: insert
    the new maximum at every gap of every surviving parent and keep the
    child iff ``perms.avoids`` says so. It shares nothing with the numpy
    kernel but the insertion-tree lemma. Oracle only, for lengths past the
    naive cap.

    >>> count_avoiders_tree([(1, 3, 2)], 5).counts
    (1, 1, 2, 5, 14, 42)
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    sigma = pattern_set(patterns)
    budget = resolve_node_budget(None)
    level: list[Perm] = [()] if avoids((), sigma) else []
    counts = [len(level)]
    for n in range(1, max_n + 1):
        children = (parent[:p] + (n,) + parent[p:] for parent in level for p in range(n))
        level = [child for child in children if avoids(child, sigma)]
        counts.append(len(level))
        if sum(counts) > budget:
            raise BudgetExceededError(f"insertion tree exceeded node budget {budget} at length {n}")
    return CountSequence(counts=tuple(counts), patterns=sigma)

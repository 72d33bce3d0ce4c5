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
numpy arrays. Patterns that share a reduced pattern differ only in where
the maximum was, so ``_plan``, the one plan builder, merges them into one
check per distinct reduced pattern. ``_gathered`` is the one gather and
chunk loop: each level gathers its entries at every candidate embedding
once per reduced-pattern length, then runs one order check and one matrix
product per distinct reduced pattern. Two independent oracles back them in
the tests: ``count_avoiders_naive`` filters all n! permutations (up to
n=8), and ``count_avoiders_tree`` grows the same tree one permutation at a
time, for lengths past that, keeping a child iff ``perms.avoids`` says so.
That oracle never uses the gap rule above, which ``_gap_matrix`` alone
states. The order check on gathered columns (``_matches``) is the one
vectorized containment kernel. A length-1 pattern needs no case of its own:
its reduced pattern is empty, with one empty embedding that every row
matches and every gap completes. The empty pattern has no check at all:
``_grow_vector`` starts from no rows when the set holds it.

``_gathered`` looks each check's value order and gap matrix up once per
level and reduced-pattern length, before its chunk loop, and the memo of
gap matrices is emptied before it would pass ``_GAP_CELLS`` (1 << 22)
float32 cells. A deep count adds one or two matrices a level, the largest
last, which the node budget does not see: uncapped, the memo held them
all, and the 23 length-4 patterns other than 1234 to n=60 peaked at
251 MB and {123, 132, 231} to n=160 at 667 MB, against 85 MB and 75 MB
with the cap.

``rows_containing`` tests a whole array of permutations (the template
certificates' family members) against a pattern set on the same lemma: a
row contains a pattern iff its parent, the row with its maximum deleted,
does, or the row's maximum completes an occurrence, which is the
``_level_bad_gaps`` bit of the parent's gap where the maximum sits. The
parents, each row without its entry n, are deduped by ``_distinct_rows``
(one sort of packed keys, or ``np.lexsort`` past 16 entries) and recursed
on once each, against the set's one ``_plan``, built once per question.
That recursion is the only path: rows shorter than the set's shortest
pattern contain none of it, and a set holding the empty pattern is
contained in every row. Both moves of the tree, inserting the maximum
(``_insert_max``) and deleting it, are one masked numpy step each, with no
loop over positions.

Every counter that grows a tree takes its arguments through one rule,
``check_node_budget``: max_n must be >= 0, and so must the node budget,
which is the ``node_budget`` argument (by default ``DEFAULT_NODE_BUDGET``,
10**8) and nothing else. A tree whose nodes pass the budget raises
BudgetExceededError naming the budget and the length where it passed
(``_over_budget``), never partial counts.

``count_avoiders_many`` counts many pattern sets at once (a survey's
classes). Every set's tree is a subtree of the tree of all permutations, so
the sets share one tree whose rows carry a bitmask of the pattern groups
they contain (West's generating trees, with one mask bit per group of
patterns that belong to exactly the same sets, which ``_pack_trees`` alone
forms, in time linear in the sets). A set counts the rows whose mask is
disjoint from its own, a subset sum over the histogram of masks, as in
Björklund, Husfeldt, Kaski and Koivisto, "Fourier meets Möbius" (STOC
2007). The empty pattern is one more pattern there: the root's mask carries
its group's bit, so every set goes into a tree, the sets holding it count
no row by the same disjointness rule, and the results come out tree by tree
in input order. The 1524 classes of four length-4 patterns to n=10 grow
28.7M nodes as separate trees and 823k rows as one shared tree. ``_plan``
over all the groups merges their checks, so each distinct reduced pattern
takes one order check and one matmul per chunk of rows for every group that
holds it, against those groups' gap matrices side by side
(``_child_masks``). A set can only count masks that miss all its bits, so
``_tally`` splits the sets by their two lowest mask bits and tests each
part against those masks alone, in tiles of about 1 MB. ``_grow_shared``
drives one level step of three pieces, breadth-first: ``_level_masks`` runs
``_child_masks`` block by block and histograms the level's child masks,
``_tally`` counts them and says which to keep, and ``_next_level`` writes
the kept children in place into arrays allocated once, block by block.
Memory follows the widest level, so the 1524 classes peak at about 217 MB
at n=12 and 897 MB at n=13.
"""
from __future__ import annotations

import ctypes
import itertools
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .perms import PatternSet, Perm, all_perms, avoids, pattern_set

DEFAULT_NODE_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """A configured resource budget (tree nodes, subset count, template family cells) ran out."""


def check_node_budget(max_n: int, node_budget: int) -> int:
    """Every counter's argument rule: max_n must be >= 0, and the node budget too, which it returns."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    return node_budget


def _over_budget(budget: int, n: int) -> BudgetExceededError:
    return BudgetExceededError(f"insertion tree exceeded node budget {budget} at length {n}")


@dataclass(frozen=True)
class CountSequence:
    """
    Counts indexed by length n = 0..max_n, with the pattern set they count
    (None for sequences that do not come from avoidance counting).
    """

    counts: tuple[int, ...]
    patterns: PatternSet | None = None


# ---------------------------------------------------------------------------
# Vectorized tree engine
# ---------------------------------------------------------------------------

_DTYPE = np.int16
# cap on rows * combos * pattern length per chunk, whose k gathered columns
# are held at once: against 1M, 500k cuts the 820-trial experiment's peak RSS
# by 3% at no measured cost in time. 250k cut certify's and the experiment's
# peaks by another 1.2 MB, but counted the 1524 four-pattern classes to n=12
# about 14% slower (in 4 of 4 alternating runs), so the cap stays at 500k
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


# float32 cells past which the gap-matrix memo is emptied (16 MiB): a deep
# count adds one or two matrices per level, the largest last, while the 1524
# four-pattern classes to n=10, the 820-trial experiment and the template
# certificates reuse at most 120,120 cells of them and never reach it
_GAP_CELLS = 1 << 22
_gap_memo: dict[tuple[int, int, tuple[tuple[int, ...], ...]], np.ndarray] = {}


def _gap_matrix(n: int, k: int, m_idxs: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """
    (C, J*(n+1)) float32 matrix of J (C, n+1) blocks side by side, one per
    tuple of sorted maximum positions in ``m_idxs``: 1 where inserting the
    new maximum at gap p completes embedding c of a reduced pattern to an
    occurrence of a full pattern whose maximum was at one of that block's
    positions. For a maximum at m, the entries before it must land left of p
    and the rest right of it, so p runs from one past the entry before it to
    the position of the entry after it (0 and n where there is none).
    Memoized in ``_gap_memo``, which is emptied first where a new matrix
    would take it past ``_GAP_CELLS`` cells.
    """
    key = (n, k, m_idxs)
    matrix = _gap_memo.get(key)
    if matrix is not None:
        return matrix
    combos = _combo_index(n, k)
    c = combos.shape[0]
    bounds = np.hstack([np.full((c, 1), -1), combos, np.full((c, 1), n)])
    gaps = np.arange(n + 1)
    blocks = []
    for positions in m_idxs:
        lo = bounds[:, list(positions)] + 1
        hi = bounds[:, [m + 1 for m in positions]]
        blocks.append(((gaps >= lo[:, :, None]) & (gaps <= hi[:, :, None])).any(axis=1))
    matrix = np.hstack(blocks).astype(np.float32)
    if sum(m.size for m in _gap_memo.values()) + matrix.size > _GAP_CELLS:
        _gap_memo.clear()
    _gap_memo[key] = matrix
    return matrix


# memoized, not recomputed at every level: sorting each check's positions
# per level cost the 820-trial experiment about 4% of its time
@lru_cache(maxsize=None)
def _value_order(pattern: Perm) -> tuple[int, ...]:
    """Positions of the pattern sorted by value (for chain checks)."""
    return tuple(sorted(range(len(pattern)), key=pattern.__getitem__))


# what _plan builds: one (reduced, bits, m_idxs) check per distinct reduced pattern
Plan = list[tuple[Perm, np.ndarray, tuple[tuple[int, ...], ...]]]


def _plan(groups: Sequence[Iterable[Perm]]) -> Plan:
    """
    One (reduced, bits, m_idxs) check per distinct reduced pattern (a
    pattern with its maximum deleted) of the pattern ``groups``, shortest
    first: the uint64 mask bits ``1 << j`` of the groups j holding a pattern
    that reduces to it, and each such group's sorted maximum positions.
    Patterns that share a reduced pattern differ only in where their maximum
    was, so one order check serves them all. The empty pattern has no check:
    the vector grower starts from no rows when the set holds it, and the
    shared tree's root carries the bit of the group that holds it.
    """
    merged: dict[Perm, dict[int, set[int]]] = {}
    for j, group in enumerate(groups):
        for s in group:
            if s:
                m_idx = s.index(len(s))
                merged.setdefault(s[:m_idx] + s[m_idx + 1:], {}).setdefault(j, set()).add(m_idx)
    return [
        (reduced, np.array([1 << j for j in by_group], dtype=np.uint64), tuple(tuple(sorted(m)) for m in by_group.values()))
        for reduced, by_group in sorted(merged.items(), key=lambda item: (len(item[0]), item[0]))
    ]


def _matches(cols: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """
    Boolean (rows, C) from (rows, k, C) gathered ``cols``, the entries of
    each row at each combination's k positions: those entries rise in
    ``order``, a pattern's value order (always, for k <= 1).
    """
    if len(order) <= 1:
        return np.ones((cols.shape[0], cols.shape[2]), dtype=bool)
    match = cols[:, order[0]] < cols[:, order[1]]
    for below, above in zip(order[1:], order[2:]):
        match &= cols[:, below] < cols[:, above]
    return match


def _gathered(rows: np.ndarray, plan: Plan) -> Iterator[tuple[int, np.ndarray, list]]:
    """
    The one gather and chunk loop under every vectorized check, the checks
    of a ``_plan``, shortest reduced pattern first. Per run of checks whose
    reduced patterns have one length k <= n, and per chunk of the (count, n)
    ``rows``, yields (start, cols, that run's checks), where cols is the
    (chunk, k, C) array of each row's entries at all C k-subsets of
    positions, and each check is (bits, the reduced pattern's value order,
    its ``_gap_matrix``), looked up once for all the chunks. A chunk holds
    at most ``_MATCH_CELLS`` gathered cells, or one row where a row holds
    more.
    """
    count, n = rows.shape
    for k, same_length in itertools.groupby(plan, key=lambda check: len(check[0])):
        if k > n:
            break
        combos = _combo_index(n, k)
        checks = [
            (bits, _value_order(reduced), _gap_matrix(n, k, m_idxs))
            for reduced, bits, m_idxs in same_length
        ]
        chunk = max(1, _MATCH_CELLS // (combos.shape[0] * max(k, 1)))
        for start in range(0, count, chunk):
            yield start, rows[start:start + chunk, combos.T], checks


def _level_bad_gaps(level: np.ndarray, plan: Plan) -> np.ndarray:
    """Boolean (rows, n+1) array of gaps killed by some pattern of a one-group ``_plan``."""
    rows, n = level.shape
    bad = np.zeros((rows, n + 1), dtype=bool)
    for start, cols, checks in _gathered(level, plan):
        hits = sum(_matches(cols, order).astype(np.float32) @ gaps for _bits, order, gaps in checks)
        bad[start:start + len(cols)] |= hits > 0.5
    return bad


# entries of a packed row key: 4 bits each in a uint64, values 1..16
_KEY_ENTRIES = 16


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    The distinct rows, sorted, of a (count, n) array of permutations, and
    each row's index among them (int32). Up to ``_KEY_ENTRIES`` (16)
    entries, each row packs into one uint64 key at 4 bits per entry, its
    first entry highest, so key order is row order and one sort dedupes;
    keys are built column by column. Longer rows are sorted by
    ``np.lexsort``. Either way the distinct rows are one gather of the
    first row of each run.

    >>> distinct, inverse = _distinct_rows(np.array([[2, 1], [1, 2], [2, 1]]))
    >>> distinct.tolist(), inverse.tolist()
    ([[1, 2], [2, 1]], [1, 0, 1])
    """
    count, n = rows.shape
    if n > _KEY_ENTRIES:
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
    else:
        key = np.zeros(count, dtype=np.uint64)
        for column in rows.T:
            key <<= np.uint64(4)
            key |= (column - 1).astype(np.uint64)
        order = np.argsort(key, kind="stable")
        ordered = key[order, None]
    fresh = np.ones(count, dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    distinct = rows[order[fresh]]
    inverse = np.empty(count, dtype=np.int32)
    index = np.cumsum(fresh, dtype=np.int32)
    index -= 1
    inverse[order] = index
    return distinct, inverse


def rows_containing(rows: np.ndarray, patterns: Iterable[Sequence[int]]) -> np.ndarray:
    """
    Which rows of a (count, n) array of permutations contain some pattern of
    the set: ``perms.avoids`` negated for a whole array at once, by
    ``_rows_containing`` on the set's one ``_plan``. An empty set's
    shortest pattern counts as longer than the rows, so none contains it.

    >>> rows_containing(np.array([[1, 3, 2], [3, 2, 1], [2, 1, 3]]), [(1, 2)]).tolist()
    [True, False, True]
    >>> rows_containing(np.array([[1, 3, 2], [3, 2, 1], [2, 1, 3]]), [(2, 1, 3), (3, 2, 1)]).tolist()
    [False, True, True]
    >>> int(rows_containing(np.array(list(all_perms(4)) * 3), [(1, 2, 3)]).sum())  # 72 rows: 3 * (24 - 14)
    30
    """
    sigma = pattern_set(patterns)
    return _rows_containing(rows, _plan([sigma]), min(map(len, sigma), default=rows.shape[1] + 1))


def _rows_containing(rows: np.ndarray, plan: Plan, shortest: int) -> np.ndarray:
    """
    Which rows contain some pattern of a set, given the set's one-group
    ``_plan`` and its shortest pattern's length, on the counting kernel's
    insertion-tree lemma. A row contains a pattern iff its parent, the row
    with its maximum deleted, does, or some occurrence uses the maximum.
    There the maximum plays the pattern's maximum, so the parent's gap where
    it sits completes the pattern, which is what ``_level_bad_gaps`` reads
    off ``_gap_matrix``. The parents are deduped by ``_distinct_rows`` and
    recursed on once each, down to rows shorter than every pattern, which
    contain none; a set holding the empty pattern, which ``_plan`` has no
    check for, is contained in every row.
    """
    count, n = rows.shape
    if shortest == 0 or n < shortest:  # the empty pattern is in every row, no other in a shorter one
        return np.full(count, shortest == 0)
    parents, inverse = _distinct_rows(rows[rows != n].reshape(count, n - 1))
    # the recursion before the kernel, and no mask of the maximum held across
    # either: certify's peak RSS is 0.4 MB and 1.1 MB lower for these
    out = _rows_containing(parents, plan, shortest)[inverse]
    out |= _level_bad_gaps(parents, plan)[inverse][rows == n]  # the parent's gap where n sits
    return out


def _insert_max(parents: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """
    The children of (rows, n) ``parents``: n+1 inserted at every gap that
    (rows, n+1) ``keep`` marks, gap by gap and, within a gap, in row order.

    >>> _insert_max(np.array([[1, 2], [2, 1]]), np.array([[True, False, True], [True, True, False]])).tolist()
    [[3, 1, 2], [3, 2, 1], [2, 3, 1], [1, 2, 3]]
    """
    n = parents.shape[1]
    gaps, rows = np.nonzero(keep.T)  # the kept (gap, row) pairs, gap-major
    at = np.arange(n + 1) == gaps[:, None]
    children = np.full(at.shape, n + 1, dtype=_DTYPE)
    children[~at] = parents.take(rows, axis=0).ravel()
    return children


def _grow_vector(
    sigma: PatternSet, max_n: int, budget: int, *, with_level: bool
) -> tuple[tuple[int, ...], np.ndarray | None]:
    """
    The counts at lengths 0..max_n of the set ``sigma``, grown against its
    one ``_plan``, and, if ``with_level``, the length-max_n level as a
    (count, max_n) int array (else None: counting its rows needs only the
    kept gaps of the level before it). A set holding the empty pattern
    starts from no rows, and an empty level ends the growth: every level
    below it is empty too.
    """
    plan = _plan([sigma])
    roots = 0 if () in sigma else 1  # nothing avoids the empty pattern
    level = np.zeros((roots, 0), dtype=_DTYPE)
    counts = [roots]
    for n in range(max_n):
        if len(level) == 0:
            counts += [0] * (max_n - n)
            level = level.reshape(0, max_n)
            break
        keep = ~_level_bad_gaps(level, plan)
        counts.append(int(keep.sum()))
        if sum(counts) > budget:
            raise _over_budget(budget, n + 1)
        if n + 1 < max_n or with_level:
            level = _insert_max(level, keep)
    return tuple(counts), level if with_level else None


# ---------------------------------------------------------------------------
# Shared tree for many pattern sets
# ---------------------------------------------------------------------------
#
# A row is kept while its mask is disjoint from the mask of some set still
# counting. Masks only grow down the tree, so that pruning is exact.

_MASK_BITS = 64
_BLOCK_ROWS = 16_384  # parents grown at once
# cap on (sets x distinct masks) per disjointness test, so that its uint64,
# bool and float64 tiles take about 1 MB: against 1 << 20, the 1524 classes
# to n=9 peak at 6.5 MiB traced, not 14.9, in the same time; 1 << 18 gave
# the same peak RSS
_TALLY_CELLS = 1 << 16
# lowest mask bits by which _tally splits the sets: over the 1524 classes to
# n=10 it took 0.21 s at 1 bit, 0.14 s at 2 and 0.16-0.20 s at 3
_PREFIX_BITS = 2


def _pack_trees(sigmas: list[PatternSet]) -> Iterator[tuple[list[PatternSet], list[list[Perm]], np.ndarray]]:
    """
    Split the sets greedily, in order, into trees of consecutive sets with
    at most 64 groups, the patterns held by exactly the same sets (the empty
    pattern is one more pattern here). Yields each tree's sets, each group's
    patterns, and the sets' masks: the OR of ``1 << label`` over each set's
    patterns. As a set joins, a pattern's label becomes the pair (old label,
    held by it), numbered as the tree first met patterns.
    """
    trees: list[tuple[list[PatternSet], dict[Perm, int]]] = []
    for sigma in sigmas:
        tree, label = trees[-1] if trees else ([], {})
        held = set(sigma)
        pairs: dict[tuple[int, bool], int] = {}
        grown = {p: pairs.setdefault((j, p in held), len(pairs)) for p, j in label.items()}
        for p in sigma:
            if p not in grown:  # not setdefault, whose default would number a pair for old patterns too
                grown[p] = pairs.setdefault((-1, True), len(pairs))
        if trees and len(pairs) <= _MASK_BITS:
            tree.append(sigma)
            trees[-1] = (tree, grown)
        else:
            trees.append(([sigma], dict.fromkeys(sigma, 0)))
    for tree, label in trees:
        groups: list[list[Perm]] = [[] for _ in set(label.values())]
        for p, j in label.items():
            groups[j].append(p)
        yield tree, groups, np.array([sum({1 << label[p] for p in sigma}) for sigma in tree], dtype=np.uint64)


def _child_masks(block: np.ndarray, masks: np.ndarray, plan: Plan) -> np.ndarray:
    """
    (rows, n+1) masks of the children of ``block``: the parent's plus the
    bits of the groups each gap kills. Over the ``_plan`` of all the groups,
    each distinct reduced pattern takes one order check and one matmul per
    chunk of rows against its groups' gap matrices side by side, whose hits
    OR in those groups' bits.
    """
    n = block.shape[1]
    out = np.repeat(masks[:, None], n + 1, axis=1)
    for start, cols, checks in _gathered(block, plan):
        for bits, order, gaps in checks:
            hits = _matches(cols, order).astype(np.float32) @ gaps > 0.5
            hits = hits.reshape(len(cols), len(bits), n + 1)
            for j, bit in enumerate(bits):
                out[start:start + len(cols)] |= hits[:, j] * bit
    return out


def _tally(
    distinct: np.ndarray, hist: np.ndarray, set_masks: np.ndarray, nodes: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Per set, the rows whose mask is disjoint from the set's, and whether that
    takes its nodes past the budget; per distinct mask, whether a set that
    stays within budget still counts it. The sets are split by their lowest
    ``_PREFIX_BITS`` mask bits, and each part is tested only against the
    distinct masks that miss those bits, the only ones it can count, in
    tiles of at most ``_TALLY_CELLS`` cells (or one set where a set meets
    more masks than that).
    """
    got = np.zeros(len(set_masks), dtype=np.int64)
    over = np.zeros(len(set_masks), dtype=bool)
    keep = np.zeros(len(distinct), dtype=bool)
    prefix, rest = np.zeros_like(set_masks), set_masks.copy()
    for _ in range(_PREFIX_BITS):
        low = rest & (~rest + np.uint64(1))  # the lowest bit left, or 0
        prefix |= low
        rest ^= low
    prefixes, part = np.unique(prefix, return_inverse=True)
    for p, bits in enumerate(prefixes):
        sets = np.flatnonzero(part == p)
        countable = np.flatnonzero((distinct & bits) == 0)
        candidates, weights = distinct[countable], hist[countable]
        step = max(1, _TALLY_CELLS // max(1, len(countable)))
        for start in range(0, len(sets), step):
            chunk = sets[start:start + step]
            disjoint = (set_masks[chunk, None] & candidates[None, :]) == 0
            # exact: every partial sum is an integer below 2**53
            got[chunk] = np.rint(disjoint.astype(np.float64) @ weights)
            over[chunk] = nodes[chunk] + got[chunk] > budget
            if over[chunk].any():
                disjoint = disjoint[~over[chunk]]
            keep[countable] |= disjoint.any(axis=0)
    return got, over, keep


def _level_masks(level: np.ndarray, masks: np.ndarray, plan: Plan, hold: bool) -> tuple[np.ndarray, np.ndarray, list]:
    """
    The sorted distinct masks of a level's children and how many children
    carry each, from ``_child_masks`` over blocks of ``_BLOCK_ROWS``
    parents; and, if ``hold``, each block's (rows, n+1) child masks for
    ``_next_level`` (else none, so a last level holds none of them).
    """
    blocks, pieces = [], []
    for start in range(0, level.shape[0], _BLOCK_ROWS):
        child = _child_masks(level[start:start + _BLOCK_ROWS], masks[start:start + _BLOCK_ROWS], plan)
        pieces.append(np.unique(child, return_counts=True))
        if hold:
            blocks.append(child)
    distinct, where = np.unique(np.concatenate([u for u, _ in pieces]), return_inverse=True)
    return distinct, np.bincount(where, weights=np.concatenate([c for _, c in pieces])), blocks


def _next_level(
    level: np.ndarray, blocks: list[np.ndarray], distinct: np.ndarray, keep: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """
    The ``size`` kept children of ``level`` and their masks: the children
    whose mask in ``blocks`` is one of the ``distinct`` masks that ``keep``
    marks. Both arrays are allocated once and written block by block in
    place, in ``_insert_max``'s gap-major order, and each block's masks are
    dropped from ``blocks`` once its children are written, so no level is
    ever held twice.
    """
    children = np.empty((size, level.shape[1] + 1), dtype=_DTYPE)
    child_masks = np.empty(size, dtype=np.uint64)
    at = 0
    for b in range(len(blocks)):
        child, blocks[b] = blocks[b], None
        k = keep[np.searchsorted(distinct, child)]
        written = _insert_max(level[b * _BLOCK_ROWS:(b + 1) * _BLOCK_ROWS], k)
        children[at:at + len(written)] = written
        child_masks[at:at + len(written)] = child.T[k.T]  # gap-major, as _insert_max orders the rows
        at += len(written)
    return children, child_masks


def _grow_shared(
    groups: list[list[Perm]], set_masks: np.ndarray, max_n: int, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """
    Counts (sets, max_n+1) of one shared tree over the pattern ``groups``
    and their one ``_plan``, and per set the length at which its nodes
    passed the budget (0 if they never did). The root's mask carries the bit
    of the group holding the empty pattern (0 if none does), so a set counts
    the root as it counts every later row: iff their masks are disjoint.
    Breadth-first, each level takes one step of three pieces:
    ``_level_masks`` (the children's masks, block by block, and their
    histogram), ``_tally`` (the counts, and which masks to keep) and, below
    all but the last level, ``_next_level`` (the kept children, written in
    place).
    """
    plan = _plan(groups)
    masks = np.array([sum(1 << j for j, group in enumerate(groups) if () in group)], dtype=np.uint64)
    counts = np.zeros((len(set_masks), max_n + 1), dtype=np.int64)
    counts[:, 0] = (set_masks & masks) == 0
    failed_at = np.zeros(len(set_masks), dtype=np.int64)
    level = np.zeros((1, 0), dtype=_DTYPE)
    for n in range(max_n):
        live = np.flatnonzero(failed_at == 0)
        if level.shape[0] == 0 or live.size == 0:
            break
        distinct, hist, blocks = _level_masks(level, masks, plan, n + 1 < max_n)
        nodes = counts[live, :n + 1].sum(axis=1)
        got, over, keep = _tally(distinct, hist, set_masks[live], nodes, budget)
        counts[live, n + 1] = got
        failed_at[live[over]] = n + 1
        if n + 1 < max_n:
            level, masks = _next_level(level, blocks, distinct, keep, int(hist[keep].sum()))
    return counts, failed_at


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def count_avoiders(
    patterns: Iterable[Sequence[int]],
    max_n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CountSequence:
    """
    The number of permutations of each length 0..max_n avoiding every
    pattern of the set. Exact (python ints never overflow).

    >>> count_avoiders([(1, 3, 2)], 6).counts
    (1, 1, 2, 5, 14, 42, 132)
    >>> count_avoiders([(1,)], 3).counts
    (1, 0, 0, 0)
    """
    budget = check_node_budget(max_n, node_budget)
    sigma = pattern_set(patterns)
    counts, _ = _grow_vector(sigma, max_n, budget, with_level=False)
    return CountSequence(counts=counts, patterns=sigma)


def count_avoiders_many(
    pattern_sets: Iterable[Iterable[Sequence[int]]],
    max_n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[CountSequence | BudgetExceededError]:
    """
    For each pattern set in order, what ``count_avoiders`` gives for it: its
    CountSequence, or the BudgetExceededError it would raise (returned, not
    raised). The sets share insertion trees of at most 64 pattern groups
    each (``_pack_trees``): related sets cost about one tree, not one each.
    Each tree holds a run of consecutive sets, those holding the empty
    pattern too (its group's bit is on the root's mask, so they count no
    row), and the results are the trees' outcomes in turn.

    >>> [s.counts for s in count_avoiders_many([[(1, 3, 2)], [(1, 2), (2, 1)], [(), (1, 2)]], 4)]
    [(1, 1, 2, 5, 14), (1, 1, 0, 0, 0), (0, 0, 0, 0, 0)]
    """
    budget = check_node_budget(max_n, node_budget)
    results: list[CountSequence | BudgetExceededError] = []
    for tree, groups, set_masks in _pack_trees([pattern_set(patterns) for patterns in pattern_sets]):
        counts, failed_at = _grow_shared(groups, set_masks, max_n, budget)
        results += [
            _over_budget(budget, failed) if failed else CountSequence(counts=tuple(row), patterns=sigma)
            for sigma, row, failed in zip(tree, counts.tolist(), failed_at.tolist())
        ]
    return results


def avoider_rows(
    patterns: Iterable[Sequence[int]],
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> np.ndarray:
    """
    The length-n avoiders as the rows of a (count, n) int array, in
    lexicographic order (sorted by ``_distinct_rows``). Memory is the
    caller's problem; the node budget is the safety net.

    >>> avoider_rows([(1, 3, 2)], 3).tolist()
    [[1, 2, 3], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]]
    """
    budget = check_node_budget(n, node_budget)
    sigma = pattern_set(patterns)
    _, level = _grow_vector(sigma, n, budget, with_level=True)
    return _distinct_rows(level)[0]


def enumerate_avoiders(
    patterns: Iterable[Sequence[int]],
    n: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> frozenset[Perm]:
    """
    The full set of length-n avoiders (the rows of ``avoider_rows``).

    >>> sorted(enumerate_avoiders([(1, 2)], 3))
    [(3, 2, 1)]
    """
    return frozenset(map(tuple, avoider_rows(patterns, n, node_budget=node_budget).tolist()))


def count_avoiders_naive(patterns: Iterable[Sequence[int]], max_n: int) -> CountSequence:
    """
    Count by filtering all n! permutations. Oracle only: max_n is capped at
    8 to keep misuse from burning hours, and the cap, not a node budget,
    bounds the work.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if max_n > 8:
        raise ValueError(f"naive counting is capped at max_n=8, got {max_n}")
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
    budget = check_node_budget(max_n, DEFAULT_NODE_BUDGET)
    sigma = pattern_set(patterns)
    level: list[Perm] = [()] if avoids((), sigma) else []
    counts = [len(level)]
    for n in range(1, max_n + 1):
        children = (parent[:p] + (n,) + parent[p:] for parent in level for p in range(n))
        level = [child for child in children if avoids(child, sigma)]
        counts.append(len(level))
        if sum(counts) > budget:
            raise _over_budget(budget, n)
    return CountSequence(counts=tuple(counts), patterns=sigma)

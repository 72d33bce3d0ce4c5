"""
Permutations in one-line notation, pattern containment, and the eight
matrix symmetries.

Conventions used throughout the package:

- A permutation of length n is a tuple of the integers 1..n, each appearing
  exactly once, read in one-line notation: ``(2, 3, 1)`` is the map sending
  1 to 2, 2 to 3, 3 to 1. The empty tuple is the (unique) permutation of
  length 0 and is valid everywhere.
- A pattern is just a (usually short) permutation; a pattern set is a tuple
  of distinct patterns sorted length-lexicographically, as produced by
  :func:`pattern_set`. The sorted-tuple form doubles as a total order on
  pattern sets, which is what makes canonical forms deterministic.
- The text format is compact digits for length <= 9 (``2314``) and
  comma-separated values otherwise (``10,1,2,...``); parsers accept both.
- Surveys reuse a few patterns very many times, so checking a pattern
  tuple (``perm``), parsing a text (``parse_perm``) and formatting a
  permutation (``format_perm``, keyed on its tuple) are each memoized for
  the process, in bounded memos of immutable values: a distinct pattern is
  checked, parsed and formatted once while it stays in the memo, and no
  caller keeps a table.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

Perm = tuple[int, ...]
PatternSet = tuple[Perm, ...]

_MEMO_SIZE = 4096  # bounded, since an input file may hold any number of distinct texts


def is_perm(values: Sequence[int]) -> bool:
    """
    Check that values is a permutation of 1..n in one-line notation.

    >>> [is_perm(w) for w in [(), (1,), (2, 3, 1), (2, 2), (0, 1)]]
    [True, True, True, False, False]
    """
    return sorted(values) == list(range(1, len(values) + 1))


def perm(values: Iterable[int]) -> Perm:
    """Validate and freeze one-line notation into a permutation tuple."""
    return _checked(tuple(values))


@lru_cache(maxsize=_MEMO_SIZE)
def _checked(p: tuple) -> Perm:
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return tuple(map(int, p))  # one value for all tuples equal to p: (True, 2.0) and (1, 2) give (1, 2)


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of length n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def flatten(word: Sequence[int]) -> Perm:
    """
    The unique permutation order-isomorphic to a word of distinct integers
    (also called the standardization of the word).

    >>> flatten((2, 9, 7, 5))
    (1, 4, 3, 2)
    >>> flatten((1, 2, 3))
    (1, 2, 3)
    >>> flatten(())
    ()
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError(f"word has duplicate entries: {word}")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def contains(pi: Sequence[int], sigma: Sequence[int]) -> bool:
    """
    True iff some subsequence of pi is order-isomorphic to sigma.

    Backtracking over embeddings, left to right, pruning as soon as the
    chosen prefix stops being order-isomorphic to the matching prefix of
    sigma. Fine for the short patterns used here (length <= 5 or so).

    >>> contains((2, 1, 9, 3, 7, 8, 6, 4, 5), (1, 4, 3, 2))
    True
    >>> contains((1, 2, 3), (1, 3, 2))
    False
    >>> contains((3, 1, 2), ())
    True
    """
    k = len(sigma)
    n = len(pi)
    if k == 0:
        return True
    if k > n:
        return False
    chosen: list[int] = []

    def extend(depth: int, start: int) -> bool:
        if depth == k:
            return True
        s_d = sigma[depth]
        # leave enough positions for the rest of sigma
        for pos in range(start, n - (k - depth) + 1):
            v = pi[pos]
            for t, w in enumerate(chosen):
                if (w < v) != (sigma[t] < s_d):
                    break
            else:
                chosen.append(v)
                if extend(depth + 1, pos + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


def avoids(pi: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True iff pi contains no pattern of the set (vacuously true if empty)."""
    return not any(contains(pi, sigma) for sigma in patterns)


# ---------------------------------------------------------------------------
# The eight symmetries of the permutation matrix
# ---------------------------------------------------------------------------
#
# reverse flips positions (x axis), complement flips values (y axis), and
# inverse transposes the matrix. Together they generate a dihedral group of
# order 8. Every element has the normal form inverse^a . reverse^b .
# complement^d (apply complement first), which is how elements are stored:
# a triple of bits (a, b, d).

_SYMMETRY_BITS = {
    "identity": (0, 0, 0),
    "reverse": (0, 1, 0),
    "complement": (0, 0, 1),
    "reverse-complement": (0, 1, 1),
    "inverse": (1, 0, 0),
    "inverse-reverse": (1, 1, 0),
    "inverse-complement": (1, 0, 1),
    "inverse-reverse-complement": (1, 1, 1),
}

SYMMETRIES: tuple[str, ...] = tuple(_SYMMETRY_BITS)


def reverse(p: Sequence[int]) -> Perm:
    """Reverse positions: the value at position i moves to position n+1-i."""
    return tuple(p[::-1])


def complement(p: Sequence[int]) -> Perm:
    """Complement values: value v becomes n+1-v."""
    n = len(p)
    return tuple(n + 1 - v for v in p)


def inverse(p: Sequence[int]) -> Perm:
    """
    Functional inverse.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def apply_symmetry(g: str, p: Sequence[int]) -> Perm:
    """
    Apply one of the eight symmetries, named as in SYMMETRIES. Composite
    names apply right to left: "inverse-reverse" reverses, then inverts.

    >>> apply_symmetry("reverse", (1, 2, 3))
    (3, 2, 1)
    >>> apply_symmetry("complement", (2, 3, 1))
    (2, 1, 3)
    >>> apply_symmetry("identity", (2, 3, 1))
    (2, 3, 1)
    """
    try:
        a, b, d = _SYMMETRY_BITS[g]
    except KeyError:
        raise ValueError(f"unknown symmetry {g!r}; expected one of {SYMMETRIES}") from None
    q = tuple(p)
    if d:
        q = complement(q)
    if b:
        q = reverse(q)
    if a:
        q = inverse(q)
    return q


# ---------------------------------------------------------------------------
# Pattern sets and canonical forms
# ---------------------------------------------------------------------------

def _perm_key(p: Perm) -> tuple[int, Perm]:
    return (len(p), p)


def _length_lex(perms: Iterable[Perm]) -> PatternSet:
    """The permutations in ``_perm_key`` order: sorted, then stably by length."""
    return tuple(sorted(sorted(perms), key=len))


def pattern_set(patterns: Iterable[Sequence[int]]) -> PatternSet:
    """
    Check, deduplicate and sort patterns length-lexicographically. All
    pattern-set arguments in this package accept anything iterable; this is
    the normalized form everything converts to.

    >>> pattern_set([(1, 3, 2), (2, 1), (1, 3, 2)])
    ((2, 1), (1, 3, 2))
    """
    return _length_lex(set(map(_checked, map(tuple, patterns))))


def pattern_set_key(patterns: PatternSet) -> tuple[tuple[int, Perm], ...]:
    """Sort key realizing the total order on (normalized) pattern sets."""
    return tuple(_perm_key(p) for p in patterns)


def apply_symmetry_to_set(g: str, patterns: PatternSet) -> PatternSet:
    """Apply a symmetry to every pattern of the set and renormalize."""
    return pattern_set(apply_symmetry(g, p) for p in patterns)


def symmetry_orbit(patterns: Iterable[Sequence[int]]) -> list[PatternSet]:
    """The distinct images of the set under all eight symmetries, sorted."""
    base = pattern_set(patterns)
    images = {apply_symmetry_to_set(g, base) for g in SYMMETRIES}
    return sorted(images, key=pattern_set_key)


def canonicalize_set(patterns: Iterable[Sequence[int]]) -> PatternSet:
    """
    The canonical representative of the symmetry class of a pattern set:
    the least of its eight symmetry images under the total order. Two sets
    are in the same symmetry class iff their canonical forms are equal.

    >>> canonicalize_set([(2, 3, 1)])
    ((1, 3, 2),)
    """
    return symmetry_orbit(patterns)[0]


def symmetry_classes(num_patterns: int, pattern_length: int) -> Iterator[tuple[PatternSet, int]]:
    """
    Every symmetry class of the num_patterns-subsets of the
    length-pattern_length patterns, as (canonical set, orbit size) pairs in
    the total order on pattern sets; orbit sizes add up to the number of
    subsets. The bulk form of canonicalize_set: each symmetry becomes a map
    on indices into the sorted patterns, and a subset of indices is kept
    iff no image is less. Patterns of one length sort lexicographically,
    so index order is the length-lexicographic order and the subsets come
    out of itertools.combinations already in class order.

    >>> list(symmetry_classes(1, 3))
    [(((1, 2, 3),), 2), (((1, 3, 2),), 4)]
    """
    universe = sorted(all_perms(pattern_length))
    index = {p: i for i, p in enumerate(universe)}
    images = [[index[apply_symmetry(g, p)] for p in universe] for g in SYMMETRIES[1:]]
    for combo in itertools.combinations(range(len(universe)), num_patterns):
        orbit = {combo}
        for image in images:
            other = tuple(sorted(map(image.__getitem__, combo)))
            if other < combo:
                break
            orbit.add(other)
        else:
            yield tuple(universe[i] for i in combo), len(orbit)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def format_perm(p: Sequence[int]) -> str:
    """
    Compact digits for length <= 9, comma-separated values above.

    >>> format_perm([2, 3, 1]), format_perm(np.arange(10, 0, -1))
    ('231', '10,9,8,7,6,5,4,3,2,1')
    """
    return _formatted(tuple(p))


@lru_cache(maxsize=_MEMO_SIZE)
def _formatted(p: tuple) -> str:
    return ("" if len(p) <= 9 else ",").join(map("{:d}".format, p))


_FORMAT_ROWS = 1 << 15  # rows formatted at once


def format_perm_rows(rows: np.ndarray) -> list[str]:
    """
    ``format_perm`` of each row of a (count, n) array of permutations, in
    bulk. Each value's text, with its comma above length 9, comes from one
    table, so every row takes the same bytes; the last comma (or, up to
    length 9, one added byte) becomes a newline, and one decode per block of
    rows cuts them.

    >>> format_perm_rows(np.array([[2, 3, 1], [1, 2, 3]]))
    ['231', '123']
    """
    count, n = rows.shape
    sep = "," if n > 9 else ""
    texts = [f"{v}{sep}".encode() for v in range(n + 1)]
    table = np.zeros((n + 1, len(texts[-1])), dtype=np.uint8)
    for v, text in enumerate(texts):
        table[v, :len(text)] = list(text)
    size = sum(map(len, texts[1:]))
    out: list[str] = []
    for start in range(0, count, _FORMAT_ROWS):
        cells = table[rows[start:start + _FORMAT_ROWS]]
        lines = np.empty((len(cells), size + 1 - len(sep)), dtype=np.uint8)
        lines[:, :size] = cells[cells != 0].reshape(len(cells), size)
        lines[:, -1] = ord("\n")
        out += lines.tobytes().decode("ascii").splitlines()
    return out


def parse_perm(text: str) -> Perm:
    """
    Parse either text form of a permutation.

    >>> parse_perm("2314")
    (2, 3, 1, 4)
    >>> parse_perm("10,1,2,3,4,5,6,7,8,9")[0]
    10
    """
    if not isinstance(text, str):  # before the memo, which cannot hash a list
        raise TypeError(f"bad permutation {text!r}: not a string")
    return _parsed(text)


@lru_cache(maxsize=_MEMO_SIZE)
def _parsed(text: str) -> Perm:
    text = text.strip()
    if text == "":
        return ()
    if "," in text:
        try:
            values = [int(tok) for tok in text.split(",")]
        except ValueError as e:
            raise ValueError(f"bad permutation {text!r}: {e}") from None
    else:
        values = []
        for i, ch in enumerate(text):
            if not ch.isdigit() or ch == "0":
                raise ValueError(
                    f"bad permutation {text!r}: invalid character {ch!r} at position {i + 1}"
                )
            values.append(int(ch))
    if not is_perm(values):
        raise ValueError(f"bad permutation {text!r}: not a bijection on 1..{len(values)}")
    return tuple(values)


def format_pattern_set(patterns: Iterable[Sequence[int]]) -> list[str]:
    """The text forms of the patterns (or permutations), in order."""
    return list(map(format_perm, patterns))


def format_braced(patterns: Iterable[Sequence[int]]) -> str:
    """
    The ``{a,b}`` text of a pattern set, as messages and reports print it.

    >>> format_braced([(2, 1), (1, 3, 2)])
    '{21,132}'
    """
    return "{" + ",".join(format_pattern_set(patterns)) + "}"


def parse_pattern_set(texts: Iterable[str]) -> PatternSet:
    """
    ``pattern_set`` of the permutations the texts parse to.

    >>> parse_pattern_set(["132", "21", "132"])
    ((2, 1), (1, 3, 2))
    """
    return _length_lex(set(map(parse_perm, texts)))


def parse_pattern_list(text: str) -> PatternSet:
    """
    Parse a pattern-set argument. Entries are separated by ';' or, when no
    semicolon appears, by ',' (the common case: compact entries like
    ``1234,1243``). Semicolons allow comma-separated long permutations.
    """
    seps = ";" if ";" in text else ","
    out = []
    for i, tok in enumerate(tok.strip() for tok in text.split(seps)):
        if tok == "":
            raise ValueError(f"bad pattern list {text!r}: empty entry at position {i + 1}")
        try:
            out.append(parse_perm(tok))
        except ValueError as e:
            raise ValueError(f"bad pattern list: entry {i + 1}: {e}") from None
    return pattern_set(out)

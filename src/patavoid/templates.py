"""
Template-generated families of permutations and finite certification that a
family avoids a pattern set.

A template is a pair (order, slots): ``order`` is a permutation of length t
and ``slots`` a string of '0'/'1' of the same length. A permutation of
length n >= 2 belongs to the family of a template collection iff, for some
template, it splits into t consecutive subwords whose value ranges stack
according to ``order`` (the subword at a higher ``order`` entry sits
entirely above one at a lower entry), where a '0' slot holds exactly one
element, a '1' slot holds any number including zero, every subword is
strictly shorter than the whole, and each nonempty subword, renumbered to
1..len, belongs to the family itself. Length 0 and 1 families are fixed at
{()} and {(1,)}. ``template()`` is the one way in: ``template_set``
rebuilds every (order, slots) entry through it, ``Template`` instances
too, so generation and certification only ever see validated templates,
and ``_family_at`` alone refuses a negative length.

Because the value ranges stack totally, each subword occupies a consecutive
block of values, so generation is mechanical: choose a template, choose the
subword sizes, pick each subword's content from the (memoized) smaller
family, and shift each block into place. Each length is one array, filled in
place with the product of the shorter lengths' arrays per template and
split, then sorted with repeats (members that fit several splits) dropped
by ``counting._distinct_rows``, the dedupe ``rows_containing`` runs on its
parents: one sort of packed keys up to length 16, ``np.lexsort`` past it.

The point of such families is the certification theorem: if the slot
strings have at most k zeros and some member of the family contains a
pattern of length l, then some member of length at most (l-1)(k+1)+1
already does. Checking the finitely many lengths up to that bound therefore
proves avoidance for every length at once; ``certify_avoidance`` does
exactly that and returns the evidence. It builds the counting kernel's
``_plan`` of the pattern set once and checks each length as one array of
members against it in one ``counting._rows_containing`` call, the one path
behind ``rows_containing``: it recurses on the members' distinct
max-deleted parents, down to parents shorter than every pattern, and asks
the counting kernel whether each member's maximum completes a pattern. The
member its answer ends on is confirmed with ``perms.contains``.

Generated families are memoized per (template set, length) for the life of
the process as read-only (members, n) int16 arrays, rows sorted and
distinct. A length whose members would take more than FAMILY_CELLS cells
before the dedupe is refused with ``BudgetExceededError``, not allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .counting import BudgetExceededError, CountSequence, _distinct_rows, _plan, _rows_containing
from .perms import PatternSet, Perm, contains, format_perm, parse_perm, pattern_set, perm


class Template(NamedTuple):
    order: Perm  # relative heights of the value blocks, one per slot
    slots: str  # '1' = free subword (may be empty), '0' = exactly one element

    def __str__(self) -> str:
        return f"{format_perm(self.order)}:{self.slots}"


TemplateSet = tuple[Template, ...]


def template(order: Sequence[int], slots: str) -> Template:
    """Validate and build a template."""
    p = perm(order)
    if len(p) != len(slots) or len(p) == 0:
        raise ValueError(f"template needs matching nonempty order/slots, got {order}/{slots}")
    if set(slots) - {"0", "1"}:
        raise ValueError(f"slots must be a binary string, got {slots!r}")
    return Template(p, slots)


def template_set(templates: Iterable[Template | tuple]) -> TemplateSet:
    """
    Validate every (order, slots) entry through ``template``, ``Template``
    instances too, and normalize to a sorted, deduplicated, nonempty tuple.
    """
    normalized = {template(order, slots) for order, slots in templates}
    if not normalized:
        raise ValueError("template set must be nonempty")
    return tuple(sorted(normalized))


def parse_template(text: str) -> Template:
    """
    Parse the ``order:slots`` text form.

    >>> parse_template("231:101")
    Template(order=(2, 3, 1), slots='101')
    """
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"bad template {text!r}: expected order:slots")
    return template(parse_perm(head), tail)


def parse_template_list(text: str) -> TemplateSet:
    """Comma-separated ``order:slots`` entries."""
    entries = [tok.strip() for tok in text.split(",")]
    out = []
    for i, tok in enumerate(entries):
        if not tok:
            raise ValueError(f"bad template list {text!r}: empty entry at position {i + 1}")
        try:
            out.append(parse_template(tok))
        except ValueError as e:
            raise ValueError(f"bad template list: entry {i + 1}: {e}") from None
    return template_set(out)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _subword_sizes(n: int, slots: str) -> Iterable[tuple[int, ...]]:
    """
    All ways to split n >= 2 elements over the slots: '0' slots take exactly
    one, '1' slots take any count, and every slot stays strictly below n so
    the recursion only ever consults shorter lengths.
    """
    free = [i for i, b in enumerate(slots) if b == "1"]
    spare = n - (len(slots) - len(free))  # elements left for the free slots
    if spare < 0:
        return
    sizes = [1] * len(slots)
    if not free:
        if spare == 0:
            yield tuple(sizes)
        return

    def spread(idx: int, remaining: int):
        if idx == len(free) - 1:
            if remaining < n:
                sizes[free[idx]] = remaining
                yield tuple(sizes)
            return
        for take in range(min(remaining, n - 1) + 1):
            sizes[free[idx]] = take
            yield from spread(idx + 1, remaining - take)

    yield from spread(0, spare)


def _block_offsets(order: Perm, sizes: Sequence[int]) -> list[int]:
    """Starting value (exclusive prefix sum) of each slot's value block."""
    offsets = [0] * len(order)
    total = 0
    for slot in sorted(range(len(order)), key=order.__getitem__):
        offsets[slot] = total
        total += sizes[slot]
    return offsets


FAMILY_CELLS = 1 << 29  # most int16 cells _family allocates for one length's members before the dedupe (1 GiB)


@lru_cache(maxsize=None)
def _family(templates: TemplateSet, n: int) -> np.ndarray:
    """
    The length-n members as a read-only (members, n) int16 array, rows
    sorted and distinct. More than FAMILY_CELLS cells before the dedupe
    raise BudgetExceededError.
    """
    if n < 2:
        rows = np.ones((1, n), dtype=np.int16)  # () and (1,)
    else:
        splits = [
            (sizes, _block_offsets(t.order, sizes), [_family(templates, s) for s in sizes])
            for t in templates
            for sizes in _subword_sizes(n, t.slots)
        ]
        total = sum(math.prod(map(len, subs)) for *_, subs in splits)
        if total * n > FAMILY_CELLS:
            raise BudgetExceededError(f"{total * n} cells of length-{n} members exceed the template family budget {FAMILY_CELLS}")
        rows = np.empty((total, n), dtype=np.int16)
        at = 0
        for sizes, offsets, subs in splits:
            counts = [len(sub) for sub in subs]
            product = rows[at:at + math.prod(counts)]
            at += len(product)
            start = 0
            for i, (sub, off) in enumerate(zip(subs, offsets)):
                # every combination once: each choice of this slot under every choice of the
                # earlier slots, repeated over every choice of the later ones
                grid = product.reshape(math.prod(counts[:i]), counts[i], math.prod(counts[i + 1:]), n)
                grid[..., start:start + sizes[i]] = (sub + off)[None, :, None]
                start += sizes[i]
        rows, _ = _distinct_rows(rows)  # splits may overlap
    rows.flags.writeable = False
    return rows


def generate_family(templates: Iterable[Template | tuple], n: int) -> frozenset[Perm]:
    """
    The length-n members of the family generated by a template collection.

    >>> sorted(generate_family([((2, 3, 1), "101")], 3))
    [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    return frozenset(map(tuple, _family_at(template_set(templates), n).tolist()))


def _family_at(tset: TemplateSet, n: int) -> np.ndarray:
    """The length-n members of ``_family``, under every family caller's one length rule: n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for m in range(2, n):  # warm the cache iteratively; keeps recursion shallow
        _family(tset, m)
    return _family(tset, n)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """
    Outcome of the finite avoidance check for (templates, patterns).

    ``witness`` is the smallest family member up to length ``bound`` that
    contains one of the patterns (smallest length, then lexicographic), and
    ``witness_pattern`` what it contains; both are None when no member does,
    which by the certification theorem extends to every length.
    """

    templates: TemplateSet
    patterns: PatternSet
    bound: int
    witness: Perm | None = None
    witness_pattern: Perm | None = None

    @property
    def verified(self) -> bool:
        """Whether the family avoids the patterns at every length: no witness."""
        return self.witness is None

    @property
    def witness_length(self) -> int | None:
        return None if self.witness is None else len(self.witness)


def certification_bound(templates: TemplateSet, pattern_length: int) -> int:
    """(l-1)(k+1)+1 for a length-l pattern, k = most zeros in any slot string."""
    k = max(t.slots.count("0") for t in templates)
    return (pattern_length - 1) * (k + 1) + 1


def certify_avoidance(
    templates: Iterable[Template | tuple], patterns: Iterable[Sequence[int]]
) -> Certificate:
    """
    Decide whether every member of the template family, of every length,
    avoids every pattern: generate members up to the certification bound
    and test each length's members, as one array, against the whole
    pattern set in one ``counting._rows_containing`` pass.

    >>> certify_avoidance([((1, 2), "11")], [(1, 2)]).verified
    False
    """
    tset = template_set(templates)
    sigma = pattern_set(patterns)
    if not sigma or any(len(s) == 0 for s in sigma):
        raise ValueError("pattern set must be nonempty, with nonempty patterns")
    bound = max(certification_bound(tset, len(s)) for s in sigma)
    witness, witness_pattern = _first_witness(tset, sigma, bound)
    return Certificate(templates=tset, patterns=sigma, bound=bound, witness=witness, witness_pattern=witness_pattern)


def _first_witness(tset: TemplateSet, sigma: PatternSet, max_length: int) -> tuple[Perm | None, Perm | None]:
    """
    The first member up to max_length (by length, then lexicographic) that
    contains a pattern of sigma, and that pattern; (None, None) if none does.
    Each length goes through the containment kernel as one array, in one
    pass for the whole set, on one ``_plan`` of sigma built for them all;
    the scalar ``contains`` names the witness's pattern (the first of sigma
    it finds there) and confirms the member the answer ends on (the
    witness, else the last member of the last nonempty length checked), a
    tripwire on the kernel.
    """
    plan = _plan([sigma])
    shortest = min(map(len, sigma), default=max_length + 1)  # an empty set: longer than every member
    last = None
    for m in range(max_length + 1):
        rows = _family_at(tset, m)
        found = np.flatnonzero(_rows_containing(rows, plan, shortest))
        if found.size:
            pi = tuple(rows[found[0]].tolist())
            s = next((s for s in sigma if contains(pi, s)), None)
            if s is None:
                raise RuntimeError(f"containment kernel finds a pattern of {sigma} in {pi}, perms.contains does not")
            return pi, s
        if len(rows):
            last = tuple(rows[-1].tolist())
    if last is not None and any(contains(last, s) for s in sigma):
        raise RuntimeError(f"perms.contains finds a pattern of {sigma} in {last}, the kernel does not")
    return None, None


def verify_family_avoids(
    templates: Iterable[Template | tuple],
    patterns: Iterable[Sequence[int]],
    max_length: int,
) -> tuple[bool, Perm | None]:
    """
    Whether family members avoid the patterns at every length up to
    max_length, chosen by the caller rather than by the theorem's bound.
    Returns (ok, first witness or None). Used to spot-check certificates
    past their bound. It is not independent of ``certify_avoidance``'s
    kernel: both run ``_first_witness``, the same ``_rows_containing``
    pass with the same ``perms.contains`` tripwire. The independent
    reference is ``tests/test_templates.py::scalar_first_witness``.
    """
    witness, _pattern = _first_witness(template_set(templates), pattern_set(patterns), max_length)
    return witness is None, witness


# ---------------------------------------------------------------------------
# Counting recurrences for the two stacked-block shapes shipped with the
# package demos: families whose members are determined by the positions of
# two pinned values that split the word into three independent segments.
# ---------------------------------------------------------------------------

def three_segment_counts(max_n: int, variants: int = 1) -> CountSequence:
    """
    c_0 = c_1 = 1 and, for n > 1,

        c_n = variants * sum_{i=1}^{n-1} sum_{j=i+1}^{n} c_{i-1} c_{j-i-1} c_{n-j}

    counting words split by a pinned pair at positions i < j into three
    segments filled independently from the same family, with ``variants``
    height assignments of the pinned pair per split, at least 1.

    >>> three_segment_counts(4).counts
    (1, 1, 1, 3, 6)
    >>> three_segment_counts(3, variants=2).counts
    (1, 1, 2, 6)
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if variants < 1:
        raise ValueError(f"variants must be >= 1, got {variants}")
    c = [1, 1]
    for n in range(2, max_n + 1):
        total = 0
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                total += c[i - 1] * c[j - i - 1] * c[n - j]
        c.append(variants * total)
    return CountSequence(counts=tuple(c[: max_n + 1]))

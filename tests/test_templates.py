import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from patavoid import counting, templates
from patavoid.counting import BudgetExceededError, count_avoiders, enumerate_avoiders
from patavoid.perms import all_perms, contains, flatten, is_perm, parse_pattern_list, pattern_set
from patavoid.templates import (
    Certificate,
    Template,
    _family_at,
    certification_bound,
    certify_avoidance,
    generate_family,
    parse_template,
    parse_template_list,
    template,
    template_set,
    three_segment_counts,
    verify_family_avoids,
)

T_STACK = parse_template("231:101")  # the shape behind 132-avoidance
T_FIVE = parse_template("45312:10101")
T_PAIR = (parse_template("14253:10101"), parse_template("15243:10101"))


def family_member_oracle(templates, pi, cache=None):
    """
    Direct recursive check of the family definition, independent of the
    generator: try every template, every split into consecutive subwords
    (singletons at '0' slots, any length < n at '1' slots), check the value
    blocks stack according to the order permutation, and recurse on the
    flattened subwords.
    """
    if cache is None:
        cache = {}
    n = len(pi)
    if n == 0:
        return True
    if n == 1:
        return pi == (1,)
    if pi in cache:
        return cache[pi]
    result = False
    for t in templates:
        width = len(t.order)
        for sizes in _splits(n, t.slots):
            bounds = [0]
            for s in sizes:
                bounds.append(bounds[-1] + s)
            subwords = [pi[bounds[i]:bounds[i + 1]] for i in range(width)]
            if not _blocks_stack(t.order, subwords):
                continue
            if all(
                family_member_oracle(templates, flatten(w), cache)
                for w in subwords
                if len(w) > 0
            ):
                result = True
                break
        if result:
            break
    cache[pi] = result
    return result


def _splits(n, slots):
    free = [i for i, b in enumerate(slots) if b == "1"]
    spare = n - (len(slots) - len(free))
    if spare < 0:
        return
    for combo in itertools.product(range(n), repeat=len(free)):
        if sum(combo) != spare:
            continue
        sizes = [1] * len(slots)
        for i, take in zip(free, combo):
            sizes[i] = take
        if all(s < n for s in sizes):
            yield tuple(sizes)


def _blocks_stack(order, subwords):
    for i in range(len(order)):
        for j in range(len(order)):
            if order[i] > order[j]:
                if subwords[i] and subwords[j]:
                    if min(subwords[i]) <= max(subwords[j]):
                        return False
    return True


class TestParsing:
    def test_parse_format(self):
        t = parse_template("231:101")
        assert t == Template(order=(2, 3, 1), slots="101")
        assert str(t) == "231:101"

    def test_parse_list(self):
        assert parse_template_list("14253:10101,15243:10101") == template_set(T_PAIR)

    def test_bad_slots(self):
        with pytest.raises(ValueError):
            template((1, 2), "12")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            template((1, 2, 3), "10")

    def test_missing_colon(self):
        with pytest.raises(ValueError):
            parse_template("231101")

    def test_empty_set(self):
        with pytest.raises(ValueError):
            template_set([])

    def test_wrong_length_entry(self):
        with pytest.raises(ValueError):
            template_set([((1, 2),)])


# Template instances that bypass template(): an order that is no permutation, a non-binary
# slot, a length mismatch and the empty template
MALFORMED = [Template((2, 2), "11"), Template((1, 2), "1x"), Template((1, 2, 3), "11"), Template((), "")]
FAMILY_CALLS = {
    "template_set": lambda t: template_set([T_STACK, t]),
    "generate_family": lambda t: generate_family([t], 3),
    "certify_avoidance": lambda t: certify_avoidance([t], [(2, 1)]),
    "verify_family_avoids": lambda t: verify_family_avoids([t], [(2, 1)], 4),
}


@pytest.mark.parametrize("call", FAMILY_CALLS)
@pytest.mark.parametrize("bad", MALFORMED, ids=repr)
def test_malformed_template_refused_on_every_path(bad, call):
    with pytest.raises(ValueError) as want:
        template(*bad)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        FAMILY_CALLS[call](bad)


class TestGeneration:
    def test_base_cases(self):
        assert generate_family([T_STACK], 0) == {()}
        assert generate_family([T_STACK], 1) == {(1,)}

    @pytest.mark.parametrize("members", [lambda n: generate_family([T_STACK], n), lambda n: _family_at(template_set([T_STACK]), n)])
    def test_negative_length_rejected(self, members):
        with pytest.raises(ValueError, match=re.escape("n must be >= 0")):
            members(-1)

    def test_stack_small(self):
        assert generate_family([T_STACK], 2) == {(1, 2), (2, 1)}
        assert generate_family([T_STACK], 3) == {
            (1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)
        }

    def test_stack_family_is_132_avoidance(self):
        for n in range(9):
            assert generate_family([T_STACK], n) == enumerate_avoiders([(1, 3, 2)], n)

    def test_five_slot_at_two(self):
        assert generate_family([T_FIVE], 2) == {(2, 1)}

    def test_single_equals_singleton_family(self):
        # a plain (order, slots) pair and a repeat name the same one-template family
        spelled = [((4, 5, 3, 1, 2), "10101"), T_FIVE]
        for n in range(7):
            assert generate_family(spelled, n) == generate_family([T_FIVE], n)

    def test_members_are_valid_perms(self):
        for n in range(8):
            for pi in generate_family(T_PAIR, n):
                assert len(pi) == n and is_perm(pi)

    @pytest.mark.parametrize("templates", [(T_STACK,), (T_FIVE,), T_PAIR, parse_template_list("12:11,21:11")])
    def test_against_membership_oracle(self, templates):
        tset = template_set(templates)
        cache = {}
        for n in range(7):
            generated = generate_family(tset, n)
            for pi in all_perms(n):
                assert (pi in generated) == family_member_oracle(tset, pi, cache), (tset, pi)


class TestFamilyArrays:
    @pytest.mark.parametrize("templates", ["12:11", "12:11,21:11"])
    def test_rows_strictly_increasing(self, templates):
        # both families reach most members through several splits
        tset = parse_template_list(templates)
        for n in range(8):
            rows = _family_at(tset, n)
            assert rows.dtype == np.int16 and rows.shape[1] == n
            members = rows.tolist()
            assert all(a < b for a, b in zip(members, members[1:])), (templates, n)
            assert {tuple(m) for m in members} == generate_family(tset, n)

    @pytest.mark.parametrize("templates, sizes", [("12:11", [1, 1, 1, 1]), ("21:01,12:10", [2**14, 2**15, 2**16, 2**17])])
    def test_rows_sorted_past_the_packed_key(self, templates, sizes):
        # rows of up to 16 entries dedupe on a packed key, longer ones by lexsort;
        # 12:11 reaches the identity through every split
        tset = parse_template_list(templates)
        for n, size in zip((15, 16, 17, 18), sizes):
            rows = _family_at(tset, n)
            assert rows.shape == (size, n)
            assert (np.sort(rows, axis=1) == np.arange(1, n + 1)).all()
            members = rows.tolist()
            assert all(a < b for a, b in zip(members, members[1:])), (templates, n)

    def test_overlapping_splits_counted_once(self):
        # separable permutations: the large Schroeder numbers
        tset = parse_template_list("12:11,21:11")
        assert [len(_family_at(tset, n)) for n in range(8)] == [1, 1, 2, 6, 22, 90, 394, 1806]
        assert [len(_family_at(parse_template_list("12:11"), n)) for n in range(8)] == [1] * 8

    def test_lengths_without_a_split(self):
        tset = parse_template_list("123:000")
        assert [_family_at(tset, n).shape for n in range(6)] == [(1, 0), (1, 1), (0, 2), (1, 3), (0, 4), (0, 5)]
        assert [len(generate_family(tset, n)) for n in range(6)] == [1, 1, 0, 1, 0, 0]
        cert = certify_avoidance(tset, [(2, 1)])
        assert cert.verified and cert.bound == 5

    def test_cached_arrays_read_only(self):
        for n in range(5):
            rows = _family_at(template_set(T_PAIR), n)
            assert not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[:] = 0


class TestRecurrences:
    def test_single_variant_frozen(self):
        # hand-evaluated from the recurrence definition
        assert three_segment_counts(4).counts == (1, 1, 1, 3, 6)

    def test_double_variant_frozen(self):
        assert three_segment_counts(3, variants=2).counts == (1, 1, 2, 6)

    @pytest.mark.parametrize("variants", [0, -1])
    def test_variants_below_one_rejected(self, variants):
        # variants=-1 once gave (1, 1, -1, -3, 0)
        with pytest.raises(ValueError, match=f"variants must be >= 1, got {variants}"):
            three_segment_counts(4, variants=variants)

    def test_single_matches_generation(self):
        rec = three_segment_counts(9)
        for n in range(10):
            assert len(generate_family([T_FIVE], n)) == rec.counts[n]

    def test_double_matches_generation(self):
        rec = three_segment_counts(9, variants=2)
        for n in range(10):
            assert len(generate_family(T_PAIR, n)) == rec.counts[n]

    def test_lower_bounds_class_counts(self):
        single = three_segment_counts(9).counts
        q4 = count_avoiders([(2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2)], 9).counts
        assert all(single[n] <= q4[n] for n in range(10))
        double = three_segment_counts(9, variants=2).counts
        q7 = count_avoiders(
            [(2, 3, 4, 1), (2, 4, 1, 3), (2, 4, 3, 1), (3, 2, 4, 1)], 9
        ).counts
        assert all(double[n] <= q7[n] for n in range(10))


class TestCertification:
    def test_bound_formula(self):
        assert certification_bound(template_set([T_FIVE]), 4) == 10
        assert certification_bound(template_set(T_PAIR), 4) == 10
        assert certification_bound(template_set([T_STACK]), 3) == 5
        assert certification_bound(template_set([T_STACK]), 1) == 1

    def test_stack_certifies_132(self):
        cert = certify_avoidance([T_STACK], [(1, 3, 2)])
        assert cert.verified
        assert cert.bound == 5
        assert cert.witness is None
        assert cert.verified is (cert.witness is None)

    def test_five_slot_certifies(self):
        cert = certify_avoidance([T_FIVE], [(2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2)])
        assert cert.verified and cert.bound == 10
        assert cert.verified is (cert.witness is None)

    def test_failing_certificate_smallest_witness(self):
        cert = certify_avoidance([template((1, 2), "11")], [(1, 2)])
        assert not cert.verified
        assert cert.witness == (1, 2)
        assert cert.witness_length == 2
        assert cert.witness_pattern == (1, 2)
        assert cert.verified is (cert.witness is None)

    def test_verdict_is_read_off_the_witness(self):
        assert [f.name for f in dataclasses.fields(Certificate)] == ["templates", "patterns", "bound", "witness", "witness_pattern"]
        assert Certificate(template_set([T_STACK]), pattern_set([(1, 2)]), 5, witness=(1, 2)).verified is False
        assert Certificate(template_set([T_STACK]), pattern_set([(1, 3, 2)]), 5).verified is True

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            certify_avoidance([T_STACK], [()])

    def test_soundness_past_bound(self):
        # three lengths beyond the theorem bound for the cheap family
        ok, witness = verify_family_avoids([T_STACK], [(1, 3, 2)], 8)
        assert ok and witness is None

    def test_verify_finds_witness(self):
        ok, witness = verify_family_avoids([template((1, 2), "11")], [(1, 2)], 4)
        assert not ok and witness == (1, 2)


class TestFamilyBudget:
    def test_length_past_the_budget_refused(self, monkeypatch):
        # the pair family's lengths 7 and 8 take 792 x 7 = 5544 and 2956 x 8 = 23648 cells before the dedupe
        monkeypatch.setattr(templates, "FAMILY_CELLS", 5544)
        templates._family.cache_clear()
        assert len(generate_family(T_PAIR, 7)) == 792
        message = "23648 cells of length-8 members exceed the template family budget 5544"
        for _ in range(2):  # nothing is cached from the refused length
            with pytest.raises(BudgetExceededError, match=message):
                certify_avoidance(T_PAIR, [(3, 5, 1, 6, 2, 4)])
        monkeypatch.setattr(templates, "FAMILY_CELLS", 23648)
        assert len(generate_family(T_PAIR, 8)) == 2956

    def test_pair_family_refused_at_15(self):
        # the pair family has three_segment_counts(variants=2) members, with no repeats before the dedupe
        sizes = three_segment_counts(15, variants=2).counts
        cells = {
            n: n * sum(math.prod(sizes[k] for k in split) for t in T_PAIR for split in templates._subword_sizes(n, t.slots))
            for n in (8, 14, 15)
        }
        assert cells == {8: 23648, 14: 155086848, 15: 676344960}
        assert cells[14] <= templates.FAMILY_CELLS < cells[15]


def scalar_first_witness(templates, patterns, max_length):
    """Reference scan, one tuple at a time: sorted members x sigma x perms.contains."""
    tset, sigma = template_set(templates), pattern_set(patterns)
    for m in range(max_length + 1):
        for pi in sorted(generate_family(tset, m)):
            for s in sigma:
                if contains(pi, s):
                    return False, pi, s
    return True, None, None


class TestWitnessOrder:
    @pytest.mark.parametrize(
        "templates, patterns, witness, witness_pattern",
        [
            # (3, 4, 2, 5, 1) contains both patterns; the first in sigma order is reported
            ("45312:10101", "123,2314", (3, 4, 2, 5, 1), (1, 2, 3)),
            ("45312:10101", "1324", (5, 2, 4, 3, 6, 1), (1, 3, 2, 4)),
            ("12:11", "12", (1, 2), (1, 2)),
            ("231:101", "132", None, None),
        ],
    )
    def test_kernel_matches_scalar_scan(self, templates, patterns, witness, witness_pattern):
        tset, sigma = parse_template_list(templates), parse_pattern_list(patterns)
        cert = certify_avoidance(tset, sigma)
        want = scalar_first_witness(tset, sigma, cert.bound)
        assert want == (witness is None, witness, witness_pattern)
        assert (cert.verified, cert.witness, cert.witness_pattern) == want
        assert cert.verified is (cert.witness is None)
        assert verify_family_avoids(tset, sigma, cert.bound) == want[:2]

    def test_empty_pattern_witness_at_length_zero(self):
        want = scalar_first_witness([T_STACK], [()], 5)
        assert verify_family_avoids([T_STACK], [()], 5) == want[:2] == (False, ())

    def test_kernel_hit_unconfirmed_by_contains_raises(self, monkeypatch):
        # a kernel that flags every row: the first member, (), holds no 132
        monkeypatch.setattr(templates, "_rows_containing", lambda rows, plan, shortest: np.ones(len(rows), dtype=bool))
        with pytest.raises(RuntimeError, match=re.escape("finds a pattern of ((1, 3, 2),) in (), perms.contains does not")):
            certify_avoidance([T_STACK], [(1, 3, 2)])

    def test_clean_scan_unconfirmed_by_contains_raises(self, monkeypatch):
        # a kernel that flags no row: perms.contains finds 12 in the last member checked
        monkeypatch.setattr(templates, "_rows_containing", lambda rows, plan, shortest: np.zeros(len(rows), dtype=bool))
        with pytest.raises(RuntimeError, match=re.escape("finds a pattern of ((1, 2),) in (1, 2), the kernel does not")):
            certify_avoidance([template((1, 2), "11")], [(1, 2)])
        # the 12:00 family is empty past length 2, its bound 4: the last nonempty length is confirmed
        with pytest.raises(RuntimeError, match=re.escape("finds a pattern of ((1, 2),) in (1, 2), the kernel does not")):
            certify_avoidance([template((1, 2), "00")], [(1, 2)])

    def test_clean_scan_confirmed_past_empty_lengths(self, monkeypatch):
        calls = []
        monkeypatch.setattr(templates, "contains", lambda pi, s: calls.append((pi, s)) or contains(pi, s))
        cert = certify_avoidance([template((1, 2), "00")], [(2, 1)])
        assert cert.verified and cert.bound == 4
        assert calls == [((1, 2), (2, 1))]

    def test_one_plan_per_certificate(self, monkeypatch):
        # built once in _first_witness for every length to the bound, and never in the kernel
        plans = []
        for module in (templates, counting):
            monkeypatch.setattr(module, "_plan", lambda groups, build=module._plan: plans.append(groups) or build(groups))
        sigma = parse_pattern_list("2341,2413,2431,3241")
        cert = certify_avoidance(T_PAIR, sigma)
        assert cert.verified and cert.bound == 10
        assert plans == [[pattern_set(sigma)]]

    def test_empty_set_has_no_witness(self):
        assert verify_family_avoids([T_STACK], [], 5) == (True, None)

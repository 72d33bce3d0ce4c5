"""
Counting pattern-avoiding permutations
======================================

A permutation contains a pattern if some subsequence keeps the pattern's
relative order; it avoids the pattern otherwise. This demo counts avoiders
exactly with the insertion-tree engine and checks the counts against the
brute-force oracle.
"""
from patavoid import (
    contains,
    count_avoiders,
    count_avoiders_naive,
    enumerate_avoiders,
    flatten,
)

# the subsequence 2, 9, 7, 5 of the long permutation reads like 1, 4, 3, 2
pi = (2, 1, 9, 3, 7, 8, 6, 4, 5)
print("flatten (2, 9, 7, 5)  ->", flatten((2, 9, 7, 5)))
print("pi contains 1432?     ->", contains(pi, (1, 4, 3, 2)))

# single pattern 132: the counts are the Catalan numbers
catalan = count_avoiders([(1, 3, 2)], 12)
print("\n|Av_n(132)| for n = 0..12:")
print(" ", ",".join(str(c) for c in catalan.counts))

# the length-3 avoiders themselves
print("\nAv_3(132) =", sorted(enumerate_avoiders([(1, 3, 2)], 3)))

# the pruned tree and the n!-filter oracle agree wherever the oracle reaches
sigma = [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2), (4, 2, 3, 1)]
fast = count_avoiders(sigma, 7).counts
slow = count_avoiders_naive(sigma, 7).counts
print("\nfour length-4 patterns, pruned:", fast)
print("four length-4 patterns, naive: ", slow)
assert fast == slow

# many patterns kill the classes quickly
print("\n|Av_n({12, 21})|:", count_avoiders([(1, 2), (2, 1)], 4).counts)
print("|Av_n({123, 321})|:", count_avoiders([(1, 2, 3), (3, 2, 1)], 8).counts)

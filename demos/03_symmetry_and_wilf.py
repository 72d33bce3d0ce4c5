"""
Symmetry classes and Wilf fingerprints
======================================

The eight symmetries of the permutation matrix preserve avoidance counts,
so pattern sets come in classes whose members are trivially
Wilf-equivalent. This demo reproduces the full survey of 4-subsets of the
length-4 patterns: 1524 symmetry classes, then counts each representative
to n = 10 and clusters the counting fingerprints, a lower bound on the
number of Wilf classes. All 1524 representatives are counted together in
one shared insertion tree, which takes a few seconds.
"""
import collections

from patavoid import (
    SYMMETRIES,
    apply_symmetry,
    canonicalize_set,
    enumerate_symmetry_classes,
    polynomial_scan,
    wilf_survey,
)

# warming up: one pattern of length 3 splits into two classes
for record in enumerate_symmetry_classes(1, 3):
    print(f"class of {record.patterns}: orbit size {record.orbit_size}")

sigma = [(1, 3, 2), (2, 1, 4, 3)]
print("\nimages of {132, 2143}:")
for g in SYMMETRIES:
    print(f"  {g:28s} {[apply_symmetry(g, p) for p in sigma]}")
print("canonical form:", canonicalize_set(sigma))

# the full campaign: 10626 subsets fold into 1524 classes
records = enumerate_symmetry_classes(4, 4)
sizes = collections.Counter(r.orbit_size for r in records)
print(f"\n4-subsets of the 24 length-4 patterns: {sum(r.orbit_size for r in records)}")
print(f"symmetry classes: {len(records)}; orbit-size histogram: {dict(sorted(sizes.items()))}")

print("\ncounting every representative to n = 10 in one shared tree...")
clustering = wilf_survey(records, 10)
print(f"distinct fingerprints at horizon 10: {clustering.num_distinct}")
print("(equal fingerprints are necessary, not sufficient, for Wilf")
print(" equivalence, so this is a lower bound on the Wilf class count)")

# how many classes look polynomial over the whole window
flagged = polynomial_scan(records, 10, 7)
by_degree = collections.Counter(degree for _, degree in flagged)
print(f"\nclasses polynomial over the full window: {len(flagged)}")
print("by degree:", dict(sorted(by_degree.items())))
example = flagged[0]
print(f"example: {example[0]} has degree {example[1]}")

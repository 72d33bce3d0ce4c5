"""
patavoid: exact enumeration of pattern-avoiding permutations.

Core objects are plain tuples (permutations in one-line notation over 1..n)
and tuples of them (pattern sets). The package covers:

- containment/avoidance tests and the eight matrix symmetries (perms);
- exact avoider counting and enumeration via a pruned insertion tree grown
  level by level in numpy, one tree shared by many pattern sets, and
  brute-force and tree oracles (counting);
- template-generated permutation families, their finite avoidance
  certificates, and the three-segment counting recurrences (templates);
- classification of counting sequences: eventually zero, eventually
  polynomial, or Fibonacci-with-drift (seqanalysis);
- survey campaigns: symmetry classes, Wilf fingerprint lower bounds,
  polynomial scans, and seeded random experiments (survey);
- named reproduction checks for the published figures (claims), also
  available as ``patavoid reproduce <claim>`` on the command line.
"""

from .counting import (
    BudgetExceededError,
    CountSequence,
    DEFAULT_NODE_BUDGET,
    count_avoiders,
    count_avoiders_many,
    count_avoiders_naive,
    enumerate_avoiders,
)
from .perms import (
    SYMMETRIES,
    PatternSet,
    Perm,
    all_perms,
    apply_symmetry,
    apply_symmetry_to_set,
    avoids,
    canonicalize_set,
    contains,
    flatten,
    format_perm,
    parse_pattern_list,
    parse_perm,
    pattern_set,
    perm,
    symmetry_classes,
    symmetry_orbit,
)
from .seqanalysis import (
    ClassificationReport,
    FibLikeFit,
    PolynomialFit,
    classify,
    detect_eventual_polynomial,
    detect_fib_like,
)
from .survey import (
    ExperimentResult,
    SurveyRecord,
    WilfClustering,
    enumerate_symmetry_classes,
    polynomial_scan,
    random_experiment,
    read_survey,
    run_survey_to_file,
    sample_pattern_subset,
    wilf_survey,
)
from .templates import (
    Certificate,
    Template,
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

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Certificate",
    "ClassificationReport",
    "CountSequence",
    "DEFAULT_NODE_BUDGET",
    "ExperimentResult",
    "FibLikeFit",
    "PatternSet",
    "Perm",
    "PolynomialFit",
    "SYMMETRIES",
    "SurveyRecord",
    "Template",
    "WilfClustering",
    "all_perms",
    "apply_symmetry",
    "apply_symmetry_to_set",
    "avoids",
    "canonicalize_set",
    "certification_bound",
    "certify_avoidance",
    "classify",
    "contains",
    "count_avoiders",
    "count_avoiders_many",
    "count_avoiders_naive",
    "detect_eventual_polynomial",
    "detect_fib_like",
    "enumerate_avoiders",
    "enumerate_symmetry_classes",
    "flatten",
    "format_perm",
    "generate_family",
    "parse_pattern_list",
    "parse_perm",
    "parse_template",
    "parse_template_list",
    "pattern_set",
    "perm",
    "polynomial_scan",
    "random_experiment",
    "read_survey",
    "run_survey_to_file",
    "sample_pattern_subset",
    "symmetry_classes",
    "symmetry_orbit",
    "template",
    "template_set",
    "three_segment_counts",
    "verify_family_avoids",
    "wilf_survey",
]

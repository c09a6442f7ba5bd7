"""Exact counting, enumeration, and verification for weighted Schreier-type
set families.

A finite set of positive integers is Schreier when its minimum is at least
its size.  Zero-weighting chosen elements relaxes the size so that whole
families of such sets are counted by Fibonacci-flavored closed forms; this
package computes those counts three independent ways (closed form, column
recurrence, brute-force enumeration), exposes the structure-preserving maps
that explain them, and ships verification suites that re-check every
identity against the oracles.
"""

from .closed_forms import (
    CaseCounts,
    band_count,
    closed_count,
    closed_table,
    diagonal_count,
    diagonal_double_sum,
    family_k_case_counts,
    family_k_count,
    ratio_recurrence,
    recurrence_table,
)
from .bijections import (
    BijectionReport,
    column_shift,
    diag_shift,
    diag_swap,
    shift_by_one,
    two_level_step,
    verify_partition,
)
from .core import binom, fib, fib_binom_convolution
from .enumeration import (
    count_family_a,
    count_family_a_grid,
    count_ratio_family,
    enumerate_family_a,
    enumerate_family_k,
    enumerate_ratio_family,
    oracle_cap,
    scan_once,
    stream_family_a,
    stream_family_k,
    stream_ratio_family,
)
from .errors import DomainError, SizeLimitError
from .finite_sets import (
    FiniteSet,
    SchreierClass,
    classify,
    in_family_a,
    in_family_k,
    in_weighted_family,
    weight,
)
from .partial_sums import (
    fib_partial_sum_closed,
    iterated_partial_sum,
    repeated_partial_sum,
    seeded_partial_sum,
)
from .verify import Report, run_suite

__version__ = "0.1.0"

__all__ = [
    "BijectionReport",
    "CaseCounts",
    "DomainError",
    "FiniteSet",
    "Report",
    "SchreierClass",
    "SizeLimitError",
    "band_count",
    "binom",
    "classify",
    "closed_count",
    "closed_table",
    "column_shift",
    "count_family_a",
    "count_family_a_grid",
    "count_ratio_family",
    "diag_shift",
    "diag_swap",
    "diagonal_count",
    "diagonal_double_sum",
    "enumerate_family_a",
    "enumerate_family_k",
    "enumerate_ratio_family",
    "family_k_case_counts",
    "family_k_count",
    "fib",
    "fib_binom_convolution",
    "fib_partial_sum_closed",
    "in_family_a",
    "in_family_k",
    "in_weighted_family",
    "iterated_partial_sum",
    "oracle_cap",
    "ratio_recurrence",
    "recurrence_table",
    "repeated_partial_sum",
    "run_suite",
    "scan_once",
    "seeded_partial_sum",
    "shift_by_one",
    "stream_family_a",
    "stream_family_k",
    "stream_ratio_family",
    "two_level_step",
    "verify_partition",
    "weight",
]

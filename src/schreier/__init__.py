"""Exact counting, enumeration, and verification for weighted Schreier-type
set families.

A finite set of positive integers is Schreier when its minimum is at least
its size.  Zero-weighting chosen elements relaxes the size so that whole
families of such sets are counted by Fibonacci-flavored closed forms; this
package computes those counts three independent ways (closed form, column
recurrence, brute-force enumeration), exposes the structure-preserving maps
that explain them, and ships verification suites that re-check every
identity against the oracles.

``import schreier`` loads ``core``, ``errors``, ``closed_forms`` and
``enumeration``: all that the ``table``, ``enumerate`` and ``sequence``
commands run.  The public names of ``finite_sets``, ``bijections``,
``partial_sums`` and ``verify`` resolve on first access, which imports their
module, so the verification machinery loads only for a caller that uses it,
such as the ``verify`` command.
"""

import importlib

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

# The public names of the modules that only verification and library callers
# use, each resolved by importing its module on first access (PEP 562).
_LAZY = {
    name: module
    for module, names in {
        "bijections": (
            "BijectionReport",
            "column_shift",
            "diag_shift",
            "diag_swap",
            "shift_by_one",
            "two_level_step",
            "verify_partition",
        ),
        "finite_sets": (
            "FiniteSet",
            "SchreierClass",
            "classify",
            "in_family_a",
            "in_family_k",
            "in_weighted_family",
            "weight",
        ),
        "partial_sums": (
            "fib_partial_sum_closed",
            "iterated_partial_sum",
            "repeated_partial_sum",
            "seeded_partial_sum",
        ),
        "verify": ("Report", "run_suite"),
    }.items()
    for name in names
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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

"""Acceptance gate: every headline behaviour checked end to end, with budgets.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE PASS: <name>`` / ``ACCEPTANCE FAIL: <name>`` line (visible with
``pytest -s`` or in the captured output of a failing run).  Time budgets are
asserted inside the tests, so a formula that silently degrades to brute-force
speed fails the gate rather than just running long.
"""

import csv
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager

from schreier.closed_forms import closed_count, recurrence_table
from schreier.enumeration import count_family_a, enumerate_family_k, stream_family_k
from schreier.verify import run_suite

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1.csv"

# (identity, checks) of every report of a suite at its default ranges, so no
# range can shrink unnoticed.
DEFAULT_CHECKS = {
    "thm1_1": [
        ("diagonal-count-vs-enumeration", 22),
        ("diagonal-closed-vs-double-sum-vs-2fib", 500),
        ("diagonal-partition", 15),
    ],
    "thm1_2": [("closed-vs-both-oracles", 240), ("worked-expansion-(4,10)", 6)],
    "thm1_3": [("band-vs-closed-vs-2fib", 11904)],
    "thm1_4": [
        ("pinned-count-vs-enumeration", 21),
        ("pinned-case-split", 60),
        ("pinned-partition", 16),
        ("pinned-min2-members", 16),
        ("pinned-min3-members", 16),
    ],
    "rec3_1": [("recurrence-interior-vs-closed", 363), ("column-partition", 77)],
    "lemma3_3": [("seeded-difference", 36600)],
    "lemma3_4": [("term-bump-difference", 36600)],
    "lemma3_5": [("shifted-fib-transform", 793)],
    "eq3_8": [("column-minus-transformed-first-row", 189)],
    "eq3_9": [("fib-transform-closed-vs-operator", 793)],
    "mpq": [(f"ratio-recurrence-p{p}q{q}", 18) for p in (1, 2, 3) for q in (1, 2, 3)],
    "identities": [
        ("hockey-stick", 1891),
        ("fib-antidiagonal", 201),
        ("fib-binom-collapse", 5174),
        ("weighted-family-decomposition", 163840),
    ],
}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds:.0f}s"


def check_suite(name, seconds):
    """Run a suite at its default ranges within the budget: every report
    passes, with exactly the identities and check counts pinned above."""
    with budget(seconds):
        reports = run_suite(name)
    for report in reports:
        assert report.passed, report.render()
    assert [(r.identity, r.checks) for r in reports] == DEFAULT_CHECKS[name]


def golden_grid():
    with GOLDEN.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "k\\n"
    return [[int(v) for v in row[1:]] for row in rows[1:]]


def test_published_table_three_sources():
    with criterion("published-table-three-sources"):
        want = golden_grid()
        with budget(5):
            closed = [[closed_count(k, n) for n in range(1, 17)] for k in range(1, 8)]
            rec = recurrence_table(7, 16)
            oracle = [
                [count_family_a(k, n) for n in range(1, 17)]
                for k in range(1, 8)
            ]
        assert closed == want
        assert rec == want
        assert oracle == want


def test_diagonal_is_twice_fibonacci():
    # diagonal count against the oracle and the double sum, and the
    # diagonal partition
    with criterion("diagonal-twice-fibonacci"):
        check_suite("thm1_1", 60)


def test_worked_example_and_oracle_grid():
    with criterion("worked-example-and-oracle-grid"):
        check_suite("thm1_2", 60)


def test_band_is_twice_fibonacci():
    with criterion("band-twice-fibonacci"):
        check_suite("thm1_3", 10)


def test_pinned_family_count_and_cases():
    # count, case split, partition and the min-2 / min-3 member claims
    with criterion("pinned-family-count-and-cases"):
        check_suite("thm1_4", 120)
        for n in range(2, 23):
            for route, members in (
                ("naive", enumerate_family_k(n)),
                ("structured", stream_family_k(n)[1]),
            ):
                assert all(max(E) == n for E in members), f"n={n} {route}"


def test_partition_bijections():
    # the column partition with its recurrence; the diagonal and pinned
    # partitions run in the thm1_1 and thm1_4 suites above
    with criterion("partition-bijections"):
        check_suite("rec3_1", 60)


def test_partial_sum_lemmas():
    with criterion("partial-sum-lemmas"):
        with budget(10):
            for name in ("lemma3_3", "lemma3_4", "lemma3_5", "eq3_8", "eq3_9"):
                check_suite(name, 10)


def test_identity_suite():
    with criterion("identity-suite"):
        check_suite("identities", 10)


def test_ratio_recurrence_matches_oracle():
    with criterion("ratio-recurrence-vs-oracle"):
        check_suite("mpq", 30)


def test_deterministic_output():
    with criterion("deterministic-output"):
        args = [
            sys.executable, "-m", "schreier",
            "table", "--k-max", "7", "--n-max", "16", "--format", "csv",
        ]
        first = subprocess.run(args, capture_output=True, timeout=120)
        second = subprocess.run(args, capture_output=True, timeout=120)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout == GOLDEN.read_bytes()

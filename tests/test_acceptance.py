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

from schreier.bijections import verify_partition
from schreier.closed_forms import (
    band_count,
    closed_count,
    diagonal_count,
    diagonal_double_sum,
    family_k_case_counts,
    family_k_count,
    ratio_recurrence,
    recurrence_table,
)
from schreier.core import binom, fib
from schreier.enumeration import (
    count_family_a,
    count_ratio_family,
    enumerate_family_k,
)
from schreier.verify import run_suite

GOLDEN = pathlib.Path(__file__).parent / "data" / "table1.csv"


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
            cells = recurrence_table(7, 16)
            rec = [[0] * 16 for _ in range(7)]
            for cell in cells:
                rec[cell.k - 1][cell.n - 1] = cell.value
            oracle = [
                [count_family_a(k, n, "naive") for n in range(1, 17)]
                for k in range(1, 8)
            ]
        assert closed == want
        assert rec == want
        assert oracle == want


def test_diagonal_is_twice_fibonacci():
    with criterion("diagonal-twice-fibonacci"):
        with budget(60):
            for n in range(1, 23):
                enum = count_family_a(n, n, "naive")
                assert enum == 2 * fib(n) == diagonal_count(n), f"n={n}"
        with budget(5):
            for n in range(1, 501):
                assert closed_count(n, n) == diagonal_double_sum(n) == 2 * fib(n), (
                    f"n={n}"
                )


def test_worked_example_and_oracle_grid():
    with criterion("worked-example-and-oracle-grid"):
        convolution = 2 * sum(binom(6, i) * fib(4 - i) for i in range(3))
        top = 2 * binom(6, 3)
        tail = sum(binom(j, 6 - j + 4) for j in range(1, 7))
        assert (convolution, top, tail) == (60, 40, 16)
        assert closed_count(4, 10) == convolution + top + tail == 116

        for k in range(1, 13):
            for n in range(1, 21):
                naive = count_family_a(k, n, "naive")
                assert closed_count(k, n) == naive, f"k={k} n={n}"
                assert count_family_a(k, n, "by_min") == naive, f"k={k} n={n}"


def test_band_is_twice_fibonacci():
    with criterion("band-twice-fibonacci"):
        with budget(10):
            for l in range(0, 31):
                for k in range(l + 2, 401):
                    want = 2 * fib(k + l)
                    assert band_count(k, l) == want, f"k={k} l={l}"
                    assert closed_count(k, k + l) == want, f"k={k} l={l}"


def test_pinned_family_count_and_cases():
    with criterion("pinned-family-count-and-cases"):
        for n in range(2, 23):
            members = enumerate_family_k(n)
            assert len(members) == fib(n - 1) == family_k_count(n), f"n={n}"
            assert all(E.max == n for E in members), f"n={n}"

        for n in range(3, 23):
            split = [0, 0, 0, 0]
            for E in enumerate_family_k(n + 1):
                has2, has3 = 2 in E, 3 in E
                split[0 if has2 and has3 else 1 if has2 else 2 if has3 else 3] += 1
            want = family_k_case_counts(n)
            assert split == [
                want.with_both,
                want.with_two_only,
                want.with_three_only,
                want.with_neither,
            ], f"n={n}"
            assert want.total == fib(n), f"n={n}"


def test_partition_bijections():
    with criterion("partition-bijections"):
        with budget(120):
            for n in range(2, 17):
                report = verify_partition("thm1_1", n)
                assert report.ok, report
            for k in range(2, 9):
                for n in range(max(k, 2) + 1, 17):
                    report = verify_partition("rec3_1", n, k=k)
                    assert report.ok, report
            for n in range(3, 19):
                report = verify_partition("thm1_4", n)
                assert report.ok, report


def test_partial_sum_lemmas():
    with criterion("partial-sum-lemmas"):
        with budget(10):
            for name in ("lemma3_3", "lemma3_4", "lemma3_5", "eq3_8", "eq3_9"):
                for report in run_suite(name):
                    assert report.passed, report.render()


def test_identity_suite():
    with criterion("identity-suite"):
        with budget(10):
            for report in run_suite("identities"):
                assert report.passed, report.render()


def test_ratio_recurrence_matches_oracle():
    with criterion("ratio-recurrence-vs-oracle"):
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                for n in range(1, 19):
                    assert ratio_recurrence(p, q, n) == count_ratio_family(p, q, n), (
                        f"p={p} q={q} n={n}"
                    )


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

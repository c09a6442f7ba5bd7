"""Closed forms and recurrences against the brute-force oracles."""

import math
import time

import pytest

from schreier import closed_forms
from schreier.closed_forms import (
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
from schreier.core import binom, fib
from schreier.enumeration import (
    _ratio_parts,
    count_family_a,
    count_family_a_grid,
    count_ratio_family,
    enumerate_family_k,
    stream_family_a,
)
from schreier.errors import DomainError, SizeLimitError


def test_closed_count_frozen_values():
    assert closed_count(4, 10) == 116
    assert closed_count(2, 3) == 4
    assert closed_count(5, 5) == 10
    assert closed_count(1, 16) == 1598
    assert closed_count(7, 6) == 13  # beyond the diagonal: F(7)


def test_closed_count_matches_both_oracles():
    for k in range(1, 11):
        for n in range(1, 13):
            want = count_family_a(k, n)
            assert closed_count(k, n) == want
            assert stream_family_a(k, n)[0] == want


def test_closed_count_beyond_diagonal_is_fibonacci():
    for n in range(1, 40):
        for k in (n + 1, n + 5, 3 * n + 2):
            assert closed_count(k, n) == fib(n + 1)


def test_diagonal_count_values():
    assert diagonal_count(1) == 2
    assert diagonal_count(5) == 10
    assert diagonal_count(30) == 1664080
    for n in range(1, 60):
        assert diagonal_count(n) == 2 * fib(n)


def test_diagonal_double_sum_matches_diagonal():
    assert diagonal_double_sum(1) == 2
    assert diagonal_double_sum(5) == 10
    assert diagonal_double_sum(16) == 1974
    for n in range(1, 601):
        assert diagonal_double_sum(n) == diagonal_count(n), n


def test_diagonal_double_sum_is_the_literal_double_sum():
    # 2 + 2 sum_{k=1..n-1} sum_{j=0..k-2} C(n-k-1, j), term by term.
    for n in range(1, 151):
        literal = 2 + 2 * sum(
            math.comb(n - k - 1, j) for k in range(1, n) for j in range(0, k - 1)
        )
        assert diagonal_double_sum(n) == literal, n


def test_closed_forms_keeps_no_module_level_table():
    diagonal_double_sum(600)
    kept = [
        name
        for name, value in vars(closed_forms).items()
        if not name.startswith("__") and isinstance(value, (list, dict, set))
    ]
    assert kept == []


def test_band_count_values_and_domain():
    assert band_count(6, 1) == 26
    assert band_count(2, 0) == 2
    for l in range(0, 7):
        for k in range(l + 2, 45):
            assert band_count(k, l) == closed_count(k, k + l)
    with pytest.raises(DomainError):
        band_count(3, -1)
    with pytest.raises(DomainError):
        band_count(3, 2)


def test_recurrence_table_matches_closed_form():
    grid = recurrence_table(7, 16)
    # one row per k, one column per n: grid[k-1][n-1] == a(k, n)
    assert len(grid) == 7
    assert all(len(row) == 16 for row in grid)
    for k, row in enumerate(grid, start=1):
        for n, value in enumerate(row, start=1):
            assert value == closed_count(k, n), (k, n)


def test_recurrence_table_seeded_and_interior_cells():
    grid = recurrence_table(4, 10)
    assert grid[0][6] == 22  # a(1, 7): the k=1 row comes from the closed form
    assert grid[1][4] == grid[1][3] + grid[0][2]  # a(2, 5) = a(2, 4) + a(1, 3)
    assert grid[1][4] == 11  # 11 = 7 + 4
    with pytest.raises(DomainError):
        recurrence_table(0, 5)
    with pytest.raises(DomainError):
        recurrence_table(5, 0)


@pytest.mark.parametrize(
    "k_max, n_max", [(1, 1), (1, 300), (300, 1), (3, 300), (300, 3), (60, 60)]
)
def test_closed_table_equals_closed_count_cell_by_cell(k_max, n_max):
    grid = closed_table(k_max, n_max)
    assert [len(row) for row in grid] == [n_max] * k_max
    for k, row in enumerate(grid, start=1):
        for n, value in enumerate(row, start=1):
            assert value == closed_count(k, n), (k, n)


def test_closed_table_equals_closed_count_on_every_small_shape():
    cells = [[closed_count(k, n) for n in range(1, 41)] for k in range(1, 41)]
    for k_max in range(1, 41):
        for n_max in range(1, 41):
            want = [row[:n_max] for row in cells[:k_max]]
            assert closed_table(k_max, n_max) == want, (k_max, n_max)


def test_closed_table_equals_recurrence_table_at_260():
    assert closed_table(260, 260) == recurrence_table(260, 260)


def test_closed_table_thin_shape_near_the_cap():
    # 2 x 900 is close to the cap; its packed rows are as long as the walk's.
    grid = closed_table(2, 900)
    assert [row[-1] for row in grid] == [closed_count(1, 900), closed_count(2, 900)]


def test_closed_count_far_cell_meets_the_column_recurrence():
    # The ratio steps never use a(k, n) = a(k, n-1) + a(k-1, n-2).
    start = time.perf_counter()
    assert closed_count(5, 40_000) == closed_count(5, 39_999) + closed_count(4, 39_998)
    assert time.perf_counter() - start < 10


def test_closed_table_matches_recurrence_and_oracle_grid():
    grid = closed_table(12, 20)
    assert grid == recurrence_table(12, 20)
    assert grid == count_family_a_grid(12, 20)


def test_closed_table_domain():
    for k_max, n_max in ((0, 5), (5, 0), (-1, 3)):
        with pytest.raises(DomainError):
            closed_table(k_max, n_max)


def test_count_grids_are_refused_by_size_before_any_cell():
    # Each cell at column n is below 2^n, and closed_table's walk also moves
    # packed Pascal rows 0..n_max-2, so both are bounded up front.
    for build, k_max, n_max in (
        (recurrence_table, 100_000, 100_000),
        (closed_table, 2, 1_000_000),
        (closed_table, 2, 10_000),
    ):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            build(k_max, n_max)
        assert time.perf_counter() - start < 1, (build, k_max, n_max)
    # A single row needs no walk: it is bounded like the recurrence grid.
    assert closed_table(1, 2_000)[0][-1] == fib(2_001) + 1


def test_family_k_count_values():
    assert family_k_count(2) == 1
    assert family_k_count(5) == 3
    assert family_k_count(16) == 610
    with pytest.raises(DomainError):
        family_k_count(1)


def test_family_k_case_counts_values():
    assert family_k_case_counts(3) == (1, 0, 0, 1)
    assert family_k_case_counts(4) == (1, 0, 1, 1)
    assert family_k_case_counts(10)._asdict() == {
        "with_both": 1, "with_two_only": 0, "with_three_only": 7, "with_neither": 47,
    }
    for n in range(3, 30):
        assert family_k_case_counts(n).total == fib(n)
    with pytest.raises(DomainError):
        family_k_case_counts(2)


def test_family_k_case_counts_match_enumeration():
    for n in range(3, 13):
        want = family_k_case_counts(n)
        both = two_only = three_only = neither = 0
        for E in enumerate_family_k(n + 1):
            has2, has3 = 2 in E, 3 in E
            if has2 and has3:
                both += 1
            elif has2:
                two_only += 1
            elif has3:
                three_only += 1
            else:
                neither += 1
        assert (both, two_only, three_only, neither) == want


def test_ratio_recurrence_matches_oracle():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for n in range(1, 13):
                assert ratio_recurrence(p, q, n) == count_ratio_family(p, q, n)


def test_ratio_recurrence_seeds_its_base_past_the_oracle_cap():
    # The base runs to n = 26, past a full scan of its level's 2^25 subsets;
    # the part sums seed it with no scan.  The oracle's split tally reaches
    # level 26 and agrees, but refuses level 48, and level 40's own part sum
    # agrees.
    assert ratio_recurrence(13, 14, 26) == count_ratio_family(13, 14, 26)
    with pytest.raises(SizeLimitError):
        count_ratio_family(13, 14, 48)
    parts = _ratio_parts(13, 14, 40)
    assert ratio_recurrence(13, 14, 40) == sum(binom(40 - lo, r) for _, r, lo in parts)
    assert ratio_recurrence(13, 14, 40) == 119_724_514


def test_ratio_recurrence_frozen_sequences():
    assert [ratio_recurrence(1, 1, n) for n in range(1, 19)] == [
        fib(n) for n in range(1, 19)
    ]
    assert [ratio_recurrence(1, 2, n) for n in range(1, 11)] == [
        1, 2, 3, 5, 9, 16, 28, 49, 86, 151,
    ]
    assert [ratio_recurrence(2, 1, n) for n in range(1, 11)] == [
        0, 1, 1, 1, 2, 3, 4, 6, 9, 13,
    ]


def test_ratio_recurrence_domain():
    with pytest.raises(DomainError):
        ratio_recurrence(0, 1, 3)
    with pytest.raises(DomainError):
        ratio_recurrence(1, 1, 0)

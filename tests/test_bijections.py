"""Structure-preserving maps and the oracle-driven partition checks."""

import pytest

from schreier.bijections import (
    BijectionReport,
    _check_partition,
    column_shift,
    diag_shift,
    diag_swap,
    shift_by_one,
    two_level_step,
    verify_partition,
)
from schreier.enumeration import enumerate_family_a
from schreier.errors import DomainError, SizeLimitError
from schreier.finite_sets import FiniteSet, in_weighted_family


def test_diag_shift_examples():
    assert diag_shift(FiniteSet(), 2) == FiniteSet.of(3)
    assert diag_shift(FiniteSet.of(2, 3), 4) == FiniteSet.of(3, 4, 5)
    with pytest.raises(DomainError):
        diag_shift(FiniteSet.of(2, 3), 3)  # max exceeds the (n-1)-diagonal
    with pytest.raises(DomainError):
        diag_shift(FiniteSet(), 1)


def test_diag_shift_images_stay_admissible():
    for n in range(2, 13):
        for F in enumerate_family_a(n - 1, n - 1):
            image = diag_shift(F, n)
            assert in_weighted_family(image, n + 1)
            assert image.max == n + 1


def test_diag_swap_examples():
    assert diag_swap(FiniteSet(), 3) == FiniteSet()
    assert diag_swap(FiniteSet.of(3, 5), 5) == FiniteSet.of(3, 5)  # nonmaximal fixed
    assert diag_swap(FiniteSet.of(2, 4), 4) == FiniteSet.of(2, 5)  # maximal swaps top
    with pytest.raises(DomainError):
        diag_swap(FiniteSet.of(1, 2), 4)  # not in the family


def test_column_shift_examples():
    assert column_shift(FiniteSet.of(2), 2, 5) == FiniteSet.of(3, 5)
    assert column_shift(FiniteSet(), 2, 5) == FiniteSet.of(5)
    with pytest.raises(DomainError):
        column_shift(FiniteSet.of(2), 1, 5)
    with pytest.raises(DomainError):
        column_shift(FiniteSet.of(2), 2, 2)
    with pytest.raises(DomainError):
        column_shift(FiniteSet.of(9), 2, 5)  # outside the (k-1, n-2) family


def test_shift_by_one():
    assert shift_by_one(FiniteSet.of(2, 3)) == FiniteSet.of(3, 4)
    with pytest.raises(DomainError):
        shift_by_one(FiniteSet())


def test_two_level_step_cases():
    assert two_level_step(FiniteSet.of(3), 4) == FiniteSet.of(2, 3, 5)
    assert two_level_step(FiniteSet.of(2, 3, 4), 5) == FiniteSet.of(3, 5, 6)
    assert two_level_step(FiniteSet.of(3, 4, 5), 6) == FiniteSet.of(3, 6, 7)
    assert two_level_step(FiniteSet.of(4, 5, 8), 9) == FiniteSet.of(5, 6, 7, 10)
    with pytest.raises(DomainError):
        two_level_step(FiniteSet.of(2, 4), 5)  # two-element sets never qualify
    with pytest.raises(DomainError):
        two_level_step(FiniteSet.of(3), 2)


def test_verify_partition_diagonal():
    for n in range(2, 11):
        report = verify_partition("thm1_1", n)
        assert report.ok, report
        assert report.first_violation is None
        assert report.map_name == "diag_shift+diag_swap"


def test_verify_partition_column():
    report = verify_partition("rec3_1", 5, k=2)
    assert (
        report.well_defined,
        report.injective,
        report.surjective,
        report.disjoint,
    ) == (True, True, True, True)
    for k in (2, 3, 4):
        for n in range(max(k, 2) + 1, 12):
            assert verify_partition("rec3_1", n, k=k).ok


def test_verify_partition_pinned():
    for n in range(3, 12):
        report = verify_partition("thm1_4", n)
        assert report.ok, report
        assert report.n == n


def test_verify_partition_argument_errors():
    with pytest.raises(DomainError):
        verify_partition("nope", 5)
    with pytest.raises(DomainError):
        verify_partition("thm1_1", 5, k=3)
    with pytest.raises(DomainError):
        verify_partition("rec3_1", 5)
    with pytest.raises(DomainError):
        verify_partition("rec3_1", 3, k=3)
    with pytest.raises(DomainError):
        verify_partition("thm1_4", 2)
    with pytest.raises(DomainError):
        verify_partition("thm1_1", 1)


def test_verify_partition_size_caps():
    # the largest level scans 2**(n+1) subsets for thm1_1, 2**n for the others
    with pytest.raises(SizeLimitError):
        verify_partition("thm1_1", 24)
    with pytest.raises(SizeLimitError):
        verify_partition("rec3_1", 25, k=2)
    with pytest.raises(SizeLimitError):
        verify_partition("thm1_4", 25)
    with pytest.raises(SizeLimitError):
        verify_partition("thm1_4", 10**9)


def _tiny(*sets):
    return [FiniteSet.from_iterable(s) for s in sets]


def test_check_partition_flags_overlap_and_gaps():
    # identity maps with overlapping images: disjointness must fail and the
    # uncovered codomain member must be reported.
    dom = _tiny({1}, {2})
    codom = _tiny({1}, {2}, {3})
    report = _check_partition(
        "broken", 0, None, (dom, lambda F: F), (dom, lambda F: F), codom
    )
    assert isinstance(report, BijectionReport)
    assert report.well_defined
    assert report.injective
    assert not report.disjoint
    assert not report.surjective
    assert not report.ok
    assert report.first_violation is not None


def test_check_partition_flags_bad_images_and_collisions():
    dom = _tiny({1}, {2})
    codom = _tiny({7},)
    collapse = lambda F: FiniteSet.of(7)
    outside = lambda F: FiniteSet.of(9)
    report = _check_partition("broken", 0, None, (dom, collapse), ([], lambda F: F), codom)
    assert not report.injective
    report = _check_partition("broken", 0, None, ([], lambda F: F), (dom, outside), codom)
    assert not report.well_defined
    witness, reason = report.first_violation
    assert witness == FiniteSet.of(1)
    assert "outside" in reason


def test_check_partition_reports_map_failures_not_skips():
    def exploding(F):
        raise DomainError("boom")

    dom = _tiny({1})
    report = _check_partition("broken", 0, None, (dom, exploding), ([], lambda F: F), dom)
    assert not report.well_defined
    assert report.first_violation[0] == FiniteSet.of(1)
    assert "map failed" in report.first_violation[1]

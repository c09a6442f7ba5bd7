"""Structure-preserving maps and the oracle-driven partition checks."""

import pytest

from schreier import bijections, enumeration
from schreier.bijections import (
    BijectionReport,
    _check_masks,
    column_shift,
    diag_shift,
    diag_swap,
    shift_by_one,
    two_level_step,
    verify_partition,
)
from schreier.closed_forms import closed_count
from schreier.enumeration import (
    count_family_a,
    enumerate_family_a,
    enumerate_family_k,
    scan_once,
)
from schreier.errors import DomainError, SizeLimitError
from schreier.finite_sets import FiniteSet, SchreierClass, classify, in_weighted_family


def test_diag_shift_examples():
    assert diag_shift(FiniteSet(), 2) == FiniteSet.of(3)
    assert diag_shift(FiniteSet.of(2, 3), 4) == FiniteSet.of(3, 4, 5)
    with pytest.raises(DomainError):
        diag_shift(FiniteSet.of(2, 3), 3)  # max exceeds the (n-1)-diagonal
    with pytest.raises(DomainError):
        diag_shift(FiniteSet(), 1)


def test_diag_shift_images_stay_admissible():
    for n in range(2, 13):
        for E in enumerate_family_a(n - 1, n - 1):
            image = diag_shift(FiniteSet(E), n)
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


def _masks(*sets):
    return [bijections._mask_of(FiniteSet.of(*s)) for s in sets]


def _identity(m):
    return m


def _flags(report):
    return report.well_defined, report.injective, report.surjective, report.disjoint


def test_check_masks_names_an_image_outside_the_codomain():
    # {1,2} comes first by mask, {3} in EnumOrder
    dom = _masks((1, 2), (3,))
    report = _check_masks("broken", 0, None, ([], _identity), (dom, lambda m: m | 1 << 5), dom)
    assert isinstance(report, BijectionReport) and not report.ok
    assert _flags(report) == (False, True, False, True)
    assert report.first_violation == (FiniteSet.of(3), "image {3,6} outside the codomain")


def test_check_masks_names_a_repeated_image():
    # EnumOrder reads {1}, {1,4}, {2,3}; mask order reads {1}, {2,3}, {1,4}
    dom = _masks((2, 3), (1, 4), (1,))
    report = _check_masks("broken", 0, None, (dom, lambda m: 1), ([], _identity), _masks((1,)))
    assert _flags(report) == (True, False, True, True)
    assert report.first_violation == (FiniteSet.of(1, 4), "image {1} repeats that of {1}")


def test_check_masks_flags_overlap_and_gap_at_once():
    # identity maps on the same domain: the images overlap and miss {1,2}
    # and {5}; the overlap is named first, at {1,4} before {2,3}
    dom = _masks((2, 3), (1, 4))
    codom = _masks((1, 2), (2, 3), (1, 4), (5,))
    report = _check_masks("broken", 0, None, (dom, _identity), (dom, _identity), codom)
    assert _flags(report) == (True, True, False, False)
    assert report.first_violation == (
        FiniteSet.of(1, 4),
        "image {1,4} also produced by the first map",
    )
    # with the overlap gone, the gap is named at {5}, first in EnumOrder
    report = _check_masks("broken", 0, None, (dom, _identity), ([], _identity), codom)
    assert _flags(report) == (True, True, False, True)
    assert report.first_violation == (FiniteSet.of(5), "not covered by either image")


# -- the mask maps and the shared scan ----------------------------------------


def _sets(members):
    """An oracle's element tuples as FiniteSets, for the maps on sets."""
    return [FiniteSet(E) for E in members]


def _reference_images(kind, n, k):
    """The maps as set operations, each case written out on FiniteSets, for
    the two domains of one level: [(domain, mask map, public map, reference)]."""

    def diag_swap_ref(F):
        if classify(F) in (SchreierClass.EMPTY, SchreierClass.NONMAXIMAL):
            return F
        return F.without_element(n).with_element(n + 1)

    def two_level_ref(F):
        if len(F) == 1:
            return FiniteSet.of(2, 3, n + 1)
        if F.min == 2:
            return FiniteSet.of(3, 5, n + 1)
        if F.min == 3:
            return F.without_element(3).shift(2).with_element(3)
        return F.shift(2).with_element(len(F) + 2)

    if kind == "thm1_1":
        return [
            (
                _sets(enumerate_family_a(n - 1, n - 1)),
                lambda m: bijections._diag_shift_mask(m, n),
                lambda F: diag_shift(F, n),
                lambda F: F.shift(1).with_element(n + 1),
            ),
            (
                _sets(enumerate_family_a(n, n)),
                lambda m: bijections._diag_swap_mask(m, n),
                lambda F: diag_swap(F, n),
                diag_swap_ref,
            ),
        ]
    if kind == "rec3_1":
        return [
            (
                _sets(enumerate_family_a(k - 1, n - 2)),
                lambda m: bijections._column_shift_mask(m, n),
                lambda F: column_shift(F, k, n),
                lambda F: F.shift(1).with_element(n),
            )
        ]
    return [
        (
            _sets(enumerate_family_k(n)),
            bijections._shift_by_one_mask,
            shift_by_one,
            lambda F: F.shift(1),
        ),
        (
            _sets(enumerate_family_k(n - 1)),
            lambda m: bijections._two_level_step_mask(m, n),
            lambda F: two_level_step(F, n),
            two_level_ref,
        ),
    ]


def _default_levels():
    yield from (("thm1_1", n, None) for n in range(2, 17))
    yield from (("rec3_1", n, k) for k in range(2, 9) for n in range(max(k, 2) + 1, 17))
    yield from (("thm1_4", n, None) for n in range(3, 19))


def test_mask_maps_agree_with_the_set_maps_on_every_default_domain():
    members = 0
    for kind, n, k in _default_levels():
        for domain, mask_map, public, reference in _reference_images(kind, n, k):
            for F in domain:
                image = bijections._set_of(mask_map(bijections._mask_of(F)))
                assert image == public(F) == reference(F), (kind, n, k, F)
                members += 1
    assert members > 10_000


def test_a_shared_scan_changes_no_report():
    for kind in ("thm1_1", "rec3_1", "thm1_4"):
        levels = [(n, k) for kind2, n, k in _default_levels() if kind2 == kind]
        alone = [verify_partition(kind, n, k) for n, k in levels]
        with scan_once():
            shared = [verify_partition(kind, n, k) for n, k in levels]
        assert shared == alone
        assert all(r.ok for r in shared)


def _record_scans(monkeypatch):
    """Record every naive scan as (seen, n): the masks from 2**seen to 2**n."""
    scans = []
    masks = enumeration._scan

    def recording(seen, n, what):
        scans.append((seen, n))
        return masks(seen, n, what)

    monkeypatch.setattr(enumeration, "_scan", recording)
    return scans


def test_scan_once_is_shared_only_inside_its_block(monkeypatch):
    scans = _record_scans(monkeypatch)
    # Outside any block a check scans its largest level once, {1..5} for
    # the diagonal at 4, grown through its smaller levels, and keeps nothing.
    for _ in range(2):
        assert verify_partition("thm1_1", 4).ok
        assert scans == [(0, 3), (3, 4), (4, 5)]
        scans.clear()
    with scan_once():
        # rec3_1 reads its largest level, {1..n}, first.
        for n, k in ((5, 3), (10, 3), (9, 4), (6, 2)):
            assert verify_partition("rec3_1", n, k).ok
        assert scans == [(0, 5), (5, 10)]
        assert verify_partition("thm1_1", 4).ok  # another kind reads the same candidates
        with scan_once():  # a nested block shares the outer one
            assert verify_partition("rec3_1", 11, 3).ok  # only the masks past 2**10
        # still kept after the nested block
        assert len(enumerate_family_a(3, 11)) == closed_count(3, 11)
        assert scans == [(0, 5), (5, 10), (10, 11)]
        # count_family_a reads no kept scan: its split tally scans the
        # subsets of {1..5} and of {6..11}, shifted down by 5.
        assert count_family_a(3, 11) == closed_count(3, 11)
        assert scans == [(0, 5), (5, 10), (10, 11), (0, 5), (0, 6)]
    scans.clear()
    assert verify_partition("rec3_1", 5, 3).ok  # after the block, a scan of its own
    assert scans == [(0, 5)]
    scans.clear()
    with scan_once():
        for n in range(3, 9):
            assert verify_partition("thm1_4", n).ok
    assert sorted(scans) == [(n - 1, n) for n in range(2, 10)]  # pinned levels 2..9, once each


def test_scan_once_checks_the_cap_only_when_a_scan_runs(monkeypatch):
    scans = _record_scans(monkeypatch)
    refusals = []
    for _ in range(2):
        with pytest.raises(SizeLimitError) as refused:
            enumerate_family_a(3, 25)
        refusals.append(str(refused.value))
        with pytest.raises(SizeLimitError):
            count_family_a(3, 47)  # the split tally's halves, 2^23 + 2^24 masks
        with scan_once():
            pass  # a block that reads nothing scans nothing
    assert scans == []
    with scan_once():
        assert verify_partition("thm1_1", 5).ok
        with pytest.raises(SizeLimitError) as refused:
            enumerate_family_a(3, 25)  # refused when first read, before any mask
        refusals.append(str(refused.value))
        with pytest.raises(SizeLimitError):
            count_family_a(3, 47)
        with pytest.raises(SizeLimitError):
            enumerate_family_k(26)
        with pytest.raises(SizeLimitError):
            verify_partition("thm1_1", 24)
        with pytest.raises(DomainError):
            verify_partition("rec3_1", 5)  # arguments are checked as outside
        assert verify_partition("thm1_1", 5).ok
    assert scans == [(0, 4), (4, 5), (5, 6)]
    assert len(set(refusals)) == 1


@pytest.mark.parametrize(
    "kind, name, n, k, witness",
    [
        ("thm1_1", "_diag_swap_mask", 8, None, FiniteSet.of(2, 8)),
        ("rec3_1", "_column_shift_mask", 12, 5, FiniteSet.of(2, 4)),
        ("thm1_4", "_two_level_step_mask", 9, None, FiniteSet.of(2, 3, 8)),
    ],
)
def test_a_broken_mask_map_is_caught_with_the_first_witness_in_enum_order(
    monkeypatch, kind, name, n, k, witness
):
    # Sets of two or more elements are sent outside every codomain.  The
    # witness is the first such member of the second domain in EnumOrder,
    # which is not the first in mask order ({3,4} and {3,5,8} come first there).
    mask_map = getattr(bijections, name)

    def broken(m, n):
        return mask_map(m, n) | (1 << (n + 3) if m.bit_count() >= 2 else 0)

    monkeypatch.setattr(bijections, name, broken)
    report = verify_partition(kind, n, k)
    assert not report.well_defined and not report.ok
    assert report.first_violation[0] == witness
    assert "outside the codomain" in report.first_violation[1]
    domain = _reference_images(kind, n, k)[-1][0]
    assert witness == next(F for F in domain if len(F) >= 2)
    with scan_once():  # the second check reads the scans the first kept
        assert verify_partition(kind, n, k) == report == verify_partition(kind, n, k)


def test_a_colliding_mask_map_is_caught_with_the_first_witness_in_enum_order(monkeypatch):
    # Sets of two or more elements go where the empty set goes, inside the
    # codomain.  The witness is the first such member of A(8, 8) in
    # EnumOrder, {2,8}, which is not the first in mask order ({3,4} there).
    mask_map = bijections._diag_swap_mask

    def colliding(m, n):
        return mask_map(0 if m.bit_count() >= 2 else m, n)

    monkeypatch.setattr(bijections, "_diag_swap_mask", colliding)
    report = verify_partition("thm1_1", 8)
    assert report.well_defined and not report.injective and not report.ok
    assert report.first_violation == (FiniteSet.of(2, 8), "image {} repeats that of {}")
    with scan_once():
        assert verify_partition("thm1_1", 8) == report == verify_partition("thm1_1", 8)

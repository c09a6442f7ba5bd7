"""FiniteSet value type and the family membership predicates."""

import pytest
from hypothesis import given, strategies as st

from schreier.errors import DomainError
from schreier.finite_sets import (
    EMPTY,
    FiniteSet,
    SchreierClass,
    classify,
    in_family_a,
    in_family_k,
    in_weighted_family,
    weight,
)

small_sets = st.frozensets(st.integers(1, 30), max_size=8).map(FiniteSet.from_iterable)


def test_construction_sorts_input():
    assert FiniteSet.of(3, 1, 2).elements == (1, 2, 3)
    assert FiniteSet.from_iterable([5, 2]).elements == (2, 5)


def test_construction_rejects_bad_elements():
    with pytest.raises(DomainError):
        FiniteSet.of(0)
    with pytest.raises(DomainError):
        FiniteSet.of(2, 2)
    with pytest.raises(DomainError):
        FiniteSet((3, 2))  # not increasing
    with pytest.raises(DomainError):
        FiniteSet.of(True)
    with pytest.raises(DomainError):
        FiniteSet.of(2.0)


def test_canonical_rendering():
    assert str(FiniteSet()) == "{}"
    assert str(FiniteSet.of(2, 3, 5)) == "{2,3,5}"
    assert str(FiniteSet.of(10)) == "{10}"


def test_min_max_and_emptiness():
    E = FiniteSet.of(4, 2, 9)
    assert (E.min, E.max, len(E)) == (2, 9, 3)
    assert EMPTY.is_empty()
    with pytest.raises(DomainError):
        _ = EMPTY.min
    with pytest.raises(DomainError):
        _ = EMPTY.max


def test_shift_and_element_edits():
    E = FiniteSet.of(2, 3)
    assert E.shift(1) == FiniteSet.of(3, 4)
    assert E.with_element(7) == FiniteSet.of(2, 3, 7)
    assert E.without_element(3) == FiniteSet.of(2)
    with pytest.raises(DomainError):
        E.with_element(2)
    with pytest.raises(DomainError):
        E.without_element(9)
    with pytest.raises(DomainError):
        FiniteSet.of(1).shift(-1)


def test_weight_examples():
    two_three = FiniteSet.of(2, 3)
    assert weight(FiniteSet.of(2, 3, 5), two_three) == 1
    assert weight(FiniteSet.of(1, 4), two_three) == 2
    assert weight(FiniteSet.of(2), FiniteSet.of(2)) == 0
    assert weight(EMPTY, two_three) == 0


@given(small_sets)
def test_weight_of_empty_exclusion_is_cardinality(E):
    assert weight(E, EMPTY) == len(E)


@given(small_sets, small_sets)
def test_weight_is_bounded(E, excl):
    assert 0 <= weight(E, excl) <= len(E)


def test_classify_examples():
    assert classify(EMPTY) is SchreierClass.EMPTY
    assert classify(FiniteSet.of(3, 5)) is SchreierClass.NONMAXIMAL
    assert classify(FiniteSet.of(2, 4)) is SchreierClass.MAXIMAL
    assert classify(FiniteSet.of(1, 2, 3)) is SchreierClass.NON_SCHREIER


def test_in_weighted_family_examples():
    assert in_weighted_family(EMPTY, 1)
    assert not in_weighted_family(FiniteSet.of(1, 2), 3)
    assert in_weighted_family(FiniteSet.of(2, 4), 4)  # weight drops to 1
    assert not in_weighted_family(FiniteSet.of(2, 4), 5)
    with pytest.raises(DomainError):
        in_weighted_family(EMPTY, 0)


@given(small_sets, st.integers(1, 12))
def test_weighted_family_decomposition(E, k):
    cls = classify(E)
    expected = cls in (SchreierClass.EMPTY, SchreierClass.NONMAXIMAL) or (
        cls is SchreierClass.MAXIMAL and k in E
    )
    assert in_weighted_family(E, k) == expected


@given(small_sets, st.integers(1, 12))
def test_weighted_family_ignores_k_above_max(E, k):
    # for k beyond every element the weight is the plain cardinality
    if E.is_empty() or k > E.max:
        assert in_weighted_family(E, k) == (
            classify(E) in (SchreierClass.EMPTY, SchreierClass.NONMAXIMAL)
        )


def test_in_family_a_bounds():
    assert in_family_a(FiniteSet.of(2, 3), 2, 3)
    assert not in_family_a(FiniteSet.of(2, 3), 2, 2)  # max exceeds bound
    assert in_family_a(EMPTY, 5, 1)
    with pytest.raises(DomainError):
        in_family_a(EMPTY, 1, 0)
    # k is checked before the empty set is admitted, as for any other set
    for k in (0, -7):
        with pytest.raises(DomainError):
            in_family_a(EMPTY, k, 5)
    with pytest.raises(DomainError):
        in_family_a(FiniteSet.of(3), 0, 5)


def test_in_family_k_examples():
    assert in_family_k(FiniteSet.of(4), 4)
    assert in_family_k(FiniteSet.of(2, 3, 4), 4)
    assert not in_family_k(FiniteSet.of(2, 4), 4)  # two-element sets excluded
    assert not in_family_k(FiniteSet.of(2, 3, 4), 5)  # max must equal n
    assert not in_family_k(EMPTY, 4)
    assert not in_family_k(FiniteSet.of(1), 1)  # 1 > weight fails
    with pytest.raises(DomainError):
        in_family_k(EMPTY, 0)

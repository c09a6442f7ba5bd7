"""Oracles and structured routes: enumeration order, counts, size caps."""

import time
from collections import Counter
from itertools import accumulate

import pytest

from schreier import enumeration
from schreier.closed_forms import closed_count, closed_table, family_k_count, ratio_recurrence
from schreier.core import binom, fib
from schreier.enumeration import (
    count_family_a,
    count_family_a_grid,
    count_ratio_family,
    enumerate_family_a,
    enumerate_family_k,
    enumerate_ratio_family,
    oracle_cap,
    require_scan_within_cap,
    stream_family_a,
    stream_family_k,
    stream_ratio_family,
)
from schreier.errors import DomainError, SizeLimitError
from schreier.finite_sets import FiniteSet, in_family_a, in_family_k, weight


def canon(members):
    """The canonical renderings of a route's element tuples."""
    return [str(FiniteSet(E)) for E in members]


def enum_order(E):
    """EnumOrder's sort key, for an element tuple or a FiniteSet:
    cardinality first, then lexicographic."""
    return (len(E), tuple(E))


def streamed(route, *args):
    """The members a stream route yields, as a list."""
    return list(route(*args)[1])


def _a_members(k, n):
    """Family A's naive tuple route, as (count, members)."""
    members = enumerate_family_a(k, n)
    return len(members), iter(members)


def _k_members(n):
    """Family K's naive tuple route, as (count, members)."""
    members = enumerate_family_k(n)
    return len(members), iter(members)


def _ratio_members(p, q, n):
    """The ratio family's naive tuple route, as (count, members)."""
    members = enumerate_ratio_family(p, q, n)
    return len(members), iter(members)


@pytest.mark.parametrize(
    "stream, members, args",
    [
        (stream_family_a, _a_members, (3, 12)),
        (stream_family_a, _a_members, (10**12, 9)),
        (stream_family_k, _k_members, (16,)),
        (stream_ratio_family, _ratio_members, (1, 2, 12)),
        (stream_ratio_family, _ratio_members, (3, 1, 14)),
    ],
)
def test_public_streams_wrap_the_tuple_routes(stream, members, args):
    # Each public stream yields plain element tuples: the same count and the
    # same members, in EnumOrder, as its family's naive tuple route.
    count, tuples = stream(*args)
    tuples = list(tuples)
    naive_count, naive = members(*args)
    assert count == naive_count == len(tuples)
    assert all(type(t) is tuple for t in tuples)
    assert tuples == list(naive)
    assert tuples == sorted(tuples, key=enum_order)


def test_enumerate_family_a_small_examples():
    for route in (enumerate_family_a, lambda k, n: streamed(stream_family_a, k, n)):
        assert canon(route(1, 1)) == ["{}", "{1}"]
        assert canon(route(2, 3)) == ["{}", "{2}", "{3}", "{2,3}"]


def test_enumeration_is_in_canonical_order():
    for members in (
        enumerate_family_a(1, 6),
        streamed(stream_family_a, 3, 8),
        enumerate_family_a(5, 9),
    ):
        assert members[0] == ()
        assert members == sorted(members, key=enum_order)
        assert len(set(members)) == len(members)


def test_count_strategies_agree_with_enumeration():
    for n in range(1, 13):
        for k in range(1, max(10, n + 3)):
            naive = count_family_a(k, n)
            enum_naive = len(enumerate_family_a(k, n))
            count, members = stream_family_a(k, n)
            assert naive == enum_naive == count == len(list(members))


def test_structured_enumeration_matches_naive_sets():
    for n in range(1, 15):
        for k in range(1, n + 3):
            assert enumerate_family_a(k, n) == streamed(stream_family_a, k, n), (k, n)


def test_frozen_count_values():
    assert stream_family_a(5, 5)[0] == 10
    assert count_family_a(7, 16) == 1995
    assert stream_family_a(4, 10)[0] == 116
    assert stream_family_a(1, 16)[0] == 1598


def test_count_beyond_diagonal_is_fibonacci():
    for n in range(1, 13):
        for k in (n + 1, n + 2, n + 9):
            assert count_family_a(k, n) == fib(n + 1)
            assert stream_family_a(k, n)[0] == fib(n + 1)


def test_huge_k_costs_what_k_past_n_does():
    # k = 10**12 lies outside {1..n}: no route may build a k-bit mask.
    assert stream_family_a(10**12, 5)[0] == fib(6)
    assert count_family_a(10**12, 5) == fib(6)
    assert len(enumerate_family_a(10**12, 5)) == fib(6)


# Family K's two routes: the naive oracle and the stream's members.
K_ROUTES = (enumerate_family_k, lambda n: streamed(stream_family_k, n))


def test_enumerate_family_k_small_levels():
    for route in K_ROUTES:
        assert canon(route(2)) == ["{2}"]
        assert canon(route(3)) == ["{3}"]
        assert canon(route(4)) == ["{4}", "{2,3,4}"]
        assert canon(route(5)) == ["{5}", "{2,3,5}", "{3,4,5}"]


def test_family_k_sizes_are_fibonacci():
    for route in K_ROUTES:
        assert [len(route(n)) for n in range(2, 17)] == [fib(n - 1) for n in range(2, 17)]


def test_family_k_members_have_pinned_max():
    for route in K_ROUTES:
        for n in (6, 9, 12):
            for E in route(n):
                assert max(E) == n
                assert len(E) != 2


def test_structured_family_k_matches_naive():
    for n in range(2, 21):
        assert streamed(stream_family_k, n) == enumerate_family_k(n), n


def test_ratio_family_frozen_values():
    # frozen from the exhaustive scan
    assert count_ratio_family(2, 1, 3) == 1
    assert canon(enumerate_ratio_family(2, 1, 3)) == ["{3}"]
    assert canon(streamed(stream_ratio_family, 2, 1, 3)) == ["{3}"]
    assert count_ratio_family(1, 1, 4) == 3
    assert count_ratio_family(1, 1, 6) == 8
    assert [count_ratio_family(1, 2, n) for n in range(1, 11)] == [
        1, 2, 3, 5, 9, 16, 28, 49, 86, 151,
    ]
    assert [count_ratio_family(2, 1, n) for n in range(1, 11)] == [
        0, 1, 1, 1, 2, 3, 4, 6, 9, 13,
    ]
    assert [count_ratio_family(3, 2, n) for n in range(1, 11)] == [
        0, 1, 1, 2, 3, 4, 6, 9, 14, 22,
    ]


def test_ratio_family_enumeration_matches_count():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for n in range(1, 11):
                for members in (
                    enumerate_ratio_family(p, q, n),
                    streamed(stream_ratio_family, p, q, n),
                ):
                    assert len(members) == count_ratio_family(p, q, n)
                    assert members == sorted(members, key=enum_order)


def test_structured_ratio_family_matches_naive():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for n in range(1, 17):
                assert streamed(stream_ratio_family, p, q, n) == enumerate_ratio_family(
                    p, q, n
                ), (p, q, n)


def test_stream_counts_match_the_recurrences():
    # The parts each pinned stream counts against the cap add up to its
    # family's size, far past the reach of any listing or of the cap.
    def part_sum(parts, n):
        return sum(binom(n - lo, r) for _, r, lo in parts)

    for n in range(2, 301):
        assert part_sum(enumeration._k_parts(n), n) == fib(n - 1), n
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for n in range(1, 201):
                assert part_sum(enumeration._ratio_parts(p, q, n), n) == ratio_recurrence(
                    p, q, n
                ), (p, q, n)
    # Each stream's count is the number of members it yields, in EnumOrder.
    for count, members in (
        stream_family_a(3, 12),
        stream_family_k(16),
        stream_ratio_family(1, 2, 12),
    ):
        members = list(members)
        assert count == len(members)
        assert members == sorted(members, key=enum_order)


def test_counts_by_min_follow_the_zero_weight_rule():
    # Part by part against the literal definition, min E > weight(E, S), for
    # every zero-weight set S in {1..8} and every universe {1..n}, n <= 10.
    subsets = [FiniteSet()]
    for n in range(1, 11):
        subsets += [FiniteSet(E.elements + (n,)) for E in subsets]
    for z in range(1 << 8):
        S = FiniteSet(enumeration._elements_of(z))
        by_max_min = Counter((E.max, E.min) for E in subsets[1:] if E.min > weight(E, S))
        for n in range(1, 11):
            want = [1] + [
                sum(by_max_min[top, m] for top in range(m, n + 1)) for m in range(1, n + 1)
            ]
            assert list(enumeration._counts_by_min(S.elements, n)) == want, (S, n)


def test_split_tally_joins_to_the_mask_scan_at_every_split():
    # For every zero-weight set S in {1..8} and universe {1..n}, n <= 14,
    # the tallies of {1..h} and {h+1..n} join, at every split point h, to
    # the members a mask scan keeps plus the empty set.  A tally depends on
    # S only through the elements of S in its half, so each is made once.
    tallies = {}

    def tally(S, lo, width):
        key = (lo, width, tuple(s for s in S if lo < s <= lo + width))
        if key not in tallies:
            tallies[key] = enumeration._half_tally(S, lo, width, "test")
        return tallies[key]

    def a_rule(least, weight):  # family A's: empty, or least > weight
        return least == 0 or least > weight

    for z in range(1 << 8):
        S = enumeration._elements_of(z)
        by_max = Counter(
            m.bit_length() for m in enumeration._zero_weight_masks(S, 14, range(1 << 14))
        )
        want = list(accumulate(by_max[n] for n in range(15)))  # by_max[0] == 0
        for n in range(1, 15):
            for h in range(n + 1):
                joined = enumeration._join_halves(tally(S, 0, h), tally(S, h, n - h), a_rule)
                assert joined == want[n] + 1, (S, n, h)
        assert enumeration._split_count(S, 14, a_rule, "test") == want[14] + 1, S


def test_ratio_split_joins_to_the_level_scan_at_every_split(monkeypatch):
    # mpq's members at level n are the subsets of {1..n-1} plus n: the rule
    # count_ratio_family passes to the join, at every split point h of
    # {1..n-1}, counts what a scan of the level keeps, for p, q <= 4.
    tallies = {}
    rules = []
    join = enumeration._join_halves

    def recording(low, high, admits):
        rules.append(admits)
        return join(low, high, admits)

    def tally(lo, width):
        if (lo, width) not in tallies:
            tallies[lo, width] = enumeration._half_tally((), lo, width, "test")
        return tallies[lo, width]

    monkeypatch.setattr(enumeration, "_join_halves", recording)
    for p in range(1, 5):
        for q in range(1, 5):
            for n in range(1, 15):
                want = len(enumeration._ratio_member_masks(p, q, n, "test"))
                assert count_ratio_family(p, q, n) == want, (p, q, n)
                admits = rules.pop()
                for h in range(n):
                    joined = join(tally(0, h), tally(h, n - 1 - h), admits)
                    assert joined == want, (p, q, n, h)


def test_half_tally_counts_subsets_by_min_and_weight():
    # Against FiniteSets of {lo+1..lo+w}: (min or 0, elements outside S).
    S = (2, 5, 6, 9)
    for lo in range(5):
        subsets = [FiniteSet()]
        for w in range(1, 9):
            subsets += [FiniteSet(E.elements + (lo + w,)) for E in subsets]
            want = Counter(
                (E.min if E else 0, sum(x not in S for x in E.elements)) for E in subsets
            )
            assert enumeration._half_tally(S, lo, w, "test") == want, (lo, w)


def test_split_count_reaches_past_the_full_scan():
    # The first brute-force counts past the 2^24 scan of {1..n}.
    for k, n in ((30, 30), (40, 40), (3, 36)):
        assert count_family_a(k, n) == closed_count(k, n), (k, n)


def test_family_k_is_the_zero_weight_family_of_two_and_three():
    # K(n) is the members of A_{2,3} with maximum n, less the n - 2 sets
    # {x, n} with 1 < x < n (each a member there, none in K).
    a23 = [sum(enumeration._counts_by_min((2, 3), n)) for n in range(301)]
    for n in range(3, 301):
        assert a23[n] - a23[n - 1] - (n - 2) == family_k_count(n), n


def test_schreier_ratio_case_is_classical():
    # p = q = 1 pins max and asks min >= size: counts are Fibonacci
    assert [count_ratio_family(1, 1, n) for n in range(1, 15)] == [
        fib(n) for n in range(1, 15)
    ]


def test_mask_scans_agree_with_set_predicates():
    # Every subset of {1..n}, built as a FiniteSet, tested by the definitions
    # in finite_sets; the mask scans must select exactly the same sets.
    subsets = [FiniteSet()]
    for n in range(1, 15):
        subsets += [FiniteSet(E.elements + (n,)) for E in subsets]
        ordered = sorted(subsets, key=enum_order)
        grid = count_family_a_grid(n + 1, n)
        for k in range(1, n + 2):
            want = [E.elements for E in ordered if in_family_a(E, k, n)]
            assert enumerate_family_a(k, n) == want, (k, n)
            assert grid[k - 1][n - 1] == len(want), (k, n)
        if n >= 2:
            want = [E.elements for E in ordered if in_family_k(E, n)]
            assert enumerate_family_k(n) == want, n
            assert streamed(stream_family_k, n) == want, n
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                want = [
                    E.elements for E in ordered
                    if not E.is_empty() and E.max == n and q * E.min >= p * len(E)
                ]
                assert enumerate_ratio_family(p, q, n) == want, (p, q, n)
                assert streamed(stream_ratio_family, p, q, n) == want, (p, q, n)


def test_size_caps(monkeypatch):
    # Every refusal comes before the first mask: a scan here fails the test.
    class Scanned(Exception):
        pass

    def scan(seen, n, what):
        raise Scanned

    monkeypatch.setattr(enumeration, "_scan", scan)
    # count_family_a's split tally visits 2^(n//2) + 2^(n - n//2) masks:
    # n = 46 fills the cap exactly, so it passes and reaches the scan, while
    # n = 47 and 10**12 are refused at once, with no 2^h-sized int built.
    with pytest.raises(Scanned):
        count_family_a(1, 46)
    for n in (47, 10**12):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="count_family_a: split scan of 2\\^"):
            count_family_a(1, n)
        assert time.perf_counter() - start < 1
    with pytest.raises(SizeLimitError):
        count_family_a_grid(1, 25)
    # The grid's k_max * |candidates| predicate tests count against the cap.
    with pytest.raises(SizeLimitError):
        count_family_a_grid(10**9, 10)
    for k in (1, 12, 36, 40):
        with pytest.raises(SizeLimitError):
            stream_family_a(k, 36)
    for n in (10**6, 10**12):
        with pytest.raises(SizeLimitError):
            stream_family_a(1, n)
    with pytest.raises(SizeLimitError):
        enumerate_family_a(1, 25)
    for n in (26, 10**12):
        with pytest.raises(SizeLimitError):
            enumerate_family_k(n)
    for n in (38, 10**12):
        with pytest.raises(SizeLimitError):
            stream_family_k(n)
    # count_ratio_family splits {1..n-1}: n = 47 fills the cap exactly.
    with pytest.raises(Scanned):
        count_ratio_family(1, 1, 47)
    for n in (48, 10**12):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="count_ratio_family: split scan of 2\\^"):
            count_ratio_family(1, 1, n)
        assert time.perf_counter() - start < 1
    with pytest.raises(SizeLimitError):
        enumerate_ratio_family(1, 1, 26)
    for n in (37, 10**12):
        with pytest.raises(SizeLimitError):
            stream_ratio_family(1, 1, n)


def test_grid_counts_its_predicate_tests_before_its_scan(monkeypatch):
    # The pre-count is the number of candidates the scan keeps, the nonempty
    # sets with min >= size, so the least refused k_max is exact, and
    # nothing is scanned before it.  The candidates of {1..n}, counted by
    # brute force here, are those of {1..20} with max <= n.
    by_max = Counter(
        m.bit_length() for m in range(1, 1 << 20) if (m & -m).bit_length() >= m.bit_count()
    )
    kept = dict(zip(range(1, 21), accumulate(by_max[n] for n in range(1, 21))))
    assert kept[20] == fib(22) - 1

    class Scanned(Exception):
        pass

    def scan(seen, n, what):
        raise Scanned

    monkeypatch.setattr(enumeration, "_scan", scan)
    for n, count in kept.items():
        k_max = oracle_cap() // count
        with pytest.raises(Scanned):
            count_family_a_grid(k_max, n)
        with pytest.raises(SizeLimitError, match=f": {k_max + 1} x {count} predicate tests"):
            count_family_a_grid(k_max + 1, n)


def test_grid_matches_the_split_tally_and_the_closed_table():
    # Two brute-force engines, the grid's candidate scan and the split
    # tally, cell by cell; then a grid with many rows past n against the
    # table that `table` serves.
    grid = count_family_a_grid(12, 18)
    for k in range(1, 13):
        for n in range(1, 19):
            assert grid[k - 1][n - 1] == count_family_a(k, n), (k, n)
    assert count_family_a_grid(40, 16) == closed_table(40, 16)


def test_oracle_cap_is_the_one_size_bound():
    assert oracle_cap() == 2**24
    require_scan_within_cap(24, "scan")  # exactly 2**24 candidate sets
    with pytest.raises(SizeLimitError):
        require_scan_within_cap(25, "scan")
    # The structured route is capped by its member count, not by n:
    # a(1, 35) = F(36) + 1 is within the bound, a(35, 35) = 2 F(35) is not.
    assert stream_family_a(1, 35)[0] == fib(36) + 1
    with pytest.raises(SizeLimitError):
        stream_family_a(35, 35)
    # Structured K and mpq count their members: K(37) = F(36) = 14,930,352
    # and mpq(1, 1, 36) = F(36) pass, F(37) = 24,157,817 does not.
    assert stream_family_k(37)[0] == fib(36)
    with pytest.raises(SizeLimitError):
        stream_family_k(38)
    assert stream_ratio_family(1, 1, 36)[0] == fib(36)
    with pytest.raises(SizeLimitError):
        stream_ratio_family(1, 1, 37)


def test_domain_errors():
    with pytest.raises(DomainError):
        count_family_a(0, 5)
    with pytest.raises(DomainError):
        count_family_a(1, 0)
    for k_max, n_max in ((0, 5), (5, 0)):
        with pytest.raises(DomainError):
            count_family_a_grid(k_max, n_max)
    with pytest.raises(DomainError):
        enumerate_family_a(0, 5)
    with pytest.raises(DomainError):
        enumerate_family_a(1, 0)
    with pytest.raises(DomainError):
        enumerate_family_k(1)
    with pytest.raises(DomainError):
        count_ratio_family(0, 1, 5)
    with pytest.raises(DomainError, match="^enumerate_ratio_family: p, q must be"):
        enumerate_ratio_family(1, 0, 5)
    with pytest.raises(DomainError, match="^enumerate_ratio_family: n must be"):
        enumerate_ratio_family(1, 1, 0)
    for stream, args in (
        (stream_family_a, (0, 5)),
        (stream_family_a, (1, 0)),
        (stream_family_k, (1,)),
        (stream_ratio_family, (0, 1, 5)),
        (stream_ratio_family, (1, 1, 0)),
    ):
        with pytest.raises(DomainError):
            stream(*args)

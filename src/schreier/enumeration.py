"""Brute-force oracles and structured enumeration for the set families.

Each family has two routes, and they check each other.

Families A and K follow one rule, the paper's: E is a member when min E
exceeds its weight |E \\ S|, the number of its elements outside a zero-weight
set S.  A(k, n) is S = {k} over {1..n}; K(n) is S = {2, 3}, with the maximum
pinned at n and |E| != 2.  ``_zero_weight_masks`` is the one mask test of
the rule and ``_counts_by_min`` its one count by minimum.  Both take S as
its elements, so their cost follows |S| and the universe, never the size of
an element of S: k = 10**12 costs what k = n + 1 does.

The oracle is a naive mask scan: it visits every subset of the universe by
bitmask and tests the defining inequality directly, so it is the independent
ground truth for the closed forms and for the structured route.  Each
family has one naive route, which takes checked arguments and returns the
members as ascending masks: ``_a_member_masks``, ``_k_member_masks`` and
``_ratio_member_masks``.  Family A's keeps the candidates, the nonempty sets
with min >= size, which hold every member for every k, and tests the rule
on them, so ``enumerate_family_a``, the partition checks and each row of
``count_family_a_grid`` read one scan of {1..n}; K's and mpq's scan one
pinned level.  Every scan takes its masks from ``_scan``.
``count_family_a`` and ``count_ratio_family`` count by the split tally
``_split_count``, the meet-in-the-middle split of Horowitz and Sahni (JACM
1974): each subset of {1..n} is one pair of its parts in {1..h} and
{h+1..n}, h = n // 2, and membership in either family depends only on a
set's min and its weight, so one mask scan of each half, tallied by (min,
weight), counts every pair with no binomial or Fibonacci identity, at a
cost of 2**h + 2**(n-h) masks.  The family's rule is one argument,
``admits(least, weight)``: A's is "empty, or least > weight" with S = {k};
mpq's members are the subsets F of {1..n-1} plus n, so it splits {1..n-1}
with S empty and tests min F (n for F empty) and |F| + 1.

Inside a ``with scan_once():`` block each naive scan is made once: family
A's candidates grow to the largest universe read so far, scanning only the
masks from 2**seen up to 2**n, and serve every k and every smaller universe
(the grid's rows, in a block of its own); each pinned K level is kept.  The
split tally's small half scans are never kept.  The size cap is checked when
a scan runs, so a block changes no refusal.

The structured route counts the members part by part without building
them, checks the count against the size cap, and returns it with an iterator
that builds the members one by one, already in EnumOrder.  Each family has
one structured route, ``stream_family_a``, ``stream_family_k`` and
``stream_ratio_family``, and one naive oracle, ``enumerate_family_a``,
``enumerate_family_k`` and ``enumerate_ratio_family``.  Both give each
member as its element tuple, built strictly increasing, so there is nothing
to validate: a stream's iterator yields the tuples, and an oracle returns a
list of them.  The command line renders the tuples as they come, so its
memory does not grow with the output.
Family A is counted by minimum element and listed size by size, passing over
fewer other sets than it yields.  K and mpq share one pinned engine: a
family is a list of parts ``(prefix, r, lo)``, each standing for the
C(n - lo, r) members ``prefix + c + (n,)`` with c an r-subset of {lo..n-1},
so their listing visits members only.

Canonical enumeration order (EnumOrder): ascending cardinality, then
lexicographic on the element tuple; the empty set sorts first.  Every
enumeration function returns its results in this order.

Bitmask convention: a mask is the whole set, with bit i-1 standing for
element i.  Family A scans [0, 2**n), every subset of {1..n}; the pinned
families K and mpq scan [2**(n-1), 2**n), the subsets whose top bit is the
maximum n, so each family is one predicate on the mask.  A half of the
split tally scans [1, 2**w) for the nonempty subsets of {lo+1..lo+w},
shifted down by lo.

Size cap: before it builds any set, every route counts the candidate sets it
will visit, part by part, and is refused at the first partial sum past
``MAX_CANDIDATES`` = 2**24, so even n in the millions fails at once.  A naive
scan of {1..n} counts 2**n (2**(n-1) for a pinned level), so family A's
scan stops at n = 24.  The split tally counts 2**h + 2**(n-h), half by
half, so ``count_family_a`` passes up to n = 46 (2**23 + 2**23), and
``count_ratio_family``, which splits {1..n-1}, up to n = 47; each refuses
the next n, or 10**12, before it builds any power of two.  The structured
routes count their members: each a(k, n) is at least F(n+1), so every
n >= 36 is refused for A; K(n) = F(n-1), so n <= 37 passes; and
mpq(1, 1, n) = F(n), so n <= 36 passes there.  Since the members are
streamed, the cap bounds time, not memory.

The formula routes (count tables and sequences) have one cap of their own:
a value at index n is below 2**n (a(k, n) <= 2**n, F(n) < 2**n, a binomial
in row n at most 2**n), so a request's integers add up to at most the sum
of their indices in bits, known before the first term.  It is refused past
``MAX_VALUE_BITS`` = 2**28, about 32 MiB of integers.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from .core import binom, fib
from .errors import DomainError, SizeLimitError

MAX_CANDIDATES = 1 << 24
MAX_VALUE_BITS = 1 << 28


def oracle_cap() -> int:
    """The fixed cap on the number of candidate sets one request may visit."""
    return MAX_CANDIDATES


def require_within_cap(parts: Iterable[int], what: str) -> int:
    """Refuse a request whose candidate sets, given as nonnegative parts,
    add up to more than MAX_CANDIDATES; stop at the first part past it.
    Return the total of the parts once all of them are within the cap."""
    total = 0
    for part in parts:
        total += part
        if total > MAX_CANDIDATES:
            raise SizeLimitError(
                f"{what}: more than {MAX_CANDIDATES} (2^24) candidate sets, the size cap"
            )
    return total


def require_bits_within_cap(bits: int, what: str) -> None:
    """Refuse a formula request whose integers, bounded by their indices
    before any is computed, may hold more than MAX_VALUE_BITS bits."""
    if bits > MAX_VALUE_BITS:
        raise SizeLimitError(
            f"{what}: more than {MAX_VALUE_BITS} (2^28) bits of values, the size cap"
        )


def _subsets_by_max(n: int) -> Iterator[int]:
    """The 2**n subsets of {1..n} counted by their maximum: the empty set,
    then 2**(i-1) with maximum i."""
    return itertools.chain((1,), (1 << (i - 1) for i in range(1, n + 1)))


def require_scan_within_cap(n: int, what: str) -> None:
    """Refuse a scan of the 2**n subsets of {1..n}, counted part by part,
    beyond the size cap."""
    require_within_cap(_subsets_by_max(n), f"{what}: scan of 2^{n} subsets")


def _elements_of(m: int) -> tuple[int, ...]:
    """The elements of the set a mask stands for, ascending: bit i-1 set for
    each element i."""
    elems = []
    while m:
        low = m & -m
        elems.append(low.bit_length())
        m ^= low
    return tuple(elems)


def _members_in_order(masks: list[int]) -> list[tuple[int, ...]]:
    """Return the element tuples of the masks in EnumOrder, sorted with C
    comparisons, lexicographically and then stably by size."""
    members = [_elements_of(m) for m in masks]
    members.sort()
    members.sort(key=len)
    return members


# A structured route's member count, and its members' element tuples in EnumOrder.
_Members = tuple[int, Iterator[tuple[int, ...]]]


# -- the naive scans, each made once inside a scan_once block ---------------

# What the scans of the open ``scan_once`` block found, None outside any
# block: "A" holds (seen, family A's candidates below 2**seen), and
# ("K", n) the members of K's pinned level n.
_kept: Optional[dict[Any, Any]] = None


@contextmanager
def scan_once() -> Iterator[None]:
    """Make each naive scan at most once until the block ends; a block
    opened inside another shares it."""
    global _kept
    outer = _kept
    _kept = {} if outer is None else outer
    try:
        yield
    finally:
        _kept = outer


def _scan(seen: int, n: int, what: str) -> range:
    """The masks from 2**seen up to 2**n, which the scan named ``what``
    visits: every naive scan takes its masks here."""
    return range(1 << seen, 1 << n)


# -- family A: weight-k admissible sets with max <= n -----------------------


def _zero_weight_masks(S: tuple[int, ...], n: int, masks: Iterable[int]) -> list[int]:
    """Keep, in order, the masks of subsets of {1..n} whose min exceeds
    their weight: the number of their elements outside the zero-weight set
    S.  Only S's elements within {1..n} enter the mask.  The empty mask fails
    the test, so it is never kept."""
    weighted = ~sum(1 << (s - 1) for s in S if 1 <= s <= n)
    return [m for m in masks if (m & -m).bit_length() > (m & weighted).bit_count()]


def _a_member_masks(k: int, n: int, what: str) -> list[int]:
    """Return the members of the weight-k family over {1..n} as ascending
    masks, the empty set first, by the raw definition with S = {k}.

    The rule runs over the candidates, the nonempty subsets with min >= size:
    a member has min > |E| - [k in E] >= |E| - 1, so these F(n+2) - 1 sets
    hold every nonempty member, whatever k is."""
    seen, candidates = (_kept or {}).get("A", (0, []))
    if n > seen:
        require_scan_within_cap(n, what)
        candidates = candidates + [
            m for m in _scan(seen, n, what) if (m & -m).bit_length() >= m.bit_count()
        ]
        if _kept is not None:
            _kept["A"] = n, candidates
    return [0] + _zero_weight_masks((k,), n, candidates[: bisect_left(candidates, 1 << n)])


def _counts_by_min(S: tuple[int, ...], n: int) -> Iterator[int]:
    """Yield the sizes of the partition by minimum of the zero-weight-S
    family over {1..n}: the empty set, then the members with min element m
    for each m = 1..n.

    A member with min m holds any of the u elements of S in {m+1..n} and t
    of the other n - m - u elements there; its weight [m not in S] + t must
    stay below m, which caps t at m - 1 - [m not in S].  Each part costs
    O(|S|) besides its binomials, whatever n and the elements of S are.
    """
    yield 1  # the empty set
    for m in range(1, n + 1):
        u = sum(m < s <= n for s in S)
        avail = n - m - u
        cap = m - 1 if m in S else m - 2
        yield sum(binom(avail, t) for t in range(min(cap, avail) + 1)) << u


def _half_tally(S: tuple[int, ...], lo: int, width: int, what: str) -> Counter:
    """Tally the subsets of {lo+1..lo+width} by (min, weight): the min is 0
    for the empty set, and the weight counts the elements outside S.

    The masks of ``_scan(0, width)`` stand for the subsets shifted down by
    lo.  Those whose min is lo + i are every 2**i-th mask from 2**(i-1), one
    stride of the scan each, so only their weighted bits are counted.
    """
    weighted = ((1 << width) - 1) ^ sum(1 << (s - lo - 1) for s in S if lo < s <= lo + width)
    masks = _scan(0, width, what)
    tally = Counter({(0, 0): 1})  # the empty set; the scan starts at mask 1
    for i in range(1, width + 1):
        low = 1 << (i - 1)
        stride = masks[low - 1 :: low << 1]  # mask low is the scan's item low - 1
        for weight, count in Counter(map(int.bit_count, map(weighted.__and__, stride))).items():
            tally[lo + i, weight] = count
    return tally


def _join_halves(low: Counter, high: Counter, admits: Callable[[int, int], bool]) -> int:
    """Count the sets whose parts below and above the split fall in the
    classes of the two tallies and which the family's rule admits.  A pair
    of classes is tested once, as ``admits(least, weight)``: the least
    element is the low part's unless that part is empty (0 when both are),
    and the weights add.  Every one of its low_count * high_count sets then
    counts."""
    count = 0
    for (low_min, low_weight), low_count in low.items():
        for (high_min, high_weight), high_count in high.items():
            if admits(low_min or high_min, low_weight + high_weight):
                count += low_count * high_count
    return count


def _split_parts(n: int) -> Iterator[int]:
    """The masks the split tally of {1..n} visits, part by part: the subsets
    of {1..h}, h = n // 2, then those of {h+1..n}, each counted by maximum."""
    h = n // 2
    return itertools.chain(_subsets_by_max(h), _subsets_by_max(n - h))


def _split_count(
    S: tuple[int, ...], n: int, admits: Callable[[int, int], bool], what: str
) -> int:
    """Count the subsets of {1..n}, empty set included, that ``admits(least,
    weight)`` keeps, from the split of {1..n} at h = n // 2: each E is
    exactly one pair (E & {1..h}, E & {h+1..n}), and two tallies of the
    halves' subsets by (min, weight outside S) count every pair at once.  A
    half of width w has at most (w + 1)**2 classes.

    The 2**h + 2**(n-h) masks of the two scans pass the size cap part by
    part before the first is visited, so a huge n is refused at once.
    """
    h = n // 2
    require_within_cap(_split_parts(n), f"{what}: split scan of 2^{h} + 2^{n - h} subsets")
    return _join_halves(_half_tally(S, 0, h, what), _half_tally(S, h, n - h, what), admits)


def _iter_a_structured(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """Yield the elements of every member of the bounded weight-k family, in
    EnumOrder.

    A member of size s has min E > |E| - [k in E] >= s - 1, so it lies in
    {s..n} (hence s <= ceil(n/2)), and its min equals s only when k is in it.
    Listing the s-subsets of {s..n} lexicographically, size by size, needs
    no sort and visits F(n+2) sets in all, fewer than twice the members
    (there are at least F(n+1) of them, whatever k is).
    """
    yield ()
    for s in range(1, (n + 1) // 2 + 1):
        for E in itertools.combinations(range(s, n + 1), s):
            if E[0] > s or k in E:
                yield E


def _require_a_domain(k: int, n: int, what: str) -> None:
    if k < 1:
        raise DomainError(f"{what}: k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"{what}: n must be >= 1, got {n}")


def count_family_a(k: int, n: int) -> int:
    """Count the bounded weight-k family over {1..n}, empty set included, by
    brute force over every subset: the split tally of S = {k}, which scans
    2**(n//2) + 2**(n - n//2) masks (the oracle for ``stream_family_a``'s
    count)."""
    _require_a_domain(k, n, "count_family_a")
    return _split_count(
        (k,), n, lambda least, weight: least == 0 or least > weight, "count_family_a"
    )


def count_family_a_grid(k_max: int, n_max: int) -> list[list[int]]:
    """Count the bounded weight-k family for every k <= k_max and n <= n_max
    from one scan of {1..n_max}: ``grid[k-1][n-1] == a(k, n)``.

    Inside one ``scan_once`` block, each row k is the ascending member
    masks of A(k, n_max), and a(k, n) is the number of them below 2**n,
    found by bisection.  Before the scan, its 2**n_max subsets and then the
    k_max * (F(n_max+2) - 1) tests, one per row and candidate, are checked
    against the size cap.
    """
    if k_max < 1 or n_max < 1:
        raise DomainError(
            f"count_family_a_grid: bounds must be >= 1, got k_max={k_max}, n_max={n_max}"
        )
    require_scan_within_cap(n_max, "count_family_a_grid")
    # The scan keeps C(n_max - s + 1, s) candidates of each size s >= 1.
    kept = fib(n_max + 2) - 1
    require_within_cap(
        (k_max * kept,), f"count_family_a_grid: {k_max} x {kept} predicate tests"
    )
    with scan_once():
        rows = (_a_member_masks(k, n_max, "count_family_a_grid") for k in range(1, k_max + 1))
        return [[bisect_left(row, 1 << n) for n in range(1, n_max + 1)] for row in rows]


def stream_family_a(k: int, n: int) -> _Members:
    """Return the number of members of the bounded weight-k family and an
    iterator that builds their element tuples one by one, in EnumOrder (the
    serving route).

    The member count, summed by minimum, passes the size cap before the
    first member is built.
    """
    _require_a_domain(k, n, "stream_family_a")
    count = require_within_cap(
        _counts_by_min((k,), n), f"stream_family_a: members of A({k}, {n})"
    )
    return count, _iter_a_structured(k, n)


def enumerate_family_a(k: int, n: int) -> list[tuple[int, ...]]:
    """Return the element tuple of every member of the bounded weight-k
    family, in EnumOrder, by scanning all 2**n subsets (the oracle for
    ``stream_family_a``)."""
    _require_a_domain(k, n, "enumerate_family_a")
    return _members_in_order(_a_member_masks(k, n, "enumerate_family_a"))


# -- the pinned families K and mpq: max = n ----------------------------------

# A part (prefix, r, lo) of a pinned level n: the members prefix + c + (n,)
# for each r-subset c of {lo..n-1}, listed lexicographically.
_Part = tuple[tuple[int, ...], int, int]


def _stream_pinned(n: int, parts: Callable[[], Iterator[_Part]], what: str) -> _Members:
    """Return the number of members in the parts of level n, which must
    already be in EnumOrder, and an iterator that builds their element
    tuples one by one.

    The part sizes C(n - lo, r) pass the size cap before the first member is
    built; ``parts`` is called once to count and once to list.
    """
    count = require_within_cap((binom(n - lo, r) for _, r, lo in parts()), what)
    top = (n,)
    return count, (
        prefix + c + top
        for prefix, r, lo in parts()
        for c in itertools.combinations(range(lo, n), r)
    )


# -- family K: pinned max, weight zero on 2 and 3, size != 2 ----------------


def _k_parts(n: int) -> Iterator[_Part]:
    """Yield the parts of the pinned family at level n, in EnumOrder.

    {n} comes first.  A member of size s >= 3 that avoids 2 and 3 has
    min E > s, so its other s - 1 elements lie in {s+1..n-1}.  Only size 3
    lets 2 or 3 in (min E > s - [2 in E] - [3 in E] fails otherwise):
    {2,3,n} and {3,x,n} for x = 4..n-1, which sort before the rest.
    """
    yield (), 0, n
    if n >= 4:
        yield (2, 3), 0, n
        yield (3,), 1, 4
    for s in range(3, n // 2 + 1):
        yield (), s - 1, s + 1


def _require_k_domain(n: int, what: str) -> None:
    if n < 2:
        raise DomainError(f"{what}: n must be >= 2, got {n}")


def stream_family_k(n: int) -> _Members:
    """Return the number of members of the pinned family at level n and an
    iterator that builds their element tuples one by one, in EnumOrder (the
    serving route)."""
    _require_k_domain(n, "stream_family_k")
    return _stream_pinned(n, lambda: _k_parts(n), f"stream_family_k: members of K({n})")


def _k_member_masks(n: int, what: str) -> list[int]:
    """Scan the 2**(n-1) subsets of {1..n} with maximum n and keep, in
    ascending order, those whose min exceeds their weight with S = {2, 3},
    then drop those of size 2."""
    kept = {} if _kept is None else _kept
    if ("K", n) not in kept:
        require_scan_within_cap(n - 1, what)
        level = _zero_weight_masks((2, 3), n, _scan(n - 1, n, what))
        kept["K", n] = [m for m in level if m.bit_count() != 2]
    return kept["K", n]


def enumerate_family_k(n: int) -> list[tuple[int, ...]]:
    """Return the element tuple of every member of the pinned family at
    level n, in EnumOrder, by scanning the 2**(n-1) subsets of {1..n} with
    maximum n (the oracle for ``stream_family_k``)."""
    _require_k_domain(n, "enumerate_family_k")
    return _members_in_order(_k_member_masks(n, "enumerate_family_k"))


# -- ratio family: q * min >= p * size, pinned max --------------------------


def _require_ratio_domain(p: int, q: int, n: int, what: str) -> None:
    if p < 1 or q < 1:
        raise DomainError(f"{what}: p, q must be >= 1, got p={p}, q={q}")
    if n < 1:
        raise DomainError(f"{what}: n must be >= 1, got {n}")


def _ratio_admits(p: int, q: int, lo: int, size: int) -> bool:
    """The ratio family's rule for a set with minimum lo: q * min >= p * size."""
    return q * lo >= p * size


def _ratio_member_masks(p: int, q: int, n: int, what: str) -> list[int]:
    """Scan the subsets of {1..n} with maximum n and keep the members."""
    require_scan_within_cap(n - 1, what)
    return [
        m
        for m in _scan(n - 1, n, what)
        if _ratio_admits(p, q, (m & -m).bit_length(), m.bit_count())
    ]


def _ratio_parts(p: int, q: int, n: int) -> Iterator[_Part]:
    """Yield the parts of the ratio family at level n, in EnumOrder: {n} when
    q*n >= p, then for each size s >= 2 the (s-1)-subsets of {lo..n-1} plus n,
    where lo = ceil(p*s/q) is the least min a member of size s may have.  lo
    grows with s, so the sizes end at the first s with lo > n - s + 1."""
    if q * n >= p:
        yield (), 0, n
    s = 2
    while (lo := -(-p * s // q)) <= n - s + 1:
        yield (), s - 1, lo
        s += 1


def count_ratio_family(p: int, q: int, n: int) -> int:
    """Count sets with max = n and q * min >= p * size, by brute force over
    every subset: each member is a subset F of {1..n-1} plus n, so the split
    tally of {1..n-1}, with S empty, tests min F (n when F is empty) and
    |F| + 1, scanning 2**((n-1)//2) + 2**(n-1 - (n-1)//2) masks."""
    _require_ratio_domain(p, q, n, "count_ratio_family")
    return _split_count(
        (),
        n - 1,
        lambda least, weight: _ratio_admits(p, q, least or n, weight + 1),
        "count_ratio_family",
    )


def stream_ratio_family(p: int, q: int, n: int) -> _Members:
    """Return the number of members of the ratio family at level n and an
    iterator that builds their element tuples one by one, in EnumOrder (the
    serving route)."""
    _require_ratio_domain(p, q, n, "stream_ratio_family")
    return _stream_pinned(
        n,
        lambda: _ratio_parts(p, q, n),
        f"stream_ratio_family: members of mpq({p}, {q}, {n})",
    )


def enumerate_ratio_family(p: int, q: int, n: int) -> list[tuple[int, ...]]:
    """Return the element tuple of every member of the ratio family at level
    n, in EnumOrder, by scanning the 2**(n-1) subsets of {1..n} with maximum
    n (the oracle for ``stream_ratio_family``)."""
    _require_ratio_domain(p, q, n, "enumerate_ratio_family")
    return _members_in_order(_ratio_member_masks(p, q, n, "enumerate_ratio_family"))

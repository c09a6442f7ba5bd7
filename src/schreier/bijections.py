"""Structure-preserving maps between family levels, and partition checks.

Three constructions explain the Fibonacci-style growth of the family counts,
each realized as a pair of maps whose images partition the next level:

* diagonal step: ``diag_shift`` sends the (n-1)-diagonal family into the
  (n+1)-diagonal by translating up and appending n+1, while ``diag_swap``
  embeds the n-diagonal, fixing nonmaximal members and the empty set and
  replacing the top element n by n+1 in maximal ones.
* column step: ``column_shift`` sends the bounded weight-(k-1) family over
  {1..n-2} onto the new-maximum slice of the weight-k family over {1..n} by
  translating up and appending n.
* pinned-family step: ``shift_by_one`` translates level n to level n+1;
  ``two_level_step`` lifts level n-1 two levels via a four-way case split
  on the minimum element.

Each map is written once, as a bit operation on masks (bit i-1 stands for
element i, as in ``enumeration``): ``diag_shift`` is ``(m << 1) | 1 << n``,
``diag_swap`` moves bit n-1 to bit n in maximal sets, ``column_shift`` is
``(m << 1) | 1 << (n-1)``, ``shift_by_one`` is ``m << 1``, and
``two_level_step`` has its four cases.  The public maps on ``FiniteSet``
check their domain, then apply the mask map.

``verify_partition`` never trusts those descriptions.  It re-derives each
domain and codomain of a level from the naive routes, never the structured
ones: ``_a_member_masks``, whose one candidate scan of the level's largest
universe serves every smaller universe as its prefix below 2**n, or
``_k_member_masks`` for the pinned levels.  It applies the mask maps and
tests four independent flags (well-definedness, injectivity, disjointness
of the two images, exact cover of the codomain) as set operations.  All
four flags true is precisely the claimed partition.  Only when one fails
are the domains and the codomain sorted into enumeration order, to name the
first violation of the first failing flag.  A check reads its three levels
inside ``enumeration.scan_once``, so each scan is made once; inside a
caller's block, the checks of a whole range of levels share one scan of the
largest universe they read (each pinned level once for thm1_4).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .enumeration import (
    _a_member_masks,
    _elements_of,
    _k_member_masks,
    require_scan_within_cap,
    scan_once,
)
from .errors import DomainError
from .finite_sets import FiniteSet, in_family_a, in_family_k

PARTITION_KINDS = ("thm1_1", "rec3_1", "thm1_4")


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of one partition check.

    The partition holds if and only if all four flags are true.
    ``first_violation`` is a (witness, reason) pair when any flag is false.
    """

    map_name: str
    n: int
    k: Optional[int]
    well_defined: bool
    injective: bool
    surjective: bool
    disjoint: bool
    first_violation: Optional[tuple[FiniteSet, str]] = None

    @property
    def ok(self) -> bool:
        return self.well_defined and self.injective and self.surjective and self.disjoint


# -- the maps on masks -------------------------------------------------------


def _diag_shift_mask(m: int, n: int) -> int:
    """Translate up by one and append n + 1."""
    return (m << 1) | 1 << n


def _diag_swap_mask(m: int, n: int) -> int:
    """Fix the empty set and nonmaximal sets; replace the top n by n + 1 in
    the others."""
    if m == 0 or (m & -m).bit_length() > m.bit_count():
        return m
    return m ^ 1 << (n - 1) | 1 << n


def _column_shift_mask(m: int, n: int) -> int:
    """Translate up by one and append n."""
    return (m << 1) | 1 << (n - 1)


def _shift_by_one_mask(m: int) -> int:
    """Translate up by one."""
    return m << 1


def _two_level_step_mask(m: int, n: int) -> int:
    """Lift level n - 1 of the pinned family to level n + 1, case by case."""
    top = 1 << n
    if m.bit_count() == 1:
        return 0b110 | top  # {n-1} -> {2, 3, n+1}
    low = m & -m
    if low == 0b10:
        return 0b10100 | top  # min 2 -> {3, 5, n+1}
    if low == 0b100:
        return (m ^ 0b100) << 2 | 0b100  # min 3: drop 3, translate by two, put 3 back
    # min >= 4: translate by two and adjoin |F| + 2
    return m << 2 | 1 << (m.bit_count() + 1)


def _mask_of(F: FiniteSet) -> int:
    return sum(1 << (x - 1) for x in F)


def _set_of(m: int) -> FiniteSet:
    """The set a mask stands for."""
    return FiniteSet(_elements_of(m))


# -- the maps on sets --------------------------------------------------------


def diag_shift(F: FiniteSet, n: int) -> FiniteSet:
    """Translate up by one and append n + 1; domain is the (n-1)-diagonal
    family, n >= 2."""
    if n < 2:
        raise DomainError(f"diag_shift: n must be >= 2, got {n}")
    if not in_family_a(F, n - 1, n - 1):
        raise DomainError(f"diag_shift: {F} not in the (n-1)-diagonal family, n={n}")
    return _set_of(_diag_shift_mask(_mask_of(F), n))


def diag_swap(F: FiniteSet, n: int) -> FiniteSet:
    """Fix nonmaximal members and the empty set; in maximal members replace
    the top element n by n + 1.  Domain is the n-diagonal family, n >= 2."""
    if n < 2:
        raise DomainError(f"diag_swap: n must be >= 2, got {n}")
    if not in_family_a(F, n, n):
        raise DomainError(f"diag_swap: {F} not in the n-diagonal family, n={n}")
    return _set_of(_diag_swap_mask(_mask_of(F), n))


def column_shift(F: FiniteSet, k: int, n: int) -> FiniteSet:
    """Translate up by one and append n; maps the bounded weight-(k-1)
    family over {1..n-2} into the new-maximum slice at (k, n).  Requires
    k >= 2 and n > max(k, 2)."""
    if k < 2:
        raise DomainError(f"column_shift: k must be >= 2, got {k}")
    if n <= max(k, 2):
        raise DomainError(f"column_shift: need n > max(k, 2), got k={k}, n={n}")
    if not in_family_a(F, k - 1, n - 2):
        raise DomainError(f"column_shift: {F} not in family (k={k - 1}, n={n - 2})")
    return _set_of(_column_shift_mask(_mask_of(F), n))


def shift_by_one(F: FiniteSet) -> FiniteSet:
    """Translate a nonempty set up by one."""
    if F.is_empty():
        raise DomainError("shift_by_one: empty set has no pinned maximum")
    return _set_of(_shift_by_one_mask(_mask_of(F)))


def two_level_step(F: FiniteSet, n: int) -> FiniteSet:
    """Lift a member of the pinned family at level n - 1 to level n + 1.

    Case split on the shape of F (n >= 3):
    the singleton {n-1} goes to {2, 3, n+1}; a larger member with minimum 2
    goes to {3, 5, n+1}; minimum 3 drops the 3, translates by two, and puts
    the 3 back; minimum >= 4 translates by two and adjoins |F| + 2.
    """
    if n < 3:
        raise DomainError(f"two_level_step: n must be >= 3, got {n}")
    if not in_family_k(F, n - 1):
        raise DomainError(f"two_level_step: {F} not in the pinned family at {n - 1}")
    return _set_of(_two_level_step_mask(_mask_of(F), n))


# -- partition verification ---------------------------------------------------


def _enum_key(m: int) -> tuple[int, tuple[int, ...]]:
    """EnumOrder on masks: the order of the sets they stand for."""
    return (m.bit_count(), _elements_of(m))


def _violations(
    parts: tuple[tuple[list[int], Callable[[int], int]], ...],
    targets: set[int],
    images1: set[int],
    covered: set[int],
) -> Iterator[tuple[FiniteSet, str]]:
    """Yield the first violation of each flag in turn: an image outside the
    codomain, a repeated image, an image of both maps, an uncovered target,
    each domain and the codomain read in EnumOrder.  A flag that holds
    yields nothing, so the first item names the first failing flag."""
    ordered = [(sorted(dom, key=_enum_key), fn) for dom, fn in parts]
    for dom, fn in ordered:
        for m in dom:
            if fn(m) not in targets:
                yield _set_of(m), f"image {_set_of(fn(m))} outside the codomain"
                break
    for dom, fn in ordered:
        seen: dict[int, int] = {}
        for m in dom:
            image = fn(m)
            if image in seen:
                yield _set_of(m), f"image {_set_of(image)} repeats that of {_set_of(seen[image])}"
                break
            seen[image] = m
    dom2, fn2 = ordered[1]
    for m in dom2:
        if fn2(m) in images1:
            yield _set_of(m), f"image {_set_of(fn2(m))} also produced by the first map"
            break
    uncovered = targets - covered
    if uncovered:
        yield _set_of(min(uncovered, key=_enum_key)), "not covered by either image"


def _check_masks(
    map_name: str,
    n: int,
    k: Optional[int],
    part1: tuple[list[int], Callable[[int], int]],
    part2: tuple[list[int], Callable[[int], int]],
    codomain: list[int],
) -> BijectionReport:
    """Check one partition on masks.  Each flag is one set operation on the
    images: both lie in the codomain (well-defined), each has as many
    members as its domain (injective), they are disjoint, and together they
    cover the codomain (surjective).  Only when one fails are the domains
    and the codomain sorted into EnumOrder, to name the first violation."""
    (dom1, fn1), (dom2, fn2) = part1, part2
    images1, images2 = set(map(fn1, dom1)), set(map(fn2, dom2))
    targets = set(codomain)
    covered = images1 | images2
    flags = (
        images1 <= targets and images2 <= targets,
        len(images1) == len(dom1) and len(images2) == len(dom2),
        targets <= covered,
        images1.isdisjoint(images2),
    )
    violation = None
    if not all(flags):
        violation = next(_violations((part1, part2), targets, images1, covered))
    return BijectionReport(map_name, n, k, *flags, violation)


def verify_partition(kind: str, n: int, k: Optional[int] = None) -> BijectionReport:
    """Check one of the three partition constructions at level n.

    kind "thm1_1": the two diagonal maps partition the (n+1)-diagonal
    family (2 <= n <= 23).  kind "rec3_1": the embedding of the (k, n-1)
    family and ``column_shift`` partition the (k, n) family (k >= 2,
    max(k, 2) < n <= 24).  kind "thm1_4": ``shift_by_one`` from level n and
    ``two_level_step`` from level n - 1 partition the pinned family at
    level n + 1 (3 <= n <= 24).  The upper ends are the size cap on the
    largest level's scan, which is checked before any domain is scanned.
    The three levels are read inside one ``scan_once`` block, so each scan
    is made once, and inside a caller's block they read its scans.
    """
    if kind not in PARTITION_KINDS:
        raise DomainError(f"verify_partition: unknown kind {kind!r}")
    # The largest level read, {1..n+1} or the pinned level n + 1, has
    # 2**(n+1) subsets for thm1_1 and 2**n for the others.
    require_scan_within_cap(n + 1 if kind == "thm1_1" else n, f"verify_partition: {kind}")

    if kind == "rec3_1":
        if k is None:
            raise DomainError("verify_partition: rec3_1 needs k")
        if k < 2 or n <= max(k, 2):
            raise DomainError(
                f"verify_partition: rec3_1 needs k >= 2 and n > max(k, 2), got k={k}, n={n}"
            )
    else:
        if k is not None:
            raise DomainError(f"verify_partition: {kind} takes no k")
        least = 2 if kind == "thm1_1" else 3
        if n < least:
            raise DomainError(f"verify_partition: {kind} needs n >= {least}, got {n}")
    what = f"partitions {kind}"
    with scan_once():
        if kind == "thm1_1":
            return _check_masks(
                "diag_shift+diag_swap",
                n,
                None,
                (_a_member_masks(n - 1, n - 1, what), lambda m: _diag_shift_mask(m, n)),
                (_a_member_masks(n, n, what), lambda m: _diag_swap_mask(m, n)),
                _a_member_masks(n + 1, n + 1, what),
            )
        if kind == "rec3_1":
            # A(k, n - 1) is the part of A(k, n) below 2**(n-1): bit n-1 is
            # clear there, so the member test is the same.
            codomain = _a_member_masks(k, n, what)
            return _check_masks(
                "embed+column_shift",
                n,
                k,
                (codomain[: bisect_left(codomain, 1 << (n - 1))], lambda m: m),
                (_a_member_masks(k - 1, n - 2, what), lambda m: _column_shift_mask(m, n)),
                codomain,
            )
        return _check_masks(
            "shift_by_one+two_level_step",
            n,
            None,
            (_k_member_masks(n, what), _shift_by_one_mask),
            (_k_member_masks(n - 1, what), lambda m: _two_level_step_mask(m, n)),
            _k_member_masks(n + 1, what),
        )

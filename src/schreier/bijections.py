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

``verify_partition`` never trusts those descriptions: it re-derives every
domain and codomain from the brute-force enumeration oracles (the naive mask
scans ``enumerate_family_a`` and ``enumerate_family_k``, never the
structured routes), applies the maps, and reports four independent flags
(well-definedness, injectivity, disjointness of the two images, exact cover
of the codomain).  All four flags true is precisely the claimed partition.
Domain errors raised by a map surface as well-definedness failures, never as
silent skips, and the first violation is chosen deterministically in
enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .enumeration import enumerate_family_a, enumerate_family_k, require_scan_within_cap
from .errors import DomainError
from .finite_sets import FiniteSet, SchreierClass, classify, in_family_a, in_family_k

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


# -- the maps ----------------------------------------------------------------


def diag_shift(F: FiniteSet, n: int) -> FiniteSet:
    """Translate up by one and append n + 1; domain is the (n-1)-diagonal
    family, n >= 2."""
    if n < 2:
        raise DomainError(f"diag_shift: n must be >= 2, got {n}")
    if not in_family_a(F, n - 1, n - 1):
        raise DomainError(f"diag_shift: {F} not in the (n-1)-diagonal family, n={n}")
    return F.shift(1).with_element(n + 1)


def diag_swap(F: FiniteSet, n: int) -> FiniteSet:
    """Fix nonmaximal members and the empty set; in maximal members replace
    the top element n by n + 1.  Domain is the n-diagonal family, n >= 2."""
    if n < 2:
        raise DomainError(f"diag_swap: n must be >= 2, got {n}")
    if not in_family_a(F, n, n):
        raise DomainError(f"diag_swap: {F} not in the n-diagonal family, n={n}")
    if classify(F) in (SchreierClass.EMPTY, SchreierClass.NONMAXIMAL):
        return F
    return F.without_element(n).with_element(n + 1)


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
    return F.shift(1).with_element(n)


def shift_by_one(F: FiniteSet) -> FiniteSet:
    """Translate a nonempty set up by one."""
    if F.is_empty():
        raise DomainError("shift_by_one: empty set has no pinned maximum")
    return F.shift(1)


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
    if len(F) == 1:
        return FiniteSet.of(2, 3, n + 1)
    if F.min == 2:
        return FiniteSet.of(3, 5, n + 1)
    if F.min == 3:
        return F.without_element(3).shift(2).with_element(3)
    return F.shift(2).with_element(len(F) + 2)


# -- partition verification ---------------------------------------------------


def _apply_in_order(
    domain: list[FiniteSet], fn: Callable[[FiniteSet], FiniteSet]
) -> tuple[list[tuple[FiniteSet, FiniteSet]], Optional[tuple[FiniteSet, str]]]:
    """Apply fn over the domain in EnumOrder; a raised DomainError becomes
    the violation witness instead of propagating."""
    pairs = []
    for F in domain:
        try:
            pairs.append((F, fn(F)))
        except DomainError as exc:
            return pairs, (F, f"map failed: {exc}")
    return pairs, None


def _check_partition(
    map_name: str,
    n: int,
    k: Optional[int],
    part1: tuple[list[FiniteSet], Callable[[FiniteSet], FiniteSet]],
    part2: tuple[list[FiniteSet], Callable[[FiniteSet], FiniteSet]],
    codomain: list[FiniteSet],
) -> BijectionReport:
    violations: list[tuple[FiniteSet, str]] = []
    codomain_set = set(codomain)

    applied = []
    well_defined = True
    for dom, fn in (part1, part2):
        pairs, err = _apply_in_order(dom, fn)
        applied.append(pairs)
        if err is not None:
            well_defined = False
            violations.append(err)
        for F, image in pairs:
            if image not in codomain_set:
                well_defined = False
                violations.append((F, f"image {image} outside the codomain"))
                break

    injective = True
    for pairs in applied:
        seen: dict[FiniteSet, FiniteSet] = {}
        for F, image in pairs:
            if image in seen:
                injective = False
                violations.append((F, f"image {image} repeats that of {seen[image]}"))
                break
            seen[image] = F

    disjoint = True
    images1 = {image for _, image in applied[0]}
    for F, image in applied[1]:
        if image in images1:
            disjoint = False
            violations.append((F, f"image {image} also produced by the first map"))
            break

    surjective = True
    covered = images1 | {image for _, image in applied[1]}
    for target in codomain:
        if target not in covered:
            surjective = False
            violations.append((target, "not covered by either image"))
            break

    return BijectionReport(
        map_name=map_name,
        n=n,
        k=k,
        well_defined=well_defined,
        injective=injective,
        surjective=surjective,
        disjoint=disjoint,
        first_violation=violations[0] if violations else None,
    )


def verify_partition(kind: str, n: int, k: Optional[int] = None) -> BijectionReport:
    """Check one of the three partition constructions at level n.

    kind "thm1_1": the two diagonal maps partition the (n+1)-diagonal
    family (2 <= n <= 23).  kind "rec3_1": the embedding of the (k, n-1)
    family and ``column_shift`` partition the (k, n) family (k >= 2,
    max(k, 2) < n <= 24).  kind "thm1_4": ``shift_by_one`` from level n and
    ``two_level_step`` from level n - 1 partition the pinned family at
    level n + 1 (3 <= n <= 24).  The upper ends are the size cap on the
    largest level's scan, which is checked before any domain is scanned.
    """
    if kind not in PARTITION_KINDS:
        raise DomainError(f"verify_partition: unknown kind {kind!r}")
    require_scan_within_cap(n + 1 if kind == "thm1_1" else n, f"verify_partition: {kind}")

    if kind == "thm1_1":
        if k is not None:
            raise DomainError("verify_partition: thm1_1 takes no k")
        if n < 2:
            raise DomainError(f"verify_partition: thm1_1 needs n >= 2, got {n}")
        return _check_partition(
            "diag_shift+diag_swap",
            n,
            None,
            (enumerate_family_a(n - 1, n - 1), lambda F: diag_shift(F, n)),
            (enumerate_family_a(n, n), lambda F: diag_swap(F, n)),
            enumerate_family_a(n + 1, n + 1),
        )

    if kind == "rec3_1":
        if k is None:
            raise DomainError("verify_partition: rec3_1 needs k")
        if k < 2 or n <= max(k, 2):
            raise DomainError(
                f"verify_partition: rec3_1 needs k >= 2 and n > max(k, 2), got k={k}, n={n}"
            )
        return _check_partition(
            "embed+column_shift",
            n,
            k,
            (enumerate_family_a(k, n - 1), lambda F: F),
            (enumerate_family_a(k - 1, n - 2), lambda F: column_shift(F, k, n)),
            enumerate_family_a(k, n),
        )

    if k is not None:
        raise DomainError("verify_partition: thm1_4 takes no k")
    if n < 3:
        raise DomainError(f"verify_partition: thm1_4 needs n >= 3, got {n}")
    return _check_partition(
        "shift_by_one+two_level_step",
        n,
        None,
        (enumerate_family_k(n), shift_by_one),
        (enumerate_family_k(n - 1), lambda F: two_level_step(F, n)),
        enumerate_family_k(n + 1),
    )

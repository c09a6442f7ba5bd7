"""Finite sets of positive integers and the Schreier-type predicates on them.

A set E is *Schreier* when min E >= |E|, *maximal* when min E = |E|, and
*nonmaximal* when min E > |E|; the empty set is treated as vacuously
admissible throughout.  The families this package counts are defined through
a weighted cardinality: ``weight(E, excluded)`` is the number of elements of
E that do not lie in ``excluded``.  Zero-weighting one element k yields the
family tabulated by the command line tool (tag ``A``); zero-weighting both
2 and 3, pinning the maximum, and forbidding two-element sets yields the
pinned family (tag ``K``).

All predicates take ``FiniteSet`` values: immutable, strictly increasing
tuples of integers >= 1, rendered canonically as ``{2,3,5}`` (``{}`` for the
empty set).  That rendering is byte-stable.  The command line builds no
``FiniteSet``: ``enumerate`` renders the listing routes' element tuples in
the same ``{2,3,5}`` form itself (``cli._render_chunk``), and a test pins
that its text output matches ``str(FiniteSet(E))`` member for member.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError


@dataclass(frozen=True)
class FiniteSet:
    """An immutable finite set of integers >= 1, stored strictly increasing."""

    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Two tests per element on the common path, a plain int above its
        # predecessor; prev is never below 0, so every x < 1 fails x > prev.
        prev = 0
        for x in self.elements:
            if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                raise DomainError(f"FiniteSet: elements must be ints, got {x!r}")
            if x <= prev:
                if x < 1:
                    raise DomainError(f"FiniteSet: elements must be >= 1, got {x}")
                raise DomainError(
                    f"FiniteSet: elements must be strictly increasing, got {self.elements}"
                )
            prev = x

    @classmethod
    def of(cls, *elements: int) -> "FiniteSet":
        """Build from elements in any order; duplicates are rejected."""
        return cls.from_iterable(elements)

    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "FiniteSet":
        elems = sorted(elements)
        return cls(tuple(elems))

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def is_empty(self) -> bool:
        return not self.elements

    @property
    def min(self) -> int:
        if not self.elements:
            raise DomainError("FiniteSet: empty set has no min")
        return self.elements[0]

    @property
    def max(self) -> int:
        if not self.elements:
            raise DomainError("FiniteSet: empty set has no max")
        return self.elements[-1]

    # -- constructions used by the structure-preserving maps ---------------

    def shift(self, delta: int) -> "FiniteSet":
        """Return the elementwise translate {x + delta : x in E}."""
        return FiniteSet(tuple(x + delta for x in self.elements))

    def with_element(self, x: int) -> "FiniteSet":
        """Return E with x inserted; x already present is a caller bug."""
        if x in self.elements:
            raise DomainError(f"FiniteSet: {x} already present in {self}")
        return FiniteSet.from_iterable(self.elements + (x,))

    def without_element(self, x: int) -> "FiniteSet":
        """Return E with x removed; x absent is a caller bug."""
        if x not in self.elements:
            raise DomainError(f"FiniteSet: {x} not present in {self}")
        return FiniteSet(tuple(y for y in self.elements if y != x))

    # -- canonical rendering ------------------------------------------------

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"


EMPTY = FiniteSet()


class SchreierClass(enum.Enum):
    """Classification of a finite set against min E vs |E|."""

    EMPTY = "Empty"
    NONMAXIMAL = "NonmaximalSchreier"
    MAXIMAL = "MaximalSchreier"
    NON_SCHREIER = "NonSchreier"


def weight(E: FiniteSet, excluded: FiniteSet) -> int:
    """Return the weighted size |E \\ excluded|: elements of E outside
    ``excluded`` count 1, elements inside it count 0."""
    return sum(1 for x in E if x not in excluded)


def classify(E: FiniteSet) -> SchreierClass:
    if E.is_empty():
        return SchreierClass.EMPTY
    if E.min > len(E):
        return SchreierClass.NONMAXIMAL
    if E.min == len(E):
        return SchreierClass.MAXIMAL
    return SchreierClass.NON_SCHREIER


def in_weighted_family(E: FiniteSet, k: int) -> bool:
    """Membership in the weight-k family: E empty, or min E > weight(E, {k}).

    Equivalently (a fact the verification suite checks, never assumes): the
    nonmaximal Schreier sets together with the maximal ones that contain k.
    """
    if k < 1:
        raise DomainError(f"in_weighted_family: k must be >= 1, got {k}")
    if E.is_empty():
        return True
    return E.min > weight(E, FiniteSet((k,)))


def in_family_a(E: FiniteSet, k: int, n: int) -> bool:
    """Membership in the bounded weight-k family: weight-admissible with
    max E <= n (empty set included)."""
    if k < 1:
        raise DomainError(f"in_family_a: k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"in_family_a: n must be >= 1, got {n}")
    if E.is_empty():
        return True
    return E.max <= n and in_weighted_family(E, k)


_TWO_THREE = FiniteSet((2, 3))


def in_family_k(E: FiniteSet, n: int) -> bool:
    """Membership in the pinned family at level n: max E = n, min E exceeds
    the weight that zero-rates 2 and 3, and |E| != 2."""
    if n < 1:
        raise DomainError(f"in_family_k: n must be >= 1, got {n}")
    if E.is_empty():
        return False
    return E.max == n and len(E) != 2 and E.min > weight(E, _TWO_THREE)

"""Closed forms, recurrences, and case analyses for the family counts.

Let a(k, n) be the size of the bounded weight-k family over {1..n} (empty
set included).  Writing l = n - k, the closed form splits into three cases:

* k = 1, l >= 0:        a = F(l + 2) + 1
* k >= 2, l >= 0:       a = 2 * sum_{i=0..k-2} C(l, i) F(k - i)
                            + 2 * C(l, k - 1)
                            + sum_{j=1..l} C(j, l - j + k)
* k >= 2, -k < l < 0:   a = F(k + l + 1)   (that is, F(n + 1))

Specializations checked against each other and against the brute-force
oracles by the verification suites: the diagonal a(n, n) = 2 F(n), also
expressible as the literal double sum 2 + 2 sum_{k=1..n-1} sum_{j=0..k-2}
C(n-k-1, j); the band a(k, k + l) = 2 F(k + l) for k >= l + 2; and the
column recurrence a(k, n) = a(k, n-1) + a(k-1, n-2) for n > max(k, 2).

The pinned family at level n + 1 has F(n) members, split by membership of
2 and 3 into four cases counted exactly by ``family_k_case_counts``.

The ratio family count m(p, q, n) satisfies, for n >= p + q,

    m(n) = sum_{k=1..q} (-1)^(k+1) C(q, k) m(n - k) + m(n - (p + q)),

with base values for 1 <= n < p + q taken from the exhaustive oracle and
m(0) = 0 (no set has maximum 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import binom, fib
from .enumeration import count_ratio_family
from .errors import DomainError


@dataclass(frozen=True)
class CaseCounts:
    """Sizes of the four membership cases (elements 2 and 3) of the pinned
    family at level n + 1."""

    n: int
    with_both: int
    with_two_only: int
    with_three_only: int
    with_neither: int

    @property
    def total(self) -> int:
        return (
            self.with_both
            + self.with_two_only
            + self.with_three_only
            + self.with_neither
        )


def closed_count(k: int, n: int) -> int:
    """Exact size of the bounded weight-k family over {1..n}."""
    if k < 1:
        raise DomainError(f"closed_count: k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"closed_count: n must be >= 1, got {n}")
    l = n - k
    if l < 0:
        return fib(n + 1)
    if k == 1:
        return fib(l + 2) + 1
    # Each sum runs over its nonzero terms only: C(l, i) = 0 for i > l, and
    # C(j, l - j + k) = 0 for j < (l + k) / 2.
    total = 2 * sum(binom(l, i) * fib(k - i) for i in range(0, min(k - 1, l + 1)))
    total += 2 * binom(l, k - 1)
    total += sum(binom(j, l - j + k) for j in range((l + k + 1) // 2, l + 1))
    return total


def diagonal_count(n: int) -> int:
    """Size of the diagonal cell (k = n): exactly 2 F(n)."""
    if n < 1:
        raise DomainError(f"diagonal_count: n must be >= 1, got {n}")
    return 2 * fib(n)


# Cache of Pascal-row prefix sums: _PREFIX[m][t] == sum_{j=0..t} C(m, j).
# Each row is built by accumulating binomials term by term (Pascal's
# multiply/divide rule), so the double-sum route below stays a pure sum of
# binomial coefficients with no Fibonacci identity anywhere in it.
_PREFIX: list[list[int]] = [[1]]


def _prefix_binom_sum(m: int, t: int) -> int:
    """Return sum_{j=0..t} C(m, j) for m >= 0 (0 when t < 0)."""
    if t < 0:
        return 0
    while len(_PREFIX) <= m:
        mm = len(_PREFIX)
        acc, c, row = 0, 1, []
        for j in range(mm + 1):
            acc += c
            row.append(acc)
            c = c * (mm - j) // (j + 1)
        _PREFIX.append(row)
    row = _PREFIX[m]
    return row[min(t, m)]


def diagonal_double_sum(n: int) -> int:
    """Diagonal count via the explicit double sum of binomials.

    Evaluates 2 + 2 sum_{k=1..n-1} sum_{j=0..k-2} C(n-k-1, j); the inner sums
    come from the cached prefix table above and involve no Fibonacci numbers,
    keeping this an independent cross-check of ``diagonal_count``.
    """
    if n < 1:
        raise DomainError(f"diagonal_double_sum: n must be >= 1, got {n}")
    return 2 + 2 * sum(_prefix_binom_sum(n - k - 1, k - 2) for k in range(1, n))


def band_count(k: int, l: int) -> int:
    """Size of the band cell (n = k + l) for 0 <= l <= k - 2: 2 F(k + l)."""
    if l < 0:
        raise DomainError(f"band_count: l must be >= 0, got {l}")
    if k < l + 2:
        raise DomainError(f"band_count: need k >= l + 2, got k={k}, l={l}")
    return 2 * fib(k + l)


def recurrence_table(k_max: int, n_max: int) -> list[list[int]]:
    """Fill the (k, n) count grid for 1 <= k <= k_max, 1 <= n <= n_max:
    one row per k, so grid[k-1][n-1] == a(k, n).

    Interior cells (k >= 2, n > max(k, 2)) come from the column recurrence
    a(k, n) = a(k, n-1) + a(k-1, n-2); boundary cells, and the whole k = 1
    row (whose recurrence would reach outside the table), are seeded from
    the closed form.
    """
    if k_max < 1 or n_max < 1:
        raise DomainError(
            f"recurrence_table: bounds must be >= 1, got k_max={k_max}, n_max={n_max}"
        )
    grid: list[list[int]] = []
    for k in range(1, k_max + 1):
        row: list[int] = []
        for n in range(1, n_max + 1):
            if k == 1 or n <= max(k, 2):
                row.append(closed_count(k, n))
            else:
                row.append(row[n - 2] + grid[k - 2][n - 3])
        grid.append(row)
    return grid


def family_k_count(n: int) -> int:
    """Size of the pinned family at level n: F(n - 1)."""
    if n < 2:
        raise DomainError(f"family_k_count: n must be >= 2, got {n}")
    return fib(n - 1)


def family_k_case_counts(n: int) -> CaseCounts:
    """Case-by-case sizes of the pinned family at level n + 1, split on
    membership of 2 and 3.  Exactly one member contains both, none contains
    2 without 3, n - 3 contain 3 without 2, and F(n) - (n - 2) contain
    neither; the four add up to F(n)."""
    if n < 3:
        raise DomainError(f"family_k_case_counts: n must be >= 3, got {n}")
    return CaseCounts(
        n=n,
        with_both=1,
        with_two_only=0,
        with_three_only=n - 3,
        with_neither=fib(n) - (n - 2),
    )


def ratio_recurrence(p: int, q: int, n: int) -> int:
    """Ratio family count via the signed recurrence, oracle-seeded base.

    Base values: m(0) = 0 and m(n) = count_ratio_family(p, q, n) for
    1 <= n < p + q; beyond that the alternating recurrence applies.
    Intermediate terms are signed; the final value must be nonnegative.
    """
    if p < 1 or q < 1:
        raise DomainError(f"ratio_recurrence: p, q must be >= 1, got p={p}, q={q}")
    if n < 1:
        raise DomainError(f"ratio_recurrence: n must be >= 1, got {n}")
    base = p + q
    m: list[int] = [0]
    for i in range(1, min(n, base - 1) + 1):
        m.append(count_ratio_family(p, q, i))
    for i in range(base, n + 1):
        acc = m[i - base]
        sign = 1
        for j in range(1, q + 1):
            acc += sign * binom(q, j) * m[i - j]
            sign = -sign
        m.append(acc)
    result = m[n]
    if result < 0:
        raise AssertionError(
            f"ratio_recurrence: negative count m({p},{q},{n}) = {result}"
        )
    return result

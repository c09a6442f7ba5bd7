"""Closed forms, recurrences, and case analyses for the family counts.

Let a(k, n) be the size of the bounded weight-k family over {1..n} (empty
set included).  Writing l = n - k, the closed form splits into three cases:

* k = 1, l >= 0:        a = F(l + 2) + 1
* k >= 2, l >= 0:       a = 2 * sum_{i=0..k-2} C(l, i) F(k - i)
                            + 2 * C(l, k - 1)
                            + sum_{j=1..l} C(j, l - j + k)
* k >= 2, -k < l < 0:   a = F(k + l + 1)   (that is, F(n + 1))

``closed_count`` evaluates one cell, with math.comb for the binomials;
``closed_table`` evaluates a whole (k, n) grid, with the binomials read from
one Pascal triangle built by addition.  Both feed the same private cell
function, the one definition of the three cases and sums, and a table cell
never reads another, so the grid stays independent of ``recurrence_table``.

Specializations checked against each other and against the brute-force
oracles by the verification suites: the diagonal a(n, n) = 2 F(n), also
expressible as the literal double sum 2 + 2 sum_{k=1..n-1} sum_{j=0..k-2}
C(n-k-1, j), which ``diagonal_double_sum`` evaluates in one pass by the
binomial theorem (a whole Pascal row sums to 2^m), Pascal's rule and the
ratios of neighbouring binomials, none of them a Fibonacci identity; the
band a(k, k + l) = 2 F(k + l) for k >= l + 2; and the column recurrence
a(k, n) = a(k, n-1) + a(k-1, n-2) for n > max(k, 2).

The pinned family at level n + 1 has F(n) members, split by membership of
2 and 3 into four cases counted exactly by ``family_k_case_counts``.

The ratio family count m(p, q, n) satisfies, for n >= p + q,

    m(n) = sum_{k=1..q} (-1)^(k+1) C(q, k) m(n - k) + m(n - (p + q)),

with base values for 1 <= n < p + q summed over the family's parts, sizes
C(n - lo, r) with no set built or scanned, and m(0) = 0 (no set has
maximum 0).
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from operator import add, getitem, mul
from typing import Callable, Iterable, NamedTuple

from .core import binom, fib
from .enumeration import _ratio_parts, require_bits_within_cap
from .errors import DomainError


class CaseCounts(NamedTuple):
    """Sizes of the four membership cases (elements 2 and 3) of one pinned
    family level."""

    with_both: int
    with_two_only: int
    with_three_only: int
    with_neither: int

    @property
    def total(self) -> int:
        return sum(self)


def _closed_cell(
    k: int, n: int, binoms: Callable[[Iterable[int], Iterable[int]], Iterable[int]],
    fibs: Callable[[int], int],
) -> int:
    """a(k, n) by the closed form, for k, n >= 1: the one definition of its
    three cases and three sums, read term by term from ``binoms(ms, cs)``,
    which yields C(m, c) for each pair of its two iterables, and from
    ``fibs(i)`` == F(i)."""
    l = n - k
    if l < 0:
        return fibs(n + 1)
    if k == 1:
        return fibs(l + 2) + 1
    # Each sum runs over its nonzero terms only: C(l, i) = 0 for i > l, and
    # C(j, l - j + k) = 0 for j < (l + k) / 2.
    top = min(k - 1, l + 1)
    total = 2 * sum(map(mul, binoms(repeat(l, top), range(top)), map(fibs, range(k, k - top, -1))))
    if k - 1 <= l:
        total += 2 * sum(binoms((l,), (k - 1,)))
    lo = (l + k + 1) // 2
    return total + sum(binoms(range(lo, l + 1), range(l + k - lo, k - 1, -1)))


_comb_terms = partial(map, math.comb)  # C(m, c) == 0 for c > m


def _grid_bits(k_max: int, n_max: int) -> int:
    """Bits of a k_max x n_max count grid, bounded by a(k, n) <= 2^n."""
    return k_max * n_max * (n_max + 1) // 2


def closed_count(k: int, n: int) -> int:
    """Exact size of the bounded weight-k family over {1..n}."""
    if k < 1:
        raise DomainError(f"closed_count: k must be >= 1, got {k}")
    if n < 1:
        raise DomainError(f"closed_count: n must be >= 1, got {n}")
    return _closed_cell(k, n, _comb_terms, fib)


def closed_table(k_max: int, n_max: int) -> list[list[int]]:
    """The (k, n) count grid for 1 <= k <= k_max, 1 <= n <= n_max by the
    closed form, laid out as ``recurrence_table``'s: grid[k-1][n-1] == a(k, n).

    Every cell evaluates the same cases and sums as ``closed_count``, with
    its binomials read from one Pascal triangle built by addition (rows
    0..n_max-2: a cell with k >= 2 reaches l <= n_max - 2) and its Fibonacci
    numbers from one prefix F(0..n_max+1); no cell reads another cell.
    """
    if k_max < 1 or n_max < 1:
        raise DomainError(
            f"closed_table: bounds must be >= 1, got k_max={k_max}, n_max={n_max}"
        )
    rows = n_max - 1 if k_max > 1 else 0
    # The triangle's row m holds m + 1 values below 2^m.
    require_bits_within_cap(
        _grid_bits(k_max, n_max) + (rows - 1) * rows * (rows + 1) // 3,
        f"closed_table: {k_max} x {n_max} grid",
    )
    triangle = [[1]]
    for _ in range(rows - 1):
        triangle.append([1, *map(add, triangle[-1], triangle[-1][1:]), 1])

    def binoms(ms, cs):
        return map(getitem, map(triangle.__getitem__, ms), cs)

    fibs = list(map(fib, range(n_max + 2))).__getitem__
    return [
        [_closed_cell(k, n, binoms, fibs) for n in range(1, n_max + 1)]
        for k in range(1, k_max + 1)
    ]


def diagonal_count(n: int) -> int:
    """Size of the diagonal cell (k = n): exactly 2 F(n)."""
    if n < 1:
        raise DomainError(f"diagonal_count: n must be >= 1, got {n}")
    return 2 * fib(n)


def diagonal_double_sum(n: int) -> int:
    """Diagonal count via the explicit double sum of binomials.

    Evaluates 2 + 2 sum_{k=1..n-1} sum_{j=0..k-2} C(n-k-1, j), that is
    2 + 2 sum_{m=0..n-3} P(m, n-3-m) with P(m, t) = sum_{j=0..t} C(m, j), in
    one pass along that anti-diagonal of prefix sums:

    * a whole row (t >= m) sums to 2^m, by the binomial theorem;
    * the first cut row has t = m - 1 or t = m - 2, so it lacks C(m, m) = 1,
      or that and C(m, m - 1) = m, of its 2^m;
    * each next prefix sum is P(m+1, t-1) = 2 P(m, t) - 2 C(m, t) - C(m, t-1),
      by Pascal's rule C(m+1, j) = C(m, j) + C(m, j-1);
    * the binomials C(m, t) and C(m, t-1) move along with it by their exact
      ratios C(m+1, j) = C(m, j) (m+1) / (m+1-j) and
      C(m, j-1) = C(m, j) j / (m-j+1).

    None of these is a Fibonacci identity, so the sum stays an independent
    cross-check of ``diagonal_count``, and nothing is kept between calls.
    """
    if n < 1:
        raise DomainError(f"diagonal_double_sum: n must be >= 1, got {n}")
    whole = (n - 1) // 2  # rows m < whole have t = n - 3 - m >= m
    total = (1 << whole) - 1
    m, t = whole, n - 3 - whole
    if t >= 0:
        prefix = (1 << m) - 1 - (m if t == m - 2 else 0)
        c = math.comb(m, t)
        c_low = c * t // (m - t + 1)
        while t >= 0:
            total += prefix
            prefix = 2 * prefix - 2 * c - c_low
            c = c_low * (m + 1) // (m - t + 2)
            c_low = c * (t - 1) // (m - t + 3)
            m, t = m + 1, t - 1
    return 2 + 2 * total


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
    require_bits_within_cap(_grid_bits(k_max, n_max), f"recurrence_table: {k_max} x {n_max} grid")
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
        with_both=1,
        with_two_only=0,
        with_three_only=n - 3,
        with_neither=fib(n) - (n - 2),
    )


def ratio_recurrence(p: int, q: int, n: int) -> int:
    """Ratio family count via the signed recurrence, seeded by part sums.

    Base values: m(0) = 0 and, for 1 <= n < p + q, the sum of C(n - lo, r)
    over the level's parts (r elements from {lo..n-1} added to the prefix
    and n), the sizes the structured route counts; beyond that the
    alternating recurrence applies.
    Intermediate terms are signed; the final value must be nonnegative.
    """
    if p < 1 or q < 1:
        raise DomainError(f"ratio_recurrence: p, q must be >= 1, got p={p}, q={q}")
    if n < 1:
        raise DomainError(f"ratio_recurrence: n must be >= 1, got {n}")
    base = p + q
    m: list[int] = [0]
    for i in range(1, min(n, base - 1) + 1):
        m.append(sum(binom(i - lo, r) for _, r, lo in _ratio_parts(p, q, i)))
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

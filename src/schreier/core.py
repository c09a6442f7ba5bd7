"""Exact integer combinatorics used everywhere else in the package.

Conventions are fixed once, here:

* Fibonacci numbers are indexed F(0) = 0, F(1) = 1, F(n) = F(n-1) + F(n-2).
  Values are exact arbitrary-precision integers computed by iterating the
  recurrence; no floating-point or closed-form shortcut is ever taken.
* Binomial coefficients follow the out-of-range convention C(n, k) = 0 for
  k < 0 or k > n, which lets summation bounds in the counting formulas stay
  literal instead of being trimmed case by case.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Fibonacci cache: _FIB[i] == F(i).
_FIB: list[int] = [0, 1]


def fib(n: int) -> int:
    """Return the n-th Fibonacci number under F(0) = 0, F(1) = 1.

    Cached iteratively.
    """
    if n < 0:
        raise DomainError(f"fib: index must be >= 0, got {n}")
    if n < len(_FIB):
        return _FIB[n]
    while len(_FIB) <= n:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[n]


def binom(n: int, k: int) -> int:
    """Return C(n, k) with C(n, k) = 0 whenever k < 0 or k > n.

    n must be >= 0; a negative n is a caller bug, not a boundary case.
    """
    if n < 0:
        raise DomainError(f"binom: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def fib_binom_convolution(k: int, l: int) -> int:
    """Return sum_{i=0..l} C(l, i) * F(k - i), term by term.

    Requires k >= l >= 0 so every Fibonacci index is nonnegative.  For
    k >= l + 2 the sum collapses to F(k + l); callers that rely on that
    collapse check it explicitly rather than assuming it here.
    """
    if l < 0:
        raise DomainError(f"fib_binom_convolution: l must be >= 0, got {l}")
    if k < l:
        raise DomainError(
            f"fib_binom_convolution: need k >= l, got k={k}, l={l}"
        )
    return sum(binom(l, i) * fib(k - i) for i in range(l + 1))

"""Exception types shared across the package.

Two failure modes are distinguished because the command line maps them to
different exit codes: bad arguments (exit 2) and oversized requests (exit 3).
"""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class SizeLimitError(RuntimeError):
    """A request exceeds a size cap: candidate sets for a brute-force route,
    bits of values for a table or sequence."""

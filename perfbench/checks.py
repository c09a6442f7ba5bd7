"""Output checks: every response is checked by a route other than the one
that served it, outside the timed region.

* ``table``: the harness fills the grid by the column recurrence seeded from
  Fibonacci boundary values (never from ``closed_count``), renders it in the
  requested format and compares bytes, so the ``closed`` and ``recurrence``
  sources must both equal one rendering.  The harness grid itself is
  checked once against the golden ``tests/data/table1.csv``.
* ``golden``: stdout equals ``tests/data/table1.csv`` byte for byte.
* ``sequence``: terms equal Fibonacci values the harness computes itself.
* ``enumerate``: the member count equals ``closed_count``, F(n-1) or
  ``ratio_recurrence``; members are distinct and in canonical order (size,
  then lexicographic); each member satisfies the family rule restated here.
* ``verify``: exit 0, every report PASS, and each report's identity and
  instance count equal those of the default ranges.

Output is byte-stable, so a request repeated in a later pass is checked by
comparing its digest with the output already validated.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from workloads import Request


class CheckError(Exception):
    """A response that is wrong."""


def _fibs(n: int) -> list[int]:
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return out


def table_grid(k_max: int, n_max: int) -> list[list[int]]:
    """a(k, n) by a(k, n) = a(k, n-1) + a(k-1, n-2), with row k = 1 equal to
    F(n+1) + 1, the diagonal 2 F(n) and cells past it F(n+1)."""
    f = _fibs(n_max + 2)
    grid = [[0] * (n_max + 1) for _ in range(k_max + 1)]
    for k in range(1, k_max + 1):
        row, up = grid[k], grid[k - 1]
        for n in range(1, n_max + 1):
            if k == 1:
                row[n] = f[n + 1] + 1
            elif n < k:
                row[n] = f[n + 1]
            elif n == k:
                row[n] = 2 * f[n]
            else:
                row[n] = row[n - 1] + up[n - 2]
    return [row[1:] for row in grid[1:]]


def render_table(grid: list[list[int]], source: str, fmt: str) -> str:
    k_max, n_max = len(grid), len(grid[0])
    cols = range(1, n_max + 1)
    if fmt == "csv":
        lines = ["k\\n," + ",".join(map(str, cols))]
        lines += [f"{k}," + ",".join(map(str, row)) for k, row in enumerate(grid, 1)]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"k_max": k_max, "n_max": n_max, "source": source, "cells": grid}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    cells = [[str(v) for v in row] for row in grid]
    widths = [max(len(str(n)), *(len(r[n - 1]) for r in cells)) for n in cols]
    head_w = max(3, len(str(k_max)))
    lines = ["k\\n".rjust(head_w) + "  " + "  ".join(str(n).rjust(w) for n, w in zip(cols, widths))]
    lines += [
        str(k).rjust(head_w) + "  " + "  ".join(v.rjust(w) for v, w in zip(r, widths))
        for k, r in enumerate(cells, 1)
    ]
    return "\n".join(lines) + "\n"


def render_sequence(name: str, start: int, values: list[int], fmt: str) -> str:
    if fmt == "csv":
        return "n,value\n" + "".join(f"{start + i},{v}\n" for i, v in enumerate(values))
    if fmt == "json":
        return json.dumps({"name": name, "start": start, "values": values}, separators=(",", ":")) + "\n"
    return "".join(f"{start + i} {v}\n" for i, v in enumerate(values))


def _options(argv: tuple[str, ...]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def _member_rule(opts: dict[str, str]):
    n = int(opts["n"])
    family = opts["family"]
    if family == "A":
        k = int(opts["k"])
        return lambda E: not E or (E[-1] <= n and E[0] > len(E) - (k in E))
    if family == "K":
        return lambda E: (
            bool(E) and E[-1] == n and len(E) != 2 and E[0] > len(E) - (2 in E) - (3 in E)
        )
    p, q = int(opts["p"]), int(opts["q"])
    return lambda E: bool(E) and E[-1] == n and q * E[0] >= p * len(E)


_TEXT_MEMBER = re.compile(r"\{(?:[1-9][0-9]*(?:,[1-9][0-9]*)*)?\}")
_CSV_MEMBER = re.compile(r"(?:[1-9][0-9]*(?:,[1-9][0-9]*)*)?")
_REPORT = re.compile(r"(PASS|FAIL) (\S+) \[[^\]]*\] \((\d+) checks\)")


def _parse_members(fmt: str, text: str, opts: dict[str, str]) -> list[tuple[int, ...]]:
    if fmt == "json":
        payload = json.loads(text)
        meta = {key: payload.get(key) for key in ("family", "k", "p", "q", "n") if key in payload}
        want = {key: (v if key == "family" else int(v)) for key, v in opts.items() if key != "format"}
        if meta != want:
            raise CheckError(f"json header {meta} != {want}")
        sets = payload["sets"]
        if payload["count"] != len(sets):
            raise CheckError(f"json count {payload['count']} != {len(sets)} sets")
        if not all(type(x) is int for E in sets for x in E):
            raise CheckError("json member with a non-integer element")
        return [tuple(E) for E in sets]
    lines = text.split("\n")
    if lines.pop() != "":
        raise CheckError("output does not end with a newline")
    pattern = _TEXT_MEMBER if fmt == "text" else _CSV_MEMBER
    for line in lines:
        if not pattern.fullmatch(line):
            raise CheckError(f"malformed member line {line!r}")
    if fmt == "text":
        lines = [line[1:-1] for line in lines]
    return [tuple(map(int, line.split(","))) if line else () for line in lines]


class Checker:
    """Validates responses; ``check`` returns the response's work units
    (table cells, sequence terms, members or verified instances)."""

    def __init__(self, root: Path):
        if str(root / "src") not in sys.path:
            sys.path.insert(0, str(root / "src"))
        from schreier import closed_count, ratio_recurrence

        self._closed_count = closed_count
        self._ratio_recurrence = ratio_recurrence
        self._golden = (root / "tests" / "data" / "table1.csv").read_bytes()
        if render_table(table_grid(7, 16), "closed", "csv").encode() != self._golden:
            raise CheckError("harness table route disagrees with tests/data/table1.csv")
        self._seen: dict[tuple[str, ...], tuple[str, int]] = {}

    def check(self, req: Request, code: int, stdout: bytes) -> int:
        if code != 0:
            raise CheckError(f"exit code {code}, expected 0")
        digest = hashlib.sha256(stdout).hexdigest()
        if req.argv in self._seen:
            seen_digest, items = self._seen[req.argv]
            if digest != seen_digest:
                raise CheckError("output differs from the validated output of the same request")
            return items
        items = getattr(self, "_check_" + req.kind)(req.argv, stdout.decode())
        self._seen[req.argv] = (digest, items)
        return items

    def _check_golden(self, argv, text: str) -> int:
        if text.encode() != self._golden:
            raise CheckError("golden table differs from tests/data/table1.csv")
        return 7 * 16

    def _check_table(self, argv, text: str) -> int:
        opts = _options(argv)
        k_max, n_max = int(opts["k-max"]), int(opts["n-max"])
        want = render_table(table_grid(k_max, n_max), opts["source"], opts["format"])
        if text != want:
            raise CheckError("table differs from the harness recurrence")
        return k_max * n_max

    def _check_sequence(self, argv, text: str) -> int:
        opts = _options(argv)
        name, n_max = opts["name"], int(opts["n-max"])
        f = _fibs(n_max)
        if name == "a-diag":
            start, values = 1, [2 * f[n] for n in range(1, n_max + 1)]
        elif name == "k-count":
            start, values = 2, [f[n - 1] for n in range(2, n_max + 1)]
        else:
            start, values = 0, f[: n_max + 1]
        if text != render_sequence(name, start, values, opts["format"]):
            raise CheckError(f"sequence {name} differs from the harness Fibonacci values")
        return len(values)

    def _check_enumerate(self, argv, text: str) -> int:
        opts = _options(argv)
        members = _parse_members(opts["format"], text, opts)
        n = int(opts["n"])
        if opts["family"] == "A":
            want = self._closed_count(int(opts["k"]), n)
        elif opts["family"] == "K":
            want = _fibs(n)[n - 1]
        else:
            want = self._ratio_recurrence(int(opts["p"]), int(opts["q"]), n)
        if len(members) != want:
            raise CheckError(f"{len(members)} members, expected {want}")
        keys = [(len(E), E) for E in members]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise CheckError("members repeat or are out of canonical order")
        rule = _member_rule(opts)
        for E in members:
            if any(a >= b for a, b in zip(E, E[1:])) or not rule(E):
                raise CheckError(f"{E} is not a member")
        return len(members)

    def _check_verify(self, argv, text: str) -> int:
        lines = text.splitlines()
        reports = [_REPORT.fullmatch(line) for line in lines[:-1]]
        if not all(reports):
            raise CheckError("unparsable report line")
        got = [(m.group(2), int(m.group(3))) for m in reports]
        if got != DEFAULT_REPORTS:
            raise CheckError("reports differ from the default ranges' identities and counts")
        if any(m.group(1) != "PASS" for m in reports):
            raise CheckError("a report failed")
        seed = _options(argv)["seed"]
        seeded = [line for line in lines if "seed=" in line]
        if len(seeded) != 2 or not all(f"seed={seed}]" in line for line in seeded):
            raise CheckError(f"seeded reports do not carry seed {seed}")
        total = sum(count for _, count in DEFAULT_REPORTS)
        want = f"suite all: {len(got)}/{len(got)} checks passed ({total} instances) OK"
        if lines[-1] != want:
            raise CheckError(f"summary {lines[-1]!r} != {want!r}")
        return total


def _default_reports() -> list[tuple[str, int]]:
    """(identity, instances) of ``verify --suite all`` at its default ranges,
    counted from the ranges the suites document."""
    seeded = 50 * 12 * 61  # 50 trials, k = 1..12, n = 0..60
    eq3_10 = 26 * 199  # l = 0..25, k = l+2..l+200
    eq1_2 = 10 * 2**14  # k = 1..10, E within {1..14}
    return [
        ("diagonal-count-vs-enumeration", 22),
        ("diagonal-closed-vs-double-sum-vs-2fib", 500),
        ("diagonal-partition", 15),
        ("closed-vs-both-oracles", 12 * 20),
        ("worked-expansion-(4,10)", 6),
        ("band-vs-closed-vs-2fib", sum(400 - (l + 2) + 1 for l in range(31))),
        ("pinned-count-vs-enumeration", 21),
        ("pinned-case-split", 3 * 20),
        ("pinned-partition", 16),
        ("pinned-min2-members", 16),
        ("pinned-min3-members", 16),
        ("beyond-diagonal-closed", 3 * 300),
        ("beyond-diagonal-oracle", 2 * 14),
        ("recurrence-interior-vs-closed", sum(40 - k for k in range(2, 13))),
        ("column-partition", sum(16 - k for k in range(2, 9))),
        ("seeded-difference", seeded),
        ("term-bump-difference", seeded),
        ("shifted-fib-transform", 13 * 61),
        ("column-minus-transformed-first-row", 9 * 21),
        ("fib-transform-closed-vs-operator", 13 * 61),
        ("weighted-family-decomposition", eq1_2),
        ("fib-binom-collapse", eq3_10),
        *((f"ratio-recurrence-p{p}q{q}", 18) for p in (1, 2, 3) for q in (1, 2, 3)),
        ("hockey-stick", sum(n + 1 for n in range(61))),
        ("fib-antidiagonal", 201),
        ("fib-binom-collapse", eq3_10),
        ("weighted-family-decomposition", eq1_2),
    ]


DEFAULT_REPORTS = _default_reports()

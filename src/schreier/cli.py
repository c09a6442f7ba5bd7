"""Command line interface: tables, enumerations, verification, sequences.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 request
exceeded a size cap (candidate sets for a brute-force route, bits of values
for a table or sequence) or ran out of memory.  A reader that closes stdout early (say,
``| head``) changes no exit code: the command stops writing, ``enumerate``
exits 0, and ``verify`` still exits 1 on a counterexample.

All output is deterministic: the same invocation produces byte-identical
stdout, with LF line endings, so table output can be diffed against golden
files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterator, Optional, Sequence

from .closed_forms import (
    closed_table,
    diagonal_count,
    family_k_count,
    recurrence_table,
)
from .core import fib
from .enumeration import (
    count_family_a_grid,
    require_bits_within_cap,
    require_within_cap,
    stream_family_a,
    stream_family_k,
    stream_ratio_family,
)
from .errors import DomainError, SizeLimitError
from .finite_sets import FiniteSet
from .verify import SUITE_ORDER, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3

_FORMATS = ("csv", "json", "text")
_CHUNK = 4096  # members rendered per write by enumerate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreier",
        description=(
            "Exact counting, enumeration, and verification for weighted "
            "Schreier-type set families."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser(
        "table",
        help="print the (k, n) count table",
        description=(
            "Print the family count table with rows k=1..k-max and columns "
            "n=1..n-max, from the closed form, the column recurrence, or the "
            "brute-force oracle."
        ),
    )
    table.add_argument("--k-max", type=int, required=True)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument(
        "--source", choices=("closed", "recurrence", "oracle"), default="closed"
    )
    table.add_argument("--format", choices=_FORMATS, default="text", dest="fmt")

    enum = sub.add_parser(
        "enumerate",
        help="list the members of a family",
        description=(
            "List every member of a family in canonical order: ascending "
            "cardinality, then lexicographic. Family A takes --k and --n; "
            "family K takes --n; family mpq takes --p, --q, and --n."
        ),
    )
    enum.add_argument("--family", choices=("A", "K", "mpq"), required=True)
    enum.add_argument("--k", type=int)
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--p", type=int)
    enum.add_argument("--q", type=int)
    enum.add_argument("--format", choices=_FORMATS, default="text", dest="fmt")

    verify = sub.add_parser(
        "verify",
        help="run a named verification suite",
        description=(
            "Run a verification suite and print one line per check plus a "
            "summary. Optional overrides replace the suite's default ranges."
        ),
    )
    verify.add_argument("--suite", choices=SUITE_ORDER + ("all",), required=True)
    verify.add_argument("--n-max", type=int)
    verify.add_argument("--k-max", type=int)
    verify.add_argument("--seed", type=int)

    seq = sub.add_parser(
        "sequence",
        help="emit a sequence, one value per line",
        description=(
            "Emit a named integer sequence in b-file style (index and value "
            "per line). a-diag starts at n=1, k-count at n=2, fib at n=0."
        ),
    )
    seq.add_argument("--name", choices=("a-diag", "k-count", "fib"), required=True)
    seq.add_argument("--n-max", type=int, required=True)
    seq.add_argument("--format", choices=_FORMATS, default="text", dest="fmt")

    return parser


# -- output -------------------------------------------------------------------


def _drop_stdout() -> None:
    """Point stdout's descriptor at devnull, so that nothing more written to
    it, the interpreter's final flush included, fails on a closed reader."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(text: str) -> None:
    """Write a command's whole output.  A reader that closed stdout early
    (say, `| head`) gets no more, and the command keeps its exit code."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()


# -- table -------------------------------------------------------------------


def _table_grid(k_max: int, n_max: int, source: str) -> list[list[int]]:
    if k_max < 1 or n_max < 1:
        raise DomainError(f"table: bounds must be >= 1, got k_max={k_max}, n_max={n_max}")
    if source == "closed":
        return closed_table(k_max, n_max)
    if source == "recurrence":
        return recurrence_table(k_max, n_max)
    # Counted as if each cell ran its own 2**n scan, k_max * (2**(n_max+1) - 2)
    # sets: an upper bound on the grid's one scan and its k_max passes.
    require_within_cap(
        (k_max << n for n in range(1, n_max + 1)),
        f"table: oracle grid of {k_max} x {n_max} scans",
    )
    return count_family_a_grid(k_max, n_max)


def _render_table(grid: list[list[int]], k_max: int, n_max: int, source: str, fmt: str) -> str:
    if fmt == "csv":
        lines = ["k\\n," + ",".join(str(n) for n in range(1, n_max + 1))]
        for k, row in enumerate(grid, start=1):
            lines.append(f"{k}," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {"k_max": k_max, "n_max": n_max, "source": source, "cells": grid}
        return json.dumps(payload, separators=(",", ":")) + "\n"
    # Row 0 is the header; column 0 holds k.
    cells = [["k\\n", *map(str, range(1, n_max + 1))]]
    cells += ([str(k), *map(str, row)] for k, row in enumerate(grid, start=1))
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "\n" for row in cells
    )


def _cmd_table(args: argparse.Namespace) -> int:
    grid = _table_grid(args.k_max, args.n_max, args.source)
    _emit(_render_table(grid, args.k_max, args.n_max, args.source, args.fmt))
    return EXIT_OK


# -- enumerate ----------------------------------------------------------------


def _enumerate_stream(args: argparse.Namespace) -> tuple[dict, int, Iterator[FiniteSet]]:
    if args.family == "A":
        if args.k is None:
            raise DomainError("enumerate: family A requires --k")
        if args.p is not None or args.q is not None:
            raise DomainError("enumerate: family A takes no --p/--q")
        return ({"family": "A", "k": args.k, "n": args.n}, *stream_family_a(args.k, args.n))
    if args.family == "K":
        if args.k is not None or args.p is not None or args.q is not None:
            raise DomainError("enumerate: family K takes only --n")
        return ({"family": "K", "n": args.n}, *stream_family_k(args.n))
    if args.p is None or args.q is None:
        raise DomainError("enumerate: family mpq requires --p and --q")
    if args.k is not None:
        raise DomainError("enumerate: family mpq takes no --k")
    return (
        {"family": "mpq", "p": args.p, "q": args.q, "n": args.n},
        *stream_ratio_family(args.p, args.q, args.n),
    )


_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _render_chunk(chunk: list[FiniteSet], fmt: str) -> str:
    """Render a nonempty chunk of members with one call of the C JSON
    encoder.  JSON items are the encoded lists; a text line (FiniteSet's
    canonical rendering) or a csv line is one encoded list with its brackets
    swapped for the line's own."""
    body = _encode_json([E.elements for E in chunk])  # "[[e1,e2],[e3]]"
    if fmt == "json":
        return body[1:-1]
    before, after = ("{", "}\n") if fmt == "text" else ("", "\n")
    return before + body[2:-2].replace("],[", after + before) + after


def _cmd_enumerate(args: argparse.Namespace) -> int:
    # Members are built, rendered and written one chunk at a time, so memory
    # stays at one chunk whatever the count; JSON writes its count up front.
    meta, count, members = _enumerate_stream(args)
    sep = "," if args.fmt == "json" else ""
    write = sys.stdout.write
    try:
        if args.fmt == "json":
            header = json.dumps({**meta, "count": count}, separators=(",", ":"))
            write(header[:-1] + ',"sets":[')
        lead = ""
        while chunk := list(itertools.islice(members, _CHUNK)):
            write(lead + _render_chunk(chunk, args.fmt))
            lead = sep
        if args.fmt == "json":
            write("]}\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`): not a failure.
        _drop_stdout()
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, n_max=args.n_max, k_max=args.k_max, seed=args.seed)
    passed = sum(1 for r in reports if r.passed)
    checks = sum(r.checks for r in reports)
    status = "OK" if passed == len(reports) else "FAILED"
    _emit(
        "".join(report.render() + "\n" for report in reports)
        + f"suite {args.suite}: {passed}/{len(reports)} checks passed "
        f"({checks} instances) {status}\n"
    )
    return EXIT_OK if passed == len(reports) else EXIT_VERIFY_FAILED


# -- sequence -----------------------------------------------------------------


def _sequence_values(name: str, n_max: int) -> tuple[int, list[int]]:
    # The term at index n is at most 2^n: a(n, n) <= 2^n, F(n) < 2^n.
    require_bits_within_cap(max(n_max, 0) * (n_max + 1) // 2, f"sequence {name}: n-max {n_max}")
    if name == "a-diag":
        if n_max < 1:
            raise DomainError(f"sequence a-diag: n-max must be >= 1, got {n_max}")
        return 1, [diagonal_count(n) for n in range(1, n_max + 1)]
    if name == "k-count":
        if n_max < 2:
            raise DomainError(f"sequence k-count: n-max must be >= 2, got {n_max}")
        return 2, [family_k_count(n) for n in range(2, n_max + 1)]
    if n_max < 0:
        raise DomainError(f"sequence fib: n-max must be >= 0, got {n_max}")
    return 0, [fib(n) for n in range(0, n_max + 1)]


def _cmd_sequence(args: argparse.Namespace) -> int:
    start, values = _sequence_values(args.name, args.n_max)
    if args.fmt == "text":
        out = "".join(f"{start + i} {v}\n" for i, v in enumerate(values))
    elif args.fmt == "csv":
        out = "n,value\n" + "".join(
            f"{start + i},{v}\n" for i, v in enumerate(values)
        )
    else:
        payload = {"name": args.name, "start": start, "values": values}
        out = json.dumps(payload, separators=(",", ":")) + "\n"
    _emit(out)
    return EXIT_OK


_COMMANDS = {
    "table": _cmd_table,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "sequence": _cmd_sequence,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizeLimitError as exc:
        print(f"schreier: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except MemoryError:
        print("schreier: out of memory", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except DomainError as exc:
        print(f"schreier: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

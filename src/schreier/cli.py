"""Command line interface: tables, enumerations, verification, sequences.

Each command maps its argument values to one library route, which checks
its own bounds and size cap, and returns its exit code with its output as
chunks of text.  ``main`` is the one writer: it writes the chunks as they
come, so ``enumerate``, whose chunks are rendered from the member stream one
at a time, and ``sequence``, whose terms are computed and rendered one chunk
each, stream, while ``table`` and ``verify`` are one chunk each.
``sequence`` walks the Fibonacci numbers by exact decimal addition, so its
terms are never converted from ints to text.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 request
exceeded a size cap (candidate sets for a brute-force route, bits of values
for a table or sequence) or ran out of memory, 4 internal error (any other
exception, reported as one ``schreier: internal error:`` line on stderr).
A reader that closes stdout early (say, ``| head``) changes no exit code:
``main`` stops writing, ``enumerate`` exits 0, and ``verify`` still exits 1
on a counterexample.  ``main`` lifts CPython's limit on converting long ints
to text while it runs, so a table cell of any length the cap admits prints.

All output is deterministic: the same invocation produces byte-identical
stdout, with LF line endings, so table output can be diffed against golden
files.

Each command loads only the modules it runs.  ``table``, ``enumerate`` and
``sequence`` read ``core``, ``closed_forms`` and ``enumeration``, and
``sequence`` also imports ``decimal`` on its first term; ``verify``
also reads the verify chain (``verify``, ``bijections``, ``finite_sets`` and
``partial_sums``), which ``run_suite`` imports on its first call, so the
other commands pay nothing for it at start-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .closed_forms import closed_table, recurrence_table
from .enumeration import (
    count_family_a_grid,
    require_bits_within_cap,
    stream_family_a,
    stream_family_k,
    stream_ratio_family,
)
from .errors import DomainError, SizeLimitError

if TYPE_CHECKING:
    from .verify import Report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4

_FORMATS = ("csv", "json", "text")
# verify.SUITE_ORDER and "all", spelled out so that building the parser does
# not import the verify chain; a test pins the two equal.
_SUITES = (
    "thm1_1", "thm1_2", "thm1_3", "thm1_4", "prop3_1", "rec3_1", "lemma3_3", "lemma3_4",
    "lemma3_5", "eq3_8", "eq3_9", "eq1_2", "eq3_10", "mpq", "identities", "all",
)
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
    verify.add_argument("--suite", choices=_SUITES, required=True)
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

# What a command returns: its exit code and its output, as chunks of text.
_Output = tuple[int, Iterable[str]]


def _drop_stdout() -> None:
    """Point stdout's descriptor at devnull, so that nothing more written to
    it, the interpreter's final flush included, fails on a closed reader."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


# -- table -------------------------------------------------------------------


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


def _cmd_table(args: argparse.Namespace) -> _Output:
    # Each route checks its own bounds and size cap.
    route = {
        "closed": closed_table,
        "recurrence": recurrence_table,
        "oracle": count_family_a_grid,
    }[args.source]
    grid = route(args.k_max, args.n_max)
    return EXIT_OK, [_render_table(grid, args.k_max, args.n_max, args.source, args.fmt)]


# -- enumerate ----------------------------------------------------------------


_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _render_chunk(chunk: list[tuple[int, ...]], fmt: str) -> str:
    """Render a nonempty chunk of members, given as element tuples, with one
    call of the C JSON encoder.  JSON items are the encoded lists; a text
    line (FiniteSet's canonical rendering) or a csv line is one encoded list
    with its brackets swapped for the line's own."""
    body = _encode_json(chunk)  # "[[e1,e2],[e3]]"
    if fmt == "json":
        return body[1:-1]
    before, after = ("{", "}\n") if fmt == "text" else ("", "\n")
    return before + body[2:-2].replace("],[", after + before) + after


def _enumerate_chunks(
    meta: dict, count: int, members: Iterator[tuple[int, ...]], fmt: str
) -> Iterator[str]:
    """Build and render the members one chunk at a time, so memory stays at
    one chunk whatever the count; JSON writes its count up front."""
    if fmt == "json":
        header = json.dumps({**meta, "count": count}, separators=(",", ":"))
        yield header[:-1] + ',"sets":['
    sep = "," if fmt == "json" else ""
    lead = ""
    while chunk := list(itertools.islice(members, _CHUNK)):
        yield lead + _render_chunk(chunk, fmt)
        lead = sep
    if fmt == "json":
        yield "]}\n"


def _cmd_enumerate(args: argparse.Namespace) -> _Output:
    # Each family's structured route yields element tuples, rendered as is.
    flags, stream = {
        "A": (("k",), stream_family_a),
        "K": ((), stream_family_k),
        "mpq": (("p", "q"), stream_ratio_family),
    }[args.family]
    for flag in ("k", "p", "q"):
        if (getattr(args, flag) is None) == (flag in flags):
            takes = ", ".join(f"--{f}" for f in (*flags, "n"))
            raise DomainError(f"enumerate: family {args.family} takes only {takes}")
    params = {f: getattr(args, f) for f in flags}
    count, members = stream(*params.values(), args.n)
    meta = {"family": args.family, **params, "n": args.n}
    return EXIT_OK, _enumerate_chunks(meta, count, members, args.fmt)


# -- verify -------------------------------------------------------------------


def run_suite(
    name: str,
    n_max: Optional[int] = None,
    k_max: Optional[int] = None,
    seed: Optional[int] = None,
) -> list[Report]:
    """``verify.run_suite``, whose module, with the bijections, finite sets
    and partial sums it reads, is imported on the first call."""
    from .verify import run_suite

    return run_suite(name, n_max=n_max, k_max=k_max, seed=seed)


def _cmd_verify(args: argparse.Namespace) -> _Output:
    reports = run_suite(args.suite, n_max=args.n_max, k_max=args.k_max, seed=args.seed)
    passed = sum(1 for r in reports if r.passed)
    checks = sum(r.checks for r in reports)
    status = "OK" if passed == len(reports) else "FAILED"
    out = "".join(report.render() + "\n" for report in reports) + (
        f"suite {args.suite}: {passed}/{len(reports)} checks passed "
        f"({checks} instances) {status}\n"
    )
    return (EXIT_OK if passed == len(reports) else EXIT_VERIFY_FAILED), [out]


# -- sequence -----------------------------------------------------------------


# name: (start, shift, mult), its term at each index n >= start being
# mult * F(n - shift): a(n, n) = 2F(n), K(n) = F(n - 1), F(n).
_SEQUENCES = {"a-diag": (1, 0, 2), "k-count": (2, 1, 1), "fib": (0, 0, 1)}


def _cmd_sequence(args: argparse.Namespace) -> _Output:
    start = _SEQUENCES[args.name][0]
    if args.n_max < start:
        raise DomainError(f"sequence {args.name}: n-max must be >= {start}, got {args.n_max}")
    # The term at index n is at most 2^n: a(n, n) <= 2^n, F(n) < 2^n.
    require_bits_within_cap(
        args.n_max * (args.n_max + 1) // 2, f"sequence {args.name}: n-max {args.n_max}"
    )
    return EXIT_OK, _sequence_chunks(args.name, args.n_max, args.fmt)


def _sequence_chunks(name: str, n_max: int, fmt: str) -> Iterator[str]:
    """Render the terms one chunk each, the first with the header and the
    last with the trailer.  The Fibonacci numbers are walked by exact
    decimal addition, whose str() is linear in the digits, where an int's is
    quadratic and refused past a digit limit; a digit lost to the context
    would raise, so none is ever printed."""
    import decimal

    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
    )
    start, shift, mult = _SEQUENCES[name]
    header = _encode_json({"name": name, "start": start, "values": []})[:-2]  # ...,"values":[
    lead, sep, line, tail = {
        "text": ("", "", "{} {}\n", ""),
        "csv": ("n,value\n", "", "{},{}\n", ""),
        "json": (header, ",", "{1}", "]}\n"),
    }[fmt]
    f, g = decimal.Decimal(0), decimal.Decimal(1)  # F(i), F(i + 1)
    for _ in range(start - shift):
        f, g = g, ctx.add(f, g)
    for n in range(start, n_max + 1):
        term = str(ctx.multiply(f, mult))
        yield lead + line.format(n, term) + (tail if n == n_max else "")
        lead = sep
        f, g = g, ctx.add(f, g)


_COMMANDS = {
    "table": _cmd_table,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "sequence": _cmd_sequence,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # CPython 3.11+ refuses str() of an int past 4,300 digits, which a table
    # cell can reach below the size cap; the caller's limit comes back after.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code, chunks = _COMMANDS[args.command](args)
        for chunk in chunks:
            sys.stdout.write(chunk)
            del chunk  # so a streamed command holds one chunk at a time
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`): it gets no more,
        # and the command keeps its exit code.
        _drop_stdout()
    except SizeLimitError as exc:
        print(f"schreier: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except MemoryError:
        print("schreier: out of memory", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except DomainError as exc:
        print(f"schreier: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A bug, not an answer: exit 1 would claim a counterexample.
        reason = str(exc).partition("\n")[0]
        print(f"schreier: internal error: {type(exc).__name__}: {reason}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
